//! Instance statistics: the per-foreign-key join statistics, whose
//! mutual-information measure the backward module uses to weight
//! schema-graph edges. Nothing else about the instance is summarized —
//! the forward module reads the full-text indexes directly.
//!
//! Following the paper (§3, backward module) and its citation of Yang et
//! al.'s summary graphs, each PK–FK edge is scored by the mutual information
//! carried by the join. For a foreign key `A.fk → B.pk` the join result
//! pairs each `A` row with at most one `B` row, so the mutual information of
//! the join-tuple distribution reduces to the entropy of the referenced-key
//! distribution. Normalizing by `ln |B|` yields an *informativeness* in
//! [0, 1]: 1 when the join evenly covers the referenced table, 0 when the
//! join is empty. Edges of uninformative (likely-empty) joins receive larger
//! distances, steering Steiner trees toward join paths that actually contain
//! tuples.
//!
//! ## Two ways to the same bits
//!
//! [`join_stats`] rescans both tables: O(referencing rows) per call. A
//! [`JoinCounts`] is the same statistic kept *live* — updated by ±1 per
//! mutated record and read in O(distinct counts + referenced keys) — for
//! stores whose commits must cost what they touch. Its invariants, after
//! every completed mutation:
//!
//! * each referenced row slot (`(partition, slot)`; an unpartitioned table
//!   is partition 0) holds the number of live referencing rows whose
//!   non-null value is that row's key;
//! * a referencing value with no live target is counted in a side map
//!   keyed by the value — empty for any store whose foreign keys validate —
//!   and moves onto a slot when a row with that key appears (and back when
//!   it leaves);
//! * `pairs` is the sum of the slot counts, and a count → multiplicity
//!   histogram tallies the nonzero slots.
//!
//! The histogram's ascending counts, each repeated by its multiplicity, are
//! exactly the sorted per-key counts [`join_stats`] feeds the entropy, and
//! both go through one entropy function — so the NMI is bit-identical.

use std::collections::{BTreeMap, HashMap};

use crate::row::RowId;
use crate::schema::{Catalog, ForeignKey};
use crate::table::TableData;
use crate::value::Value;

/// Statistics of one foreign-key join.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JoinStats {
    /// Number of matching (referencing, referenced) pairs.
    pub pairs: u64,
    /// Distinct referenced primary keys actually referenced.
    pub referenced_distinct: u64,
    /// Rows in the referencing table.
    pub referencing_rows: u64,
    /// Rows in the referenced table.
    pub referenced_rows: u64,
    /// Normalized mutual information of the join in [0, 1].
    pub nmi: f64,
}

impl JoinStats {
    /// Whether the join produces any tuples at all.
    pub fn is_empty_join(&self) -> bool {
        self.pairs == 0
    }
}

/// Compute join statistics for a foreign key given both tables' data.
pub fn join_stats(
    catalog: &Catalog,
    fk: ForeignKey,
    referencing: &TableData,
    referenced: &TableData,
) -> JoinStats {
    let from_attr = catalog.attribute(fk.from);

    // Count how many referencing rows point at each referenced key.
    let mut ref_counts: HashMap<Value, u64> = HashMap::new();
    let mut pairs = 0u64;
    for (_, row) in referencing.iter() {
        let v = row.get(from_attr.position);
        if v.is_null() {
            continue;
        }
        // The referenced side is a primary key, so matching is a PK lookup.
        if referenced.lookup_pk(std::slice::from_ref(v)).is_some() {
            pairs += 1;
            *ref_counts.entry(v.clone()).or_insert(0) += 1;
        }
    }

    let referenced_rows = referenced.len() as u64;
    let mut counts: Vec<u64> = ref_counts.values().copied().collect();
    // Canonical (sorted) summation order: entropy depends only on the
    // multiset of counts, and hash-order summation would make the NMI — and
    // everything downstream of the edge weights — vary between builds by
    // floating-point ulps.
    counts.sort_unstable();
    let nmi = normalized_entropy_of_counts(counts.iter().map(|&c| (c, 1)), pairs, referenced_rows);
    JoinStats {
        pairs,
        referenced_distinct: ref_counts.len() as u64,
        referencing_rows: referencing.len() as u64,
        referenced_rows,
        nmi,
    }
}

/// Entropy of the referenced-key distribution normalized by `ln(referenced
/// table size)` — see the module docs for why this equals the join's mutual
/// information under a uniform distribution over join tuples.
///
/// `ascending` is the multiset of per-key counts in ascending order,
/// run-length encoded as `(count, multiplicity)`. The NMI core shared by
/// [`join_stats`] (its sorted counts, each a run of one) and
/// [`JoinCounts::stats`] (its histogram): a run subtracts the same term once
/// per key, in the same order the expanded sequence would, so both paths
/// produce the same bits.
fn normalized_entropy_of_counts(
    ascending: impl IntoIterator<Item = (u64, u64)>,
    pairs: u64,
    referenced_rows: u64,
) -> f64 {
    if pairs == 0 || referenced_rows <= 1 {
        return 0.0;
    }
    let n = pairs as f64;
    let mut h = 0.0;
    for (c, multiplicity) in ascending {
        let p = c as f64 / n;
        let term = p * p.ln();
        for _ in 0..multiplicity {
            h -= term;
        }
    }
    let hmax = (referenced_rows as f64).ln();
    if hmax <= 0.0 {
        0.0
    } else {
        (h / hmax).clamp(0.0, 1.0)
    }
}

/// A referenced row's place: `(partition, slot)`. An unpartitioned table is
/// partition 0; a sharded one uses the shard index.
pub type Target = (usize, RowId);

/// Live reference counts of one foreign key, from which [`join_stats`]'s
/// result is derived without a rescan (invariants in the module docs).
///
/// The owner resolves each referencing value to the [`Target`] holding that
/// key (`None` when no live row does) and reports every change: a
/// referencing row's value arriving or leaving
/// ([`JoinCounts::add_reference`] / [`JoinCounts::remove_reference`]) and a
/// referenced row arriving or leaving ([`JoinCounts::add_target`] /
/// [`JoinCounts::remove_target`]). After a mutation is stored, report the
/// target changes first and then the reference changes, resolving both
/// against the *new* state; that order is correct for self-referencing keys
/// too, because a reference to a row that just left resolves to `None` and
/// finds its count in the side map the departing row handed it to.
#[derive(Debug, Default)]
pub struct JoinCounts {
    /// `slots[partition][slot]`: live referencing rows carrying that
    /// referenced row's key. Grown on demand; absent slots count 0.
    slots: Vec<Vec<u32>>,
    /// Referencing value → live rows carrying it, for values no live
    /// referenced row holds.
    dangling: HashMap<Value, u64>,
    /// Nonzero slot count → number of slots holding it.
    histogram: BTreeMap<u32, u64>,
    /// Sum of the slot counts: the join's matching pairs.
    pairs: u64,
}

impl JoinCounts {
    /// Counts built from every live reference at once: each non-null
    /// referencing value with the target it resolves to.
    pub fn build<'a>(references: impl IntoIterator<Item = (&'a Value, Option<Target>)>) -> Self {
        let mut counts = JoinCounts::default();
        for (value, target) in references {
            match target {
                Some(at) => *counts.slot_mut(at) += 1,
                None => counts.dangle(value, 1),
            }
        }
        for &c in counts.slots.iter().flatten().filter(|c| **c > 0) {
            *counts.histogram.entry(c).or_insert(0) += 1;
            counts.pairs += u64::from(c);
        }
        counts
    }

    /// Live referencing rows carrying the key of the row at `at`.
    pub fn count(&self, at: Target) -> u32 {
        self.slots
            .get(at.0)
            .and_then(|p| p.get(at.1 .0 as usize))
            .copied()
            .unwrap_or(0)
    }

    /// One more live referencing row carries `value`, which resolves to
    /// `target`.
    pub fn add_reference(&mut self, value: &Value, target: Option<Target>) {
        match target {
            Some(at) => {
                let c = self.count(at);
                self.set(at, c + 1);
            }
            None => self.dangle(value, 1),
        }
    }

    /// One live referencing row carrying `value`, which resolves to
    /// `target`, is gone.
    pub fn remove_reference(&mut self, value: &Value, target: Option<Target>) {
        match target {
            Some(at) => {
                let c = self.count(at);
                self.set(at, c.checked_sub(1).expect("reference counted"));
            }
            None => {
                let c = self
                    .dangling
                    .get_mut(value)
                    .expect("dangling value counted");
                *c -= 1;
                if *c == 0 {
                    self.dangling.remove(value);
                }
            }
        }
    }

    /// A referenced row keyed `key` now lives at `at` (a fresh slot): it
    /// adopts the references that were dangling on its key.
    pub fn add_target(&mut self, at: Target, key: &Value) {
        if let Some(adopted) = self.dangling.remove(key) {
            let c = u64::from(self.count(at)) + adopted;
            self.set(at, u32::try_from(c).expect("count fits a slot"));
        }
    }

    /// The referenced row keyed `key` left `at`: its references dangle on
    /// the key until a row holding it appears again.
    pub fn remove_target(&mut self, at: Target, key: &Value) {
        let c = self.count(at);
        if c > 0 {
            self.set(at, 0);
            self.dangle(key, u64::from(c));
        }
    }

    /// The join statistics of the counted state, given both tables' live
    /// row counts — bit-identical to [`join_stats`] over the same rows.
    pub fn stats(&self, referencing_rows: u64, referenced_rows: u64) -> JoinStats {
        let runs = self.histogram.iter().map(|(&c, &m)| (u64::from(c), m));
        JoinStats {
            pairs: self.pairs,
            referenced_distinct: self.histogram.values().sum(),
            referencing_rows,
            referenced_rows,
            nmi: normalized_entropy_of_counts(runs, self.pairs, referenced_rows),
        }
    }

    /// Count `n` more live references to `value`, which no live row holds.
    fn dangle(&mut self, value: &Value, n: u64) {
        *self.dangling.entry(value.clone()).or_insert(0) += n;
    }

    fn slot_mut(&mut self, (partition, slot): Target) -> &mut u32 {
        if self.slots.len() <= partition {
            self.slots.resize_with(partition + 1, Vec::new);
        }
        let counts = &mut self.slots[partition];
        let slot = slot.0 as usize;
        if counts.len() <= slot {
            counts.resize(slot + 1, 0);
        }
        &mut counts[slot]
    }

    /// Move the slot at `at` to count `to`, keeping the histogram and the
    /// pair total in step.
    fn set(&mut self, at: Target, to: u32) {
        let slot = self.slot_mut(at);
        let from = std::mem::replace(slot, to);
        if from > 0 {
            let m = self
                .histogram
                .get_mut(&from)
                .expect("histogram tallies every slot");
            *m -= 1;
            if *m == 0 {
                self.histogram.remove(&from);
            }
        }
        if to > 0 {
            *self.histogram.entry(to).or_insert(0) += 1;
        }
        self.pairs = self.pairs - u64::from(from) + u64::from(to);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row::Row;
    use crate::types::DataType;

    fn fixture() -> (Catalog, TableData, TableData, ForeignKey) {
        let mut c = Catalog::new();
        c.define_table("b")
            .unwrap()
            .pk("id", DataType::Int)
            .unwrap()
            .finish();
        c.define_table("a")
            .unwrap()
            .pk("id", DataType::Int)
            .unwrap()
            .col_opts("b_id", DataType::Int, true, false)
            .unwrap()
            .finish();
        c.add_foreign_key("a", "b_id", "b").unwrap();
        let fk = c.foreign_keys()[0];
        let bs = c.table(c.table_id("b").unwrap()).clone();
        let as_ = c.table(c.table_id("a").unwrap()).clone();
        let mut b = TableData::new();
        for i in 0..4 {
            b.insert(&c, &bs, Row::new(vec![i.into()])).unwrap();
        }
        let mut a = TableData::new();
        for (i, target) in [
            (0, Some(0)),
            (1, Some(1)),
            (2, Some(2)),
            (3, Some(3)),
            (4, None),
        ] {
            let v = target.map(|t: i64| Value::Int(t)).unwrap_or(Value::Null);
            a.insert(&c, &as_, Row::new(vec![(i as i64).into(), v]))
                .unwrap();
        }
        (c, a, b, fk)
    }

    #[test]
    fn even_join_has_high_nmi() {
        let (c, a, b, fk) = fixture();
        let js = join_stats(&c, fk, &a, &b);
        assert_eq!(js.pairs, 4);
        assert_eq!(js.referenced_distinct, 4);
        // Even coverage of all 4 referenced rows => NMI = 1.
        assert!((js.nmi - 1.0).abs() < 1e-9, "nmi={}", js.nmi);
    }

    #[test]
    fn empty_join_has_zero_nmi() {
        let mut c = Catalog::new();
        c.define_table("b")
            .unwrap()
            .pk("id", DataType::Int)
            .unwrap()
            .finish();
        c.define_table("a")
            .unwrap()
            .pk("id", DataType::Int)
            .unwrap()
            .col_opts("b_id", DataType::Int, true, false)
            .unwrap()
            .finish();
        c.add_foreign_key("a", "b_id", "b").unwrap();
        let fk = c.foreign_keys()[0];
        let bs = c.table(c.table_id("b").unwrap()).clone();
        let as_ = c.table(c.table_id("a").unwrap()).clone();
        let mut b = TableData::new();
        b.insert(&c, &bs, Row::new(vec![1.into()])).unwrap();
        let mut a = TableData::new();
        // All fk values NULL: join empty.
        a.insert(&c, &as_, Row::new(vec![1.into(), Value::Null]))
            .unwrap();
        let js = join_stats(&c, fk, &a, &b);
        assert!(js.is_empty_join());
        assert_eq!(js.nmi, 0.0);
    }

    #[test]
    fn skewed_join_has_lower_nmi_than_even() {
        let (c, _, b, fk) = fixture();
        let as_ = c.table(c.table_id("a").unwrap()).clone();
        // All rows reference key 0: maximal skew.
        let mut a = TableData::new();
        for i in 0..4i64 {
            a.insert(&c, &as_, Row::new(vec![i.into(), 0.into()]))
                .unwrap();
        }
        let js = join_stats(&c, fk, &a, &b);
        assert_eq!(js.pairs, 4);
        assert_eq!(js.referenced_distinct, 1);
        assert_eq!(js.nmi, 0.0); // single referenced key => zero entropy
    }

    /// Split a table's rows round-robin into `n` partitions.
    fn split(
        c: &Catalog,
        schema: &crate::schema::TableSchema,
        data: &TableData,
        n: usize,
    ) -> Vec<TableData> {
        let mut parts: Vec<TableData> = (0..n).map(|_| TableData::new()).collect();
        for (i, (_, row)) in data.iter().enumerate() {
            parts[i % n]
                .insert(c, schema, Row::new(row.values().to_vec()))
                .unwrap();
        }
        parts
    }

    /// The partition and slot holding key `v`, if any.
    fn resolve(parts: &[TableData], v: &Value) -> Option<Target> {
        parts
            .iter()
            .enumerate()
            .find_map(|(p, part)| part.lookup_pk(std::slice::from_ref(v)).map(|rid| (p, rid)))
    }

    /// Every field equal, the NMI bit for bit.
    fn assert_bitwise(got: &JoinStats, want: &JoinStats, what: &str) {
        assert_eq!(got, want, "{what}");
        assert_eq!(got.nmi.to_bits(), want.nmi.to_bits(), "nmi bits, {what}");
    }

    #[test]
    fn join_counts_match_whole_bitwise() {
        let (c, _, mut b, fk) = fixture();
        let as_ = c.table(c.table_id("a").unwrap()).clone();
        let bs = c.table(c.table_id("b").unwrap()).clone();
        for key in 4..60i64 {
            b.insert(&c, &bs, Row::new(vec![key.into()])).unwrap();
        }
        // Skewed on purpose: key `j` is referenced `1 + j % 4` times, so
        // every histogram run is long — where subtracting a run's term once
        // per key (not once scaled by the run length) is what keeps the bits.
        let mut a = TableData::new();
        let targets = (0..60i64).flat_map(|j| std::iter::repeat_n(j, 1 + j as usize % 4));
        for (i, target) in targets.enumerate() {
            a.insert(&c, &as_, Row::new(vec![(i as i64).into(), target.into()]))
                .unwrap();
        }
        a.insert(&c, &as_, Row::new(vec![(-1).into(), Value::Null]))
            .unwrap();
        let whole = join_stats(&c, fk, &a, &b);
        for n in [1usize, 2, 3] {
            let parts = split(&c, &bs, &b, n);
            let refs: Vec<&Value> = a.iter().map(|(_, r)| r.get(1)).collect();
            let built = JoinCounts::build(
                refs.iter()
                    .filter(|v| !v.is_null())
                    .map(|v| (*v, resolve(&parts, v))),
            );
            let rows = (a.len() as u64, b.len() as u64);
            assert_bitwise(&built.stats(rows.0, rows.1), &whole, "built");
            // The same state reached one reference at a time, in reverse.
            let mut live = JoinCounts::default();
            for v in refs.iter().rev().filter(|v| !v.is_null()) {
                live.add_reference(v, resolve(&parts, v));
            }
            assert_bitwise(&live.stats(rows.0, rows.1), &whole, "live");
            // And a removal is undone by the matching add.
            let v = &Value::Int(3);
            live.remove_reference(v, resolve(&parts, v));
            assert_eq!(live.count(resolve(&parts, v).unwrap()), 3);
            live.add_reference(v, resolve(&parts, v));
            assert_bitwise(&live.stats(rows.0, rows.1), &whole, "round trip");
        }
    }

    #[test]
    fn join_counts_adopt_and_hand_back_dangling_references() {
        // A referencing value whose key no live row holds is no pair; when a
        // row with that key appears it adopts the count, and when it leaves
        // the count dangles again — each state equal to the rescan.
        let (c, _, mut b, fk) = fixture();
        let as_ = c.table(c.table_id("a").unwrap()).clone();
        let bs = c.table(c.table_id("b").unwrap()).clone();
        let mut a = TableData::new();
        for (i, target) in [(0i64, 99i64), (1, 0), (2, 99)] {
            a.insert(&c, &as_, Row::new(vec![i.into(), target.into()]))
                .unwrap();
        }
        let resolve_in = |b: &TableData, v: &Value| resolve(std::slice::from_ref(b), v);
        let mut counts =
            JoinCounts::build(a.iter().map(|(_, r)| (r.get(1), resolve_in(&b, r.get(1)))));
        let check = |counts: &JoinCounts, b: &TableData, what: &str| {
            let got = counts.stats(a.len() as u64, b.len() as u64);
            assert_bitwise(&got, &join_stats(&c, fk, &a, b), what);
            got
        };
        assert_eq!(check(&counts, &b, "dangling 99").pairs, 1);
        let key = Value::Int(99);
        let rid = b.insert(&c, &bs, Row::new(vec![key.clone()])).unwrap();
        counts.add_target((0, rid), &key);
        assert_eq!(counts.count((0, rid)), 2);
        assert_eq!(check(&counts, &b, "99 adopted").pairs, 3);
        b.delete(&c, &bs, rid).unwrap();
        counts.remove_target((0, rid), &key);
        assert_eq!(counts.count((0, rid)), 0);
        assert_eq!(check(&counts, &b, "99 handed back").pairs, 1);
        // A dangling reference leaves through the side map.
        counts.remove_reference(&key, None);
        counts.remove_reference(&key, None);
        assert!(counts.dangling.is_empty());
    }
}
