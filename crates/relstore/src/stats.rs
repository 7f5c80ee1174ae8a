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

use std::collections::{BTreeMap, BTreeSet, HashMap};

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
    let counts: Vec<u64> = ref_counts.values().copied().collect();
    let nmi = normalized_entropy_of_counts(counts, pairs, referenced_rows);
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
/// information under a uniform distribution over join tuples. The NMI core
/// shared by [`join_stats`] and [`JoinStatsAccumulator`]: both hand it the
/// same multiset of per-key counts, so partitioned builds are bit-identical
/// to whole-table ones.
fn normalized_entropy_of_counts(mut counts: Vec<u64>, pairs: u64, referenced_rows: u64) -> f64 {
    if pairs == 0 || referenced_rows <= 1 {
        return 0.0;
    }
    let n = pairs as f64;
    // Canonical (sorted) summation order: entropy depends only on the
    // multiset of counts, and hash-order summation would make the NMI — and
    // everything downstream of the edge weights — vary between builds by
    // floating-point ulps.
    counts.sort_unstable();
    let mut h = 0.0;
    for &c in &counts {
        let p = c as f64 / n;
        h -= p * p.ln();
    }
    let hmax = (referenced_rows as f64).ln();
    if hmax <= 0.0 {
        0.0
    } else {
        (h / hmax).clamp(0.0, 1.0)
    }
}

/// Mergeable partial of [`join_stats`] over disjoint row partitions of
/// *both* sides of a foreign key.
///
/// The whole-table computation filters referencing values through the
/// referenced table's PK index, but a partition cannot: the matching PK may
/// live elsewhere. So the accumulator keeps the *unfiltered* non-null value
/// counts plus the set of live referenced PK values, and performs the
/// filter once at [`JoinStatsAccumulator::finish`] — integer state merges
/// exactly, and the NMI is evaluated once from the merged counts through
/// the same canonical-order entropy the whole-table path uses.
#[derive(Debug, Clone, Default)]
pub struct JoinStatsAccumulator {
    /// Non-null referencing value → count, unfiltered.
    ref_counts: BTreeMap<Value, u64>,
    /// Live PK values of the referenced table.
    pk_values: BTreeSet<Value>,
    referencing_rows: u64,
    referenced_rows: u64,
}

impl JoinStatsAccumulator {
    /// Empty accumulator.
    pub fn new() -> JoinStatsAccumulator {
        JoinStatsAccumulator::default()
    }

    /// Fold one partition of the *referencing* table.
    pub fn absorb_referencing(&mut self, catalog: &Catalog, fk: ForeignKey, data: &TableData) {
        let from_attr = catalog.attribute(fk.from);
        self.referencing_rows += data.len() as u64;
        for (_, row) in data.iter() {
            let v = row.get(from_attr.position);
            if !v.is_null() {
                *self.ref_counts.entry(v.clone()).or_insert(0) += 1;
            }
        }
    }

    /// Fold one partition of the *referenced* table.
    pub fn absorb_referenced(&mut self, catalog: &Catalog, fk: ForeignKey, data: &TableData) {
        let to_attr = catalog.attribute(fk.to);
        self.referenced_rows += data.len() as u64;
        for (_, row) in data.iter() {
            self.pk_values.insert(row.get(to_attr.position).clone());
        }
    }

    /// The merged statistics — bit-identical to [`join_stats`] over the
    /// union of the absorbed partitions.
    pub fn finish(self) -> JoinStats {
        let mut pairs = 0u64;
        let mut referenced_distinct = 0u64;
        let mut counts = Vec::new();
        for (v, c) in &self.ref_counts {
            if self.pk_values.contains(v) {
                pairs += c;
                referenced_distinct += 1;
                counts.push(*c);
            }
        }
        let nmi = normalized_entropy_of_counts(counts, pairs, self.referenced_rows);
        JoinStats {
            pairs,
            referenced_distinct,
            referencing_rows: self.referencing_rows,
            referenced_rows: self.referenced_rows,
            nmi,
        }
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

    #[test]
    fn join_accumulator_matches_whole_bitwise() {
        let (c, a, b, fk) = fixture();
        let as_ = c.table(c.table_id("a").unwrap()).clone();
        let bs = c.table(c.table_id("b").unwrap()).clone();
        let whole = join_stats(&c, fk, &a, &b);
        for n in [1usize, 2, 3] {
            let mut acc = JoinStatsAccumulator::new();
            for part in &split(&c, &as_, &a, n) {
                acc.absorb_referencing(&c, fk, part);
            }
            for part in &split(&c, &bs, &b, n) {
                acc.absorb_referenced(&c, fk, part);
            }
            let merged = acc.finish();
            assert_eq!(merged.pairs, whole.pairs);
            assert_eq!(merged.referenced_distinct, whole.referenced_distinct);
            assert_eq!(merged.referencing_rows, whole.referencing_rows);
            assert_eq!(merged.referenced_rows, whole.referenced_rows);
            assert_eq!(
                merged.nmi.to_bits(),
                whole.nmi.to_bits(),
                "nmi bits, {n} partitions"
            );
        }
    }

    #[test]
    fn join_accumulator_filters_dangling_references_at_finish() {
        // A referencing value whose PK lives in no absorbed partition must
        // not count as a pair — the filter the whole-table path applies
        // per-row happens at finish() here.
        let (c, _, b, fk) = fixture();
        let as_ = c.table(c.table_id("a").unwrap()).clone();
        let mut a = TableData::new();
        a.insert(&c, &as_, Row::new(vec![0.into(), Value::Int(99)]))
            .unwrap();
        a.insert(&c, &as_, Row::new(vec![1.into(), Value::Int(0)]))
            .unwrap();
        let mut acc = JoinStatsAccumulator::new();
        acc.absorb_referencing(&c, fk, &a);
        acc.absorb_referenced(&c, fk, &b);
        let js = acc.finish();
        assert_eq!(js.pairs, 1, "dangling 99 filtered");
        assert_eq!(js.referenced_distinct, 1);
        let whole = join_stats(&c, fk, &a, &b);
        assert_eq!(js.nmi.to_bits(), whole.nmi.to_bits());
    }
}
