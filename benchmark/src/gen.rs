//! Seeded input generation: the benchmark's own PRNG, a Zipf sampler, the
//! keyword-query streams, and the commit batches.
//!
//! Everything the product receives is made here from `--seed`; the product's
//! own `rand` shim is never used, so a change to it cannot move the inputs.

use std::collections::HashSet;

use quest::data::corpus::{FIRST_NAMES, GENRES, LAST_NAMES, TITLE_WORDS};
use quest::prelude::{ChangeRecord, KeywordQuery, Value};

/// Schema terms mixed into the query vocabulary (metadata keywords).
pub const SCHEMA_TERMS: &[&str] = &[
    "movie", "director", "actor", "genre", "year", "title", "company", "rating",
];

/// First id used for rows the benchmark commits; far above anything the
/// data generator assigns at the largest scale.
const COMMIT_ID_BASE: i64 = 1_000_000_000;

/// splitmix64: tiny, seedable, and good enough for workload shaping.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent generator for one named purpose, so that adding a
    /// consumer never shifts the stream another consumer sees.
    pub fn fork(seed: u64, purpose: &str) -> Rng {
        let mut h = seed ^ 0x9e37_79b9_7f4a_7c15;
        for b in purpose.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        let mut rng = Rng(h);
        rng.next_u64();
        rng
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// One element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

/// Zipf(s) over ranks `0..n`: rank `r` is drawn with probability
/// proportional to `1 / (r + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Precompute the cumulative distribution for `n` ranks.
    pub fn new(n: usize, s: f64) -> Zipf {
        let weights: Vec<f64> = (1..=n).map(|r| (r as f64).powf(-s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    /// Cumulative probability of ranks `0..=rank`.
    pub fn cdf(&self, rank: usize) -> f64 {
        self.cdf[rank]
    }

    /// Draw one rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Kinds of vocabulary word: a last name, a first name, a title word, a
/// genre, a schema term, a year in 1920–2024.
const WORD_KINDS: usize = 6;

/// One random vocabulary word of the given kind, lowercased.
fn word(rng: &mut Rng, kind: usize) -> String {
    match kind % WORD_KINDS {
        0 => rng.pick(LAST_NAMES).to_lowercase(),
        1 => rng.pick(FIRST_NAMES).to_lowercase(),
        2 => rng.pick(TITLE_WORDS).to_lowercase(),
        3 => rng.pick(GENRES).to_lowercase(),
        4 => (*rng.pick(SCHEMA_TERMS)).to_string(),
        _ => (1920 + rng.below(105)).to_string(),
    }
}

/// Replace two random characters of `word` by random lowercase letters:
/// the result almost never occurs in the database or in any cache.
fn mutate(word: &str, rng: &mut Rng) -> String {
    let mut chars: Vec<char> = word.chars().collect();
    for _ in 0..2 {
        let at = rng.below(chars.len());
        chars[at] = (b'a' + rng.below(26) as u8) as char;
    }
    chars.into_iter().collect()
}

/// Whether the product's parser keeps every one of the `n` keywords: a word
/// mutated into a stopword would otherwise shorten (or empty) the query and
/// turn a generated input into a failed operation.
fn parses_to(raw: &str, n: usize) -> bool {
    KeywordQuery::parse(raw).is_ok_and(|q| q.len() == n)
}

/// One query with a keyword of each of the given kinds; each keyword is
/// mutated with probability `mutate_share`.
fn query(rng: &mut Rng, kinds: &[usize], mutate_share: f64) -> String {
    loop {
        let words: Vec<String> = kinds
            .iter()
            .map(|&kind| {
                let w = word(rng, kind);
                if rng.unit() < mutate_share {
                    mutate(&w, rng)
                } else {
                    w
                }
            })
            .collect();
        let raw = words.join(" ");
        if parses_to(&raw, kinds.len()) {
            return raw;
        }
    }
}

/// `n` distinct unmutated queries: the hot working set.
///
/// The pool is stratified: query `i` has `1 + i % 3` keywords and the kinds
/// of word cycle, so every seed's pool has the same shares of short and long
/// queries and of names, titles, genres, schema terms and years — only the
/// words differ. A read's cost depends on its shape far more than on its
/// words, so results from different seeds are comparable.
pub fn query_pool(seed: u64, n: usize) -> Vec<String> {
    let mut rng = Rng::fork(seed, "pool");
    let mut seen = HashSet::new();
    let mut pool = Vec::with_capacity(n);
    let mut next_kind = 0;
    while pool.len() < n {
        let kinds: Vec<usize> = (0..1 + pool.len() % 3).map(|k| next_kind + k).collect();
        // A duplicate is drawn again with the same shape. Seven tries find
        // a free combination of words for every shape but the rarest
        // (one-keyword genres and schema terms run out); then the shape
        // moves on by one kind.
        let fresh = (0..7)
            .map(|_| query(&mut rng, &kinds, 0.0))
            .find(|q| !seen.contains(q));
        next_kind += if fresh.is_some() { kinds.len() } else { 1 };
        if let Some(q) = fresh {
            seen.insert(q.clone());
            pool.push(q);
        }
    }
    pool
}

/// Endless stream of queries, each keyword mutated with probability ½: far
/// more distinct keywords than any cache in the program holds.
#[derive(Debug, Clone)]
pub struct TailStream {
    rng: Rng,
}

impl TailStream {
    /// The tail stream of `seed`; `purpose` separates the streams of
    /// different phases.
    pub fn new(seed: u64, purpose: &str) -> TailStream {
        TailStream {
            rng: Rng::fork(seed, purpose),
        }
    }
}

impl Iterator for TailStream {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        let kinds: Vec<usize> = (0..1 + self.rng.below(3))
            .map(|_| self.rng.below(WORD_KINDS))
            .collect();
        Some(query(&mut self.rng, &kinds, 0.5))
    }
}

/// Draws between two shifts of the popularity ranking of a [`HotStream`].
const DRAWS_PER_SHIFT: usize = 128;

/// Endless Zipf(1.0) stream of indexes into a pool of `n` queries.
///
/// Which entry holds which popularity rank shifts by one every
/// [`DRAWS_PER_SHIFT`] draws. At any moment the stream is as skewed as
/// Zipf(1.0) — the hottest entry gets about 15% of the draws — but over a
/// run every entry takes its turn at the top, so a result does not hinge on
/// which handful of queries a seed happened to rank first.
#[derive(Debug, Clone)]
pub struct HotStream {
    rng: Rng,
    zipf: Zipf,
    draws: usize,
}

impl HotStream {
    /// The hot stream of `seed` over `n` pool entries; `purpose` separates
    /// the streams of different phases and threads.
    pub fn new(seed: u64, purpose: &str, n: usize) -> HotStream {
        HotStream {
            rng: Rng::fork(seed, purpose),
            zipf: Zipf::new(n, 1.0),
            draws: 0,
        }
    }
}

impl Iterator for HotStream {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        let shift = self.draws / DRAWS_PER_SHIFT;
        self.draws += 1;
        Some((self.zipf.sample(&mut self.rng) + shift) % self.zipf.cdf.len())
    }
}

/// The batches a workload commits. Round `r` inserts one person and one
/// movie directed by that person; every second round it also deletes the
/// movie of two rounds ago. Each movie title carries a word unique to its
/// round, so a read can prove it saw the write.
#[derive(Debug, Clone)]
pub struct CommitStream {
    rng: Rng,
    round: u64,
}

/// One generated commit.
#[derive(Debug, Clone)]
pub struct CommitBatch {
    /// The records, in commit order.
    pub records: Vec<ChangeRecord>,
    /// The unique title word of the movie this batch inserts.
    pub title_word: String,
    /// The full title of that movie.
    pub title: String,
    /// The title word of the movie this batch deletes, if any.
    pub deleted_word: Option<String>,
}

impl CommitStream {
    /// The commit stream of `seed`.
    pub fn new(seed: u64) -> CommitStream {
        CommitStream {
            rng: Rng::fork(seed, "commit"),
            round: 0,
        }
    }

    /// A letters-only word unique to `round`: an index-friendly single
    /// token that no generated row contains.
    fn title_word(round: u64) -> String {
        let mut n = round;
        let mut word = String::from("zq");
        loop {
            word.push((b'a' + (n % 26) as u8) as char);
            n /= 26;
            if n == 0 {
                break;
            }
        }
        word.push_str("xv");
        word
    }
}

impl Iterator for CommitStream {
    type Item = CommitBatch;

    fn next(&mut self) -> Option<CommitBatch> {
        let round = self.round;
        self.round += 1;
        let id = COMMIT_ID_BASE + round as i64;
        let title_word = CommitStream::title_word(round);
        let title = format!("{title_word} {}", self.rng.pick(TITLE_WORDS));
        let person = format!(
            "{} {}",
            self.rng.pick(FIRST_NAMES),
            self.rng.pick(LAST_NAMES)
        );
        let mut records = vec![
            ChangeRecord::Insert {
                table: "person".into(),
                row: vec![
                    id.into(),
                    person.into(),
                    (1900 + self.rng.below(100) as i64).into(),
                ],
            },
            ChangeRecord::Insert {
                table: "movie".into(),
                row: vec![
                    id.into(),
                    title.clone().into(),
                    (1920 + self.rng.below(105) as i64).into(),
                    Value::float((10 + self.rng.below(90)) as f64 / 10.0),
                    id.into(),
                ],
            },
        ];
        let deleted_word = (round >= 2 && round % 2 == 1).then(|| {
            records.push(ChangeRecord::Delete {
                table: "movie".into(),
                key: vec![(id - 2).into()],
            });
            CommitStream::title_word(round - 2)
        });
        Some(CommitBatch {
            records,
            title_word,
            title,
            deleted_word,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_streams() {
        let a: Vec<String> = TailStream::new(7, "t").take(500).collect();
        let b: Vec<String> = TailStream::new(7, "t").take(500).collect();
        assert_eq!(a, b);
        assert_eq!(query_pool(7, 64), query_pool(7, 64));
        let ha: Vec<usize> = HotStream::new(7, "a", 64).take(500).collect();
        let hb: Vec<usize> = HotStream::new(7, "a", 64).take(500).collect();
        assert_eq!(ha, hb);
        let ca: Vec<String> = CommitStream::new(7)
            .take(20)
            .map(|b| format!("{:?}", b.records))
            .collect();
        let cb: Vec<String> = CommitStream::new(7)
            .take(20)
            .map(|b| format!("{:?}", b.records))
            .collect();
        assert_eq!(ca, cb);
    }

    #[test]
    fn different_seed_gives_different_streams() {
        let a: Vec<String> = TailStream::new(7, "t").take(100).collect();
        let b: Vec<String> = TailStream::new(8, "t").take(100).collect();
        assert_ne!(a, b);
        assert_ne!(query_pool(7, 64), query_pool(8, 64));
    }

    #[test]
    fn pool_queries_are_distinct_and_parse() {
        let pool = query_pool(3, 512);
        let distinct: HashSet<&String> = pool.iter().collect();
        assert_eq!(distinct.len(), 512);
        for (i, q) in pool.iter().enumerate() {
            assert_eq!(q.split(' ').count(), 1 + i % 3, "{q}");
            assert!(parses_to(q, 1 + i % 3));
        }
        // Stratified: another seed has other words in the same shapes.
        let years = |pool: &[String]| {
            pool.iter()
                .flat_map(|q| q.split(' '))
                .filter(|w| w.parse::<u32>().is_ok())
                .count() as f64
        };
        let (a, b) = (years(&pool), years(&query_pool(4, 512)));
        assert!((a / b - 1.0).abs() < 0.05, "{a} vs {b} year keywords");
    }

    #[test]
    fn zipf_cdf_has_the_harmonic_mass() {
        let z = Zipf::new(512, 1.0);
        let h512: f64 = (1..=512).map(|r| 1.0 / r as f64).sum();
        assert!((z.cdf(0) - 1.0 / h512).abs() < 1e-12);
        let h16: f64 = (1..=16).map(|r| 1.0 / r as f64).sum();
        assert!((z.cdf(15) - h16 / h512).abs() < 1e-12);
        assert!((z.cdf(511) - 1.0).abs() < 1e-9);
        // The empirical mass of the 16 hottest ranks matches the CDF.
        let mut rng = Rng::fork(11, "t");
        let n = 200_000;
        let hot = (0..n).filter(|_| z.sample(&mut rng) < 16).count();
        assert!((hot as f64 / n as f64 - h16 / h512).abs() < 0.01);
    }

    #[test]
    fn hot_stream_is_skewed_now_and_even_over_a_cycle() {
        let n = 32;
        let draws: Vec<usize> = HotStream::new(9, "h", n)
            .take(n * DRAWS_PER_SHIFT * 40)
            .collect();
        // Within one shift the top rank has its Zipf share of the draws...
        let h: f64 = (1..=n).map(|r| 1.0 / r as f64).sum();
        let first = &draws[..DRAWS_PER_SHIFT];
        let top = first.iter().filter(|&&i| i == 0).count() as f64 / DRAWS_PER_SHIFT as f64;
        assert!((top - 1.0 / h).abs() < 0.12, "top share {top}");
        // ...and over whole cycles every entry is drawn about equally often.
        let mut counts = vec![0usize; n];
        for &i in &draws {
            counts[i] += 1;
        }
        let even = draws.len() as f64 / n as f64;
        for c in counts {
            assert!((c as f64 / even - 1.0).abs() < 0.1, "{c} vs {even}");
        }
    }

    #[test]
    fn commit_batches_have_the_stated_shape() {
        let batches: Vec<CommitBatch> = CommitStream::new(5).take(6).collect();
        let lens: Vec<usize> = batches.iter().map(|b| b.records.len()).collect();
        assert_eq!(lens, [2, 2, 2, 3, 2, 3]);
        assert_eq!(batches[3].deleted_word, Some(batches[1].title_word.clone()));
        let words: HashSet<&String> = batches.iter().map(|b| &b.title_word).collect();
        assert_eq!(words.len(), 6);
        for b in &batches {
            assert!(parses_to(&b.title_word, 1));
        }
    }
}
