//! The keyword scatter runs inline on the calling thread, over a per-store
//! list of indexed attributes and one reused accumulator. This suite pins
//! what that must not change: the score table is bit-equal to
//! `Database::search_score` on the gathered union — single tokens,
//! phrases, absent tokens, non-indexed attributes and normalised-away
//! keywords, at 1/2/4/16 shards.

use quest_core::{Keyword, SourceWrapper};
use quest_data::imdb::{generate, ImdbScale};
use quest_shard::{ShardConfig, ShardedStore, ShardedWrapper};
use relstore::index::KeywordProbe;
use relstore::Database;

fn imdb() -> Database {
    generate(&ImdbScale {
        movies: 120,
        seed: 13,
    })
    .expect("imdb generates")
}

fn store(db: &Database, shard_count: usize) -> ShardedStore {
    ShardedStore::from_database(db, &ShardConfig::new(shard_count)).expect("store builds")
}

/// Single tokens and phrases drawn from the data itself (so they hit on
/// some shards and miss on others), plus tokens absent everywhere and a
/// phrase with one absent token.
fn keywords(db: &Database) -> Vec<String> {
    let movie = db.catalog().table_id("movie").expect("movie table");
    let title = db
        .catalog()
        .attributes()
        .iter()
        .find(|a| a.table == movie && a.name == "title")
        .expect("movie.title");
    let mut out: Vec<String> = Vec::new();
    for (_, row) in db.table_data(movie).iter().take(12) {
        let text = row.get(title.position).render();
        if let Some(first) = text.split_whitespace().next() {
            out.push(first.to_string());
            out.push(format!("{first} zzzabsent"));
        }
        out.push(text);
    }
    out.extend(
        ["zzzabsent", "qqq zzzabsent", "drama", "1999", "director"]
            .iter()
            .map(|s| s.to_string()),
    );
    out
}

#[test]
fn scatter_table_is_bit_equal_to_the_gathered_union() {
    let db = imdb();
    let keywords = keywords(&db);
    assert!(
        db.catalog()
            .attributes()
            .iter()
            .any(|a| db.index(a.id).is_none()),
        "the schema should have non-indexed attributes to cover"
    );
    for shards in [1, 2, 4, 16] {
        let store = store(&db, shards);
        let union = store.gather().expect("gather");
        let (mut token_hits, mut phrase_hits) = (0usize, 0usize);
        for kw in &keywords {
            let Some(probe) = KeywordProbe::new(kw) else {
                continue;
            };
            let a = store.scatter_value_scores(&probe);
            assert_eq!(a.len(), db.catalog().attribute_count());
            for attr in db.catalog().attributes() {
                let slot = attr.id.0 as usize;
                let want = union.search_score(attr.id, kw);
                assert_eq!(
                    a[slot].to_bits(),
                    want.to_bits(),
                    "{shards} shards, {kw:?}, attr {slot}: {} vs unsharded {want}",
                    a[slot]
                );
                if union.index(attr.id).is_none() {
                    assert_eq!(a[slot], 0.0, "non-indexed attribute must score 0");
                }
                if want != 0.0 && probe.tokens().len() == 1 {
                    token_hits += 1;
                } else if want != 0.0 {
                    phrase_hits += 1;
                }
            }
        }
        assert!(
            token_hits > 0 && phrase_hits > 0,
            "the keyword set should hit with single tokens ({token_hits}) and phrases ({phrase_hits})"
        );
    }
}

#[test]
fn normalised_away_keywords_score_zero_everywhere() {
    let db = imdb();
    for shards in [1, 2, 4, 16] {
        let wrapper =
            ShardedWrapper::from_database(&db, &ShardConfig::new(shards)).expect("wrapper builds");
        for text in ["the", "of the", "...", ""] {
            assert!(
                KeywordProbe::new(text).is_none(),
                "{text:?} should normalise away"
            );
            let prepared = wrapper.prepare_keyword(&Keyword {
                raw: text.to_string(),
                normalized: text.to_string(),
                phrase: false,
            });
            for attr in db.catalog().attributes() {
                assert_eq!(wrapper.value_score_prepared(attr.id, &prepared), 0.0);
                assert_eq!(db.search_score(attr.id, text), 0.0);
            }
        }
    }
}
