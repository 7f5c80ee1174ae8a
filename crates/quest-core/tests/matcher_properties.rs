//! Property suite for the compiled metadata matcher: on generated catalogs,
//! annotations, ontologies and keywords, the hot path's emission rows
//! (`ForwardModule::emissions_into`, whose metadata states are scored by the
//! compiled matcher) equal the reference rows (`emissions_reference`, whose
//! metadata states are scored by `matcher::name_similarity`) bit for bit.

use std::collections::HashSet;

use proptest::prelude::*;
use quest_core::wrapper::ontology::MiniOntology;
use quest_core::wrapper::{annotations::AnnotationSet, DeepWebWrapper, SourceWrapper};
use quest_core::{ForwardModule, Keyword, KeywordQuery, SearchScratch, SemanticRules};
use relstore::index::normalize_keyword;
use relstore::{Catalog, DataType, Database};

/// Identifiers that reach every branch of `name_similarity`: multi-token
/// (snake, kebab and camelCase), ring members, tokens of ≤ 4 characters,
/// names that stem, stem again when `are_synonyms` re-normalizes them
/// ("bookings" → "booking" → "book"), or normalize away entirely, non-ASCII.
const IDENTIFIERS: &[&str] = &[
    "director_id",
    "birthYear",
    "release-date",
    "fullName",
    "title",
    "name",
    "movie",
    "movies",
    "genre",
    "kind",
    "code",
    "core",
    "id",
    "year",
    "country",
    "Population",
    "news",
    "classes",
    "bookings",
    "hundreds",
    "meetingRooms",
    "the_of",
    "x",
    "café",
    "star_rating",
];

/// Aliases a source owner might publish, including the empty one and ones
/// that normalize to nothing.
const ALIASES: &[&str] = &[
    "",
    "_",
    "the",
    "film",
    "Release Date",
    "made_by",
    "headcount",
    "wind",
    "name",
    "countryCode",
];

/// Raw keywords that are not derived from the catalog: short tokens on both
/// sides of the different-initial guard, ring members, phrases, non-ASCII.
const KEYWORDS: &[&str] = &[
    "wind",
    "kind",
    "cod",
    "core",
    "yea",
    "ids",
    "film",
    "filmmaker",
    "nation",
    "new york",
    "birth date",
    "director id",
    "café",
    "cafe",
    "naïve",
    "日本語",
    "straße",
    "a",
    "aaaa",
];

fn identifier() -> impl Strategy<Value = String> {
    prop_oneof![
        (0..IDENTIFIERS.len()).prop_map(|i| IDENTIFIERS[i].to_string()),
        (0..IDENTIFIERS.len()).prop_map(|i| IDENTIFIERS[i].to_string()),
        "[a-z]{1,9}",
        "[a-z]{2,6}_[a-z]{1,6}",
        "[a-z]{2,5}[A-Z][a-z]{1,5}",
    ]
}

/// One generated source: tables of identifiers, aliases per attribute
/// (indexes into [`ALIASES`]), and user rings as `(identifier pick, token
/// pick, other words)`.
type SourceSpec = (
    Vec<(String, Vec<(String, Vec<usize>)>)>,
    Vec<(usize, usize, Vec<String>)>,
);

fn source() -> impl Strategy<Value = SourceSpec> {
    let column = (
        identifier(),
        proptest::collection::vec(0..ALIASES.len(), 0..3),
    );
    let table = (identifier(), proptest::collection::vec(column, 1..5));
    let ring = (
        0usize..64,
        0usize..4,
        proptest::collection::vec(prop_oneof!["[a-z]{2,8}", Just("film".to_string())], 1..3),
    );
    (
        proptest::collection::vec(table, 1..4),
        proptest::collection::vec(ring, 0..3),
    )
}

/// A keyword recipe: `kind` selects how `pick`/`pos`/`ch` are used.
type KeywordSpec = (usize, usize, usize, String);

fn keyword() -> impl Strategy<Value = KeywordSpec> {
    (0usize..9, 0usize..1000, 0usize..16, "[a-zé]")
}

struct Source {
    wrapper: DeepWebWrapper,
    /// Every identifier and non-empty alias the catalog was built from.
    names: Vec<String>,
}

fn build(spec: &SourceSpec) -> Source {
    let (tables, rings) = spec;
    let mut catalog = Catalog::new();
    let mut names = Vec::new();
    let mut aliases = Vec::new();
    let mut seen_tables = HashSet::new();
    for (table, columns) in tables {
        if !seen_tables.insert(table.to_lowercase()) {
            continue;
        }
        let mut seen_columns = HashSet::new();
        let mut b = catalog.define_table(table).expect("fresh table name");
        names.push(table.clone());
        for (column, alias_picks) in columns {
            if !seen_columns.insert(column.to_lowercase()) {
                continue;
            }
            b = if seen_columns.len() == 1 {
                b.pk(column, DataType::Text)
            } else {
                b.col(column, DataType::Text)
            }
            .expect("fresh column name");
            names.push(column.clone());
            aliases.push((table.clone(), column.clone(), alias_picks.clone()));
        }
        b.finish();
    }
    let mut annotations = AnnotationSet::new();
    for (table, column, picks) in aliases {
        let attr = catalog.attr_id(&table, &column).expect("column defined");
        annotations.add_aliases(attr, picks.iter().map(|&p| ALIASES[p]));
        names.extend(
            picks
                .iter()
                .map(|&p| ALIASES[p].to_string())
                .filter(|a| !a.is_empty()),
        );
    }
    // User rings that overlap a name or one of its tokens.
    let mut ontology = MiniOntology::builtin();
    for (pick, token, others) in rings {
        let name = normalize_keyword(&spaced(&names[pick % names.len()])).unwrap_or_default();
        let tokens: Vec<&str> = name.split(' ').collect();
        let mut ring = vec![tokens[token % tokens.len()]];
        ring.extend(others.iter().map(String::as_str));
        ontology.add_ring(&ring);
    }
    let db = Database::new(catalog).expect("database builds");
    Source {
        wrapper: DeepWebWrapper::new(db, annotations, 10).with_ontology(ontology),
        names,
    }
}

/// Identifier → words a user would type for it.
fn spaced(ident: &str) -> String {
    let mut out = String::new();
    for c in ident.chars() {
        if c == '_' || c == '-' {
            out.push(' ');
        } else {
            if c.is_uppercase() {
                out.push(' ');
            }
            out.push(c);
        }
    }
    out
}

/// The raw keyword a recipe describes: a name, one of its tokens, a synonym
/// of it, a typo, truncation or re-stemming of it, or a catalog-independent
/// keyword.
fn raw_keyword(source: &Source, spec: &KeywordSpec) -> String {
    let (kind, pick, pos, ch) = spec;
    let name = spaced(&source.names[pick % source.names.len()]);
    let tokens: Vec<&str> = name.split_whitespace().collect();
    let token = tokens.get(pos % tokens.len().max(1)).copied().unwrap_or("");
    let edit = |f: &dyn Fn(&mut Vec<char>, usize)| {
        let mut chars: Vec<char> = token.chars().collect();
        if !chars.is_empty() {
            let at = pos % chars.len();
            f(&mut chars, at);
        }
        chars.into_iter().collect::<String>()
    };
    match kind {
        0 => name.clone(),
        1 => token.to_string(),
        2 => source
            .wrapper
            .ontology()
            .related_terms(token)
            .get(pos % 4)
            .map_or_else(|| token.to_string(), |s| s.to_string()),
        3 => edit(&|c, i| c[i] = ch.chars().next().expect("one char")),
        4 => edit(&|c, i| {
            c.remove(i);
        }),
        5 => edit(&|c, i| c.insert(i, ch.chars().next().expect("one char"))),
        6 => format!("{token}s"),
        // What `are_synonyms` re-derives from the name: its stem's stem.
        7 => normalize_keyword(token)
            .and_then(|t| normalize_keyword(&t))
            .unwrap_or_default(),
        _ => KEYWORDS[pick % KEYWORDS.len()].to_string(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn compiled_matcher_equals_metadata_state_score(
        spec in source(),
        keywords in proptest::collection::vec(keyword(), 1..24),
    ) {
        let source = build(&spec);
        let fwd = ForwardModule::new(&source.wrapper, &SemanticRules::default())
            .expect("forward module builds");
        let mut scratch = SearchScratch::new();
        for kw in &keywords {
            let raw = raw_keyword(&source, kw);
            let Some(normalized) = normalize_keyword(&raw) else { continue };
            let query = KeywordQuery {
                keywords: vec![Keyword {
                    phrase: normalized.contains(' '),
                    raw: raw.clone(),
                    normalized,
                }],
                raw: raw.clone(),
            };
            fwd.emissions_into(&source.wrapper, &query, &mut scratch);
            let reference = fwd.emissions_reference(&source.wrapper, &query);
            let fast = scratch.emissions();
            prop_assert_eq!(fast.len(), reference.len());
            for (s, (a, b)) in fast[0].iter().zip(&reference[0]).enumerate() {
                prop_assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "keyword {:?} state {} ({}): {} vs {}",
                    raw, s, fwd.vocabulary().name(s), a, b
                );
            }
        }
    }
}
