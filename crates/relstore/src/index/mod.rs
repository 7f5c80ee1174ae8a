//! Indexing: tokenization, token interning, and per-attribute full-text
//! inverted indexes.

pub mod interner;
pub mod inverted;
pub mod tokenizer;

pub use interner::TokenInterner;
pub use inverted::{
    bm25_idf, bm25_tf, normalize_score, AttributeIndex, DocPartial, KeywordProbe, Posting,
    ScoreAccumulator, TokenPartial,
};
pub use tokenizer::{
    edit_distance, edit_distance_chars, edit_similarity, is_stopword, normalize_keyword,
    packed_trigram_similarity, packed_trigrams_into, stem, stem_in_place, tokenize, tokenize_with,
    trigram_similarity, trigrams,
};
