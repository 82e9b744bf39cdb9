//! # fm-text — string kernels for fuzzy matching
//!
//! This crate implements the string-level building blocks of the fuzzy match
//! operation from *Chaudhuri, Ganjam, Ganti, Motwani, "Robust and Efficient
//! Fuzzy Match for Online Data Cleaning", SIGMOD 2003*:
//!
//! * [`mod@tokenize`] — delimiter-based, case-folding tokenization (paper §3);
//! * [`edit_distance`] — character edit distance normalized by the longer
//!   string (paper §3, "Edit Distance");
//! * [`qgram`] — q-gram sets of tokens (paper §4.1, "Q-gram Set");
//! * [`mod@jaccard`] — the Jaccard coefficient between sets (paper §4.1);
//! * [`minhash`] — min-hash signatures over q-gram sets (paper §4.1,
//!   "Min-hash Similarity");
//! * [`hash`] — the deterministic seeded hash functions everything above is
//!   built on.
//!
//! The crate is deliberately free of any relational or weighting concerns:
//! columns, IDF weights and the similarity functions live in `fm-core`.

#![forbid(unsafe_code)]

pub mod edit_distance;
pub mod hash;
pub mod jaccard;
pub mod minhash;
pub mod qgram;
pub mod tokenize;

pub use edit_distance::{levenshtein, normalized_edit_distance, EditBuffer};
pub use jaccard::jaccard;
pub use minhash::{MinHasher, Signature};
pub use qgram::{qgram_set, qgram_similarity_upper_bound};
pub use tokenize::{tokenize, tokenize_into, Tokenizer};
