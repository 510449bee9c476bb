//! Text substrate for AU-Join.
//!
//! This crate provides the low-level string machinery that every other layer
//! of the reproduction builds on:
//!
//! * [`hash`] — a fast FxHash-style hasher and map/set aliases used on all
//!   hot paths (pebble indexes, candidate maps).
//! * [`interner`] — token interning ([`TokenId`], [`Vocab`]).
//! * [`phrase`] — interning of multi-token phrases ([`PhraseId`],
//!   [`PhraseTable`]) used for synonym-rule sides and taxonomy entity names.
//! * [`tokenize`](mod@tokenize) — configurable tokenization.
//! * [`qgram`] — q-gram extraction.
//! * [`jaccard`] — Jaccard coefficient over sorted id sets (Eq. 1 of the
//!   paper).
//! * [`setsim`] — the other gram-set measures named in Section 2.1
//!   (Dice, Cosine, Overlap, gram Hamming distance).
//! * [`edit`] — Levenshtein distance (used by the data generator and the
//!   PKduck baseline).
//! * [`record`] — string records and corpora.

pub mod edit;
pub mod hash;
pub mod interner;
pub mod jaccard;
pub mod phrase;
pub mod qgram;
pub mod record;
pub mod setsim;
pub mod tokenize;

pub use hash::{FxHashMap, FxHashSet, FxHasher64};
pub use interner::{OverlaySnapshot, ScratchVocab, TokenId, Vocab, SCRATCH_TOKEN_BASE};
pub use phrase::{PhraseId, PhraseTable};
pub use record::{Corpus, Record, RecordId};
pub use tokenize::{tokenize, TokenizeConfig};
