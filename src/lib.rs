//! # AU-Join — a unified framework for string similarity joins
//!
//! Facade crate re-exporting the whole reproduction of
//! *"Towards a Unified Framework for String Similarity Joins"*
//! (Xu & Lu, PVLDB 12(11), 2019).
//!
//! ## Quickstart: the session API
//!
//! One [`prelude::Engine`] holds the knowledge context and configuration,
//! validated once; [`prelude::Engine::prepare`] turns a corpus into a
//! reusable [`prelude::Prepared`] artifact; every operation — threshold
//! join, top-k join, online search, τ tuning — is a method consuming
//! prepared state, so nothing is ever segmented or indexed twice.
//!
//! ```
//! use au_join::prelude::*;
//!
//! // Build the knowledge context: taxonomy + synonym rules.
//! let mut kb = KnowledgeBuilder::new();
//! kb.synonym("coffee shop", "cafe", 1.0);
//! kb.taxonomy_path(&["wikipedia", "food", "coffee", "coffee drinks", "latte"]);
//! kb.taxonomy_path(&["wikipedia", "food", "coffee", "coffee drinks", "espresso"]);
//! let mut knowledge = kb.build();
//!
//! // Two corpora of POI strings (Figure 1's pair in front).
//! let s = knowledge.corpus_from_lines(["coffee shop latte Helsingki"]);
//! let t = knowledge.corpus_from_lines(["espresso cafe Helsinki", "tea house"]);
//!
//! // One engine, one prepared artifact per corpus.
//! let engine = Engine::new(knowledge, SimConfig::default())?;
//! let ps = engine.prepare(&s)?;
//! let pt = engine.prepare(&t)?;
//!
//! // Threshold join: "coffee shop"↔"cafe" via the synonym rule (1.0),
//! // latte↔espresso via the taxonomy (0.8), Helsingki↔Helsinki via gram
//! // Jaccard (6/9) — USIM = 0.822..., found at θ = 0.8.
//! let res = engine.join(&ps, &pt, &JoinSpec::threshold(0.8).au_dp(2))?;
//! assert_eq!((res.pairs[0].0, res.pairs[0].1), (0, 0));
//!
//! // Search the same prepared collection — no re-indexing, no `&mut`.
//! let searcher = engine.searcher(&pt, &JoinSpec::threshold(0.6))?;
//! assert_eq!(searcher.query("espreso cafe Helsinki").matches[0].0, 0);
//!
//! // A second operation on prepared state skips preparation entirely.
//! let again = engine.join(&ps, &pt, &JoinSpec::threshold(0.8).au_dp(2))?;
//! assert_eq!(again.pairs, res.pairs);
//! assert!(pt.memo_hits() > 0);
//! # Ok::<(), AuError>(())
//! ```
//!
//! One-off similarities (Figure 1's 0.892 under its single-character-gram
//! convention) stay available as free functions:
//!
//! ```
//! use au_join::prelude::*;
//!
//! let mut kb = KnowledgeBuilder::new();
//! kb.synonym("coffee shop", "cafe", 1.0);
//! kb.taxonomy_path(&["wikipedia", "food", "coffee", "coffee drinks", "latte"]);
//! kb.taxonomy_path(&["wikipedia", "food", "coffee", "coffee drinks", "espresso"]);
//! let mut knowledge = kb.build();
//! let s = knowledge.add_record("coffee shop latte Helsingki");
//! let t = knowledge.add_record("espresso cafe Helsinki");
//! let fig1 = SimConfig { q: 1, ..SimConfig::default() };
//! assert!((usim_approx(&knowledge, s, t, &fig1) - 0.892).abs() < 1e-3);
//! ```
//!
//! The crates underneath:
//!
//! * [`au_text`] — tokens, q-grams, interning, edit distance.
//! * [`au_taxonomy`] — IS-A trees, LCA similarity (Eq. 3).
//! * [`au_synonym`] — synonym rules (Eq. 2).
//! * [`au_matching`] — Hungarian matching, weighted MIS (SquareImp), set cover.
//! * [`au_core`] — USIM, pebbles, U-/AU-Filters, joins, τ recommendation.
//! * [`au_datagen`] — synthetic MED/WIKI-like datasets with ground truth.
//! * [`au_baselines`] — K-Join / PKduck / AdaptJoin reimplementations.
//! * [`au_serve`] — concurrent serving with incremental corpus mutation.

pub use au_baselines as baselines;
pub use au_core as core;
pub use au_datagen as datagen;
pub use au_matching as matching;
pub use au_serve as serve;
pub use au_synonym as synonym;
pub use au_taxonomy as taxonomy;
pub use au_text as text;

/// One-stop imports for applications.
///
/// The session API ([`Engine`](au_core::engine::Engine) and friends) is
/// the supported surface; the legacy free functions (`u_join`,
/// `topk_join`, `SearchIndex::build`, `suggest_tau`, …) were removed
/// after their one-PR `#[deprecated]` grace period — see DESIGN.md
/// "Session API" for the migration table.
pub mod prelude {
    pub use au_core::engine::{Engine, JoinSpec, Prepared, Searcher};
    pub use au_core::error::AuError;

    pub use au_core::config::{GramMeasure, MeasureSet, SimConfig};
    pub use au_core::estimate::{CostModel, FilterCounts};
    pub use au_core::join::{JoinResult, JoinStats};
    pub use au_core::knowledge::{Knowledge, KnowledgeBuilder};
    pub use au_core::search::{QueryPlan, SearchOutcome};
    pub use au_core::shard::{ShardPlan, ShardSpec, ShardedPrepared};
    pub use au_core::signature::FilterKind;
    pub use au_core::suggest::{SuggestConfig, SuggestOutcome};
    pub use au_core::topk::TopkResult;
    pub use au_core::usim::{usim_approx, usim_exact};
    pub use au_serve::{
        FaultPlan, FaultyStorage, MemStorage, Mutation, RetryPolicy, ServeConfig, ServeError,
        ServeStats, Service, Storage, WalOp, WalStats,
    };
    pub use au_text::record::{Corpus, Record, RecordId};
}
