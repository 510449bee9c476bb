//! AU-Join core: the paper's contribution.
//!
//! * [`config`] — measure selection (`J`/`S`/`T`) and algorithm knobs.
//! * [`knowledge`] — the shared context (vocabulary, taxonomy, synonyms).
//! * [`segment`] — well-defined segments (Definition 1).
//! * [`msim`] — per-segment-pair best measure (Eq. 4).
//! * [`usim`] — the unified similarity (Definition 3): NP-hard exact form
//!   and the Algorithm 1 approximation.
//! * [`pebble`] — the unified signature unit (Section 3.1).
//! * [`signature`] — U-Filter (Alg. 2), AU-Filter heuristics (Alg. 4) and
//!   AU-Filter DP (Alg. 5) signature selection.
//! * [`oracle`] — the brute-force join and the candidate definition the
//!   filters are checked against.

#![warn(missing_docs)]

pub mod config;
pub mod engine;
pub mod error;
pub mod estimate;
pub mod index;
pub mod io;
pub mod join;
pub mod knowledge;
pub mod msim;
pub mod oracle;
pub mod parallel;
pub mod pebble;
mod prepared;
pub mod search;
pub mod segment;
pub mod shard;
pub mod signature;
mod spec;
pub mod stats;
pub mod suggest;
pub mod topk;
pub mod usim;

pub use config::{GramMeasure, MeasureSet, SimConfig};
pub use engine::{Engine, JoinSpec, Prepared, QuerySession, Searcher, SnapshotSearcher};
pub use error::AuError;
pub use index::{CsrIndex, OverlapCounter, RecordKeys};
pub use knowledge::{Knowledge, KnowledgeBuilder};
pub use search::{QueryPlan, SearchOutcome};
pub use shard::{ShardPlan, ShardSpec, ShardStats};
pub use topk::TopkResult;
pub use usim::{usim_approx, usim_approx_explained, usim_exact};
