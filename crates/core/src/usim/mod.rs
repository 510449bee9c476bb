//! The unified similarity measure `USIM` (Definition 3) and its algorithms.
//!
//! * [`graph`] — the conflict-graph construction of Section 2.3.
//! * [`eval`] — `GetSim`: turn an independent set into a partition pair and
//!   score it (Eq. 5/6 with minimal residual partitions).
//! * [`exact`] — exact `USIM` by enumerating all independent sets
//!   (exponential; budgeted). Ground truth for Table 9.
//! * [`approx`] — Algorithm 1: SquareImp seed plus `1/t`-improvement claw
//!   local search on the similarity objective (Theorem 2's guarantee).
//! * [`verify`] — the bound-cascade verification engine behind the
//!   join/search pipelines: a shared-pebble-mass bound counted per pair
//!   or per probe run, the row-max bound over the sparsely enumerated
//!   vertex list, and an allocation-free Algorithm 1 over per-worker
//!   scratch — byte-identical to the [`approx`] reference path.

pub mod approx;
pub mod eval;
pub mod exact;
pub mod graph;
pub mod verify;

pub use approx::{
    usim_approx, usim_approx_explained, usim_approx_seg, usim_approx_seg_at_least,
    usim_explain_seg, usim_upper_bound, MatchedPair, UsimResult,
};
pub use eval::{get_sim, get_sim_with, EvalScratch};
pub use exact::{usim_exact, usim_exact_seg};
pub use graph::{build_graph, build_vertices, finish_graph, UsimGraph, VertexPair};
pub use verify::{
    GramPostingsIndex, RunKeys, RunScratch, RunSide, Verifier, VerifyScratch, VerifyTiers,
};
