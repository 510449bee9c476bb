//! Matching and packing substrate for AU-Join.
//!
//! The unified similarity of the paper leans on three classic combinatorial
//! problems, all implemented here:
//!
//! * **Maximum weight bipartite matching** (Eq. 6's numerator) —
//!   [`hungarian`], the O(n³) Kuhn–Munkres algorithm.
//! * **Weighted maximum independent set** on the conflict graph of
//!   Section 2.3 — [`greedy_mis`] (initialisation), [`squareimp`]
//!   (Berman's w² local search for k+1-claw-free graphs) and [`exact_mis`]
//!   (branch-and-bound used by the exact USIM and by Table 9).
//! * **Minimum exact cover** (GetMinPartitionSize of Algorithm 2) — the
//!   exact interval-partition DP in [`min_partition()`], which also builds
//!   partitions from an independent set.

pub mod bitset;
pub mod conflict;
pub mod exact_mis;
pub mod greedy_mis;
pub mod hungarian;
pub mod min_partition;
pub mod squareimp;

pub use bitset::BitSet;
pub use conflict::ConflictGraph;
pub use exact_mis::exact_wmis;
pub use greedy_mis::greedy_wmis;
pub use hungarian::max_weight_matching;
pub use min_partition::{
    min_partition, min_partition_masked, min_partition_masked_with, IntervalsByEnd,
};
pub use squareimp::{apply_swap, for_each_talon_set, square_imp, SquareImpConfig};
