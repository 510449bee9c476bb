//! Clean-room reimplementations of the paper's comparison systems.
//!
//! Section 5.5 compares AU-Join against three single-measure joins plus
//! their union:
//!
//! * [`adaptjoin`] — AdaptJoin [Wang et al., SIGMOD 2012]: gram-based
//!   Jaccard with an adaptive ℓ-prefix scheme.
//! * [`kjoin`] — K-Join [Shang et al., TKDE 2016]: taxonomy
//!   (knowledge-aware) similarity with ancestor signatures.
//! * [`pkduck`] — PKduck [Tao et al., VLDB 2017]: abbreviation/synonym
//!   similarity over derived strings.
//! * [`combination`] — the union of all three result sets (the paper's
//!   "Combination" row).
//!
//! Each follows the cited paper's filtering principle; the documented
//! simplifications (see DESIGN.md) affect constants, not the shape of the
//! comparison.

pub mod adaptjoin;
pub mod combination;
pub mod kjoin;
pub mod pkduck;

pub use adaptjoin::{adapt_join, AdaptJoinConfig};
pub use combination::combination_join;
pub use kjoin::{k_join, KJoinConfig};
pub use pkduck::{pkduck_join, PkduckConfig};

use std::time::Duration;

/// Result of one baseline join.
#[derive(Debug, Clone, Default)]
pub struct BaselineResult {
    /// Accepted pairs `(s, t, similarity)`, sorted by ids.
    pub pairs: Vec<(u32, u32, f64)>,
    /// Candidates that reached verification.
    pub candidates: u64,
    /// Total wall-clock.
    pub time: Duration,
}

impl BaselineResult {
    /// The id pairs only.
    pub fn id_pairs(&self) -> Vec<(u32, u32)> {
        self.pairs.iter().map(|&(a, b, _)| (a, b)).collect()
    }
}
