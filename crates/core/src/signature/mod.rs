//! Signature selection: U-Filter and the two AU-Filters.
//!
//! Given a record's pebble list sorted by the global order, each selector
//! returns a *prefix length* — the first `L` pebble entries form the
//! record's signature (Algorithms 2, 4 and 5 of the paper). The filters
//! differ in how aggressively they can prove that a suffix is safe to drop:
//!
//! * [`ufilter`] (Alg. 2) — 1 required overlap; drop while the suffix's
//!   accumulated similarity stays below `θ · MP(S)`.
//! * [`heuristic`] (Alg. 4) — τ required overlaps; budget additionally
//!   covers the top `τ−1` heaviest signature pebbles (Lemma 2).
//! * [`dp`] (Alg. 5) — τ required overlaps with a tighter per-segment
//!   dynamic-programming bound on the `τ−1` insertions (Eq. 12–14).
//!
//! Every selector takes the list **as sorted by the global order**
//! ([`crate::pebble::PebbleOrder::sort`]). Beyond fixing which pebbles a
//! prefix holds, the sort makes all instances of one key adjacent, and the
//! per-key aggregates of the two AU-Filters are summed over those runs
//! (see [`common`]); debug builds assert the adjacency.

pub mod common;
pub mod dp;
pub mod heuristic;
#[cfg(test)]
mod reference;
pub mod ufilter;

pub use common::{guarantee_level, min_partition_bound, prefix_topk_sums, suffix_masses, MpMode};
pub use dp::{dp_prefix_len, DpScratch};
pub use heuristic::heuristic_prefix_len;
pub use ufilter::ufilter_prefix_len;

/// Which filter (and overlap constraint) to use for signature selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FilterKind {
    /// U-Filter: one overlap (Algorithm 2/3).
    UFilter,
    /// AU-Filter with the heuristic bound (Algorithm 4/6).
    AuHeuristic {
        /// Overlap constraint τ ≥ 1.
        tau: u32,
    },
    /// AU-Filter with the DP bound (Algorithm 5/6).
    AuDp {
        /// Overlap constraint τ ≥ 1.
        tau: u32,
    },
}

impl FilterKind {
    /// The overlap constraint implied by the filter (1 for U-Filter).
    pub fn tau(self) -> u32 {
        match self {
            FilterKind::UFilter => 1,
            FilterKind::AuHeuristic { tau } | FilterKind::AuDp { tau } => tau.max(1),
        }
    }

    /// Short display label.
    pub fn label(self) -> String {
        match self {
            FilterKind::UFilter => "U-Filter".into(),
            FilterKind::AuHeuristic { tau } => format!("AU-Filter(heur, τ={tau})"),
            FilterKind::AuDp { tau } => format!("AU-Filter(DP, τ={tau})"),
        }
    }
}

/// One record's signature selection: the kept prefix length and the
/// overlap level the record can guarantee (see
/// [`common::guarantee_level`]). A θ-similar pair must share at least
/// `min(τ, level_S, level_T)` signature pebbles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SignatureChoice {
    /// Number of leading pebbles kept as the signature.
    pub len: usize,
    /// Feasible overlap constraint for this record (`1 ≤ level ≤ τ`).
    pub level: u32,
}

/// Dispatch to the right selector, clamping τ to the record's guarantee
/// level first (records too short/light for the requested τ still demand
/// every overlap they can actually promise). `pebbles` must be sorted by
/// the global order (module docs); `scratch` is the DP selector's reusable
/// buffers.
pub fn select_signature(
    sr: &crate::segment::SegRecord,
    pebbles: &[crate::pebble::Pebble],
    kind: FilterKind,
    theta: f64,
    eps: f64,
    mp_mode: MpMode,
    scratch: &mut DpScratch,
) -> SignatureChoice {
    match kind {
        FilterKind::UFilter => SignatureChoice {
            len: ufilter_prefix_len(sr, pebbles, theta, eps, mp_mode),
            level: 1,
        },
        FilterKind::AuHeuristic { tau } => {
            let level = guarantee_level(sr, pebbles, tau.max(1), theta, eps, mp_mode);
            SignatureChoice {
                len: heuristic_prefix_len(sr, pebbles, level, theta, eps, mp_mode),
                level,
            }
        }
        FilterKind::AuDp { tau } => {
            let level = guarantee_level(sr, pebbles, tau.max(1), theta, eps, mp_mode);
            SignatureChoice {
                len: dp_prefix_len(sr, pebbles, level, theta, eps, mp_mode, scratch),
                level,
            }
        }
    }
}

/// Dispatch to the right selector; returns the signature prefix length.
pub fn signature_prefix_len(
    sr: &crate::segment::SegRecord,
    pebbles: &[crate::pebble::Pebble],
    kind: FilterKind,
    theta: f64,
    eps: f64,
    mp_mode: MpMode,
) -> usize {
    select_signature(
        sr,
        pebbles,
        kind,
        theta,
        eps,
        mp_mode,
        &mut DpScratch::default(),
    )
    .len
}
