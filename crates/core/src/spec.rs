//! [`JoinSpec`]: the one options type every [`crate::engine::Engine`]
//! operation reads — threshold joins, top-k descents and searches alike.

use crate::error::AuError;
use crate::signature::FilterKind;

/// Which result shape a [`JoinSpec`] asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SpecMode {
    Threshold,
    Topk,
}

/// Builder-style description of one join/search/top-k operation.
///
/// Construct with [`JoinSpec::threshold`] (θ-join, search) or
/// [`JoinSpec::topk`] (descent), then chain filter and execution options:
///
/// ```
/// use au_core::engine::JoinSpec;
///
/// let spec = JoinSpec::threshold(0.8).au_dp(2).serial();
/// assert_eq!(spec.theta(), 0.8);
/// let top = JoinSpec::topk(10).au_heuristic(3);
/// assert_eq!((top.k(), top.theta()), (10, 0.95));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JoinSpec {
    mode: SpecMode,
    pub(crate) theta: f64,
    pub(crate) filter: FilterKind,
    pub(crate) parallel: bool,
    k: usize,
}

impl JoinSpec {
    /// Threshold mode: report every pair with `USIM ≥ theta`.
    ///
    /// Defaults: U-Filter, parallel execution.
    pub fn threshold(theta: f64) -> Self {
        Self {
            mode: SpecMode::Threshold,
            theta,
            filter: FilterKind::UFilter,
            parallel: true,
            k: 0,
        }
    }

    /// Top-k mode: report the `k` most similar pairs via threshold
    /// descent (default filter: AU-Filter DP τ=2). The descent's schedule
    /// is fixed ([`crate::topk::descent`]): it starts at 0.95.
    pub fn topk(k: usize) -> Self {
        Self {
            mode: SpecMode::Topk,
            k,
            filter: FilterKind::AuDp { tau: 2 },
            ..Self::threshold(crate::topk::DESCENT_START)
        }
    }

    /// Use the U-Filter (Algorithm 3; one required overlap).
    pub fn u_filter(mut self) -> Self {
        self.filter = FilterKind::UFilter;
        self
    }

    /// Use the AU-Filter with heuristic signatures (Algorithm 4/6).
    pub fn au_heuristic(mut self, tau: u32) -> Self {
        self.filter = FilterKind::AuHeuristic { tau };
        self
    }

    /// Use the AU-Filter with DP signatures (Algorithm 5/6).
    pub fn au_dp(mut self, tau: u32) -> Self {
        self.filter = FilterKind::AuDp { tau };
        self
    }

    /// Use an explicit [`FilterKind`].
    pub fn filter(mut self, filter: FilterKind) -> Self {
        self.filter = filter;
        self
    }

    /// Run single-threaded (deterministic output is identical either
    /// way; serial mode exists for measurement and debugging).
    pub fn serial(mut self) -> Self {
        self.parallel = false;
        self
    }

    /// Enable/disable multi-threaded probing + verification (worker count
    /// follows the host, overridable with `AU_THREADS`).
    pub fn parallel(mut self, on: bool) -> Self {
        self.parallel = on;
        self
    }

    /// The threshold θ (threshold mode) or first-round θ (top-k mode).
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// The `k` of a top-k spec (0 for threshold specs).
    pub fn k(&self) -> usize {
        self.k
    }

    /// The configured filter.
    pub fn filter_kind(&self) -> FilterKind {
        self.filter
    }

    fn invalid(field: &'static str, message: String) -> AuError {
        AuError::InvalidSpec { field, message }
    }

    /// Validate for a threshold-mode operation: threshold mode and
    /// θ ∈ (0, 1]. At θ = 0 every pair qualifies, including pairs that
    /// share no key, which no signature probe can find, so no operation
    /// accepts it. Every `Engine` operation calls this first (the stage
    /// functions read `theta` / `filter` / `parallel` straight off a spec
    /// that passed it); a service calls it before it writes anything.
    pub fn validate_threshold(&self) -> Result<(), AuError> {
        if self.mode != SpecMode::Threshold {
            return Err(Self::invalid(
                "mode",
                "top-k spec passed to a threshold operation; use Engine::topk".into(),
            ));
        }
        if !(self.theta > 0.0 && self.theta <= 1.0) {
            return Err(Self::invalid(
                "theta",
                format!("threshold must be in (0, 1], got {}", self.theta),
            ));
        }
        Ok(())
    }

    /// Validate a top-k spec (its mode; the schedule is fixed).
    pub(crate) fn validate_topk(&self) -> Result<(), AuError> {
        if self.mode != SpecMode::Topk {
            return Err(Self::invalid(
                "mode",
                "threshold spec passed to Engine::topk; use JoinSpec::topk(k)".into(),
            ));
        }
        Ok(())
    }

    /// The same spec as a threshold-mode operation at `theta` (one round
    /// of the top-k descent).
    pub(crate) fn at_theta(&self, theta: f64) -> Self {
        Self {
            mode: SpecMode::Threshold,
            theta,
            ..*self
        }
    }
}
