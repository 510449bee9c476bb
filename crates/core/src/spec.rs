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
/// let top = JoinSpec::topk(10).au_heuristic(3).descent(0.9, 0.4, 0.1);
/// assert_eq!(top.k(), 10);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JoinSpec {
    mode: SpecMode,
    pub(crate) theta: f64,
    pub(crate) filter: FilterKind,
    pub(crate) parallel: bool,
    k: usize,
    theta_start: f64,
    pub(crate) theta_floor: f64,
    pub(crate) step: f64,
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
            theta_start: 0.95,
            theta_floor: 0.3,
            step: 0.1,
        }
    }

    /// Top-k mode: report the `k` most similar pairs via threshold
    /// descent (defaults: AU-Filter DP τ=2, start 0.95, floor 0.3, step
    /// 0.1).
    pub fn topk(k: usize) -> Self {
        Self {
            mode: SpecMode::Topk,
            k,
            filter: FilterKind::AuDp { tau: 2 },
            ..Self::threshold(0.95)
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

    /// Top-k descent schedule: first-round θ, the floor below which the
    /// descent stops, and the per-round subtractive step.
    pub fn descent(mut self, theta_start: f64, theta_floor: f64, step: f64) -> Self {
        self.theta_start = theta_start;
        self.theta_floor = theta_floor;
        self.step = step;
        self
    }

    /// The threshold θ (threshold mode) or first-round θ (top-k mode).
    pub fn theta(&self) -> f64 {
        match self.mode {
            SpecMode::Threshold => self.theta,
            SpecMode::Topk => self.theta_start,
        }
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

    /// Validate for a threshold-mode operation (the stage functions read
    /// `theta` / `filter` / `parallel` straight off a spec that passed
    /// this).
    pub(crate) fn validate_threshold(&self) -> Result<(), AuError> {
        if self.mode != SpecMode::Threshold {
            return Err(Self::invalid(
                "mode",
                "top-k spec passed to a threshold operation; use Engine::topk".into(),
            ));
        }
        if !(0.0..=1.0).contains(&self.theta) || self.theta.is_nan() {
            return Err(Self::invalid(
                "theta",
                format!("threshold must be in [0, 1], got {}", self.theta),
            ));
        }
        Ok(())
    }

    /// Validate a top-k spec (descent schedule sanity).
    pub(crate) fn validate_topk(&self) -> Result<(), AuError> {
        if self.mode != SpecMode::Topk {
            return Err(Self::invalid(
                "mode",
                "threshold spec passed to Engine::topk; use JoinSpec::topk(k)".into(),
            ));
        }
        if self.theta_floor <= 0.0 || self.theta_floor.is_nan() {
            return Err(Self::invalid(
                "theta_floor",
                format!(
                    "floor must be positive (a floor of 0 degrades to brute force), got {}",
                    self.theta_floor
                ),
            ));
        }
        if self.theta_start < self.theta_floor || self.theta_start > 1.0 {
            return Err(Self::invalid(
                "theta_start",
                format!(
                    "need theta_floor <= theta_start <= 1, got start {} floor {}",
                    self.theta_start, self.theta_floor
                ),
            ));
        }
        if self.step <= 0.0 || self.step.is_nan() {
            return Err(Self::invalid(
                "step",
                format!("descent step must be positive, got {}", self.step),
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
