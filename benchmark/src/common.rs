//! What every workload shares: the run's context, the failure count, the
//! dataset and the loop budget.

use crate::spec::{Sizes, TAU, THETA};
use crate::stats::{median, ratio};
use crate::trace::Tracer;
use au_core::JoinSpec;
use au_datagen::{DatasetProfile, LabeledDataset};
use std::path::PathBuf;
use std::time::Instant;

/// One run of one workload.
#[derive(Debug)]
pub struct Ctx {
    pub workload: &'static str,
    /// Seed of the dataset this part of the run generates.
    pub seed: u64,
    /// Which part of the untraced run this is (0 in a traced run).
    pub part: usize,
    /// How long this part's timed loop measures.
    pub seconds: f64,
    pub sizes: Sizes,
    /// Directory for write-ahead logs; removed when the run ends.
    pub work_dir: PathBuf,
    pub tracer: Tracer,
}

/// The join/search specification every workload uses: θ = 0.9, AU-Filter
/// DP with τ = 2, parallel.
pub fn spec() -> JoinSpec {
    JoinSpec::threshold(THETA).au_dp(TAU)
}

/// MED-like dataset of `n` records per side with `n / 5` planted pairs —
/// the shape of `au-bench`'s `med_dataset`.
pub fn dataset(n: usize, seed: u64) -> LabeledDataset {
    let profile = DatasetProfile::med_like((n as f64 / 2000.0).max(1.0));
    LabeledDataset::generate(&profile, n, n, n / 5, seed)
}

/// A timed loop does whole iterations — one cold join repetition, one round
/// of the query set, one compaction cycle — until `seconds` have passed,
/// and at least one. This is asked after each iteration.
pub fn time_left(since: Instant, seconds: f64) -> bool {
    since.elapsed().as_secs_f64() < seconds
}

/// The `seconds` of a loop that does exactly one iteration.
pub const ONCE: f64 = 0.0;

/// The traced run does the workload's own loop `iterations` times with spans
/// dropped and as often with spans kept — in turn, one iteration each, so
/// that drift of the machine hits both alike. `pass(kept)` does one
/// iteration. Spans are kept when this returns.
pub fn alternate(tracer: &Tracer, iterations: usize, mut pass: impl FnMut(bool)) {
    for _ in 0..iterations {
        for kept in [false, true] {
            tracer.set_recording(kept);
            pass(kept);
        }
    }
}

/// `trace.overhead_pct`: how much slower the median operation is with spans
/// kept than with spans dropped, in percent.
pub fn overhead_pct(dropped_ms: &[f64], kept_ms: &[f64]) -> f64 {
    let base = median(dropped_ms);
    100.0 * ratio(median(kept_ms) - base, base)
}

/// Operations attempted and failed: an operation that returns `Err` and an
/// oracle that disagrees both count as failed.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Count one operation; `None` (and a line on stderr) when it failed.
    pub fn op<T, E: std::fmt::Display>(&mut self, what: &str, result: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("failed: {what}: {e}");
                None
            }
        }
    }

    /// Count one oracle comparison.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("failed: oracle: {what}");
        }
    }
}

/// The numbers a timed loop yields, from which every end-to-end metric
/// but `peak_rss_mib` is derived.
#[derive(Debug, Default)]
pub struct Timed {
    /// How long the set-up before the loop took, s.
    pub setup_s: f64,
    /// Latency of each primary operation, ms.
    pub op_ms: Vec<f64>,
    /// Latency of each ingest operation, ms.
    pub ingest_ms: Vec<f64>,
    /// Operations the loop completed (primary and ingest).
    pub ops: usize,
    /// Wall-clock of the loop, s.
    pub wall_s: f64,
}

impl Timed {
    /// Pool another part's samples into this one (`setup_s` stays).
    pub fn absorb(&mut self, part: Timed) {
        self.op_ms.extend(part.op_ms);
        self.ingest_ms.extend(part.ingest_ms);
        self.ops += part.ops;
        self.wall_s += part.wall_s;
    }
}

/// Two result lists are the same bytes: same ids, same similarity bits.
pub fn same_matches<I: PartialEq + Copy>(a: &[(I, f64)], b: &[(I, f64)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
}
