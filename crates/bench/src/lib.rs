//! Deterministic count harness of the join pipeline and of the paper's
//! evaluation (Section 5).
//!
//! [`perf`] writes `BENCH_<name>.json` artifacts: the funnel counters of
//! MED-like and WIKI-like joins (candidates, `Tτ`, per-tier verification
//! counters, P/R/F, memory bytes), the sharded and serving workloads, and
//! [`perf::repro`], one row per claim of the paper's tables and figures
//! that rests on counts, each with a `holds` boolean. Every field is a
//! count or a run parameter, so the CI `perf-smoke` job gates them value
//! for value with `--bin bench_gate` against `tools/perf_baseline/`.
//!
//! Sizes scale with the `AU_SCALE` environment variable (default 1.0;
//! anything but a positive number panics). The absolute numbers differ
//! from the paper (synthetic data); the *shapes* — who prunes more, where
//! the suggested τ lands, which measure recalls what — are the
//! reproduction targets (DESIGN.md "Substitutions (data)"). Nothing here
//! is timed: wall-clock is the repo benchmark's (`benchmark/`).

#[cfg(test)]
mod experiments;
pub mod harness;
pub mod perf;

pub use harness::{med_dataset, scale_from_env, wiki_dataset};
