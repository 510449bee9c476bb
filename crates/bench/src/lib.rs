//! Experiment harness reproducing every table and figure of the paper's
//! evaluation (Section 5).
//!
//! Each experiment is a module under [`experiments`] with a `run(scale)`
//! entry point that prints (and returns) a report in the shape of the
//! paper's corresponding table/figure. One binary per experiment lives in
//! `src/bin/`; `cargo run --release -p au-bench --bin all` regenerates the
//! whole evaluation.
//!
//! Sizes scale with the `AU_SCALE` environment variable (default 1.0 ≈
//! laptop-minutes for the full suite; anything but a positive number
//! panics). The absolute numbers differ from
//! the paper (synthetic data, different hardware, Rust vs JVM); the
//! *shapes* — who wins, by what factor, where the knees are — are the
//! reproduction targets (DESIGN.md "Substitutions (data)").
//!
//! Besides the paper experiments, [`perf`] is the machine-readable
//! counterpart: `--bin perf` emits `BENCH_<name>.json` artifacts
//! (candidate counts, `Tτ`, per-tier verification counters, P/R/F,
//! memory bytes — no timings) that the CI `perf-smoke` job gates with
//! `--bin bench_gate` against `tools/perf_baseline/`.

pub mod experiments;
pub mod harness;
pub mod perf;

pub use harness::{med_dataset, scale_from_env, wiki_dataset, Table};
