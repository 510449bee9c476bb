//! What the benchmark declares: workloads, sizes and metrics.
//!
//! `BENCHMARK.json` at the repository root is generated from these tables
//! (`--emit-benchmark-json`) and `tests/smoke.rs` fails when the committed
//! file and the tables disagree, so a name has one definition.

use au_core::SimConfig;

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 12;
/// Similarity threshold of every workload.
pub const THETA: f64 = 0.9;
/// AU-Filter DP overlap constraint of every workload.
pub const TAU: u32 = 2;
/// Parts of an untraced run. Each part generates its own dataset (from a
/// seed derived from `--seed`), sets the workload up on it and measures for
/// a third of the run: `setup_s` is the median of the three set-ups, and
/// every other metric pools three independent datasets, which takes out
/// most of what one random taxonomy and rule set adds to a run's cost.
pub const PARTS: usize = 3;

/// The dataset seed of part `part` of a run started with `--seed seed`.
pub fn part_seed(seed: u64, part: usize) -> u64 {
    seed.wrapping_mul(PARTS as u64).wrapping_add(part as u64)
}

/// One named workload and the one-line reason it exists.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Percentile `op_tail_ms` reports. A join run has some ten repetitions
    /// and supports no tail percentile, so there it is the upper quartile,
    /// which one slow repetition cannot move. The query workloads report
    /// p95: p99 has the ten samples beyond it that it needs only on
    /// `search_online`, and there it moves 12 % from seed to seed.
    pub tail_percentile: f64,
    /// Input sizes of a full run.
    pub sizes: Sizes,
}

impl Workload {
    /// The sizes to run at: the declared ones, or with `smoke` a few
    /// hundred records so the four workloads finish in seconds.
    pub fn sizes(&self, smoke: bool) -> Sizes {
        if smoke {
            Sizes {
                q: self.sizes.q,
                ..SMOKE
            }
        } else {
            self.sizes
        }
    }
}

pub const JOIN_DENSE: &str = "join_dense";
pub const JOIN_SPARSE: &str = "join_sparse";
pub const SEARCH_ONLINE: &str = "search_online";
pub const SERVE_MIXED: &str = "serve_mixed";

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: JOIN_DENSE,
        why: "n=1500 per side, q=2: 43% of all pairs become candidates, so verification is ~88% of a cold \
              prepare+join; candidate-count and Algorithm 1 gains show here, prepare and signature work barely",
        tail_percentile: 75.0,
        sizes: Sizes {
            n: 1500,
            join_n: 1500,
            ..PROBE
        },
    },
    Workload {
        name: JOIN_SPARSE,
        why: "n=6000 per side, q=3: 0.9% of pairs become candidates, so prepare, signatures, index and probe are \
              ~2/3 of the join; their gains show here and a verify-only gain is diluted to about a third",
        tail_percentile: 75.0,
        sizes: Sizes {
            n: 6000,
            q: 3,
            join_n: 6000,
            ..PROBE
        },
    },
    Workload {
        name: SEARCH_ONLINE,
        why: "500 distinct queries against a static 5000-record searcher: per-query probe+verify latency; \
              bypasses au-serve, so the prediction for every serve write-path change is no move",
        tail_percentile: 95.0,
        sizes: Sizes {
            n: 5000,
            search_n: 5000,
            search_queries: 500,
            traced_iterations: 2,
            ..PROBE
        },
    },
    Workload {
        name: SERVE_MIXED,
        why: "durable Service over 4000 records, reads beside insert/insert/insert/delete writes, compaction \
              every 64 inserts: base+delta+tombstone reads and the whole WAL/republish/compact write path",
        tail_percentile: 95.0,
        sizes: Sizes {
            n: 4000,
            serve_base: 4000,
            oracle_queries: 34,
            ..PROBE
        },
    },
];

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A declared metric; `bound` is set for end-to-end metrics only.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// Metrics a caller of the library sees. Every workload reports every one;
/// README.md says what the primary operation and the ingest are per
/// workload and which percentile `op_tail_ms` is.
pub const END_TO_END: [MetricDef; 6] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("op_p50_ms", "ms", Lower, 0.25),
    e2e("op_tail_ms", "ms", Lower, 0.25),
    e2e("ingest_p50_ms", "ms", Lower, 0.25),
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("peak_rss_mib", "MiB", Lower, 0.15),
];

/// Metrics of single layers (layer = crate or module), from the traced run.
pub const PER_LAYER: [MetricDef; 52] = [
    layer("setup.datagen_s", "s", Lower),
    layer("text.tokenize_us_per_record", "us", Lower),
    layer("core.prepare_s", "s", Lower),
    layer("core.prepare_us_per_record", "us", Lower),
    layer("core.prepared_bytes_per_record", "bytes", Lower),
    layer("core.sigindex_s", "s", Lower),
    layer("core.sigindex_us_per_record", "us", Lower),
    layer("core.probe_s", "s", Lower),
    layer("core.probe_ns_per_posting", "ns", Lower),
    layer("core.verify_s", "s", Lower),
    layer("core.verify_ns_per_candidate", "ns", Lower),
    layer("core.postings_processed", "count", Lower),
    layer("core.candidates", "count", Lower),
    layer("core.result_pairs", "count", Higher),
    layer("core.candidates_per_result", "ratio", Lower),
    layer("core.candidate_share", "ratio", Lower),
    layer("core.usim_ns_per_call.random", "ns", Lower),
    layer("core.usim_ns_per_call.match", "ns", Lower),
    layer("core.parallel_speedup", "ratio", Higher),
    layer("core.searcher_build_s", "s", Lower),
    layer("core.search_candidates_per_query", "count", Lower),
    layer("core.search_postings_per_query", "count", Lower),
    layer("core.search_us_per_candidate", "us", Lower),
    layer("serve.create_s", "s", Lower),
    layer("serve.read_us.delta_lo", "us", Lower),
    layer("serve.read_us.delta_hi", "us", Lower),
    layer("serve.admission_overhead_us", "us", Lower),
    layer("serve.insert_us.delta_lo", "us", Lower),
    layer("serve.insert_us.delta_hi", "us", Lower),
    layer("serve.insert_us_per_delta_record", "us", Lower),
    layer("serve.delete_us_p50", "us", Lower),
    layer("serve.write_ms_p95", "ms", Lower),
    layer("storage.appends_per_ack", "ratio", Lower),
    layer("storage.syncs_per_ack", "ratio", Lower),
    layer("storage.bytes_per_ack", "bytes", Lower),
    layer("storage.append_us_p50", "us", Lower),
    layer("storage.sync_us_p50", "us", Lower),
    layer("serve.storage_share", "ratio", Lower),
    layer("serve.compactions", "count", Lower),
    layer("serve.compact_pause_ms_p50", "ms", Lower),
    layer("serve.compact_pause_ms_max", "ms", Lower),
    layer("serve.compact_us_per_live_record", "us", Lower),
    layer("serve.recovery_s", "s", Lower),
    layer("serve.recovery_us_per_frame", "us", Lower),
    layer("serve.wal_frames", "count", Lower),
    layer("wal.bytes_per_user_byte", "ratio", Lower),
    layer("wal.scan_ns_per_byte", "ns", Lower),
    layer("wal.encode_ns_per_frame", "ns", Lower),
    layer("serve.overloads", "count", Lower),
    layer("trace.overhead_pct", "%", Lower),
    layer("trace.self_time_coverage", "ratio", Higher),
    layer("trace.spans", "count", Lower),
];

/// Input sizes of one workload. The traced run profiles every layer on
/// the workload's own dataset: the layers the workload stresses at its
/// full size, the others at probe size ([`PROBE`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// Records per side of the generated dataset.
    pub n: usize,
    /// Gram length of the workload's `SimConfig`.
    pub q: usize,
    /// Records per side the join stages run on.
    pub join_n: usize,
    /// Records in the searched collection.
    pub search_n: usize,
    /// Distinct queries in one round.
    pub search_queries: usize,
    /// Records the service is created over.
    pub serve_base: usize,
    /// `ServeConfig::compact_threshold`.
    pub serve_threshold: usize,
    /// Repetitions / query rounds / compaction cycles the traced run does
    /// of the workload's own loop, once without and once with spans kept.
    pub traced_iterations: usize,
    /// Side of the brute-force sub-grid of the join oracle.
    pub oracle_grid: usize,
    /// Queries the search and serve oracles replay.
    pub oracle_queries: usize,
    /// Random record pairs timed for `core.usim_ns_per_call.random`.
    pub usim_pairs: usize,
    /// Recoveries timed by the traced serve run.
    pub recoveries: usize,
}

impl Sizes {
    pub fn sim_config(&self) -> SimConfig {
        SimConfig {
            q: self.q,
            ..SimConfig::default()
        }
    }
}

/// The declared workload called `name`.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Probe sizes: what a layer runs at in the traced run of a workload that
/// does not stress it. Each workload overrides the sizes of its own layers.
const PROBE: Sizes = Sizes {
    n: 0,
    q: 2,
    join_n: 1000,
    search_n: 2000,
    search_queries: 200,
    serve_base: 1000,
    serve_threshold: 64,
    traced_iterations: 3,
    oracle_grid: 120,
    oracle_queries: 5,
    usim_pairs: 10_000,
    recoveries: 5,
};

/// `--smoke` sizes (`tests/smoke.rs`); `q` stays the workload's.
const SMOKE: Sizes = Sizes {
    n: 300,
    q: 2,
    join_n: 300,
    search_n: 300,
    search_queries: 60,
    serve_base: 300,
    serve_threshold: 12,
    traced_iterations: 1,
    oracle_grid: 60,
    oracle_queries: 10,
    usim_pairs: 500,
    recoveries: 2,
};

fn rows(items: impl Iterator<Item = String>) -> String {
    items
        .map(|row| format!("    {{{row}}}"))
        .collect::<Vec<_>>()
        .join(",\n")
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let named = |m: &MetricDef| {
        format!(
            "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
            m.name,
            m.unit,
            m.better.as_str()
        )
    };
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        rows(WORKLOADS
            .iter()
            .map(|w| format!("\"name\": \"{}\", \"why\": \"{}\"", w.name, w.why))),
        rows(END_TO_END
            .iter()
            .map(|m| format!("{}, \"bound\": {}", named(m), m.bound.unwrap_or(0.0)))),
        rows(PER_LAYER.iter().map(named)),
    )
}
