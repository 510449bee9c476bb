//! Machine-readable perf harness: the repo's throughput trajectory.
//!
//! `cargo run --release -p au-bench --bin perf` runs MED-like and
//! WIKI-like workloads (sized by `AU_SCALE`) across the three filters
//! {U, AU-heuristic, AU-DP} × {serial, parallel}, the query funnel of a
//! fixed 200-query set on scale-1 MED (one more row of `BENCH_med.json`),
//! plus a `fig_shard` sharded-vs-monolithic self-join comparison (memory
//! and pruning), and writes one `BENCH_<name>.json` per workload. Those artifacts are what
//! the CI `perf-smoke` job uploads and what `bench_gate` diffs against
//! the checked-in baseline in `tools/perf_baseline/`.
//!
//! Determinism contract: every non-timing field (candidate counts,
//! processed pairs, result pairs, P/R/F) is a pure function of
//! (`AU_SCALE`, seed), so two runs with the same seed emit byte-identical
//! JSON once timings are zeroed — [`WorkloadReport::to_json`] with
//! `timings = false` is exactly that canonical form, and
//! `crates/bench/tests/perf_determinism.rs` enforces it.

pub mod json;

use crate::harness::{med_dataset, score_join_at, wiki_dataset, Prf};
use au_core::config::SimConfig;
use au_core::engine::{Engine, JoinSpec};
use au_core::shard::ShardSpec;
use au_core::signature::FilterKind;
use au_core::usim::VerifyTiers;
use au_datagen::LabeledDataset;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Schema tag stamped into every artifact (bump on breaking changes).
pub const SCHEMA: &str = "au-bench/perf/v1";

/// Harness options.
#[derive(Debug, Clone)]
pub struct PerfOptions {
    /// Dataset scale factor (`AU_SCALE`).
    pub scale: f64,
    /// Base RNG seed for the generated datasets.
    pub seed: u64,
    /// Record wall-clock timings. `false` zeroes every timing-derived
    /// field, which makes the JSON byte-identical across runs.
    pub timings: bool,
}

impl PerfOptions {
    /// Options from the environment: `AU_SCALE` (default 1.0) and
    /// `AU_PERF_DETERMINISTIC=1` to zero timings.
    pub fn from_env() -> Self {
        Self {
            scale: crate::harness::scale_from_env(),
            seed: 71,
            timings: std::env::var("AU_PERF_DETERMINISTIC").map_or(true, |v| v != "1"),
        }
    }
}

/// One (filter × mode) measurement of a workload.
#[derive(Debug, Clone)]
pub struct WorkloadRow {
    /// Stable row id, e.g. `med/AU-DP/parallel`.
    pub id: String,
    /// Filter short name (`U`, `AU-heur`, `AU-DP`).
    pub filter: String,
    /// `serial` or `parallel` (verification + candidate probing).
    pub mode: &'static str,
    /// Stage 1 wall-clock *paid by this operation*. Every row runs on the
    /// workload's shared prepared artifacts, so this is ≈ 0 — the reuse
    /// win of the session API, visible next to the report-level
    /// [`WorkloadReport::prepare_seconds`] it amortises.
    pub prepare_seconds: f64,

    /// `Vτ`: candidates surviving the τ-overlap test.
    pub candidates: u64,
    /// `Tτ`: posting entries touched (Eq. 16).
    pub processed_pairs: u64,
    /// Pairs rejected in-probe by the tier-0 compatibility bound
    /// ([`au_core::join::JoinStats::compat_rejected`]). Deterministic, so
    /// `bench_gate` exact-matches it.
    pub compat_rejected: u64,
    /// Pairs accepted by verification.
    pub result_pairs: u64,
    /// Per-tier verification telemetry (see
    /// [`au_core::usim::VerifyTiers`]). The tier counters are pure
    /// per-candidate functions — deterministic across runs, thread
    /// counts and hosts — and `bench_gate` exact-matches them.
    pub tiers: VerifyTiers,
    /// Precision/recall/F1 against the planted ground truth.
    pub prf: Prf,
    /// Ordering + signature-selection wall-clock. On the prepared path
    /// stage 1 (segment + pebbles) is never in here — see
    /// `prepare_seconds` — and every row is measured against pre-warmed
    /// memoized artifacts, so this is the steady-state cost and the
    /// serial/parallel rows of one filter stay comparable.
    pub sig_seconds: f64,
    /// Stage 4 wall-clock (candidate generation).
    pub filter_seconds: f64,
    /// Stage 5 wall-clock (verification).
    pub verify_seconds: f64,
    /// Sum of the measured stages.
    pub total_seconds: f64,
    /// End-to-end throughput: records (both sides) per second.
    pub records_per_second: f64,
    /// Verification throughput: candidates verified per second (0 when
    /// timings are disabled). Gated by `bench_gate` like
    /// `records_per_second`, so a tiered-verification regression fails CI
    /// even when the other stages mask it in the end-to-end number.
    pub verify_cands_per_second: f64,
}

/// The query funnel of [`run_search_row`]: every field a sum over the
/// query set and a pure function of the seed, so `bench_gate`
/// exact-matches all of them — the search path's counterpart of a join
/// row's counters.
#[derive(Debug, Clone)]
pub struct SearchRow {
    /// Stable row id (`search/med-scale1/AU-DP`).
    pub id: String,
    /// Records in the searched collection (always scale 1, whatever
    /// `AU_SCALE` sizes the join rows to).
    pub n_records: usize,
    /// Queries issued.
    pub queries: u64,
    /// Σ candidates that reached verification.
    pub candidates: u64,
    /// Σ posting entries the probes read.
    pub processed_pairs: u64,
    /// Σ posting entries the verification mass walks read
    /// ([`au_core::search::SearchOutcome::walked`]).
    pub walked_postings: u64,
    /// Σ records refused in-probe by the tier-0 compatibility bound.
    pub compat_rejected: u64,
    /// Σ matches returned.
    pub result_pairs: u64,
    /// Σ per-tier verification decisions (`decisions() == candidates`).
    pub tiers: VerifyTiers,
}

/// One workload (dataset × θ) across all filter/mode combinations.
#[derive(Debug, Clone)]
pub struct WorkloadReport {
    /// Workload name (`med`, `wiki`) — the `<name>` of `BENCH_<name>.json`.
    pub name: String,
    /// Scale the run used.
    pub au_scale: f64,
    /// Dataset seed.
    pub seed: u64,
    /// Records per side.
    pub n_records: usize,
    /// Join threshold θ.
    pub theta: f64,
    /// One-time stage-1 cost (segmentation + pebbles, both sides) paid at
    /// `Engine::prepare`; every row reuses the artifacts.
    pub prepare_seconds: f64,
    /// Deep bytes of the two prepared artifacts right after
    /// [`Engine::prepare`] (before any memoized order/signature/CSR
    /// artifacts exist) — [`au_core::engine::Prepared::memory_bytes`],
    /// summed over both sides. Deterministic, so not zeroed with the
    /// timings: the memory the sharded path is lean *relative to*.
    pub prepare_memory_bytes: u64,
    /// Measurements.
    pub rows: Vec<WorkloadRow>,
    /// The query funnel, emitted after `rows` ([`run_all`] attaches it to
    /// the `med` report).
    pub search: Option<SearchRow>,
}

/// One engine measurement of the `fig_shard` comparison.
#[derive(Debug, Clone)]
pub struct ShardRow {
    /// `fig_shard/monolithic` or `fig_shard/sharded`.
    pub id: String,
    /// Engine name.
    pub engine: &'static str,
    /// `Vτ` across all tasks (honest per-task sum on the sharded row —
    /// per-shard orders differ from the global one, so this is *not*
    /// expected to equal the monolithic row; only `result_pairs` is).
    pub candidates: u64,
    /// Pairs accepted by verification (byte-identical across rows —
    /// asserted before the report is emitted).
    pub result_pairs: u64,
    /// Shard-pair tasks executed (0 on the monolithic row).
    pub shard_tasks: u64,
    /// Shard-pair tasks skipped wholesale by the shard-pair bound.
    pub shard_tasks_pruned: u64,
    /// Monolithic row: deep bytes of the whole-corpus [`Engine::prepare`]
    /// artifact, measured *before* the join (the comparator of the
    /// memory-lean claim). Sharded row:
    /// [`au_core::shard::ShardedPrepared::peak_memory_bytes`] — the
    /// high-water mark of segmented-shard bytes held simultaneously.
    /// Deterministic (length-based accounting), so not zeroed with the
    /// timings.
    pub memory_bytes: u64,
    /// Stage-1 wall-clock: whole-corpus prepare vs the lean tier-0 plan.
    pub prepare_seconds: f64,
    /// Self-join wall-clock.
    pub join_seconds: f64,
    /// End-to-end throughput: records per (prepare + join) second.
    pub records_per_second: f64,
}

/// The `fig_shard` comparison: a monolithic whole-corpus self-join vs
/// the memory-lean sharded path ([`Engine::prepare_sharded`] +
/// [`Engine::join_self_sharded`]) on the same corpus, same θ, same
/// filter. Results are byte-identical; the interesting columns are
/// memory and the pruned task fraction.
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// Always `fig_shard`.
    pub name: String,
    /// Scale the run used.
    pub au_scale: f64,
    /// Dataset seed.
    pub seed: u64,
    /// Records in the self-join corpus (MED S ∪ T, so the planted
    /// near-duplicates are within-corpus).
    pub n_records: usize,
    /// Join threshold θ.
    pub theta: f64,
    /// Shard count of the sharded row.
    pub shards: usize,
    /// Segmented shards kept live at once.
    pub cache_capacity: usize,
    /// Per-engine rows (`monolithic` first).
    pub rows: Vec<ShardRow>,
    /// Fraction of shard-pair tasks skipped by the shard-pair bound.
    pub prune_fraction: f64,
    /// `sharded peak bytes / monolithic prepare bytes` — the memory-lean
    /// claim in one number (`bench_gate` fails it above
    /// `BENCH_GATE_MAX_MEMORY_RATIO`, default 0.25).
    pub memory_ratio: f64,
    /// `monolithic join_seconds / sharded join_seconds` (0 when timings
    /// are disabled).
    pub sharded_speedup: f64,
}

/// One phase measurement of the `fig_serve` serving workload.
#[derive(Debug, Clone)]
pub struct ServeRow {
    /// `serve/steady` or `serve/mixed`.
    pub id: String,
    /// `steady` (reads against the initial base) or `mixed` (reads
    /// interleaved with insert/delete/compact).
    pub phase: &'static str,
    /// Queries issued in this phase (deterministic scenario count).
    pub queries: u64,
    /// `Vτ` summed over every query (base + delta probes).
    pub candidates: u64,
    /// `Tτ` summed over every query.
    pub processed_pairs: u64,
    /// Matches returned, summed over every query. Pure function of
    /// (scale, seed) — `bench_gate` exact-matches it.
    pub result_pairs: u64,
    /// Median per-query latency in seconds (0 when timings disabled).
    pub p50_seconds: f64,
    /// 99th-percentile per-query latency in seconds (0 when timings
    /// disabled).
    pub p99_seconds: f64,
    /// Queries per second over the phase (0 when timings disabled).
    pub records_per_second: f64,
}

/// The `fig_serve` workload: a [`au_serve::Service`] driven through a
/// deterministic steady-read phase and a mixed phase of reads racing a
/// scripted insert/delete/compact sequence, then checked byte-identical
/// against a fresh monolithic prepare of the final corpus state.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Always `fig_serve`.
    pub name: String,
    /// Scale the run used.
    pub au_scale: f64,
    /// Dataset seed.
    pub seed: u64,
    /// Service threshold θ.
    pub theta: f64,
    /// Initial corpus size.
    pub n_initial: usize,
    /// Records inserted by the mixed-phase script.
    pub n_inserts: usize,
    /// Records deleted by the mixed-phase script.
    pub n_deletes: usize,
    /// Compactions performed (scripted + final).
    pub compactions: u64,
    /// Responses whose generation was below the watermark observed
    /// before the query — the generation guard's anomaly count. Asserted
    /// zero before the report is emitted; emitted anyway so the artifact
    /// records the claim.
    pub stale_anomalies: u64,
    /// Frames durable in the write-ahead log after the workload (the
    /// whole mutation history: seed batch + inserts + deletes +
    /// compaction markers). Pure function of (scale, seed).
    pub wal_frames: u64,
    /// Frames replayed by the post-workload crash-recovery reopen —
    /// must equal `wal_frames` (the recovery reads everything back).
    pub wal_replayed_frames: u64,
    /// WAL append retries absorbed by the transient-fault scenario
    /// (seeded schedule, so exact across runs and hosts).
    pub wal_retries: u64,
    /// Backoff waits scheduled by the same scenario (counted even with
    /// the zero-sleep deterministic policy).
    pub wal_backoff_waits: u64,
    /// Degradation entries under the persistent-fault scenario (the
    /// first write that exhausts its retry budget).
    pub degraded_entries: u64,
    /// Writes rejected fast with `ServeError::Degraded` afterwards.
    pub degraded_writes: u64,
    /// Requests shed by admission control during the main workload.
    pub admission_rejected: u64,
    /// Records the service segmented over the whole workload
    /// (`ServeStats::records_prepared`): the initial corpus plus one per
    /// insert — a compaction segments nothing, so the count does not
    /// depend on how many ran. Pure function of (scale, seed).
    pub records_prepared: u64,
    /// Records the service's base builds ran through signature selection
    /// (`ServeStats::records_signed`): the initial corpus, the rows each
    /// inheriting compaction appended, every live row at a re-rank. Pure
    /// function of (scale, seed).
    pub records_signed: u64,
    /// `Vτ` of the query battery against the final served base, whose
    /// pebble order the last compaction inherited …
    pub inherited_candidates: u64,
    /// … and against a fresh prepare (fresh ranking) of the same records:
    /// the pair is the gated measure of what an aged order costs the
    /// filter. Matches are asserted identical.
    pub fresh_candidates: u64,
    /// Per-phase rows (`steady` first).
    pub rows: Vec<ServeRow>,
    /// Longest single compaction in seconds (0 when timings disabled).
    /// Readers never block on it — this is writer-path latency.
    pub compact_pause_seconds: f64,
    /// Wall-clock of the crash-recovery reopen — full log replay plus
    /// the base rebuild (0 when timings disabled).
    pub recovery_seconds: f64,
}

/// Run the `fig_serve` serving workload: MED-like base corpus, T-side
/// texts as the query battery and the insert stream, scripted deletes of
/// early base ids and periodic compactions. Deterministic counters are
/// pure functions of (scale, seed); the final served state is asserted
/// byte-identical to a monolithic rebuild before the report is returned.
pub fn run_serve_workload(scale: f64, seed: u64, timings: bool) -> ServeReport {
    use au_serve::{MemStorage, RetryPolicy, ServeConfig, Service};

    let theta = 0.90;
    let n = crate::experiments::sized(400, scale).max(8);
    let ds = med_dataset(n, seed);
    let cfg = ServeConfig {
        theta,
        filter: FilterKind::AuDp { tau: 2 },
        compact_threshold: 0, // the script compacts explicitly
        retry: RetryPolicy::no_sleep(4),
        ..ServeConfig::default()
    };
    let initial: Vec<&str> = ds.s.iter().map(|r| r.raw.as_str()).collect();
    let battery: Vec<&str> = ds.t.iter().map(|r| r.raw.as_str()).collect();
    // The main workload runs durable: every mutation commits to an
    // in-memory write-ahead log so the post-workload reopen below can
    // assert the funnel survives a restart.
    let wal_mem = MemStorage::new();
    let svc = Service::create_with(
        ds.kn.clone(),
        initial.iter().copied(),
        cfg,
        Box::new(wal_mem.clone()),
    )
    .expect("serve create on datagen corpus");

    let mut stale_anomalies = 0u64;
    let mut run_queries = |texts: &[&str]| -> (u64, u64, u64, Vec<f64>) {
        let (mut cands, mut procd, mut results) = (0u64, 0u64, 0u64);
        let mut lat = Vec::with_capacity(texts.len());
        for q in texts {
            let before = svc.generation();
            let t0 = Instant::now();
            let resp = svc.search(q).expect("admission unbounded by default");
            lat.push(t0.elapsed().as_secs_f64());
            if resp.generation < before {
                stale_anomalies += 1;
            }
            cands += resp.candidates;
            procd += resp.processed;
            results += resp.matches.len() as u64;
        }
        (cands, procd, results, lat)
    };

    // Phase 1: steady reads against the untouched base snapshot.
    let t_phase = Instant::now();
    let (s_cands, s_proc, s_res, s_lat) = run_queries(&battery);
    let steady_secs = t_phase.elapsed().as_secs_f64();

    // Phase 2: the same battery interleaved with the mutation script —
    // every T record inserted, every third step deletes an early base
    // id, periodic compactions fold the delta.
    let compact_every = (n / 8).max(8);
    let mut compact_pause = 0.0f64;
    let (mut m_cands, mut m_proc, mut m_res) = (0u64, 0u64, 0u64);
    let mut m_lat = Vec::new();
    let mut n_deletes = 0usize;
    let t_phase = Instant::now();
    for (i, text) in battery.iter().enumerate() {
        svc.insert_record(text).expect("insert interned text");
        if i % 3 == 2 {
            svc.delete_record((i / 3) as u64).expect("scripted delete");
            n_deletes += 1;
        }
        if (i + 1) % compact_every == 0 {
            svc.compact().expect("scripted compaction");
            compact_pause = compact_pause.max(svc.stats().last_compact_nanos as f64 / 1e9);
        }
        let probes = [
            battery[(2 * i) % battery.len()],
            battery[(2 * i + 1) % battery.len()],
        ];
        let (c, p, r, lat) = run_queries(&probes);
        m_cands += c;
        m_proc += p;
        m_res += r;
        m_lat.extend(lat);
    }
    svc.compact().expect("final compaction");
    compact_pause = compact_pause.max(svc.stats().last_compact_nanos as f64 / 1e9);
    let mixed_secs = t_phase.elapsed().as_secs_f64();

    assert_eq!(stale_anomalies, 0, "generation guard violated");

    // Acceptance: the served final state answers byte-identically to a
    // fresh monolithic prepare of the same live corpus.
    let snap = svc.snapshot();
    let kn = snap.knowledge().clone();
    let engine = Engine::new(kn, svc.config().sim).expect("reference engine");
    let mut corpus = au_text::record::Corpus::new();
    let mut gids: Vec<u64> = Vec::new();
    for (gid, rec) in snap.live_records() {
        corpus.push_tokens(rec.tokens.clone(), rec.raw.clone());
        gids.push(gid);
    }
    let prepared = engine.prepare_owned(corpus).expect("reference prepare");
    let spec = JoinSpec::threshold(theta).filter(FilterKind::AuDp { tau: 2 });
    let searcher = engine
        .searcher(&prepared, &spec)
        .expect("reference searcher");
    let (mut inherited_candidates, mut fresh_candidates) = (0u64, 0u64);
    for q in &battery {
        let served = svc.search(q).expect("served query");
        let fresh = searcher.query(q);
        let reference: Vec<(u64, f64)> = fresh
            .matches
            .iter()
            .map(|&(row, sim)| (gids[row as usize], sim))
            .collect();
        assert_eq!(served.matches, reference, "served ≠ monolithic for {q:?}");
        inherited_candidates += served.candidates;
        fresh_candidates += fresh.candidates;
    }

    // The funnel across restarts: crash (copy the log bytes, forget the
    // process) and recover — the replayed service must answer the whole
    // battery byte-identically to the service it replaces.
    let wal_frames = svc.stats().wal.frames;
    let t_recover = Instant::now();
    let recovered = Service::open_with(
        ds.kn.clone(),
        cfg,
        Box::new(MemStorage::with_bytes(wal_mem.bytes())),
    )
    .expect("crash recovery replay");
    let recovery_seconds = t_recover.elapsed().as_secs_f64();
    let wal_replayed_frames = recovered.stats().wal.replayed_frames;
    assert_eq!(
        wal_replayed_frames, wal_frames,
        "recovery must replay the whole log"
    );
    for q in &battery {
        assert_eq!(
            recovered.search(q).expect("recovered query").matches,
            svc.search(q).expect("served query").matches,
            "recovered ≠ served for {q:?}"
        );
    }

    // Robustness mini-scenarios on a fixed corpus (independent of
    // scale/seed so the counters are stable across smoke sizes).
    let (wal_retries, wal_backoff_waits) = transient_fault_scenario();
    let (degraded_entries, degraded_writes) = persistent_fault_scenario();

    let percentile = |lat: &[f64], p: f64| -> f64 {
        if lat.is_empty() || !timings {
            return 0.0;
        }
        let mut sorted = lat.to_vec();
        sorted.sort_by(f64::total_cmp);
        let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
        sorted[idx]
    };
    let qps = |queries: u64, secs: f64| -> f64 {
        if !timings || secs <= 0.0 {
            0.0
        } else {
            queries as f64 / secs
        }
    };

    let stats = svc.stats();
    ServeReport {
        name: "fig_serve".into(),
        au_scale: scale,
        seed,
        theta,
        n_initial: n,
        n_inserts: battery.len(),
        n_deletes,
        compactions: stats.compactions,
        stale_anomalies,
        wal_frames,
        wal_replayed_frames,
        wal_retries,
        wal_backoff_waits,
        degraded_entries,
        degraded_writes,
        admission_rejected: stats.admission.overloads,
        records_prepared: stats.records_prepared,
        records_signed: stats.records_signed,
        inherited_candidates,
        fresh_candidates,
        rows: vec![
            ServeRow {
                id: "serve/steady".into(),
                phase: "steady",
                queries: battery.len() as u64,
                candidates: s_cands,
                processed_pairs: s_proc,
                result_pairs: s_res,
                p50_seconds: percentile(&s_lat, 0.50),
                p99_seconds: percentile(&s_lat, 0.99),
                records_per_second: qps(battery.len() as u64, steady_secs),
            },
            ServeRow {
                id: "serve/mixed".into(),
                phase: "mixed",
                queries: m_lat.len() as u64,
                candidates: m_cands,
                processed_pairs: m_proc,
                result_pairs: m_res,
                p50_seconds: percentile(&m_lat, 0.50),
                p99_seconds: percentile(&m_lat, 0.99),
                records_per_second: qps(m_lat.len() as u64, mixed_secs),
            },
        ],
        compact_pause_seconds: if timings { compact_pause } else { 0.0 },
        recovery_seconds: if timings { recovery_seconds } else { 0.0 },
    }
}

/// Fixed-size durable service for the robustness mini-scenarios: eight
/// records, zero-sleep retry policy, explicit compaction only.
fn robustness_service(storage: Box<dyn au_serve::Storage>) -> (au_serve::Service, Vec<String>) {
    use au_serve::{RetryPolicy, ServeConfig, Service};
    let lines: Vec<String> = (0..8)
        .map(|i| format!("robustness corpus record {i} alpha kind{}", i % 3))
        .collect();
    let cfg = ServeConfig {
        theta: 0.5,
        filter: FilterKind::AuDp { tau: 2 },
        compact_threshold: 0,
        retry: RetryPolicy::no_sleep(4),
        ..ServeConfig::default()
    };
    let svc = Service::create_with(
        au_core::KnowledgeBuilder::new().build(),
        lines.iter().map(|s| s.as_str()),
        cfg,
        storage,
    )
    .expect("robustness scenario create");
    (svc, lines)
}

/// Deterministic transient-fault scenario: a seeded schedule of short
/// writes, torn writes and sync failures dense enough to exercise the
/// retry loop, sparse enough that (with healing) every insert
/// eventually lands. Returns `(wal_retries, wal_backoff_waits)` — exact
/// functions of the fault seed.
fn transient_fault_scenario() -> (u64, u64) {
    use au_serve::{FaultPlan, FaultyStorage, MemStorage, ServeError};
    let plan = FaultPlan::new(97)
        .with_write_fault_per_mille(350)
        .with_sync_fault_per_mille(150)
        .with_skip_calls(4); // the create() seed batch stays clean
    let storage = FaultyStorage::new(Box::new(MemStorage::new()), plan);
    let (svc, _) = robustness_service(Box::new(storage));
    for i in 0..32 {
        match svc.insert_record(&format!("transient probe {i} beta")) {
            Ok(_) => {}
            Err(ServeError::Wal { .. }) => {
                let healed = (0..20).any(|_| svc.heal().is_ok());
                assert!(healed, "transient schedule must be healable");
            }
            Err(e) => panic!("untyped failure under transient faults: {e}"),
        }
    }
    let stats = svc.stats();
    assert!(stats.wal.retries > 0, "schedule too sparse to gate retries");
    (stats.wal.retries, stats.wal.backoff_waits)
}

/// Deterministic persistent-fault scenario: after a clean create, every
/// write and sync fails — the service must degrade to typed read-only
/// mode while reads keep answering. Returns
/// `(degraded_entries, degraded_writes)`.
fn persistent_fault_scenario() -> (u64, u64) {
    use au_serve::{FaultPlan, FaultyStorage, MemStorage, ServeError};
    let plan = FaultPlan::persistent(53).with_skip_calls(4);
    let storage = FaultyStorage::new(Box::new(MemStorage::new()), plan);
    let (svc, lines) = robustness_service(Box::new(storage));
    let before = svc.search(&lines[0]).expect("read before faults").matches;
    assert!(
        matches!(
            svc.insert_record("never lands"),
            Err(ServeError::Wal { op: "insert", .. })
        ),
        "first faulted write must fail typed"
    );
    assert!(matches!(
        svc.insert_record("still down"),
        Err(ServeError::Degraded)
    ));
    assert!(matches!(svc.delete_record(0), Err(ServeError::Degraded)));
    let after = svc
        .search(&lines[0])
        .expect("read during degradation")
        .matches;
    assert_eq!(before, after, "reads must not drift under degradation");
    let stats = svc.stats();
    assert!(stats.degraded, "service must report degraded");
    (stats.degraded_entries, stats.degraded_writes)
}

/// Shard count of the `fig_shard` sharded row: fixed (not
/// [`au_core::shard::ShardPlan::auto_shard_count`]) so the resident
/// fraction — 2 resident shards of 32, plus one task's pair-order/
/// signature/CSR memos — is the same at every scale and the gated
/// `memory_ratio` (measured ≈ 0.19, ceiling 0.25) is comparable across
/// baselines.
const SHARD_COMPARE_SHARDS: usize = 32;
/// Segmented shards kept live at once on the sharded row.
const SHARD_COMPARE_CACHE: usize = 2;

/// Run the `fig_shard` comparison: monolithic prepare + self-join vs
/// the lean sharded path, byte-identical results asserted.
pub fn run_shard_comparison(scale: f64, seed: u64, timings: bool) -> ShardReport {
    let theta = 0.90;
    let n = crate::experiments::sized(1200, scale);
    let ds = med_dataset(n, seed);
    // Self-join corpus = S ∪ T: MED plants its near-duplicate pairs
    // *across* the two sides, so the union is the corpus whose self-join
    // actually contains them (a lone side would join to ~nothing and the
    // equivalence assertion would be vacuous).
    let mut corpus = au_text::record::Corpus::new();
    for r in ds.s.iter().chain(ds.t.iter()) {
        corpus.push_tokens(r.tokens.clone(), r.raw.clone());
    }
    let n = corpus.len();
    let cfg = SimConfig::default();
    let engine = Engine::new(ds.kn.clone(), cfg).expect("default SimConfig is valid");
    let spec = JoinSpec::threshold(theta).au_dp(3);

    // Monolithic: whole-corpus prepare, memory measured before the join
    // so the comparator is exactly "what a whole-corpus prepare needs".
    let prep_start = Instant::now();
    let ps = engine.prepare(&corpus).expect("monolithic prepare");
    let mono_prep = prep_start.elapsed().as_secs_f64();
    let mono_bytes = ps.memory_bytes() as u64;
    let join_start = Instant::now();
    let mono = engine.join_self(&ps, &spec).expect("monolithic self-join");
    let mono_join = join_start.elapsed().as_secs_f64();
    drop(ps);

    // Sharded: lean tier-0 plan, shards segmented on demand.
    let shard_spec = ShardSpec::auto()
        .with_shards(SHARD_COMPARE_SHARDS)
        .with_cache_capacity(SHARD_COMPARE_CACHE);
    let prep_start = Instant::now();
    let sps = engine
        .prepare_sharded(&corpus, &shard_spec)
        .expect("sharded plan");
    let shard_prep = prep_start.elapsed().as_secs_f64();
    let join_start = Instant::now();
    let sharded = engine
        .join_self_sharded(&sps, &spec)
        .expect("sharded self-join");
    let shard_join = join_start.elapsed().as_secs_f64();
    let shard_bytes = sps.peak_memory_bytes() as u64;

    // The artifact must never report a sharded run that drifted from the
    // monolithic engine (tests/shard_equivalence.rs pins this broadly;
    // this keeps the emitted JSON honest too).
    assert_eq!(
        mono.pairs, sharded.pairs,
        "sharded self-join diverged from the monolithic engine"
    );

    let throughput = |secs: f64| {
        if timings && secs > 0.0 {
            n as f64 / secs
        } else {
            0.0
        }
    };
    let row = |id: &str,
               engine: &'static str,
               res: &au_core::join::JoinResult,
               bytes: u64,
               prep: f64,
               join: f64| ShardRow {
        id: format!("fig_shard/{id}"),
        engine,
        candidates: res.stats.candidates,
        result_pairs: res.pairs.len() as u64,
        shard_tasks: res.stats.shard_tasks,
        shard_tasks_pruned: res.stats.shard_tasks_pruned,
        memory_bytes: bytes,
        prepare_seconds: zero_if(!timings, prep),
        join_seconds: zero_if(!timings, join),
        records_per_second: throughput(prep + join),
    };
    let total_tasks = sharded.stats.shard_tasks + sharded.stats.shard_tasks_pruned;
    ShardReport {
        name: "fig_shard".into(),
        au_scale: scale,
        seed,
        n_records: n,
        theta,
        shards: sps.plan().shard_count(),
        cache_capacity: SHARD_COMPARE_CACHE,
        prune_fraction: if total_tasks > 0 {
            sharded.stats.shard_tasks_pruned as f64 / total_tasks as f64
        } else {
            0.0
        },
        memory_ratio: if mono_bytes > 0 {
            shard_bytes as f64 / mono_bytes as f64
        } else {
            0.0
        },
        sharded_speedup: if timings && shard_join > 0.0 {
            mono_join / shard_join
        } else {
            0.0
        },
        rows: vec![
            row(
                "monolithic",
                "monolithic",
                &mono,
                mono_bytes,
                mono_prep,
                mono_join,
            ),
            row(
                "sharded",
                "sharded",
                &sharded,
                shard_bytes,
                shard_prep,
                shard_join,
            ),
        ],
    }
}

type FilterSpec = (&'static str, fn() -> FilterKind);

const FILTERS: [FilterSpec; 3] = [
    ("U", || FilterKind::UFilter),
    ("AU-heur", || FilterKind::AuHeuristic { tau: 3 }),
    ("AU-DP", || FilterKind::AuDp { tau: 3 }),
];

fn zero_if(disabled: bool, secs: f64) -> f64 {
    if disabled {
        0.0
    } else {
        secs
    }
}

/// Run one workload: every filter × {serial, parallel} on one dataset.
pub fn run_workload(
    name: &str,
    ds: &LabeledDataset,
    n: usize,
    theta: f64,
    seed: u64,
    scale: f64,
    timings: bool,
) -> WorkloadReport {
    let cfg = SimConfig::default();
    // One engine per workload, each side prepared exactly once: all six
    // filter × mode rows share the prepared artifacts (and the memoized
    // order), so their per-op prepare_seconds is 0.
    let engine = Engine::new(ds.kn.clone(), cfg).expect("default SimConfig is valid");
    let prep_start = Instant::now();
    let ps = engine.prepare(&ds.s).expect("S side prepares");
    let pt = engine.prepare(&ds.t).expect("T side prepares");
    let prepare_seconds = prep_start.elapsed().as_secs_f64();
    let prepare_memory_bytes = (ps.memory_bytes() + pt.memory_bytes()) as u64;
    // Warm the memoized (order, signatures, CSR) artifacts for every
    // filter before timing any row: otherwise the first row per filter
    // would pay the build its serial/parallel sibling gets for free,
    // making the two modes incomparable. filter_counts builds exactly
    // those artifacts (plus one cheap serial probe pass).
    for (_, mk_filter) in FILTERS {
        let _ = engine
            .filter_counts(&ps, &pt, theta, mk_filter())
            .expect("warm-up filter pass");
    }
    let mut rows = Vec::new();
    for (fname, mk_filter) in FILTERS {
        for (mode, parallel) in [("serial", false), ("parallel", true)] {
            let spec = JoinSpec::threshold(theta)
                .filter(mk_filter())
                .parallel(parallel);
            let res = engine.join(&ps, &pt, &spec).expect("prepared join");
            // θ-aware scoring: planted pairs below θ are not recallable by
            // any complete θ-join and must not count against it.
            let prf = score_join_at(ds, &res, theta);
            let total = res.stats.total_time().as_secs_f64();
            let verify_secs = res.stats.verify_time.as_secs_f64();
            rows.push(WorkloadRow {
                id: format!("{name}/{fname}/{mode}"),
                filter: fname.to_string(),
                mode,
                prepare_seconds: 0.0,
                candidates: res.stats.candidates,
                processed_pairs: res.stats.processed_pairs,
                compat_rejected: res.stats.compat_rejected,
                result_pairs: res.pairs.len() as u64,
                tiers: res.stats.tiers,
                prf,
                sig_seconds: zero_if(!timings, res.stats.sig_time.as_secs_f64()),
                filter_seconds: zero_if(!timings, res.stats.filter_time.as_secs_f64()),
                verify_seconds: zero_if(!timings, res.stats.verify_time.as_secs_f64()),
                total_seconds: zero_if(!timings, total),
                records_per_second: zero_if(
                    !timings,
                    if total > 0.0 {
                        (ds.s.len() + ds.t.len()) as f64 / total
                    } else {
                        0.0
                    },
                ),
                verify_cands_per_second: zero_if(
                    !timings,
                    if verify_secs > 0.0 {
                        res.stats.candidates as f64 / verify_secs
                    } else {
                        0.0
                    },
                ),
            });
        }
    }
    WorkloadReport {
        name: name.to_string(),
        au_scale: scale,
        seed,
        n_records: n,
        theta,
        prepare_seconds: zero_if(!timings, prepare_seconds),
        prepare_memory_bytes,
        rows,
        search: None,
    }
}

/// Records per side of the search row's collection: scale-1 MED.
const SEARCH_ROW_RECORDS: usize = 1200;
/// Size of its fixed query set.
const SEARCH_ROW_QUERIES: usize = 200;

/// The query funnel on scale-1 MED: a searcher over the T side at
/// θ = 0.9 (AU-DP, τ = 3), queried with the raw text of every sixth S
/// record — 200 queries, a fifth of them with a planted partner. Counts
/// only, no timings: what the run-level verification of a query decides,
/// gated like the join's tier counters.
pub fn run_search_row(seed: u64) -> SearchRow {
    let n = SEARCH_ROW_RECORDS;
    let ds = med_dataset(n, seed);
    let engine = Engine::new(ds.kn.clone(), SimConfig::default()).expect("default SimConfig");
    let pt = engine.prepare(&ds.t).expect("T side prepares");
    let spec = JoinSpec::threshold(0.90).filter(FilterKind::AuDp { tau: 3 });
    let searcher = engine.searcher(&pt, &spec).expect("searcher");
    let mut row = SearchRow {
        id: "search/med-scale1/AU-DP".into(),
        n_records: n,
        queries: 0,
        candidates: 0,
        processed_pairs: 0,
        walked_postings: 0,
        compat_rejected: 0,
        result_pairs: 0,
        tiers: VerifyTiers::default(),
    };
    let every = n / SEARCH_ROW_QUERIES;
    for r in
        ds.s.records()
            .iter()
            .step_by(every)
            .take(SEARCH_ROW_QUERIES)
    {
        let out = searcher.query(&r.raw);
        row.queries += 1;
        row.candidates += out.candidates;
        row.processed_pairs += out.processed;
        row.walked_postings += out.walked;
        row.compat_rejected += out.compat_rejected;
        row.result_pairs += out.matches.len() as u64;
        row.tiers.merge(&out.tiers);
    }
    row
}

/// Run the full suite: `med` + `wiki` workloads and the `fig_shard`
/// sharded-vs-monolithic comparison.
pub fn run_all(opts: &PerfOptions) -> (Vec<WorkloadReport>, ShardReport) {
    let mut reports = Vec::new();
    for (name, theta, seed) in [("med", 0.90, opts.seed), ("wiki", 0.95, opts.seed + 1)] {
        let n = crate::experiments::sized(1200, opts.scale);
        let ds = if name == "med" {
            med_dataset(n, seed)
        } else {
            wiki_dataset(n, seed)
        };
        reports.push(run_workload(
            name,
            &ds,
            n,
            theta,
            seed,
            opts.scale,
            opts.timings,
        ));
    }
    reports[0].search = Some(run_search_row(opts.seed));
    let shard = run_shard_comparison(opts.scale, opts.seed, opts.timings);
    (reports, shard)
}

fn push_field(out: &mut String, indent: &str, key: &str, value: String, last: bool) {
    let _ = write!(out, "{indent}\"{key}\": {value}");
    out.push_str(if last { "\n" } else { ",\n" });
}

fn num(x: f64) -> String {
    format!("{x:.6}")
}

/// The funnel counters every gated row carries, in their fixed order.
fn push_funnel(o: &mut String, counts: &[(&str, u64)], tiers: &VerifyTiers, last: bool) {
    let tier_fields = [
        ("tier0_rejects", tiers.tier0_rejects),
        ("mass_rejects", tiers.mass_rejects),
        ("enum_rejects", tiers.enum_rejects),
        ("rowmax_rejects", tiers.rowmax_rejects),
        ("greedy_rejects", tiers.greedy_rejects),
        ("tier2_rejects", tiers.tier2_rejects),
    ];
    let fields: Vec<_> = counts.iter().copied().chain(tier_fields).collect();
    for (i, (key, v)) in fields.iter().enumerate() {
        push_field(
            o,
            "      ",
            key,
            v.to_string(),
            last && i + 1 == fields.len(),
        );
    }
}

impl WorkloadReport {
    /// Stable-format JSON. With `timings = false` every timing-derived
    /// field is written as zero — the canonical byte-identical form.
    pub fn to_json(&self, timings: bool) -> String {
        let mut o = String::new();
        o.push_str("{\n");
        push_field(
            &mut o,
            "  ",
            "schema",
            format!("\"{}\"", json::escape(SCHEMA)),
            false,
        );
        push_field(
            &mut o,
            "  ",
            "name",
            format!("\"{}\"", json::escape(&self.name)),
            false,
        );
        push_field(&mut o, "  ", "au_scale", num(self.au_scale), false);
        push_field(&mut o, "  ", "seed", self.seed.to_string(), false);
        push_field(&mut o, "  ", "n_records", self.n_records.to_string(), false);
        push_field(&mut o, "  ", "theta", num(self.theta), false);
        push_field(
            &mut o,
            "  ",
            "prepare_seconds",
            num(zero_if(!timings, self.prepare_seconds)),
            false,
        );
        push_field(
            &mut o,
            "  ",
            "prepare_memory_bytes",
            self.prepare_memory_bytes.to_string(),
            false,
        );
        o.push_str("  \"workloads\": [\n");
        for (i, r) in self.rows.iter().enumerate() {
            o.push_str("    {\n");
            push_field(
                &mut o,
                "      ",
                "id",
                format!("\"{}\"", json::escape(&r.id)),
                false,
            );
            push_field(
                &mut o,
                "      ",
                "filter",
                format!("\"{}\"", json::escape(&r.filter)),
                false,
            );
            push_field(&mut o, "      ", "mode", format!("\"{}\"", r.mode), false);
            push_funnel(
                &mut o,
                &[
                    ("candidates", r.candidates),
                    ("processed_pairs", r.processed_pairs),
                    ("compat_rejected", r.compat_rejected),
                    ("result_pairs", r.result_pairs),
                ],
                &r.tiers,
                false,
            );
            push_field(&mut o, "      ", "precision", num(r.prf.p), false);
            push_field(&mut o, "      ", "recall", num(r.prf.r), false);
            push_field(&mut o, "      ", "f1", num(r.prf.f), false);
            push_field(
                &mut o,
                "      ",
                "prepare_seconds",
                num(zero_if(!timings, r.prepare_seconds)),
                false,
            );
            push_field(
                &mut o,
                "      ",
                "sig_seconds",
                num(zero_if(!timings, r.sig_seconds)),
                false,
            );
            push_field(
                &mut o,
                "      ",
                "filter_seconds",
                num(zero_if(!timings, r.filter_seconds)),
                false,
            );
            push_field(
                &mut o,
                "      ",
                "verify_seconds",
                num(zero_if(!timings, r.verify_seconds)),
                false,
            );
            push_field(
                &mut o,
                "      ",
                "total_seconds",
                num(zero_if(!timings, r.total_seconds)),
                false,
            );
            push_field(
                &mut o,
                "      ",
                "records_per_second",
                num(zero_if(!timings, r.records_per_second)),
                false,
            );
            push_field(
                &mut o,
                "      ",
                "verify_cands_per_second",
                num(zero_if(!timings, r.verify_cands_per_second)),
                true,
            );
            o.push_str(if i + 1 == self.rows.len() && self.search.is_none() {
                "    }\n"
            } else {
                "    },\n"
            });
        }
        if let Some(r) = &self.search {
            o.push_str("    {\n");
            push_field(
                &mut o,
                "      ",
                "id",
                format!("\"{}\"", json::escape(&r.id)),
                false,
            );
            push_field(
                &mut o,
                "      ",
                "n_records",
                r.n_records.to_string(),
                false,
            );
            push_field(&mut o, "      ", "queries", r.queries.to_string(), false);
            push_funnel(
                &mut o,
                &[
                    ("candidates", r.candidates),
                    ("processed_pairs", r.processed_pairs),
                    ("walked_postings", r.walked_postings),
                    ("compat_rejected", r.compat_rejected),
                    ("result_pairs", r.result_pairs),
                ],
                &r.tiers,
                true,
            );
            o.push_str("    }\n");
        }
        o.push_str("  ]\n}\n");
        o
    }
}

impl ShardReport {
    /// Stable-format JSON. Rows are emitted under `workloads` so
    /// `bench_gate` exact-matches the deterministic counters
    /// (`candidates`, `result_pairs`, `shard_tasks`,
    /// `shard_tasks_pruned`) and throughput-gates `records_per_second`
    /// with its generic row logic; `memory_ratio` carries the
    /// memory-lean claim and is gated against a fixed ceiling.
    pub fn to_json(&self, timings: bool) -> String {
        let mut o = String::new();
        o.push_str("{\n");
        push_field(
            &mut o,
            "  ",
            "schema",
            format!("\"{}\"", json::escape(SCHEMA)),
            false,
        );
        push_field(
            &mut o,
            "  ",
            "name",
            format!("\"{}\"", json::escape(&self.name)),
            false,
        );
        push_field(&mut o, "  ", "au_scale", num(self.au_scale), false);
        push_field(&mut o, "  ", "seed", self.seed.to_string(), false);
        push_field(&mut o, "  ", "n_records", self.n_records.to_string(), false);
        push_field(&mut o, "  ", "theta", num(self.theta), false);
        push_field(&mut o, "  ", "shards", self.shards.to_string(), false);
        push_field(
            &mut o,
            "  ",
            "cache_capacity",
            self.cache_capacity.to_string(),
            false,
        );
        o.push_str("  \"workloads\": [\n");
        for (i, r) in self.rows.iter().enumerate() {
            o.push_str("    {\n");
            push_field(
                &mut o,
                "      ",
                "id",
                format!("\"{}\"", json::escape(&r.id)),
                false,
            );
            push_field(
                &mut o,
                "      ",
                "engine",
                format!("\"{}\"", r.engine),
                false,
            );
            push_field(
                &mut o,
                "      ",
                "candidates",
                r.candidates.to_string(),
                false,
            );
            push_field(
                &mut o,
                "      ",
                "result_pairs",
                r.result_pairs.to_string(),
                false,
            );
            push_field(
                &mut o,
                "      ",
                "shard_tasks",
                r.shard_tasks.to_string(),
                false,
            );
            push_field(
                &mut o,
                "      ",
                "shard_tasks_pruned",
                r.shard_tasks_pruned.to_string(),
                false,
            );
            push_field(
                &mut o,
                "      ",
                "memory_bytes",
                r.memory_bytes.to_string(),
                false,
            );
            push_field(
                &mut o,
                "      ",
                "prepare_seconds",
                num(zero_if(!timings, r.prepare_seconds)),
                false,
            );
            push_field(
                &mut o,
                "      ",
                "join_seconds",
                num(zero_if(!timings, r.join_seconds)),
                false,
            );
            push_field(
                &mut o,
                "      ",
                "records_per_second",
                num(zero_if(!timings, r.records_per_second)),
                true,
            );
            o.push_str(if i + 1 == self.rows.len() {
                "    }\n"
            } else {
                "    },\n"
            });
        }
        o.push_str("  ],\n");
        push_field(
            &mut o,
            "  ",
            "prune_fraction",
            num(self.prune_fraction),
            false,
        );
        push_field(&mut o, "  ", "memory_ratio", num(self.memory_ratio), false);
        push_field(
            &mut o,
            "  ",
            "sharded_speedup",
            num(zero_if(!timings, self.sharded_speedup)),
            true,
        );
        o.push_str("}\n");
        o
    }
}

impl ServeReport {
    /// Stable-format JSON. Rows are emitted under `workloads` so
    /// `bench_gate` exact-matches the deterministic counters
    /// (`candidates`, `processed_pairs`, `result_pairs`) and
    /// throughput-gates `records_per_second` (QPS) with its generic row
    /// logic; `stale_anomalies` is asserted zero before emission and
    /// recorded for the artifact trail.
    pub fn to_json(&self, timings: bool) -> String {
        let mut o = String::new();
        o.push_str("{\n");
        push_field(
            &mut o,
            "  ",
            "schema",
            format!("\"{}\"", json::escape(SCHEMA)),
            false,
        );
        push_field(
            &mut o,
            "  ",
            "name",
            format!("\"{}\"", json::escape(&self.name)),
            false,
        );
        push_field(&mut o, "  ", "au_scale", num(self.au_scale), false);
        push_field(&mut o, "  ", "seed", self.seed.to_string(), false);
        push_field(&mut o, "  ", "theta", num(self.theta), false);
        push_field(&mut o, "  ", "n_initial", self.n_initial.to_string(), false);
        push_field(&mut o, "  ", "n_inserts", self.n_inserts.to_string(), false);
        push_field(&mut o, "  ", "n_deletes", self.n_deletes.to_string(), false);
        push_field(
            &mut o,
            "  ",
            "compactions",
            self.compactions.to_string(),
            false,
        );
        push_field(
            &mut o,
            "  ",
            "stale_anomalies",
            self.stale_anomalies.to_string(),
            false,
        );
        for (key, v) in [
            ("wal_frames", self.wal_frames),
            ("wal_replayed_frames", self.wal_replayed_frames),
            ("wal_retries", self.wal_retries),
            ("wal_backoff_waits", self.wal_backoff_waits),
            ("degraded_entries", self.degraded_entries),
            ("degraded_writes", self.degraded_writes),
            ("admission_rejected", self.admission_rejected),
            ("records_prepared", self.records_prepared),
            ("records_signed", self.records_signed),
            ("inherited_candidates", self.inherited_candidates),
            ("fresh_candidates", self.fresh_candidates),
        ] {
            push_field(&mut o, "  ", key, v.to_string(), false);
        }
        o.push_str("  \"workloads\": [\n");
        for (i, r) in self.rows.iter().enumerate() {
            o.push_str("    {\n");
            push_field(
                &mut o,
                "      ",
                "id",
                format!("\"{}\"", json::escape(&r.id)),
                false,
            );
            push_field(&mut o, "      ", "phase", format!("\"{}\"", r.phase), false);
            push_field(&mut o, "      ", "queries", r.queries.to_string(), false);
            push_field(
                &mut o,
                "      ",
                "candidates",
                r.candidates.to_string(),
                false,
            );
            push_field(
                &mut o,
                "      ",
                "processed_pairs",
                r.processed_pairs.to_string(),
                false,
            );
            push_field(
                &mut o,
                "      ",
                "result_pairs",
                r.result_pairs.to_string(),
                false,
            );
            push_field(
                &mut o,
                "      ",
                "p50_seconds",
                num(zero_if(!timings, r.p50_seconds)),
                false,
            );
            push_field(
                &mut o,
                "      ",
                "p99_seconds",
                num(zero_if(!timings, r.p99_seconds)),
                false,
            );
            push_field(
                &mut o,
                "      ",
                "records_per_second",
                num(zero_if(!timings, r.records_per_second)),
                true,
            );
            o.push_str(if i + 1 == self.rows.len() {
                "    }\n"
            } else {
                "    },\n"
            });
        }
        o.push_str("  ],\n");
        push_field(
            &mut o,
            "  ",
            "compact_pause_seconds",
            num(zero_if(!timings, self.compact_pause_seconds)),
            false,
        );
        push_field(
            &mut o,
            "  ",
            "recovery_seconds",
            num(zero_if(!timings, self.recovery_seconds)),
            true,
        );
        o.push_str("}\n");
        o
    }
}

/// Write just the `BENCH_fig_serve.json` artifact — the standalone
/// serving smoke (`perf_serve` binary) uses this to produce a gateable
/// artifact without paying for the workload sweep.
pub fn write_serve_report(
    dir: &Path,
    serve: &ServeReport,
    timings: bool,
) -> std::io::Result<PathBuf> {
    let p = dir.join(format!("BENCH_{}.json", serve.name));
    std::fs::write(&p, serve.to_json(timings))?;
    Ok(p)
}

/// Write every report as `BENCH_<name>.json` under `dir`; returns the
/// written paths.
pub fn write_reports(
    dir: &Path,
    workloads: &[WorkloadReport],
    shard: &ShardReport,
    timings: bool,
) -> std::io::Result<Vec<PathBuf>> {
    let mut paths = Vec::new();
    for w in workloads {
        let p = dir.join(format!("BENCH_{}.json", w.name));
        std::fs::write(&p, w.to_json(timings))?;
        paths.push(p);
    }
    paths.push(write_shard_report(dir, shard, timings)?);
    Ok(paths)
}

/// Write just the `BENCH_fig_shard.json` artifact — the standalone shard
/// smoke (`perf_shard` binary) uses this to produce a gateable artifact
/// at scales where the full workload sweep would be prohibitively slow.
pub fn write_shard_report(
    dir: &Path,
    shard: &ShardReport,
    timings: bool,
) -> std::io::Result<PathBuf> {
    let p = dir.join(format!("BENCH_{}.json", shard.name));
    std::fs::write(&p, shard.to_json(timings))?;
    Ok(p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_json_is_valid_and_complete() {
        let n = 48;
        let ds = med_dataset(n, 5);
        let rep = run_workload("med", &ds, n, 0.9, 5, 0.04, false);
        assert_eq!(rep.rows.len(), 6); // 3 filters × 2 modes
        let v = json::Value::parse(&rep.to_json(false)).expect("emitted JSON parses");
        assert_eq!(v.get("schema").unwrap().as_str(), Some(SCHEMA));
        let rows = v.get("workloads").unwrap().as_arr().unwrap();
        assert_eq!(rows.len(), 6);
        for r in rows {
            assert!(r.get("candidates").unwrap().as_f64().is_some());
            assert_eq!(r.get("total_seconds").unwrap().as_f64(), Some(0.0));
        }
    }

    #[test]
    fn serial_and_parallel_rows_agree_on_counts() {
        let n = 48;
        let ds = med_dataset(n, 6);
        let rep = run_workload("med", &ds, n, 0.9, 6, 0.04, false);
        for pair in rep.rows.chunks(2) {
            assert_eq!(pair[0].candidates, pair[1].candidates, "{}", pair[0].id);
            assert_eq!(pair[0].processed_pairs, pair[1].processed_pairs);
            assert_eq!(pair[0].result_pairs, pair[1].result_pairs);
            assert_eq!(pair[0].prf, pair[1].prf);
        }
    }

    #[test]
    fn serve_report_is_deterministic_and_anomaly_free() {
        let a = run_serve_workload(0.04, 9, false);
        let b = run_serve_workload(0.04, 9, false);
        assert_eq!(a.stale_anomalies, 0);
        assert_eq!(a.to_json(false), b.to_json(false), "same seed, same bytes");
        let v = json::Value::parse(&a.to_json(false)).expect("emitted JSON parses");
        assert_eq!(v.get("schema").unwrap().as_str(), Some(SCHEMA));
        let rows = v.get("workloads").unwrap().as_arr().unwrap();
        assert_eq!(rows.len(), 2);
        assert!(a.compactions >= 2, "script + final compactions ran");
        for r in rows {
            assert!(r.get("result_pairs").unwrap().as_f64().unwrap() > 0.0);
            assert_eq!(r.get("records_per_second").unwrap().as_f64(), Some(0.0));
        }
    }

    #[test]
    fn workload_rows_carry_consistent_tier_counters() {
        let n = 48;
        let ds = med_dataset(n, 6);
        let rep = run_workload("med", &ds, n, 0.9, 6, 0.04, false);
        for r in &rep.rows {
            assert_eq!(
                r.tiers.decisions(),
                r.candidates,
                "{}: every candidate lands in exactly one tier bucket",
                r.id
            );
            assert_eq!(r.tiers.accepted, r.result_pairs, "{}", r.id);
        }
        // Serial and parallel rows agree on every tier bucket (pure
        // per-candidate functions).
        for pair in rep.rows.chunks(2) {
            assert_eq!(pair[0].tiers, pair[1].tiers, "{}", pair[0].id);
        }
        let v = json::Value::parse(&rep.to_json(false)).expect("JSON parses");
        let rows = v.get("workloads").unwrap().as_arr().unwrap();
        for r in rows {
            assert!(r.get("tier0_rejects").unwrap().as_f64().is_some());
            assert!(r.get("mass_rejects").unwrap().as_f64().is_some());
        }
    }

    #[test]
    fn search_row_is_a_deterministic_funnel() {
        let a = run_search_row(5);
        assert_eq!(a.queries, SEARCH_ROW_QUERIES as u64);
        assert_eq!(a.tiers.decisions(), a.candidates);
        assert_eq!(a.tiers.accepted, a.result_pairs);
        assert!(a.result_pairs > 0 && a.tiers.mass_rejects > 0);
        let mut rep = run_workload("med", &med_dataset(48, 5), 48, 0.9, 5, 0.04, false);
        rep.search = Some(a);
        let first = rep.to_json(false);
        rep.search = Some(run_search_row(5));
        assert_eq!(first, rep.to_json(false), "same seed, same bytes");
        let v = json::Value::parse(&first).expect("emitted JSON parses");
        let rows = v.get("workloads").unwrap().as_arr().unwrap();
        assert_eq!(rows.len(), 7);
        let row = rows.last().unwrap();
        assert_eq!(row.get("queries").unwrap().as_f64(), Some(200.0));
        assert!(row.get("mass_rejects").unwrap().as_f64().unwrap() > 0.0);
    }

    #[test]
    fn shard_comparison_is_lean_and_identical() {
        let rep = run_shard_comparison(0.1, 5, false);
        assert_eq!(rep.rows.len(), 2);
        let (mono, shard) = (&rep.rows[0], &rep.rows[1]);
        // run_shard_comparison asserts pair-level identity internally;
        // the emitted rows must agree on the accepted count too.
        assert_eq!(mono.result_pairs, shard.result_pairs);
        assert_eq!(mono.shard_tasks, 0, "monolithic join never shards");
        assert_eq!(
            shard.shard_tasks + shard.shard_tasks_pruned,
            (rep.shards * (rep.shards + 1) / 2) as u64,
            "self-join task grid covers every unordered shard pair"
        );
        // The point of the section: the lazy path's peak stays under a
        // quarter of the whole-corpus prepare — the same ceiling
        // bench_gate enforces on the emitted artifact (the ratio is
        // scale-invariant: both sides of it are linear in corpus size).
        assert!(mono.memory_bytes > 0 && shard.memory_bytes > 0);
        assert!(
            rep.memory_ratio < 0.25,
            "sharded peak {} vs monolithic {} (ratio {})",
            shard.memory_bytes,
            mono.memory_bytes,
            rep.memory_ratio
        );
        let v = json::Value::parse(&rep.to_json(false)).expect("shard JSON parses");
        assert_eq!(v.get("name").unwrap().as_str(), Some("fig_shard"));
        let rows = v.get("workloads").unwrap().as_arr().unwrap();
        assert_eq!(rows.len(), 2);
        for r in rows {
            assert!(r.get("memory_bytes").unwrap().as_f64().is_some());
            assert_eq!(r.get("join_seconds").unwrap().as_f64(), Some(0.0));
        }
        assert!(v.get("memory_ratio").unwrap().as_f64().unwrap() > 0.0);
    }
}
