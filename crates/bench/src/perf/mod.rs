//! Machine-readable perf harness: the deterministic counters the CI gate
//! diffs.
//!
//! `cargo run --release -p au-bench --bin perf` runs MED-like and
//! WIKI-like workloads (sized by `AU_SCALE`) across the three filters
//! {U, AU-heuristic, AU-DP} × {serial, parallel}, the query funnel of a
//! fixed 200-query set on scale-1 MED (one more row of `BENCH_med.json`),
//! plus a `fig_shard` sharded-vs-monolithic self-join comparison (memory
//! and pruning), and writes one `BENCH_<name>.json` per workload;
//! `perf_shard` writes `fig_shard` alone and `perf_serve` the `fig_serve`
//! serving workload. `bench_gate` diffs those artifacts value for value
//! against the checked-in baselines under `tools/`.
//!
//! Determinism contract: every field is a count, a byte count, a ratio of
//! counts or a run parameter — a pure function of (`AU_SCALE`, seed) — so
//! two runs emit byte-identical JSON (`crates/bench/tests/perf_determinism.rs`).
//! Nothing here is timed: wall-clock is the repo benchmark's record
//! (`benchmark/`, `BENCHMARK.json`), per unit of work in its traced
//! layer metrics.

pub mod json;

use crate::harness::{med_dataset, score_join_at, wiki_dataset, Prf};
use au_core::config::SimConfig;
use au_core::engine::{Engine, JoinSpec};
use au_core::search::QueryPlan;
use au_core::shard::ShardSpec;
use au_core::signature::FilterKind;
use au_core::usim::VerifyTiers;
use au_datagen::LabeledDataset;
use json::Value;
use std::path::{Path, PathBuf};

/// Schema tag stamped into every artifact (bump on breaking changes).
pub const SCHEMA: &str = "au-bench/perf/v2";

/// Base RNG seed of the generated datasets (`wiki` uses `SEED + 1`).
pub const SEED: u64 = 71;

/// Ceiling on `fig_shard`'s `memory_ratio`: the sharded peak may hold at
/// most this fraction of a monolithic whole-corpus prepare. `bench_gate`
/// enforces it on every current artifact — an absolute acceptance bound,
/// not a regression tolerance.
pub const MAX_MEMORY_RATIO: f64 = 0.25;

/// One (filter × mode) measurement of a workload.
#[derive(Debug, Clone)]
pub struct WorkloadRow {
    /// Stable row id, e.g. `med/AU-DP/parallel`.
    pub id: String,
    /// Filter short name (`U`, `AU-heur`, `AU-DP`).
    pub filter: String,
    /// `serial` or `parallel` (verification + candidate probing).
    pub mode: &'static str,
    /// `Vτ`: candidates surviving the τ-overlap test.
    pub candidates: u64,
    /// `Tτ`: posting entries touched (Eq. 16).
    pub processed_pairs: u64,
    /// Posting entries the verification mass walks read
    /// ([`au_core::join::JoinStats::walked`]): the same in both modes.
    pub walked_postings: u64,
    /// Pairs rejected in-probe by the tier-0 compatibility bound
    /// ([`au_core::join::JoinStats::compat_rejected`]).
    pub compat_rejected: u64,
    /// Pairs accepted by verification.
    pub result_pairs: u64,
    /// Per-tier verification telemetry (see
    /// [`au_core::usim::VerifyTiers`]): pure per-candidate functions,
    /// identical across runs, thread counts and hosts.
    pub tiers: VerifyTiers,
    /// Precision/recall/F1 against the planted ground truth.
    pub prf: Prf,
}

/// The query funnel of [`run_search_row`]: every field a sum over the
/// query set and a pure function of the seed — the search path's
/// counterpart of a join row's counters.
#[derive(Debug, Clone, Default)]
pub struct SearchRow {
    /// Stable row id (`search/med-scale1/AU-DP`).
    pub id: String,
    /// Records in the searched collection (always scale 1, whatever
    /// `AU_SCALE` sizes the join rows to).
    pub n_records: usize,
    /// Queries issued.
    pub queries: u64,
    /// Queries answered by the tier-0 window instead of a signature probe
    /// ([`au_core::search::QueryPlan::Window`]).
    pub window_plan_queries: u64,
    /// Σ records that reached verification (a window-plan query's whole
    /// window).
    pub candidates: u64,
    /// Σ posting entries the probes read (none for a window-plan query).
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
    /// Deep bytes of the two prepared artifacts right after
    /// [`Engine::prepare`] (before any memoized order/signature/CSR
    /// artifacts exist) — [`au_core::engine::Prepared::memory_bytes`],
    /// summed over both sides: the memory the sharded path is lean
    /// *relative to*.
    pub prepare_memory_bytes: u64,
    /// Measurements; every row reuses the two prepared artifacts.
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
    /// Length-based accounting, so deterministic.
    pub memory_bytes: u64,
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
    /// claim in one number, at most [`MAX_MEMORY_RATIO`].
    pub memory_ratio: f64,
}

/// One phase measurement of the `fig_serve` serving workload.
#[derive(Debug, Clone, Default)]
pub struct ServeRow {
    /// `serve/steady` or `serve/mixed`.
    pub id: String,
    /// `steady` (reads against the initial base) or `mixed` (reads
    /// interleaved with insert/delete/compact).
    pub phase: &'static str,
    /// Queries issued in this phase.
    pub queries: u64,
    /// `Vτ` summed over every query (base + delta probes).
    pub candidates: u64,
    /// `Tτ` summed over every query.
    pub processed_pairs: u64,
    /// Matches returned, summed over every query.
    pub result_pairs: u64,
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
    /// compaction markers).
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
    /// depend on how many ran.
    pub records_prepared: u64,
    /// Records the service's base builds ran through signature selection
    /// (`ServeStats::records_signed`): the initial corpus, the rows each
    /// inheriting compaction appended, every live row at a re-rank.
    pub records_signed: u64,
    /// Signature candidates of the query battery (`filter_candidates`,
    /// the probe's `Vτ` whatever plan a query takes) against the final
    /// served base, whose pebble order the last compaction inherited …
    pub inherited_candidates: u64,
    /// … and against a fresh prepare (fresh ranking) of the same records:
    /// the pair is the gated measure of what an aged order costs the
    /// filter. Matches are asserted identical.
    pub fresh_candidates: u64,
    /// Per-phase rows (`steady` first).
    pub rows: Vec<ServeRow>,
}

/// Run the `fig_serve` serving workload: MED-like base corpus, T-side
/// texts as the query battery and the insert stream, scripted deletes of
/// early base ids and periodic compactions. The final served state is
/// asserted byte-identical to a monolithic rebuild, and a crash-recovered
/// service to the one it replaces, before the report is returned.
pub fn run_serve_workload(scale: f64, seed: u64) -> ServeReport {
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
    let mut run_queries = |row: &mut ServeRow, texts: &[&str]| {
        for q in texts {
            let before = svc.generation();
            let resp = svc.search(q).expect("admission unbounded by default");
            if resp.generation < before {
                stale_anomalies += 1;
            }
            row.queries += 1;
            row.candidates += resp.candidates;
            row.processed_pairs += resp.processed;
            row.result_pairs += resp.matches.len() as u64;
        }
    };
    let phase = |phase: &'static str| ServeRow {
        id: format!("serve/{phase}"),
        phase,
        ..ServeRow::default()
    };

    // Phase 1: steady reads against the untouched base snapshot.
    let mut steady = phase("steady");
    run_queries(&mut steady, &battery);

    // Phase 2: two battery queries per step of the mutation script —
    // every T record inserted, every third step deletes an early base
    // id, periodic compactions fold the delta.
    let compact_every = (n / 8).max(8);
    let mut mixed = phase("mixed");
    let mut n_deletes = 0usize;
    for (i, text) in battery.iter().enumerate() {
        svc.insert_record(text).expect("insert interned text");
        if i % 3 == 2 {
            svc.delete_record((i / 3) as u64).expect("scripted delete");
            n_deletes += 1;
        }
        if (i + 1) % compact_every == 0 {
            svc.compact().expect("scripted compaction");
        }
        let probes = [
            battery[(2 * i) % battery.len()],
            battery[(2 * i + 1) % battery.len()],
        ];
        run_queries(&mut mixed, &probes);
    }
    svc.compact().expect("final compaction");
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
        inherited_candidates += snap.filter_candidates(q);
        fresh_candidates += searcher.filter_candidates(q);
    }

    // The funnel across restarts: crash (copy the log bytes, forget the
    // process) and recover — the replayed service must answer the whole
    // battery byte-identically to the service it replaces.
    let wal_frames = svc.stats().wal.frames;
    let recovered = Service::open_with(
        ds.kn.clone(),
        cfg,
        Box::new(MemStorage::with_bytes(wal_mem.bytes())),
    )
    .expect("crash recovery replay");
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
        rows: vec![steady, mixed],
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
/// `memory_ratio` (measured ≈ 0.15–0.19, ceiling [`MAX_MEMORY_RATIO`]) is
/// comparable across baselines.
const SHARD_COMPARE_SHARDS: usize = 32;
/// Segmented shards kept live at once on the sharded row.
const SHARD_COMPARE_CACHE: usize = 2;

/// Run the `fig_shard` comparison: monolithic prepare + self-join vs
/// the lean sharded path, byte-identical results asserted.
pub fn run_shard_comparison(scale: f64, seed: u64) -> ShardReport {
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
    let cfg = SimConfig::default();
    let engine = Engine::new(ds.kn.clone(), cfg).expect("default SimConfig is valid");
    let spec = JoinSpec::threshold(theta).au_dp(3);

    // Monolithic: whole-corpus prepare, memory measured before the join
    // so the comparator is exactly "what a whole-corpus prepare needs".
    let ps = engine.prepare(&corpus).expect("monolithic prepare");
    let mono_bytes = ps.memory_bytes() as u64;
    let mono = engine.join_self(&ps, &spec).expect("monolithic self-join");
    drop(ps);

    // Sharded: lean tier-0 plan, shards segmented on demand.
    let shard_spec = ShardSpec::auto()
        .with_shards(SHARD_COMPARE_SHARDS)
        .with_cache_capacity(SHARD_COMPARE_CACHE);
    let sps = engine
        .prepare_sharded(&corpus, &shard_spec)
        .expect("sharded plan");
    let sharded = engine
        .join_self_sharded(&sps, &spec)
        .expect("sharded self-join");
    let shard_bytes = sps.peak_memory_bytes() as u64;

    // The artifact must never report a sharded run that drifted from the
    // monolithic engine (tests/shard_equivalence.rs pins this broadly;
    // this keeps the emitted JSON honest too).
    assert_eq!(
        mono.pairs, sharded.pairs,
        "sharded self-join diverged from the monolithic engine"
    );

    let row = |engine: &'static str, res: &au_core::join::JoinResult, bytes: u64| ShardRow {
        id: format!("fig_shard/{engine}"),
        engine,
        candidates: res.stats.candidates,
        result_pairs: res.pairs.len() as u64,
        shard_tasks: res.stats.shard_tasks,
        shard_tasks_pruned: res.stats.shard_tasks_pruned,
        memory_bytes: bytes,
    };
    let total_tasks = sharded.stats.shard_tasks + sharded.stats.shard_tasks_pruned;
    ShardReport {
        name: "fig_shard".into(),
        au_scale: scale,
        seed,
        n_records: corpus.len(),
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
        rows: vec![
            row("monolithic", &mono, mono_bytes),
            row("sharded", &sharded, shard_bytes),
        ],
    }
}

type FilterSpec = (&'static str, fn() -> FilterKind);

const FILTERS: [FilterSpec; 3] = [
    ("U", || FilterKind::UFilter),
    ("AU-heur", || FilterKind::AuHeuristic { tau: 3 }),
    ("AU-DP", || FilterKind::AuDp { tau: 3 }),
];

/// Run one workload: every filter × {serial, parallel} on one dataset.
pub fn run_workload(
    name: &str,
    ds: &LabeledDataset,
    n: usize,
    theta: f64,
    seed: u64,
    scale: f64,
) -> WorkloadReport {
    let cfg = SimConfig::default();
    // One engine per workload, each side prepared exactly once: all six
    // filter × mode rows share the prepared artifacts (and the memoized
    // order, signatures and index of their filter).
    let engine = Engine::new(ds.kn.clone(), cfg).expect("default SimConfig is valid");
    let ps = engine.prepare(&ds.s).expect("S side prepares");
    let pt = engine.prepare(&ds.t).expect("T side prepares");
    let prepare_memory_bytes = (ps.memory_bytes() + pt.memory_bytes()) as u64;
    let mut rows = Vec::new();
    for (fname, mk_filter) in FILTERS {
        for (mode, parallel) in [("serial", false), ("parallel", true)] {
            let spec = JoinSpec::threshold(theta)
                .filter(mk_filter())
                .parallel(parallel);
            let res = engine.join(&ps, &pt, &spec).expect("prepared join");
            rows.push(WorkloadRow {
                id: format!("{name}/{fname}/{mode}"),
                filter: fname.to_string(),
                mode,
                candidates: res.stats.candidates,
                processed_pairs: res.stats.processed_pairs,
                walked_postings: res.stats.walked,
                compat_rejected: res.stats.compat_rejected,
                result_pairs: res.pairs.len() as u64,
                tiers: res.stats.tiers,
                // θ-aware scoring: planted pairs below θ are not
                // recallable by any complete θ-join and must not count
                // against it.
                prf: score_join_at(ds, &res, theta),
            });
        }
    }
    WorkloadReport {
        name: name.to_string(),
        au_scale: scale,
        seed,
        n_records: n,
        theta,
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
/// record — 200 queries, a fifth of them with a planted partner: what
/// the run-level verification of a query decides, gated like the join's
/// tier counters.
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
        ..SearchRow::default()
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
        row.window_plan_queries += u64::from(out.plan == QueryPlan::Window);
        row.candidates += out.candidates;
        row.processed_pairs += out.processed;
        row.walked_postings += out.walked;
        row.compat_rejected += out.compat_rejected;
        row.result_pairs += out.matches.len() as u64;
        row.tiers.merge(&out.tiers);
    }
    row
}

/// Run the full suite at `scale`: `med` + `wiki` workloads and the
/// `fig_shard` sharded-vs-monolithic comparison.
pub fn run_all(scale: f64) -> (Vec<WorkloadReport>, ShardReport) {
    let n = crate::experiments::sized(1200, scale);
    let med = med_dataset(n, SEED);
    let wiki = wiki_dataset(n, SEED + 1);
    let mut reports = vec![
        run_workload("med", &med, n, 0.90, SEED, scale),
        run_workload("wiki", &wiki, n, 0.95, SEED + 1, scale),
    ];
    reports[0].search = Some(run_search_row(SEED));
    (reports, run_shard_comparison(scale, SEED))
}

/// The funnel counters every join and search row carries after its
/// own counts, in their fixed order.
fn tier_fields(t: &VerifyTiers) -> [(&'static str, Value); 3] {
    [
        ("mass_rejects", t.mass_rejects.into()),
        ("rowmax_rejects", t.rowmax_rejects.into()),
        ("tier2_rejects", t.tier2_rejects.into()),
    ]
}

impl WorkloadRow {
    fn to_value(&self) -> Value {
        let counts = [
            ("id", self.id.as_str().into()),
            ("filter", self.filter.as_str().into()),
            ("mode", self.mode.into()),
            ("candidates", self.candidates.into()),
            ("processed_pairs", self.processed_pairs.into()),
            ("walked_postings", self.walked_postings.into()),
            ("compat_rejected", self.compat_rejected.into()),
            ("result_pairs", self.result_pairs.into()),
        ];
        let prf = [
            ("precision", self.prf.p.into()),
            ("recall", self.prf.r.into()),
            ("f1", self.prf.f.into()),
        ];
        Value::obj(
            counts
                .into_iter()
                .chain(tier_fields(&self.tiers))
                .chain(prf),
        )
    }
}

impl SearchRow {
    fn to_value(&self) -> Value {
        let counts = [
            ("id", self.id.as_str().into()),
            ("n_records", self.n_records.into()),
            ("queries", self.queries.into()),
            ("window_plan_queries", self.window_plan_queries.into()),
            ("candidates", self.candidates.into()),
            ("processed_pairs", self.processed_pairs.into()),
            ("walked_postings", self.walked_postings.into()),
            ("compat_rejected", self.compat_rejected.into()),
            ("result_pairs", self.result_pairs.into()),
        ];
        Value::obj(counts.into_iter().chain(tier_fields(&self.tiers)))
    }
}

impl WorkloadReport {
    /// The `BENCH_<name>.json` document: run parameters, then one
    /// `workloads` entry per row, the search row last.
    pub fn to_value(&self) -> Value {
        let rows = self.rows.iter().map(WorkloadRow::to_value);
        let search = self.search.iter().map(SearchRow::to_value);
        Value::obj([
            ("schema", SCHEMA.into()),
            ("name", self.name.as_str().into()),
            ("au_scale", self.au_scale.into()),
            ("seed", self.seed.into()),
            ("n_records", self.n_records.into()),
            ("theta", self.theta.into()),
            ("prepare_memory_bytes", self.prepare_memory_bytes.into()),
            ("workloads", Value::Arr(rows.chain(search).collect())),
        ])
    }
}

impl ShardReport {
    /// The `BENCH_fig_shard.json` document.
    pub fn to_value(&self) -> Value {
        let rows = self.rows.iter().map(|r| {
            Value::obj([
                ("id", r.id.as_str().into()),
                ("engine", r.engine.into()),
                ("candidates", r.candidates.into()),
                ("result_pairs", r.result_pairs.into()),
                ("shard_tasks", r.shard_tasks.into()),
                ("shard_tasks_pruned", r.shard_tasks_pruned.into()),
                ("memory_bytes", r.memory_bytes.into()),
            ])
        });
        Value::obj([
            ("schema", SCHEMA.into()),
            ("name", self.name.as_str().into()),
            ("au_scale", self.au_scale.into()),
            ("seed", self.seed.into()),
            ("n_records", self.n_records.into()),
            ("theta", self.theta.into()),
            ("shards", self.shards.into()),
            ("cache_capacity", self.cache_capacity.into()),
            ("workloads", Value::Arr(rows.collect())),
            ("prune_fraction", self.prune_fraction.into()),
            ("memory_ratio", self.memory_ratio.into()),
        ])
    }
}

impl ServeReport {
    /// The `BENCH_fig_serve.json` document.
    pub fn to_value(&self) -> Value {
        let rows = self.rows.iter().map(|r| {
            Value::obj([
                ("id", r.id.as_str().into()),
                ("phase", r.phase.into()),
                ("queries", r.queries.into()),
                ("candidates", r.candidates.into()),
                ("processed_pairs", r.processed_pairs.into()),
                ("result_pairs", r.result_pairs.into()),
            ])
        });
        Value::obj([
            ("schema", SCHEMA.into()),
            ("name", self.name.as_str().into()),
            ("au_scale", self.au_scale.into()),
            ("seed", self.seed.into()),
            ("theta", self.theta.into()),
            ("n_initial", self.n_initial.into()),
            ("n_inserts", self.n_inserts.into()),
            ("n_deletes", self.n_deletes.into()),
            ("compactions", self.compactions.into()),
            ("stale_anomalies", self.stale_anomalies.into()),
            ("wal_frames", self.wal_frames.into()),
            ("wal_replayed_frames", self.wal_replayed_frames.into()),
            ("wal_retries", self.wal_retries.into()),
            ("wal_backoff_waits", self.wal_backoff_waits.into()),
            ("degraded_entries", self.degraded_entries.into()),
            ("degraded_writes", self.degraded_writes.into()),
            ("admission_rejected", self.admission_rejected.into()),
            ("records_prepared", self.records_prepared.into()),
            ("records_signed", self.records_signed.into()),
            ("inherited_candidates", self.inherited_candidates.into()),
            ("fresh_candidates", self.fresh_candidates.into()),
            ("workloads", Value::Arr(rows.collect())),
        ])
    }
}

/// Write `doc` as `BENCH_<name>.json` under `dir`; returns the path.
pub fn write_report(dir: &Path, name: &str, doc: &Value) -> std::io::Result<PathBuf> {
    let p = dir.join(format!("BENCH_{name}.json"));
    std::fs::write(&p, format!("{doc}\n"))?;
    Ok(p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_json_is_valid_and_complete() {
        let rep = run_workload("med", &med_dataset(48, 5), 48, 0.9, 5, 0.04);
        assert_eq!(rep.rows.len(), 6); // 3 filters × 2 modes
        let v = Value::parse(&rep.to_value().to_string()).expect("emitted JSON parses");
        assert_eq!(v, rep.to_value());
        assert_eq!(v.get("schema").unwrap().as_str(), Some(SCHEMA));
        let rows = v.get("workloads").unwrap().as_arr().unwrap();
        assert_eq!(rows.len(), 6);
        for r in rows {
            for key in ["candidates", "f1"] {
                assert!(r.get(key).unwrap().as_f64().is_some(), "{key}");
            }
        }
    }

    #[test]
    fn serial_and_parallel_rows_agree_on_counts() {
        let rep = run_workload("med", &med_dataset(48, 6), 48, 0.9, 6, 0.04);
        for pair in rep.rows.chunks(2) {
            assert_eq!(pair[0].candidates, pair[1].candidates, "{}", pair[0].id);
            assert_eq!(pair[0].processed_pairs, pair[1].processed_pairs);
            assert_eq!(pair[0].result_pairs, pair[1].result_pairs);
            assert_eq!(pair[0].prf, pair[1].prf);
        }
    }

    #[test]
    fn workload_rows_carry_consistent_tier_counters() {
        let rep = run_workload("med", &med_dataset(48, 6), 48, 0.9, 6, 0.04);
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
        let v = Value::parse(&rep.to_value().to_string()).expect("JSON parses");
        for r in v.get("workloads").unwrap().as_arr().unwrap() {
            assert!(r.get("mass_rejects").unwrap().as_f64().is_some());
            assert!(r.get("rowmax_rejects").unwrap().as_f64().is_some());
        }
    }

    #[test]
    fn serve_report_is_deterministic_and_anomaly_free() {
        let a = run_serve_workload(0.04, 9);
        let b = run_serve_workload(0.04, 9);
        assert_eq!(a.stale_anomalies, 0);
        let doc = a.to_value().to_string();
        assert_eq!(doc, b.to_value().to_string(), "same seed, same bytes");
        let v = Value::parse(&doc).expect("emitted JSON parses");
        assert_eq!(v.get("schema").unwrap().as_str(), Some(SCHEMA));
        let rows = v.get("workloads").unwrap().as_arr().unwrap();
        assert_eq!(rows.len(), 2);
        assert!(a.compactions >= 2, "script + final compactions ran");
        assert_eq!(a.rows[1].queries, 2 * a.n_inserts as u64);
        assert!(rows
            .iter()
            .all(|r| r.get("result_pairs").unwrap().as_f64().unwrap() > 0.0));
    }

    #[test]
    fn search_row_is_a_deterministic_funnel() {
        let a = run_search_row(5);
        assert_eq!(a.queries, SEARCH_ROW_QUERIES as u64);
        assert_eq!(a.tiers.decisions(), a.candidates);
        assert_eq!(a.tiers.accepted, a.result_pairs);
        assert!(a.result_pairs > 0 && a.tiers.mass_rejects > 0);
        let mut rep = run_workload("med", &med_dataset(48, 5), 48, 0.9, 5, 0.04);
        rep.search = Some(a);
        let first = rep.to_value().to_string();
        rep.search = Some(run_search_row(5));
        assert_eq!(first, rep.to_value().to_string(), "same seed, same bytes");
        let v = Value::parse(&first).expect("emitted JSON parses");
        let rows = v.get("workloads").unwrap().as_arr().unwrap();
        assert_eq!(rows.len(), 7);
        let row = rows.last().unwrap();
        assert_eq!(row.get("queries").unwrap().as_f64(), Some(200.0));
        assert!(row.get("mass_rejects").unwrap().as_f64().unwrap() > 0.0);
    }

    #[test]
    fn shard_comparison_is_lean_and_identical() {
        let rep = run_shard_comparison(0.1, 5);
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
        // The point of the section: the lazy path's peak stays under the
        // ceiling bench_gate enforces on the emitted artifact (the ratio
        // is scale-invariant: both sides of it are linear in corpus size).
        assert!(mono.memory_bytes > 0 && shard.memory_bytes > 0);
        assert!(
            rep.memory_ratio < MAX_MEMORY_RATIO,
            "sharded peak {} vs monolithic {} (ratio {})",
            shard.memory_bytes,
            mono.memory_bytes,
            rep.memory_ratio
        );
        let v = Value::parse(&rep.to_value().to_string()).expect("shard JSON parses");
        assert_eq!(v.get("name").unwrap().as_str(), Some("fig_shard"));
        let rows = v.get("workloads").unwrap().as_arr().unwrap();
        assert_eq!(rows.len(), 2);
        assert!(rows
            .iter()
            .all(|r| r.get("memory_bytes").unwrap().as_f64().is_some()));
        assert!(v.get("memory_ratio").unwrap().as_f64().unwrap() > 0.0);
    }
}
