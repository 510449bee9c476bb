//! Streaming-join (`join_sink` / `join_self_sink`) contract on
//! datagen-sized corpora: emission order is deterministic and identical
//! to the batch join under *any* `AU_SINK_CHUNK` (including 1, the
//! minimal-memory extreme — chunk size is a pure memory knob, never a
//! behavior knob), sharded and unsharded paths agree byte-for-byte, and
//! the sharded prepare's measured peak stays below a monolithic prepare.
//!
//! Sized by `AU_SCALE` (default here 0.5 → 600 records/side, so plain
//! `cargo test` stays fast); the CI shard-smoke job re-runs this suite
//! release-mode at `AU_SCALE=10` (12,000 records/side) — the scale the
//! streaming path exists for.
//!
//! `AU_SINK_CHUNK` is process-global, so every test that runs a sink
//! join serializes on one mutex and restores the variable before
//! releasing it.

use au_bench::med_dataset;
use au_core::config::SimConfig;
use au_core::engine::{Engine, JoinSpec};
use au_core::shard::ShardSpec;
use std::sync::Mutex;

static SINK_ENV: Mutex<()> = Mutex::new(());

fn scale() -> f64 {
    std::env::var("AU_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&s: &f64| s > 0.0)
        .unwrap_or(0.5)
}

fn n_records() -> usize {
    au_bench::experiments::sized(1200, scale())
}

/// Run `f` with `AU_SINK_CHUNK` set to `chunk` (or unset for `None`),
/// restoring the previous value afterwards. Callers must hold SINK_ENV.
fn with_chunk<R>(chunk: Option<usize>, f: impl FnOnce() -> R) -> R {
    let prev = std::env::var("AU_SINK_CHUNK").ok();
    match chunk {
        Some(c) => std::env::set_var("AU_SINK_CHUNK", c.to_string()),
        None => std::env::remove_var("AU_SINK_CHUNK"),
    }
    let out = f();
    match prev {
        Some(v) => std::env::set_var("AU_SINK_CHUNK", v),
        None => std::env::remove_var("AU_SINK_CHUNK"),
    }
    out
}

#[test]
fn sink_emission_deterministic_across_chunk_sizes_and_matches_batch() {
    let _guard = SINK_ENV.lock().unwrap();
    let n = n_records();
    let ds = med_dataset(n, 71);
    let engine = Engine::new(ds.kn.clone(), SimConfig::default()).unwrap();
    let ps = engine.prepare(&ds.s).unwrap();
    let pt = engine.prepare(&ds.t).unwrap();
    let spec = JoinSpec::threshold(0.9).au_dp(3);
    let batch = engine.join(&ps, &pt, &spec).unwrap();
    assert!(
        !batch.pairs.is_empty(),
        "planted MED pairs must survive θ=0.9"
    );
    // The default chunk (64 Ki), chunks that cut inside a probe record's
    // run, and the bounded-memory extreme (one candidate at a time) must
    // all emit the batch result in the batch's (s, t) order.
    for chunk in [None, Some(64 * 1024), Some(100), Some(7), Some(1)] {
        let mut streamed = Vec::new();
        let stats = with_chunk(chunk, || {
            engine
                .join_sink(&ps, &pt, &spec, |a, b, sim| streamed.push((a, b, sim)))
                .unwrap()
        });
        assert_eq!(streamed, batch.pairs, "chunk {chunk:?} changed output");
        assert_eq!(stats.result_count, batch.pairs.len());
        assert_eq!(stats.candidates, batch.stats.candidates);
        // All seven tier counters are pure per-candidate functions, so a
        // chunk boundary — even one inside a run, which splits the run's
        // mass count in two — must not move a single decision.
        assert_eq!(batch.stats.tiers, stats.tiers, "chunk {chunk:?}");
    }
}

#[test]
fn self_sink_matches_batch_serial_and_parallel() {
    let _guard = SINK_ENV.lock().unwrap();
    let n = n_records();
    let ds = med_dataset(n, 72);
    let engine = Engine::new(ds.kn.clone(), SimConfig::default()).unwrap();
    let pc = engine.prepare(&ds.s).unwrap();
    for parallel in [false, true] {
        let spec = JoinSpec::threshold(0.92).au_dp(3).parallel(parallel);
        let batch = engine.join_self(&pc, &spec).unwrap();
        let mut streamed = Vec::new();
        let stats = with_chunk(Some(5), || {
            engine
                .join_self_sink(&pc, &spec, |a, b, sim| streamed.push((a, b, sim)))
                .unwrap()
        });
        assert_eq!(streamed, batch.pairs, "parallel={parallel}");
        assert_eq!(stats.result_count, batch.pairs.len());
        // Self-join order contract: (s, t) with s < t, no duplicates.
        for w in streamed.windows(2) {
            assert!((w[0].0, w[0].1) < (w[1].0, w[1].1), "order: {w:?}");
        }
        for &(a, b, _) in &streamed {
            assert!(a < b, "self pair not upper-triangular: ({a},{b})");
        }
    }
}

#[test]
fn sharded_sink_identical_to_unsharded_sink() {
    let _guard = SINK_ENV.lock().unwrap();
    let n = n_records();
    let ds = med_dataset(n, 73);
    let engine = Engine::new(ds.kn.clone(), SimConfig::default()).unwrap();
    let ps = engine.prepare(&ds.s).unwrap();
    let pt = engine.prepare(&ds.t).unwrap();

    let spec = JoinSpec::threshold(0.9).au_dp(3);
    let mut plain = Vec::new();
    engine
        .join_sink(&ps, &pt, &spec, |a, b, sim| plain.push((a, b, sim)))
        .unwrap();

    // The sharded streaming path materializes per-shard-pair results and
    // replays the deterministic (s, t) merge into the sink — memory is
    // bounded by shard artifacts, not by chunk size, so AU_SINK_CHUNK
    // must be irrelevant to it.
    for chunk in [None, Some(3)] {
        let sharded_spec = JoinSpec::threshold(0.9).au_dp(3).sharded(8);
        let mut sharded = Vec::new();
        let stats = with_chunk(chunk, || {
            engine
                .join_sink(&ps, &pt, &sharded_spec, |a, b, sim| {
                    sharded.push((a, b, sim))
                })
                .unwrap()
        });
        assert_eq!(sharded, plain, "sharded sink diverged (chunk {chunk:?})");
        assert_eq!(stats.result_count, plain.len());
        assert!(stats.shard_tasks > 0, "sharded run must report its tasks");
    }

    // Self-join flavour.
    let mut self_plain = Vec::new();
    engine
        .join_self_sink(&ps, &spec, |a, b, sim| self_plain.push((a, b, sim)))
        .unwrap();
    let mut self_sharded = Vec::new();
    engine
        .join_self_sink(
            &ps,
            &JoinSpec::threshold(0.9).au_dp(3).sharded(8),
            |a, b, sim| self_sharded.push((a, b, sim)),
        )
        .unwrap();
    assert_eq!(self_sharded, self_plain, "sharded self sink diverged");
}

#[test]
fn sharded_prepare_peak_stays_below_monolithic() {
    // The bounded-peak-memory half of the streaming contract, measured
    // with the same deep accounting the perf gate uses: joining through
    // `ShardedPrepared` must never become resident-heavier than simply
    // preparing the whole corpus up front. (The perf harness pins the
    // much stronger ≤ 0.25 ratio at fixed 32/2 shard parameters; this
    // test uses the auto plan, so it asserts the direction, not the
    // constant.)
    let n = n_records();
    let ds = med_dataset(n, 74);
    let engine = Engine::new(ds.kn.clone(), SimConfig::default()).unwrap();

    let mono = engine.prepare(&ds.s).unwrap();
    let spec = JoinSpec::threshold(0.9).au_dp(3);
    let batch = engine.join_self(&mono, &spec).unwrap();
    let mono_bytes = mono.memory_bytes();
    drop(mono);

    let sps = engine.prepare_sharded(&ds.s, &ShardSpec::auto()).unwrap();
    let sharded = engine.join_self_sharded(&sps, &spec).unwrap();
    assert_eq!(sharded.pairs, batch.pairs, "sharded join diverged");
    let peak = sps.peak_memory_bytes();
    assert!(peak > 0, "peak accounting must have sampled something");
    assert!(
        peak < mono_bytes,
        "sharded peak {peak} not below monolithic {mono_bytes}"
    );
}
