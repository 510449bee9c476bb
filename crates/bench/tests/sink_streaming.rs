//! Streaming-join (`join_sink` / `join_self_sink`) contract on
//! datagen-sized corpora: emission order is deterministic and identical
//! to the batch join (that a verification-batch boundary moves nothing is
//! `au-core`'s `chunk_boundaries_move_no_pair_and_no_tier_tally`), and
//! the sharded prepare's measured peak stays below a monolithic prepare.
//!
//! Sized by `AU_SCALE` (default here 0.5 → 600 records/side, so plain
//! `cargo test` stays fast); the CI shard-smoke job re-runs this suite
//! release-mode at `AU_SCALE=10` (12,000 records/side) — the scale the
//! streaming path exists for.

use au_bench::med_dataset;
use au_core::config::SimConfig;
use au_core::engine::{Engine, JoinSpec};
use au_core::shard::ShardSpec;

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

#[test]
fn sink_emission_deterministic_across_chunk_sizes_and_matches_batch() {
    let n = n_records();
    let ds = med_dataset(n, 71);
    let engine = Engine::new(ds.kn.clone(), SimConfig::default()).unwrap();
    let ps = engine.prepare(&ds.s).unwrap();
    let pt = engine.prepare(&ds.t).unwrap();
    for parallel in [false, true] {
        let spec = JoinSpec::threshold(0.9).au_dp(3).parallel(parallel);
        let batch = engine.join(&ps, &pt, &spec).unwrap();
        assert!(
            !batch.pairs.is_empty(),
            "planted MED pairs must survive θ=0.9"
        );
        // The sink verifies in 64 Ki-candidate batches (three of them
        // already at the default scale's ≈ 130 k candidates) and must
        // emit the batch result in the batch's (s, t) order with the
        // batch's tier tallies.
        let mut streamed = Vec::new();
        let stats = engine
            .join_sink(&ps, &pt, &spec, |a, b, sim| streamed.push((a, b, sim)))
            .unwrap();
        assert_eq!(streamed, batch.pairs, "parallel={parallel}");
        assert_eq!(stats.result_count, batch.pairs.len());
        assert_eq!(stats.candidates, batch.stats.candidates);
        assert_eq!(batch.stats.tiers, stats.tiers, "parallel={parallel}");
    }
}

#[test]
fn self_sink_matches_batch_serial_and_parallel() {
    let n = n_records();
    let ds = med_dataset(n, 72);
    let engine = Engine::new(ds.kn.clone(), SimConfig::default()).unwrap();
    let pc = engine.prepare(&ds.s).unwrap();
    for parallel in [false, true] {
        let spec = JoinSpec::threshold(0.92).au_dp(3).parallel(parallel);
        let batch = engine.join_self(&pc, &spec).unwrap();
        let mut streamed = Vec::new();
        let stats = engine
            .join_self_sink(&pc, &spec, |a, b, sim| streamed.push((a, b, sim)))
            .unwrap();
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
