//! Serial and parallel execution must be indistinguishable: the shared
//! `au_core::parallel` layer claims byte-for-byte identical outputs
//! (deterministic batch-order merge), and `join`, `topk` and `search` all
//! ride on it. Exercised on a generated MED-like dataset large enough that
//! the parallel path actually engages (candidate sets past
//! `MIN_PARALLEL_ITEMS`).

use au_join::core::parallel::{par_map, MIN_PARALLEL_ITEMS};
use au_join::datagen::{DatasetProfile, LabeledDataset};
use au_join::prelude::*;

fn dataset() -> LabeledDataset {
    let mut profile = DatasetProfile::med_like(0.05);
    profile.taxonomy_nodes = 200;
    profile.synonym_rules = 80;
    LabeledDataset::generate(&profile, 280, 280, 90, 42)
}

#[test]
fn join_results_identical_serial_vs_parallel() {
    let ds = dataset();
    let engine = Engine::new(ds.kn.clone(), SimConfig::default()).expect("valid config");
    let ps = engine.prepare(&ds.s).expect("prepare S");
    let pt = engine.prepare(&ds.t).expect("prepare T");
    for theta in [0.5, 0.7] {
        let spec = JoinSpec::threshold(theta).au_dp(2);
        let serial = engine.join(&ps, &pt, &spec.parallel(false)).expect("join");
        let parallel = engine.join(&ps, &pt, &spec.parallel(true)).expect("join");
        // Not just the same set: the same Vec, scores and order included.
        assert_eq!(serial.pairs, parallel.pairs, "θ={theta}");
        assert!(
            !serial.pairs.is_empty(),
            "fixture must produce matches at θ={theta}"
        );
        // The comparison is only meaningful if the threaded path ran.
        assert!(
            serial.stats.candidates >= MIN_PARALLEL_ITEMS as u64,
            "θ={theta}: {} candidates never engage the parallel path",
            serial.stats.candidates
        );
    }
}

#[test]
fn self_join_identical_serial_vs_parallel() {
    let ds = dataset();
    let engine = Engine::new(ds.kn.clone(), SimConfig::default()).expect("valid config");
    let ps = engine.prepare(&ds.s).expect("prepare");
    let spec = JoinSpec::threshold(0.6).au_heuristic(2);
    let serial = engine.join_self(&ps, &spec.parallel(false)).expect("join");
    let parallel = engine.join_self(&ps, &spec.parallel(true)).expect("join");
    assert_eq!(serial.pairs, parallel.pairs);
}

#[test]
fn sharded_join_identical_serial_vs_parallel() {
    // The sharded join runs shard-pair tasks sequentially but honours
    // the parallel knob inside each task's filter/verify pipeline; the
    // merged output must stay byte-identical either way.
    let ds = dataset();
    let engine = Engine::new(ds.kn.clone(), SimConfig::default()).expect("valid config");
    let sspec = ShardSpec::auto().with_shards(4);
    let spec = JoinSpec::threshold(0.6).au_dp(2);
    let serial = engine
        .join_self_sharded(&ds.s, &sspec, &spec.parallel(false))
        .expect("join");
    let parallel = engine
        .join_self_sharded(&ds.s, &sspec, &spec.parallel(true))
        .expect("join");
    assert_eq!(serial.pairs, parallel.pairs);
    // Cross-check against the R×S grid too: the sharded self-join must
    // equal the strict upper triangle of the sharded cross join.
    let cross = engine
        .join_sharded(&ds.s, &ds.s, &sspec, &spec.parallel(false))
        .expect("join");
    let upper: Vec<(u32, u32, f64)> = cross.pairs.into_iter().filter(|&(a, b, _)| a < b).collect();
    assert_eq!(serial.pairs, upper);
}

#[test]
fn topk_identical_serial_vs_parallel() {
    let ds = dataset();
    let engine = Engine::new(ds.kn.clone(), SimConfig::default()).expect("valid config");
    let ps = engine.prepare(&ds.s).expect("prepare S");
    let pt = engine.prepare(&ds.t).expect("prepare T");
    let spec = JoinSpec::topk(25).au_dp(2);
    let serial = engine.topk(&ps, &pt, &spec.parallel(false)).expect("topk");
    let parallel = engine.topk(&ps, &pt, &spec.parallel(true)).expect("topk");
    assert_eq!(serial.pairs, parallel.pairs);
    assert_eq!(serial.rounds, parallel.rounds);
}

#[test]
fn search_identical_serial_vs_parallel() {
    let ds = dataset();
    let engine = Engine::new(ds.kn.clone(), SimConfig::default()).expect("valid config");
    let pt = engine.prepare(&ds.t).expect("prepare T");
    let spec = JoinSpec::threshold(0.5).au_dp(2);
    let idx_serial = engine
        .searcher(&pt, &spec.parallel(false))
        .expect("searcher");
    let idx_parallel = engine
        .searcher(&pt, &spec.parallel(true))
        .expect("searcher");
    for qi in 0..50u32 {
        let q = &ds.s.get(RecordId(qi)).tokens;
        let a = idx_serial.query_tokens(q);
        let b = idx_parallel.query_tokens(q);
        assert_eq!(a.matches, b.matches, "query {qi}");
    }
}

#[test]
fn par_map_engages_threads_on_this_workload() {
    // Sanity-check the layer itself at a size well past the serial cutoff,
    // with reruns to catch scheduling-dependent ordering.
    let items: Vec<u64> = (0..(MIN_PARALLEL_ITEMS as u64 * 40)).collect();
    let f = |&x: &u64| (x % 7 != 0).then_some(x.wrapping_mul(0x9e3779b97f4a7c15));
    let serial: Vec<Option<u64>> = items.iter().map(f).collect();
    for _ in 0..5 {
        assert_eq!(par_map(&items, true, f), serial);
    }
}
