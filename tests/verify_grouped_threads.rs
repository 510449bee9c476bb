//! Production-driver-vs-reference verification equivalence under a pinned
//! `AU_THREADS` override, through both count sources of
//! `au_core::join::verify_candidates`: the whole candidate list (≥ 2048,
//! run-batched) and a prefix below the switch (per-pair).
//!
//! `au_core::parallel::available_threads` reads `AU_THREADS` once per
//! process, so this check lives in its own integration-test binary: the
//! single test below sets the variable before any parallel code runs,
//! guaranteeing the override is what the work-stealing layer sees. On
//! multi-core hosts this exercises true 3-worker scheduling of the
//! run-aligned fragments; on single-core CI it still pins the worker
//! count deterministically. The same pin cuts the transposed posting
//! index's gram table into ranges built on three workers
//! (`GramPostingsIndex::build`); queries verified through it must equal a
//! per-pair scan that never touches it.

use au_join::core::engine::QuerySession;
use au_join::core::join::{verify_candidates, verify_candidates_reference};
use au_join::core::segment::SegRecord;
use au_join::datagen::{DatasetProfile, LabeledDataset};
use au_join::prelude::*;

#[test]
fn grouped_verify_is_byte_identical_with_pinned_workers() {
    // Before any call into au-core: pin the worker count.
    std::env::set_var("AU_THREADS", "3");
    assert_eq!(au_join::core::parallel::available_threads(), 3);

    let mut profile = DatasetProfile::med_like(0.05);
    profile.taxonomy_nodes = 250;
    profile.synonym_rules = 120;
    let ds = LabeledDataset::generate(&profile, 220, 220, 60, 17);
    let cfg = SimConfig::default();
    let engine = Engine::new(ds.kn.clone(), cfg).expect("engine");
    let ps = engine.prepare(&ds.s).expect("prepare S");
    let pt = engine.prepare(&ds.t).expect("prepare T");
    let (sp, tp) = (ps.seg_records(), pt.seg_records());
    for theta in [0.6, 0.9] {
        let out = engine
            .filter_outcome(&ps, Some(&pt), &JoinSpec::threshold(theta))
            .expect("filter run");
        assert!(out.candidates.len() >= 2048, "θ={theta}: run-batched path");
        for cands in [&out.candidates[..], &out.candidates[..2047]] {
            let (serial, serial_tiers) =
                verify_candidates(&ds.kn, &cfg, sp, tp, cands, theta, false, None);
            let (parallel, parallel_tiers) =
                verify_candidates(&ds.kn, &cfg, sp, tp, cands, theta, true, None);
            let reference = verify_candidates_reference(&ds.kn, &cfg, sp, tp, cands, theta, true);
            assert_eq!(serial.len(), parallel.len(), "θ={theta}");
            for (x, y) in serial.iter().zip(&parallel) {
                assert_eq!((x.0, x.1, x.2.to_bits()), (y.0, y.1, y.2.to_bits()));
            }
            for (x, y) in parallel.iter().zip(&reference) {
                assert_eq!((x.0, x.1, x.2.to_bits()), (y.0, y.1, y.2.to_bits()));
            }
            // Tier counters are pure per-candidate functions — all seven
            // buckets identical under any worker count.
            assert_eq!(serial_tiers, parallel_tiers, "θ={theta}");
            assert_eq!(serial_tiers.decisions(), cands.len() as u64);
        }
    }

    // Past 512 records per range the index's gram table is built in
    // ranges (three here) and concatenated: every query through it must
    // answer as the filterless per-pair scan does, tiers accounted.
    let big = LabeledDataset::generate(&profile, 1600, 1600, 300, 19);
    let engine = Engine::new(big.kn.clone(), cfg).expect("engine");
    let pt = engine.prepare(&big.t).expect("prepare T");
    let rows: Vec<&SegRecord> = pt.seg_records().iter().map(|r| &**r).collect();
    let spec = JoinSpec::threshold(0.8).au_dp(2);
    let searcher = engine.searcher(&pt, &spec).expect("searcher");
    let session = QuerySession::default();
    let mut matched = 0usize;
    for r in big.s.records().iter().step_by(40) {
        let walked = searcher.query(&r.raw);
        let segmented = session.segment(engine.knowledge(), engine.config(), &r.raw);
        let scanned = engine.scan(&session, &rows, &segmented, &spec);
        let bits = |m: &[(u32, f64)]| -> Vec<(u32, u64)> {
            m.iter().map(|&(row, sim)| (row, sim.to_bits())).collect()
        };
        assert_eq!(bits(&walked.matches), bits(&scanned.matches), "{:?}", r.raw);
        assert_eq!(walked.tiers.decisions(), walked.candidates);
        assert_eq!(walked.tiers.accepted, scanned.tiers.accepted);
        matched += walked.matches.len();
    }
    assert!(matched > 0, "no query matched anything");
}
