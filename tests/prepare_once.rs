//! The prepare-exactly-once guarantee, proven by the process-wide
//! `prepare_invocations()` counter.
//!
//! This test lives alone in its own integration-test binary on purpose:
//! the counter is a process-global `AtomicU64`, and sibling tests in a
//! shared binary (anything calling `Engine::prepare`) would bump it
//! concurrently on multi-core hosts, making exact-delta assertions racy.
//! Cargo runs test binaries sequentially, so a solo test owns the
//! counter.

use au_join::core::config::SimConfig;
use au_join::core::engine::prepare_invocations;
use au_join::core::engine::{Engine, JoinSpec};
use au_join::core::signature::FilterKind;
use au_join::datagen::{DatasetProfile, LabeledDataset};

/// MED-like dataset without depending on the bench crate.
fn med(n: usize, seed: u64) -> LabeledDataset {
    let profile = DatasetProfile::med_like((n as f64 / 2000.0).max(1.0));
    LabeledDataset::generate(&profile, n, n, n / 5, seed)
}

/// A calibrate + filter_counts + join + search workflow on prepared
/// corpora must run stage 1 exactly once per corpus.
#[test]
fn session_workflow_prepares_each_corpus_exactly_once() {
    let ds = med(80, 61);
    let engine = Engine::new(ds.kn.clone(), SimConfig::default()).expect("valid config");
    let before = prepare_invocations();
    let ps = engine.prepare(&ds.s).expect("prepare S");
    let pt = engine.prepare(&ds.t).expect("prepare T");
    assert_eq!(
        prepare_invocations() - before,
        2,
        "Engine::prepare segments each corpus once"
    );
    let after_prepare = prepare_invocations();

    let theta = 0.85;
    let filter = FilterKind::AuHeuristic { tau: 2 };
    let _model = engine
        .calibrate(&ps, &pt, theta, filter, 64)
        .expect("calibrate");
    let _counts = engine
        .filter_counts(&ps, &pt, theta, filter)
        .expect("counts");
    let _join = engine
        .join(&ps, &pt, &JoinSpec::threshold(theta).filter(filter))
        .expect("join");
    let _search = engine
        .searcher(&pt, &JoinSpec::threshold(theta).filter(filter))
        .expect("searcher")
        .query("anything at all");
    assert_eq!(
        prepare_invocations(),
        after_prepare,
        "no session operation may re-prepare an already-prepared corpus"
    );
    // And the memoized artifacts were actually reused across operations.
    assert!(ps.memo_hits() + pt.memo_hits() > 0, "memo never hit");
}
