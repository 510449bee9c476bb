//! Which plan a query takes on generated collections: the tier-0 window
//! ([`QueryPlan::Window`]: no signature, no CSR probe) wins on q = 2
//! collections, where the mass walk a query pays either way already reads
//! more postings than the window has records times query segments; on
//! q = 3 collections the walk is short and the signature probe stays. The
//! choice is a pure function of the query and the collection, so it does
//! not depend on how many threads ask.

use au_join::datagen::{DatasetProfile, LabeledDataset};
use au_join::prelude::*;
use std::sync::Arc;

/// Records per side of the generated collections.
const N: usize = 1500;
/// Queries per collection: the raw text of every fifth S record.
const QUERIES: usize = 300;

/// A MED-like collection at gram length `q` (the repository benchmark's
/// dataset shape), a searcher over its T side at θ = 0.9, AU-DP τ = 2, and
/// the query texts.
fn indexed_corpus(q: usize, seed: u64) -> (Arc<Engine>, Arc<Prepared>, Vec<String>) {
    let ds = LabeledDataset::generate(&DatasetProfile::med_like(1.0), N, N, N / 5, seed);
    let cfg = SimConfig {
        q,
        ..SimConfig::default()
    };
    let engine = Engine::new(ds.kn.clone(), cfg).expect("engine");
    let pt = engine.prepare(&ds.t).expect("prepare T");
    let queries = (ds.s.records().iter())
        .step_by(N / QUERIES)
        .map(|r| r.raw.clone())
        .collect();
    (Arc::new(engine), Arc::new(pt), queries)
}

fn spec() -> JoinSpec {
    JoinSpec::threshold(0.9).au_dp(2)
}

/// The share of `queries` that took the window plan.
fn window_share(outcomes: &[SearchOutcome]) -> f64 {
    let windows = outcomes
        .iter()
        .filter(|o| o.plan == QueryPlan::Window)
        .count();
    windows as f64 / outcomes.len() as f64
}

#[test]
fn a_q2_collection_mostly_takes_the_window_plan_and_a_q3_one_hardly_ever() {
    for seed in [71, 72] {
        let (engine, pt, queries) = indexed_corpus(2, seed);
        let searcher = engine.searcher(&pt, &spec()).expect("searcher");
        let outcomes: Vec<SearchOutcome> = queries.iter().map(|q| searcher.query(q)).collect();
        let share = window_share(&outcomes);
        assert!(
            share >= 0.9,
            "q = 2, seed {seed}: {share:.3} took the window"
        );
        for out in &outcomes {
            assert_eq!(out.tiers.decisions(), out.candidates);
            if out.plan == QueryPlan::Window {
                assert_eq!(
                    out.processed, 0,
                    "a window-plan query reads no signature list"
                );
                let rejected = out.compat_rejected + out.candidates;
                assert_eq!(
                    rejected,
                    pt.len() as u64,
                    "the window splits the collection"
                );
            }
        }

        let (engine, pt, queries) = indexed_corpus(3, seed);
        let searcher = engine.searcher(&pt, &spec()).expect("searcher");
        let outcomes: Vec<SearchOutcome> = queries.iter().map(|q| searcher.query(q)).collect();
        let share = window_share(&outcomes);
        assert!(
            share <= 0.01,
            "q = 3, seed {seed}: {share:.3} took the window"
        );
    }
}

/// A borrowed searcher on one thread and an `Arc`-held one shared by
/// eight give every query the same outcome, field for field — matches and
/// similarity bits, every counter, tiers and plan — under both plans.
#[test]
fn the_plan_is_the_same_at_one_and_at_eight_threads() {
    let (engine, pt, queries) = indexed_corpus(2, 73);
    let answer = |o: &SearchOutcome| {
        let bits: Vec<(u32, u64)> = o.matches.iter().map(|&(r, s)| (r, s.to_bits())).collect();
        let counts = (o.candidates, o.processed, o.walked, o.compat_rejected);
        (o.plan, bits, counts, o.tiers)
    };
    let serial = engine.searcher(&pt, &spec().serial()).expect("searcher");
    let want: Vec<_> = queries.iter().map(|q| answer(&serial.query(q))).collect();
    for plan in [QueryPlan::Window, QueryPlan::Probe] {
        assert!(want.iter().any(|a| a.0 == plan), "no query took {plan:?}");
    }
    assert!(want.iter().any(|a| !a.1.is_empty()));
    let shared = Engine::snapshot_searcher(engine.clone(), pt.clone(), &spec()).expect("searcher");
    let start = std::sync::Barrier::new(8);
    std::thread::scope(|scope| {
        for worker in 0..8 {
            let (queries, want, shared, start) = (&queries, &want, &shared, &start);
            scope.spawn(move || {
                start.wait();
                for (i, q) in queries.iter().enumerate().skip(worker).step_by(8) {
                    assert_eq!(answer(&shared.query(q)), want[i], "{q:?}");
                }
            });
        }
    });
}
