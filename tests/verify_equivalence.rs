//! Tier-equivalence harness: the production verification driver
//! (`au_core::join::verify_candidates` over the tiered engine in
//! `au_core::usim::verify`) must produce **byte-identical** `(pairs,
//! sims)` — compared through `f64::to_bits` — to the reference
//! per-candidate path (`verify_candidates_reference`), on generated
//! datasets and on adversarial proptest corpora, serial and parallel
//! alike, through *both* of its count sources: the run-batched one the
//! driver picks at ≥ 2048 candidates and the per-pair one it picks
//! below — and both must land every candidate in the same one of the
//! seven tier buckets as a lone `Verifier::sim_at_least` call.
//!
//! This is the contract that lets the engine reject candidates before any
//! segment-pair enumeration (tier 0, the mass bound), count a whole run's
//! mass in one index walk and reuse every per-candidate buffer (tier
//! 2): none of it may change a single output bit.
//!
//! A *query* is one such run, verified in one walk of the collection's
//! transposed posting index — built once per `Prepared`, shared by every
//! join and searcher over it. The second half of this file holds queries
//! to the same standard: `Searcher::query` against the filterless,
//! per-pair `Engine::scan` of the same rows, from many threads at once,
//! with exactly one index build behind all of it.

use au_join::core::engine::QuerySession;
use au_join::core::join::{verify_candidates, verify_candidates_reference};
use au_join::core::segment::{segment_record, SegRecord};
use au_join::core::usim::{
    usim_approx_seg, usim_approx_seg_at_least, usim_exact_seg, GramPostingsIndex, Verifier,
    VerifyScratch,
};
use au_join::datagen::{DatasetProfile, LabeledDataset};
use au_join::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

/// The driver's size switch (`BATCHED_VERIFY_MIN` in `au_core::join`):
/// candidate lists at least this long verify through the run-batched mass
/// count, shorter ones pair by pair.
const BATCHED_MIN: usize = 2048;

fn assert_bit_identical(a: &[(u32, u32, f64)], b: &[(u32, u32, f64)], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: result count");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(
            (x.0, x.1, x.2.to_bits()),
            (y.0, y.1, y.2.to_bits()),
            "{ctx}: pair mismatch"
        );
    }
}

/// The production driver vs the reference on one candidate list, serial
/// and parallel — byte-identical `(pair, sim)` everywhere, plus the
/// tier-telemetry invariants (every candidate in exactly one bucket,
/// accepted == results, and the seven-bucket tally identical across
/// schedules *and* across the run-batched and per-pair sources).
fn check_candidates(
    kn: &Knowledge,
    s: &[Arc<SegRecord>],
    t: &[Arc<SegRecord>],
    candidates: &[(u32, u32)],
    theta: f64,
    ctx: &str,
) {
    let cfg = SimConfig::default();
    // The per-pair source: one `sim_at_least` call per candidate.
    let per_pair = {
        let v = Verifier::new(kn, &cfg);
        let mut scr = VerifyScratch::default();
        for &(a, b) in candidates {
            v.sim_at_least(&s[a as usize], &t[b as usize], theta, &mut scr);
        }
        scr.take_tally()
    };
    // `None` lets the driver pick by size (per-pair below
    // `BATCHED_MIN`); a supplied index forces the run-batched source.
    let forced = GramPostingsIndex::build(t);
    for parallel in [false, true] {
        let reference = verify_candidates_reference(kn, &cfg, s, t, candidates, theta, parallel);
        for index in [None, Some(&forced)] {
            let (production, tiers) =
                verify_candidates(kn, &cfg, s, t, candidates, theta, parallel, index);
            let ctx = format!("{ctx} parallel={parallel} batched={}", index.is_some());
            assert_bit_identical(&production, &reference, &ctx);
            assert_eq!(
                tiers.decisions(),
                candidates.len() as u64,
                "{ctx}: tier buckets must partition the candidate set"
            );
            assert_eq!(tiers.accepted, production.len() as u64, "{ctx}: accepted");
            // Tier counters are pure per-candidate functions: whichever
            // source counted, however the list was scheduled.
            assert_eq!(tiers, per_pair, "{ctx}: tally differs from per-pair");
        }
    }
}

/// Filter one dataset at θ, then check the whole candidate list (long
/// enough for the run-batched gram source) and a prefix short enough for
/// the per-pair one.
fn check_dataset(ds: &LabeledDataset, theta: f64, self_join: bool) {
    let engine = Engine::new(ds.kn.clone(), SimConfig::default()).expect("engine");
    let ps = engine.prepare(&ds.s).expect("prepare S");
    let pt = engine.prepare(&ds.t).expect("prepare T");
    let (t, label) = if self_join {
        (None, format!("self-join θ={theta}"))
    } else {
        (Some(&pt), format!("R×S θ={theta}"))
    };
    let out = engine
        .filter_outcome(&ps, t, &JoinSpec::threshold(theta))
        .expect("filter run");
    assert!(
        out.candidates.len() >= BATCHED_MIN,
        "{label}: {} candidates never reach the run-batched path",
        out.candidates.len()
    );
    let t_recs = t.unwrap_or(&ps).seg_records();
    for (path, cands) in [
        ("run-batched", &out.candidates[..]),
        ("per-pair", &out.candidates[..BATCHED_MIN - 1]),
    ] {
        check_candidates(
            &ds.kn,
            ps.seg_records(),
            t_recs,
            cands,
            theta,
            &format!("{label} {path}"),
        );
    }
}

fn med_ds() -> LabeledDataset {
    let mut profile = DatasetProfile::med_like(0.05);
    profile.taxonomy_nodes = 250;
    profile.synonym_rules = 120;
    LabeledDataset::generate(&profile, 260, 260, 80, 11)
}

fn wiki_ds() -> LabeledDataset {
    let mut profile = DatasetProfile::wiki_like(0.05);
    profile.taxonomy_nodes = 250;
    profile.synonym_rules = 120;
    LabeledDataset::generate(&profile, 200, 200, 60, 23)
}

#[test]
fn tiered_equals_reference_on_med_rxs() {
    let ds = med_ds();
    for theta in [0.5, 0.7, 0.9] {
        check_dataset(&ds, theta, false);
    }
}

#[test]
fn tiered_equals_reference_on_med_self_join() {
    let ds = med_ds();
    check_dataset(&ds, 0.8, true);
}

#[test]
fn tiered_equals_reference_on_wiki() {
    let ds = wiki_ds();
    for theta in [0.6, 0.95] {
        check_dataset(&ds, theta, false);
    }
}

/// Soundness sweep on generated data: every cascade bound (tier 0,
/// shared mass, surfaced-segment cap, row-max, greedy matching) dominates the
/// Algorithm 1 similarity on a broad sample of record pairs — planted
/// matches and random non-matches alike.
#[test]
fn cascade_bounds_dominate_usim_on_datagen() {
    for ds in [med_ds(), wiki_ds()] {
        let cfg = SimConfig::default();
        let engine = Engine::new(ds.kn.clone(), cfg).expect("engine");
        let (ps, pt) = (
            engine.prepare(&ds.s).unwrap(),
            engine.prepare(&ds.t).unwrap(),
        );
        let (sp, tp) = (ps.seg_records(), pt.seg_records());
        let v = Verifier::new(&ds.kn, &cfg);
        let mut scr = VerifyScratch::default();
        // Planted pairs (high similarity — bounds must not clip them).
        for g in &ds.truth {
            let (a, b) = (&sp[g.s as usize], &tp[g.t as usize]);
            let bounds = v.upper_bounds(a, b, &mut scr);
            let sim = usim_approx_seg(&ds.kn, &cfg, a, b);
            for (name, ub) in [
                ("tier0", bounds.tier0),
                ("mass", bounds.mass),
                ("surfaced", bounds.surfaced),
                ("rowmax", bounds.rowmax),
                ("greedy", bounds.greedy),
            ] {
                assert!(
                    ub >= sim - 1e-12,
                    "{name} {ub} < sim {sim} ({}, {})",
                    g.s,
                    g.t
                );
            }
            assert!(bounds.tier0 >= bounds.surfaced - 1e-12);
            assert!(bounds.rowmax >= bounds.greedy - 1e-12);
            assert!(bounds.mass >= bounds.rowmax, "mass < rowmax as floats");
        }
        // A deterministic stride of arbitrary pairs.
        for i in (0..sp.len()).step_by(17) {
            for j in (0..tp.len()).step_by(23) {
                let (a, b) = (&sp[i], &tp[j]);
                let bounds = v.upper_bounds(a, b, &mut scr);
                let sim = usim_approx_seg(&ds.kn, &cfg, a, b);
                assert!(bounds.greedy >= sim - 1e-12, "greedy < sim at ({i}, {j})");
                assert!(bounds.rowmax >= bounds.greedy - 1e-12);
                assert!(bounds.mass >= bounds.rowmax, "mass < rowmax at ({i}, {j})");
            }
        }
    }
}

// ---------------------------------------------------------------------
// Queries are runs.

/// Every S record of `ds` as a query, each fourth one with a word no
/// vocabulary holds appended (an out-of-vocabulary token: overlay id,
/// grams the index may or may not know), plus the empty query.
fn query_set(ds: &LabeledDataset) -> Vec<String> {
    let mut queries: Vec<String> = (ds.s.records().iter().enumerate())
        .map(|(i, r)| match i % 4 {
            0 => format!("{} zzyzxq", r.raw),
            _ => r.raw.clone(),
        })
        .collect();
    queries.push(String::new());
    queries
}

fn match_bits(m: &[(u32, f64)]) -> Vec<(u32, u64)> {
    m.iter().map(|&(r, s)| (r, s.to_bits())).collect()
}

/// `Searcher::query` (probe, then one run walk of the transposed index)
/// against `Engine::scan` over *all* rows (no filter; every tier-0
/// compatible row verified pair by pair): identical rows, order and
/// similarity bits. The scan's candidates are a superset of the
/// query's, so its tier tally dominates bucket by bucket, and both
/// account for exactly their own candidates.
fn check_queries(ds: &LabeledDataset, theta: f64) {
    let engine = Engine::new(ds.kn.clone(), SimConfig::default()).expect("engine");
    let pt = engine.prepare(&ds.t).expect("prepare T");
    let rows: Vec<&SegRecord> = pt.seg_records().iter().map(|r| &**r).collect();
    let spec = JoinSpec::threshold(theta).au_dp(2);
    let searcher = engine.searcher(&pt, &spec).expect("searcher");
    let session = QuerySession::default();
    let mut accepted = 0u64;
    for q in query_set(ds) {
        let walked = searcher.query(&q);
        let segmented = session.segment(engine.knowledge(), engine.config(), &q);
        let scanned = engine.scan(&session, &rows, &segmented, &spec);
        let ctx = format!("θ={theta} q={q:?}");
        assert_eq!(
            match_bits(&walked.matches),
            match_bits(&scanned.matches),
            "{ctx}"
        );
        for out in [&walked, &scanned] {
            assert_eq!(out.tiers.decisions(), out.candidates, "{ctx}");
            assert_eq!(out.tiers.accepted, out.matches.len() as u64, "{ctx}");
        }
        let (w, s) = (walked.tiers, scanned.tiers);
        assert!(
            w.tier0_rejects <= s.tier0_rejects
                && w.mass_rejects <= s.mass_rejects
                && w.enum_rejects <= s.enum_rejects
                && w.rowmax_rejects <= s.rowmax_rejects
                && w.greedy_rejects <= s.greedy_rejects
                && w.tier2_rejects <= s.tier2_rejects,
            "{ctx}: {w:?} vs {s:?}"
        );
        accepted += w.accepted;
    }
    assert!(accepted > 0, "θ={theta}: no query matched anything");
}

#[test]
fn queries_equal_a_per_pair_scan_on_med_and_wiki() {
    for theta in [0.6, 0.9] {
        check_queries(&med_ds(), theta);
    }
    check_queries(&wiki_ds(), 0.8);
}

#[test]
fn queries_on_an_empty_collection_match_nothing() {
    let ds = med_ds();
    let engine = Engine::new(ds.kn.clone(), SimConfig::default()).expect("engine");
    let empty = engine.prepare(&Corpus::new()).expect("prepare nothing");
    let spec = JoinSpec::threshold(0.8).au_dp(2);
    let searcher = engine.searcher(&empty, &spec).expect("searcher");
    for q in query_set(&ds).iter().take(8) {
        let out = searcher.query(q);
        assert!(out.matches.is_empty());
        assert_eq!((out.candidates, out.tiers.decisions()), (0, 0));
    }
}

/// Eight threads querying one `Searcher` and one `SnapshotSearcher` at
/// once — every query from every thread, released together — get the
/// answers (matches, counters, tiers) a lone caller gets: the pooled run
/// scratches and the shared index carry nothing from one query to the
/// next.
#[test]
fn concurrent_queries_return_the_serial_answers() {
    use std::sync::{Arc, Barrier};
    let ds = med_ds();
    let engine = Arc::new(Engine::new(ds.kn.clone(), SimConfig::default()).expect("engine"));
    let pt = Arc::new(engine.prepare(&ds.t).expect("prepare T"));
    let spec = JoinSpec::threshold(0.7).au_dp(2);
    let borrowed = engine.searcher(&pt, &spec).expect("searcher");
    let owned =
        Engine::snapshot_searcher(engine.clone(), pt.clone(), &spec).expect("snapshot searcher");
    let queries = query_set(&ds);
    let answer = |out: SearchOutcome| {
        (
            match_bits(&out.matches),
            out.candidates,
            out.processed,
            out.compat_rejected,
            out.tiers,
        )
    };
    let serial: Vec<_> = queries.iter().map(|q| answer(borrowed.query(q))).collect();
    let threads = 8;
    let barrier = Barrier::new(threads);
    std::thread::scope(|scope| {
        for t in 0..threads {
            let (barrier, queries, serial) = (&barrier, &queries, &serial);
            let (borrowed, owned) = (&borrowed, &owned);
            scope.spawn(move || {
                barrier.wait();
                // Each thread starts elsewhere, so different queries
                // overlap in time.
                for i in 0..queries.len() {
                    let i = (i + t * 37) % queries.len();
                    let got = match t % 2 {
                        0 => borrowed.query(&queries[i]),
                        _ => owned.query(&queries[i]),
                    };
                    assert_eq!(answer(got), serial[i], "thread {t} query {i}");
                }
            });
        }
    });
}

/// The transposed posting index is an artifact of the corpus alone: a
/// join large enough to want it and two searchers at different θ, in
/// either order, build it exactly once (`memo_misses` counts every
/// memoized build: the order, signatures + CSR per θ, and the index).
#[test]
fn joins_and_searchers_share_one_transposed_index() {
    let ds = med_ds();
    let engine = Engine::new(ds.kn.clone(), SimConfig::default()).expect("engine");
    let ps = engine.prepare(&ds.s).expect("prepare S");
    let searcher_builds = |pt: &Prepared, theta: f64| {
        let before = pt.memo_misses();
        let spec = JoinSpec::threshold(theta).au_dp(2);
        engine.searcher(pt, &spec).expect("searcher").query("x");
        pt.memo_misses() - before
    };
    // Searchers first: order + signatures + CSR + the index, then
    // signatures + CSR alone; the R×S join adds its pair order, its
    // signatures and CSR — and finds the index there.
    let pt = engine.prepare(&ds.t).expect("prepare T");
    let fresh = pt.memory_bytes();
    assert_eq!(searcher_builds(&pt, 0.9), 4);
    let with_index = pt.memory_bytes();
    assert_eq!(searcher_builds(&pt, 0.6), 2);
    let before = pt.memo_misses();
    let joined = engine
        .join(&ps, &pt, &JoinSpec::threshold(0.5))
        .expect("join");
    assert!(joined.stats.candidates >= BATCHED_MIN as u64);
    assert_eq!(pt.memo_misses() - before, 2, "signatures + CSR only");
    // Join first: it builds the index (one miss more than above), and
    // neither searcher builds it again.
    let pt2 = engine.prepare(&ds.t).expect("prepare T again");
    let rejoined = engine
        .join(&ps, &pt2, &JoinSpec::threshold(0.5))
        .expect("join");
    assert_eq!(pt2.memo_misses(), 3, "signatures + CSR + the index");
    assert_eq!(searcher_builds(&pt2, 0.9), 3);
    assert_eq!(searcher_builds(&pt2, 0.6), 2);
    assert_bit_identical(&joined.pairs, &rejoined.pairs, "shared vs own index");
    // Counted once built, dropped with the memo.
    assert!(with_index > fresh);
    pt.clear_memo();
    assert_eq!(pt.memory_bytes(), fresh);
}

// ---------------------------------------------------------------------
// Adversarial proptest corpora: tiny alphabet → repeated tokens, shared
// rules/entities, degenerate conflict graphs.

fn word_strategy() -> impl Strategy<Value = String> {
    prop::sample::select(vec![
        "coffee",
        "shop",
        "cafe",
        "latte",
        "espresso",
        "helsinki",
        "helsingki",
        "cake",
        "apple",
        "tea",
        "house",
        "bar",
    ])
    .prop_map(str::to_string)
}

fn text_strategy(max_tokens: usize) -> impl Strategy<Value = String> {
    prop::collection::vec(word_strategy(), 1..=max_tokens).prop_map(|v| v.join(" "))
}

fn test_knowledge() -> Knowledge {
    let mut kb = KnowledgeBuilder::new();
    kb.synonym("coffee shop", "cafe", 1.0);
    kb.synonym("tea house", "tearoom", 0.9);
    kb.synonym("apple cake", "cake", 0.6);
    kb.taxonomy_path(&["root", "drinks", "coffee", "latte"]);
    kb.taxonomy_path(&["root", "drinks", "coffee", "espresso"]);
    kb.taxonomy_path(&["root", "food", "cake", "apple cake"]);
    kb.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Per-pair: decision parity at every θ, and bitwise value parity on
    /// acceptance, including a warm scratch carried across cases.
    #[test]
    fn tiered_pair_decisions_match(a in text_strategy(7), b in text_strategy(7), theta in 0.05f64..1.0) {
        let mut kn = test_knowledge();
        let cfg = SimConfig::default();
        let ra = kn.add_record(&a);
        let rb = kn.add_record(&b);
        let sa = segment_record(&kn, &cfg, &kn.record(ra).tokens);
        let sb = segment_record(&kn, &cfg, &kn.record(rb).tokens);
        let engine = Verifier::new(&kn, &cfg);
        let mut scr = VerifyScratch::default();
        let reference = usim_approx_seg_at_least(&kn, &cfg, &sa, &sb, theta);
        let tiered = engine.sim_at_least(&sa, &sb, theta, &mut scr);
        let ra = reference >= theta - cfg.eps;
        let ta = tiered >= theta - cfg.eps;
        prop_assert_eq!(ra, ta, "decision diverged at θ={}", theta);
        if ra {
            prop_assert_eq!(reference.to_bits(), tiered.to_bits());
        }
        // Full-value path (top-k re-scoring) is bitwise identical always.
        let full_ref = usim_approx_seg(&kn, &cfg, &sa, &sb);
        let full_tier = engine.sim(&sa, &sb, &mut scr);
        prop_assert_eq!(full_ref.to_bits(), full_tier.to_bits());
    }

    /// Whole-corpus: the verify stage output is byte-identical to the
    /// reference, serial and parallel (short lists: per-pair source).
    #[test]
    fn tiered_corpus_verify_matches(texts in prop::collection::vec(text_strategy(6), 4..16), theta in 0.3f64..0.95) {
        let mut kn = test_knowledge();
        let cfg = SimConfig::default();
        let refs: Vec<&str> = texts.iter().map(|s| s.as_str()).collect();
        let c = kn.corpus_from_lines(refs);
        let sp: Vec<Arc<SegRecord>> = c.iter().map(|r| Arc::new(segment_record(&kn, &cfg, &r.tokens))).collect();
        // All pairs as candidates — stresses tier 0 on pairs the filter
        // would normally never surface.
        let all: Vec<(u32, u32)> = (0..c.len() as u32)
            .flat_map(|x| (0..c.len() as u32).map(move |y| (x, y)))
            .collect();
        for parallel in [false, true] {
            let (tiered, _) = verify_candidates(&kn, &cfg, &sp, &sp, &all, theta, parallel, None);
            let reference =
                verify_candidates_reference(&kn, &cfg, &sp, &sp, &all, theta, parallel);
            assert_bit_identical(&tiered, &reference, "proptest corpus");
        }
    }

    /// Adversarial soundness: every cascade bound dominates **exact**
    /// USIM (exponential enumeration) on small repeated-token corpora —
    /// no recall loss by construction, for any bound in the cascade,
    /// under every measure subset and gram measure.
    #[test]
    fn cascade_bounds_dominate_exact_usim(
        a in text_strategy(6),
        b in text_strategy(6),
        measures in 0usize..7,
        gram in 0usize..4,
    ) {
        let mut kn = test_knowledge();
        let cfg = SimConfig::default()
            .with_measures(MeasureSet::all_combinations()[measures])
            .with_gram(GramMeasure::ALL[gram]);
        let ra = kn.add_record(&a);
        let rb = kn.add_record(&b);
        let sa = segment_record(&kn, &cfg, &kn.record(ra).tokens);
        let sb = segment_record(&kn, &cfg, &kn.record(rb).tokens);
        let v = Verifier::new(&kn, &cfg);
        let mut scr = VerifyScratch::default();
        let bounds = v.upper_bounds(&sa, &sb, &mut scr);
        prop_assert!(bounds.tier0 >= bounds.surfaced - 1e-12);
        prop_assert!(bounds.rowmax >= bounds.greedy - 1e-12);
        // As floats, no tolerance: the mass tier may only reject what
        // row-max rejects.
        prop_assert!(bounds.mass >= bounds.rowmax, "mass {} < rowmax {}", bounds.mass, bounds.rowmax);
        let approx = usim_approx_seg(&kn, &cfg, &sa, &sb);
        let floor = match usim_exact_seg(&kn, &cfg, &sa, &sb) {
            Some(exact) => {
                prop_assert!(exact >= approx - 1e-9, "approx above exact");
                exact
            }
            None => approx, // enumeration budget exceeded — approx is still a valid floor
        };
        for (name, ub) in [
            ("tier0", bounds.tier0),
            ("mass", bounds.mass),
            ("surfaced", bounds.surfaced),
            ("rowmax", bounds.rowmax),
            ("greedy", bounds.greedy),
        ] {
            prop_assert!(ub >= floor - 1e-9, "{} bound {} < exact {}", name, ub, floor);
        }
    }
}
