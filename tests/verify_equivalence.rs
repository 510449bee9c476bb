//! Tier-equivalence harness: the production verifier (every join's
//! fused pass, which hands each probe record's run to
//! `Verifier::verify_run_at_least` in `au_core::usim::verify`, walking
//! the transposed posting index) must produce **byte-identical** `(pairs,
//! sims)` — compared through `f64::to_bits` — to the reference
//! per-candidate path (`au_core::oracle::verify_candidates_reference`)
//! over the filter oracle's candidate set
//! (`au_core::oracle::candidate_definition`), on generated datasets,
//! R×S and self-join, serial and parallel alike; so must the per-pair
//! count source (a lone `Verifier::sim_at_least` call per candidate,
//! what `Engine::scan` runs), and both must land every candidate in the
//! same one of the four tier buckets. Lists no join emits — every pair
//! of an adversarial proptest corpus, under every measure subset and
//! gram measure — go through the run API directly
//! (`tests/common/runs.rs`).
//!
//! This is the contract that lets the engine reject candidates before any
//! segment-pair enumeration (the mass bound), count a whole run's mass in
//! one index walk and reuse every per-candidate buffer (Algorithm 1):
//! none of it may change a single output bit.
//!
//! A *query* is one such run, verified in one walk of the collection's
//! transposed posting index — built once per `Prepared`, shared by every
//! join and searcher over it. The second half of this file holds queries
//! to the same standard: `Searcher::query` against the filterless,
//! per-pair `Engine::scan` of the same rows, from many threads at once,
//! with exactly one index build behind all of it.

#[path = "common/runs.rs"]
mod runs;

use au_join::core::engine::QuerySession;
use au_join::core::oracle::{candidate_definition, verify_candidates_reference, FilterSide};
use au_join::core::segment::{segment_record, SegRecord};
use au_join::core::usim::approx::vertex_upper_bound;
use au_join::core::usim::{
    build_vertices, usim_approx_seg, usim_approx_seg_at_least, Verifier, VerifyScratch, VerifyTiers,
};
use au_join::datagen::{DatasetProfile, LabeledDataset};
use au_join::prelude::*;
use proptest::prelude::*;
use runs::verify_runs;
use std::sync::Arc;

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

/// The per-pair count source vs the reference on one candidate list:
/// byte-identical `(pair, sim)`, and the per-pair tier tally, which
/// partitions the list. The serial and parallel reference agree too.
fn per_pair_matches_reference(
    kn: &Knowledge,
    cfg: &SimConfig,
    s: &[Arc<SegRecord>],
    t: &[Arc<SegRecord>],
    candidates: &[(u32, u32)],
    theta: f64,
    ctx: &str,
) -> (Vec<(u32, u32, f64)>, VerifyTiers) {
    let reference = verify_candidates_reference(kn, cfg, s, t, candidates, theta, false);
    let v = Verifier::new(kn, cfg);
    let mut scr = VerifyScratch::default();
    let mut accepted = Vec::new();
    for &(a, b) in candidates {
        let sim = v.sim_at_least(&s[a as usize], &t[b as usize], theta, &mut scr);
        if sim >= theta - cfg.eps {
            accepted.push((a, b, sim));
        }
    }
    assert_bit_identical(&accepted, &reference, &format!("{ctx} per-pair"));
    let tiers = scr.take_tally();
    assert_eq!(
        tiers.decisions(),
        candidates.len() as u64,
        "{ctx}: partition"
    );
    assert_eq!(tiers.accepted, reference.len() as u64, "{ctx}: accepted");
    let parallel_reference = verify_candidates_reference(kn, cfg, s, t, candidates, theta, true);
    assert_bit_identical(
        &parallel_reference,
        &reference,
        &format!("{ctx} parallel reference"),
    );
    (reference, tiers)
}

/// Join one dataset at θ, serial and parallel, and check the join's pairs
/// and tier buckets against the reference and the per-pair source over
/// the filter oracle's candidate set — the set the join's pass verifies.
fn check_dataset(ds: &LabeledDataset, theta: f64, self_join: bool) {
    let cfg = SimConfig::default();
    let engine = Engine::new(ds.kn.clone(), cfg).expect("engine");
    let ps = engine.prepare(&ds.s).expect("prepare S");
    let pt = engine.prepare(&ds.t).expect("prepare T");
    let (t, label) = if self_join {
        (None, format!("self-join θ={theta}"))
    } else {
        (Some(&pt), format!("R×S θ={theta}"))
    };
    let spec = JoinSpec::threshold(theta);
    let (sp, tp) = (ps.seg_records(), t.unwrap_or(&ps).seg_records());
    let (ds_s, ds_t) = FilterSide::pair(&ds.kn, &cfg, sp, t.map(|_| tp), &spec);
    let defined = candidate_definition(
        &ds_s,
        ds_t.as_ref(),
        spec.filter_kind().tau(),
        theta - cfg.eps,
    );
    let candidates = defined.candidates;
    assert!(!candidates.is_empty(), "{label}: no candidates");
    let (reference, tiers) =
        per_pair_matches_reference(&ds.kn, &cfg, sp, tp, &candidates, theta, &label);
    for parallel in [false, true] {
        let spec = spec.parallel(parallel);
        let joined = match t {
            Some(pt) => engine.join(&ps, pt, &spec),
            None => engine.join_self(&ps, &spec),
        }
        .expect("join");
        let ctx = format!("{label} parallel={parallel}");
        assert_bit_identical(&joined.pairs, &reference, &ctx);
        assert_eq!(
            joined.stats.candidates,
            candidates.len() as u64,
            "{ctx}: Vτ"
        );
        // Tier counters are pure per-candidate functions: whichever
        // source counted, however the pass was scheduled.
        assert_eq!(
            joined.stats.tiers, tiers,
            "{ctx}: tally differs from per-pair"
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
/// against `Engine::scan` over *all* rows (no filter; every non-empty,
/// tier-0 compatible row verified pair by pair): identical rows, order and
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
        let scanned = engine
            .scan(&session, &rows, &segmented, &spec)
            .expect("scan");
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
            w.mass_rejects <= s.mass_rejects
                && w.rowmax_rejects <= s.rowmax_rejects
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
    let mut pt = engine.prepare(&ds.t).expect("prepare T");
    let fresh = pt.memory_bytes();
    assert_eq!(searcher_builds(&pt, 0.9), 4);
    let with_index = pt.memory_bytes();
    assert_eq!(searcher_builds(&pt, 0.6), 2);
    let before = pt.memo_misses();
    let joined = engine
        .join(&ps, &pt, &JoinSpec::threshold(0.5))
        .expect("join");
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

    /// Whole-corpus, under every measure subset and gram measure: the run
    /// verifier over every pair — which stresses the mass bound on pairs
    /// the filter would normally never surface — is byte-identical to the
    /// reference, and its tier buckets are the per-pair tally's.
    #[test]
    fn tiered_corpus_verify_matches(
        texts in prop::collection::vec(text_strategy(6), 4..16),
        theta in 0.3f64..0.95,
        measures in 0usize..7,
        gram in 0usize..4,
    ) {
        let mut kn = test_knowledge();
        let cfg = SimConfig::default()
            .with_measures(MeasureSet::all_combinations()[measures])
            .with_gram(GramMeasure::ALL[gram]);
        let refs: Vec<&str> = texts.iter().map(|s| s.as_str()).collect();
        let c = kn.corpus_from_lines(refs);
        let sp: Vec<Arc<SegRecord>> = c.iter().map(|r| Arc::new(segment_record(&kn, &cfg, &r.tokens))).collect();
        let all: Vec<(u32, u32)> = (0..c.len() as u32)
            .flat_map(|x| (0..c.len() as u32).map(move |y| (x, y)))
            .collect();
        let ctx = format!("measures {measures} gram {gram}");
        let (reference, per_pair) = per_pair_matches_reference(&kn, &cfg, &sp, &sp, &all, theta, &ctx);
        let (tiered, tiers) = verify_runs(&kn, &cfg, &sp, &sp, &all, theta);
        assert_bit_identical(&tiered, &reference, &ctx);
        prop_assert_eq!(tiers, per_pair);
    }

    /// The mass bound may only reject what row-max rejects: under every
    /// measure subset and gram measure it dominates the reference row-max
    /// bound (`vertex_upper_bound` over `build_vertices`) **as floats**,
    /// no tolerance — and Algorithm 1's similarity.
    #[test]
    fn mass_bound_dominates_rowmax_and_usim(
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
        let mass = v.mass_upper_bound(&sa, &sb, &mut VerifyScratch::default());
        let rowmax = vertex_upper_bound(&sa, &sb, &build_vertices(&kn, &cfg, &sa, &sb));
        prop_assert!(mass >= rowmax, "mass {} < rowmax {}", mass, rowmax);
        let approx = usim_approx_seg(&kn, &cfg, &sa, &sb);
        prop_assert!(mass >= approx - 1e-12, "mass {} < approx {}", mass, approx);
    }
}
