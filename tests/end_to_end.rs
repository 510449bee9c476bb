//! End-to-end integration tests: knowledge building → joins → results,
//! spanning au-text, au-taxonomy, au-synonym, au-matching, au-core and
//! au-datagen through the facade crate.

use au_join::core::join::{brute_force_join, JoinResult};
use au_join::core::signature::FilterKind;
use au_join::datagen::{DatasetProfile, LabeledDataset};
use au_join::prelude::*;

/// One-shot R×S join on freshly prepared corpora.
fn join(kn: &Knowledge, cfg: &SimConfig, s: &Corpus, t: &Corpus, spec: &JoinSpec) -> JoinResult {
    let engine = Engine::new(kn.clone(), *cfg).expect("valid config");
    let ps = engine.prepare(s).expect("prepare S");
    let pt = engine.prepare(t).expect("prepare T");
    engine.join(&ps, &pt, spec).expect("join")
}

/// One-shot self-join through the session API.
fn join_self(kn: &Knowledge, cfg: &SimConfig, c: &Corpus, spec: &JoinSpec) -> JoinResult {
    let engine = Engine::new(kn.clone(), *cfg).expect("valid config");
    let pc = engine.prepare(c).expect("prepare");
    engine.join_self(&pc, spec).expect("join_self")
}

fn figure1_knowledge() -> Knowledge {
    let mut kb = KnowledgeBuilder::new();
    kb.synonym("coffee shop", "cafe", 1.0);
    kb.taxonomy_path(&["wikipedia", "food", "coffee", "coffee drinks", "latte"]);
    kb.taxonomy_path(&["wikipedia", "food", "coffee", "coffee drinks", "espresso"]);
    kb.taxonomy_path(&["wikipedia", "food", "cake", "apple cake"]);
    kb.build()
}

#[test]
fn figure1_pair_survives_every_filter() {
    let mut kn = figure1_knowledge();
    let s = kn.corpus_from_lines(["coffee shop latte Helsingki", "apple cake stand"]);
    let t = kn.corpus_from_lines(["espresso cafe Helsinki", "cake stand"]);
    let cfg = SimConfig::default();
    for filter in [
        FilterKind::UFilter,
        FilterKind::AuHeuristic { tau: 2 },
        FilterKind::AuHeuristic { tau: 4 },
        FilterKind::AuDp { tau: 2 },
        FilterKind::AuDp { tau: 4 },
    ] {
        let opts = JoinSpec::threshold(0.8).filter(filter).serial();
        let res = join(&kn, &cfg, &s, &t, &opts);
        assert!(
            res.pairs.iter().any(|&(a, b, _)| (a, b) == (0, 0)),
            "filter {:?} lost the Figure 1 pair",
            filter
        );
    }
}

#[test]
fn no_false_negatives_on_generated_data() {
    // The central correctness claim (Lemmas 1 and 2): filters never drop a
    // pair the verifier would accept. Checked against brute force on a
    // generated MED-like dataset for every filter and threshold.
    let profile = DatasetProfile::med_like(0.05);
    let ds = LabeledDataset::generate(&profile, 80, 80, 20, 99);
    let cfg = SimConfig::default();
    for theta in [0.6, 0.75, 0.9] {
        let oracle: Vec<(u32, u32)> = brute_force_join(&ds.kn, &cfg, &ds.s, &ds.t, theta)
            .iter()
            .map(|&(a, b, _)| (a, b))
            .collect();
        for filter in [
            FilterKind::UFilter,
            FilterKind::AuHeuristic { tau: 3 },
            FilterKind::AuDp { tau: 3 },
        ] {
            let opts = JoinSpec::threshold(theta).filter(filter).serial();
            let got: Vec<(u32, u32)> = join(&ds.kn, &cfg, &ds.s, &ds.t, &opts)
                .pairs
                .iter()
                .map(|&(a, b, _)| (a, b))
                .collect();
            assert_eq!(got, oracle, "θ={theta}, {:?}", filter);
        }
    }
}

#[test]
fn self_join_matches_cross_join_on_duplicated_corpus() {
    let mut kn = figure1_knowledge();
    let lines = [
        "coffee shop latte",
        "cafe latte",
        "espresso cake",
        "apple cake espresso",
        "unrelated tokens here",
    ];
    let c = kn.corpus_from_lines(lines);
    let cfg = SimConfig::default();
    let theta = 0.6;
    let selfj = join_self(&kn, &cfg, &c, &JoinSpec::threshold(theta).au_dp(2));
    let cross = join(&kn, &cfg, &c, &c, &JoinSpec::threshold(theta).au_dp(2));
    // cross join contains (a,b) and (b,a) plus the diagonal; the self join
    // must equal its strict upper triangle.
    let cross_upper: Vec<(u32, u32)> = cross
        .pairs
        .iter()
        .filter(|&&(a, b, _)| a < b)
        .map(|&(a, b, _)| (a, b))
        .collect();
    let self_ids: Vec<(u32, u32)> = selfj.pairs.iter().map(|&(a, b, _)| (a, b)).collect();
    assert_eq!(self_ids, cross_upper);
    // diagonal sanity: every record matches itself in the cross join
    for i in 0..lines.len() as u32 {
        assert!(cross.pairs.iter().any(|&(a, b, _)| a == i && b == i));
    }
}

#[test]
fn measure_subsets_are_monotone_in_similarity() {
    // Adding measures can only increase USIM (more vertices, superset
    // graphs).
    let mut kn = figure1_knowledge();
    let a = kn.add_record("coffee shop latte Helsingki");
    let b = kn.add_record("espresso cafe Helsinki");
    let base = SimConfig::default();
    let combos = MeasureSet::all_combinations();
    let sim_of = |m: MeasureSet| usim_approx(&kn, a, b, &base.with_measures(m));
    let tjs = sim_of(MeasureSet::TJS);
    for m in combos {
        assert!(sim_of(m) <= tjs + 1e-9, "{} exceeded TJS", m.label());
    }
    for single in [MeasureSet::J, MeasureSet::S, MeasureSet::T] {
        let with_more = single.with(MeasureSet::J);
        assert!(sim_of(single) <= sim_of(with_more) + 1e-9);
    }
}

#[test]
fn exact_and_approx_agree_on_generated_records() {
    let profile = DatasetProfile::med_like(0.05);
    let ds = LabeledDataset::generate(&profile, 30, 30, 10, 3);
    let cfg = SimConfig::default();
    let mut checked = 0;
    for p in &ds.truth {
        let srec = au_join::core::segment::segment_record(
            &ds.kn,
            &cfg,
            &ds.s.get(au_join::text::record::RecordId(p.s)).tokens,
        );
        let trec = au_join::core::segment::segment_record(
            &ds.kn,
            &cfg,
            &ds.t.get(au_join::text::record::RecordId(p.t)).tokens,
        );
        let Some(exact) = au_join::core::usim::usim_exact_seg(&ds.kn, &cfg, &srec, &trec) else {
            continue;
        };
        let approx = au_join::core::usim::usim_approx_seg(&ds.kn, &cfg, &srec, &trec);
        assert!(approx <= exact + 1e-9, "approx {approx} > exact {exact}");
        assert!(
            approx >= 0.7 * exact - 1e-9,
            "approx {approx} << exact {exact}"
        );
        checked += 1;
    }
    assert!(checked >= 5, "only {checked} pairs fit the exact budget");
}

#[test]
fn search_and_topk_on_generated_data() {
    // Searcher and top-k descent on a MED-like dataset with planted pairs:
    // querying a planted S string must surface its T partner, and the
    // top-k join must rank planted duplicates above noise.
    let profile = DatasetProfile::med_like(0.05);
    let ds = LabeledDataset::generate(&profile, 100, 100, 25, 4242);
    let cfg = SimConfig::default();
    let engine = Engine::new(ds.kn.clone(), cfg).expect("valid config");
    let ps = engine.prepare(&ds.s).expect("prepare S");
    let pt = engine.prepare(&ds.t).expect("prepare T");

    // Search: planted partners must be retrievable at a moderate θ.
    let theta = 0.6;
    let searcher = engine
        .searcher(&pt, &JoinSpec::threshold(theta).au_dp(2))
        .expect("searcher");
    let oracle = brute_force_join(&ds.kn, &cfg, &ds.s, &ds.t, theta);
    let mut hits = 0usize;
    let mut expected = 0usize;
    for g in &ds.truth {
        let out = searcher.query_tokens(&ds.s.get(RecordId(g.s)).tokens);
        let oracle_says = oracle.iter().any(|&(a, b, _)| (a, b) == (g.s, g.t));
        if oracle_says {
            expected += 1;
            if out.matches.iter().any(|&(rid, _)| rid == g.t) {
                hits += 1;
            }
        }
    }
    assert!(expected > 0, "fixture produced no verifiable planted pairs");
    assert_eq!(
        hits,
        expected,
        "search lost {}/{} planted pairs the oracle finds",
        expected - hits,
        expected
    );

    // Top-k: with k = #planted, the result should be dominated by planted
    // pairs (generated noise pairs are far less similar).
    let truth_pairs: Vec<(u32, u32)> = ds.truth.iter().map(|g| (g.s, g.t)).collect();
    let k = truth_pairs.len();
    let top = engine
        .topk(&ps, &pt, &JoinSpec::topk(k).au_dp(2))
        .expect("topk");
    let planted_in_top = top
        .pairs
        .iter()
        .filter(|&&(a, b, _)| truth_pairs.contains(&(a, b)))
        .count();
    assert!(
        planted_in_top * 10 >= top.pairs.len() * 8,
        "only {planted_in_top}/{} of the top-{k} are planted pairs",
        top.pairs.len()
    );
}
