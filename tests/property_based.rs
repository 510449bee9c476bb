//! Property-based tests (proptest) over the core invariants.

use au_join::core::join::{brute_force_join, JoinResult};
use au_join::core::segment::segment_record;
use au_join::core::signature::FilterKind;
use au_join::core::usim::{usim_approx_seg, usim_exact_seg};
use au_join::prelude::*;
use au_join::text::edit::levenshtein;
use au_join::text::jaccard::{jaccard_sorted, qgram_jaccard};
use proptest::prelude::*;

/// A small token alphabet keeps collisions (and therefore interesting
/// segment structure) frequent.
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
        "corner",
        "grande",
        "small",
    ])
    .prop_map(str::to_string)
}

fn text_strategy(max_tokens: usize) -> impl Strategy<Value = String> {
    prop::collection::vec(word_strategy(), 1..=max_tokens).prop_map(|v| v.join(" "))
}

/// One-shot R×S join on freshly prepared corpora.
fn join(kn: &Knowledge, cfg: &SimConfig, s: &Corpus, t: &Corpus, spec: &JoinSpec) -> JoinResult {
    let engine = Engine::new(kn.clone(), *cfg).expect("valid config");
    let ps = engine.prepare(s).expect("prepare S");
    let pt = engine.prepare(t).expect("prepare T");
    engine.join(&ps, &pt, spec).expect("join")
}

fn test_knowledge() -> Knowledge {
    let mut kb = KnowledgeBuilder::new();
    kb.synonym("coffee shop", "cafe", 1.0);
    kb.synonym("tea house", "tearoom", 0.9);
    kb.taxonomy_path(&["root", "drinks", "coffee", "latte"]);
    kb.taxonomy_path(&["root", "drinks", "coffee", "espresso"]);
    kb.taxonomy_path(&["root", "food", "cake", "apple cake"]);
    kb.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn usim_is_bounded_and_symmetric(a in text_strategy(6), b in text_strategy(6)) {
        let mut kn = test_knowledge();
        let cfg = SimConfig::default();
        let ra = kn.add_record(&a);
        let rb = kn.add_record(&b);
        let sa = segment_record(&kn, &cfg, &kn.record(ra).tokens);
        let sb = segment_record(&kn, &cfg, &kn.record(rb).tokens);
        let ab = usim_approx_seg(&kn, &cfg, &sa, &sb);
        let ba = usim_approx_seg(&kn, &cfg, &sb, &sa);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&ab));
        prop_assert!((ab - ba).abs() < 1e-9, "asymmetry: {ab} vs {ba}");
    }

    #[test]
    fn usim_identity(a in text_strategy(6)) {
        let mut kn = test_knowledge();
        let cfg = SimConfig::default();
        let ra = kn.add_record(&a);
        let sa = segment_record(&kn, &cfg, &kn.record(ra).tokens);
        let sim = usim_approx_seg(&kn, &cfg, &sa, &sa);
        prop_assert!((sim - 1.0).abs() < 1e-9, "self-similarity {sim}");
    }

    #[test]
    fn approx_below_exact(a in text_strategy(5), b in text_strategy(5)) {
        let mut kn = test_knowledge();
        let cfg = SimConfig {
            exact_budget: 200_000,
            ..SimConfig::default()
        };
        let ra = kn.add_record(&a);
        let rb = kn.add_record(&b);
        let sa = segment_record(&kn, &cfg, &kn.record(ra).tokens);
        let sb = segment_record(&kn, &cfg, &kn.record(rb).tokens);
        if let Some(exact) = usim_exact_seg(&kn, &cfg, &sa, &sb) {
            let approx = usim_approx_seg(&kn, &cfg, &sa, &sb);
            prop_assert!(approx <= exact + 1e-9, "approx {approx} > exact {exact}");
        }
    }

    #[test]
    fn filters_never_lose_results(
        lines_s in prop::collection::vec(text_strategy(5), 3..10),
        lines_t in prop::collection::vec(text_strategy(5), 3..10),
        theta in 0.5f64..0.95,
        tau in 1u32..4,
    ) {
        let mut kn = test_knowledge();
        let s = kn.corpus_from_lines(lines_s.iter().map(|x| x.as_str()));
        let t = kn.corpus_from_lines(lines_t.iter().map(|x| x.as_str()));
        let cfg = SimConfig::default();
        let oracle: Vec<(u32, u32)> = brute_force_join(&kn, &cfg, &s, &t, theta)
            .iter().map(|&(a, b, _)| (a, b)).collect();
        for filter in [FilterKind::UFilter, FilterKind::AuHeuristic { tau }, FilterKind::AuDp { tau }] {
            let opts = JoinSpec::threshold(theta).filter(filter).serial();
            let got: Vec<(u32, u32)> = join(&kn, &cfg, &s, &t, &opts)
                .pairs.iter().map(|&(a, b, _)| (a, b)).collect();
            prop_assert_eq!(got, oracle.clone(), "θ={} {:?}", theta, filter);
        }
    }

    #[test]
    fn filters_complete_under_every_gram_measure(
        lines_s in prop::collection::vec(text_strategy(4), 3..8),
        lines_t in prop::collection::vec(text_strategy(4), 3..8),
        theta in 0.5f64..0.95,
        gram_idx in 0usize..4,
    ) {
        let gram = GramMeasure::ALL[gram_idx];
        let mut kn = test_knowledge();
        let s = kn.corpus_from_lines(lines_s.iter().map(|x| x.as_str()));
        let t = kn.corpus_from_lines(lines_t.iter().map(|x| x.as_str()));
        let cfg = SimConfig::default().with_gram(gram);
        let oracle: Vec<(u32, u32)> = brute_force_join(&kn, &cfg, &s, &t, theta)
            .iter().map(|&(a, b, _)| (a, b)).collect();
        for filter in [FilterKind::AuHeuristic { tau: 2 }, FilterKind::AuDp { tau: 3 }] {
            let opts = JoinSpec::threshold(theta).filter(filter).serial();
            let got: Vec<(u32, u32)> = join(&kn, &cfg, &s, &t, &opts)
                .pairs.iter().map(|&(a, b, _)| (a, b)).collect();
            prop_assert_eq!(got, oracle.clone(), "{:?} θ={} {:?}", gram, theta, filter);
        }
    }

    #[test]
    fn search_equals_join_per_query(
        lines_s in prop::collection::vec(text_strategy(4), 2..6),
        lines_t in prop::collection::vec(text_strategy(4), 3..8),
        theta in 0.5f64..0.9,
        tau in 1u32..4,
    ) {
        let mut kn = test_knowledge();
        let s = kn.corpus_from_lines(lines_s.iter().map(|x| x.as_str()));
        let t = kn.corpus_from_lines(lines_t.iter().map(|x| x.as_str()));
        let spec = JoinSpec::threshold(theta).au_dp(tau);
        let engine = Engine::new(kn, SimConfig::default()).expect("valid config");
        let ps = engine.prepare(&s).expect("prepare S");
        let pt = engine.prepare(&t).expect("prepare T");
        let joined = engine.join(&ps, &pt, &spec).expect("join");
        let searcher = engine.searcher(&pt, &spec).expect("searcher");
        for qi in 0..s.len() as u32 {
            let out = searcher.query_tokens(&s.get(RecordId(qi)).tokens);
            let mut got: Vec<u32> = out.matches.iter().map(|&(r, _)| r).collect();
            got.sort_unstable();
            let want: Vec<u32> = joined.pairs.iter()
                .filter(|&&(a, _, _)| a == qi).map(|&(_, b, _)| b).collect();
            prop_assert_eq!(got, want, "query {} θ={} τ={}", qi, theta, tau);
        }
    }

    #[test]
    fn topk_matches_oracle_scores(
        lines_s in prop::collection::vec(text_strategy(4), 3..7),
        lines_t in prop::collection::vec(text_strategy(4), 3..7),
        k in 1usize..8,
    ) {
        let mut kn = test_knowledge();
        let s = kn.corpus_from_lines(lines_s.iter().map(|x| x.as_str()));
        let t = kn.corpus_from_lines(lines_t.iter().map(|x| x.as_str()));
        let cfg = SimConfig::default();
        let spec = JoinSpec::topk(k).au_dp(2).descent(0.95, 0.3, 0.1);
        let engine = Engine::new(kn.clone(), cfg).expect("valid config");
        let ps = engine.prepare(&s).expect("prepare S");
        let pt = engine.prepare(&t).expect("prepare T");
        let got = engine.topk(&ps, &pt, &spec).expect("topk");
        // brute_force_join's verifier early-accepts at the threshold and
        // may report a lower-bound score; re-score fully before ranking.
        let mut oracle: Vec<(u32, u32, f64)> = brute_force_join(&kn, &cfg, &s, &t, 0.3)
            .iter()
            .map(|&(a, b, _)| {
                let sa = segment_record(&kn, &cfg, &s.get(RecordId(a)).tokens);
                let sb = segment_record(&kn, &cfg, &t.get(RecordId(b)).tokens);
                (a, b, usim_approx_seg(&kn, &cfg, &sa, &sb))
            })
            .collect();
        oracle.sort_by(|x, y| y.2.total_cmp(&x.2).then_with(|| (x.0, x.1).cmp(&(y.0, y.1))));
        oracle.truncate(k);
        prop_assert_eq!(got.pairs.len(), oracle.len());
        for (g, w) in got.pairs.iter().zip(&oracle) {
            prop_assert!((g.2 - w.2).abs() < 1e-9,
                "rank scores diverge: {:?} vs {:?}", g, w);
        }
    }

    #[test]
    fn jaccard_triangle_ish(a in "[a-c]{1,8}", b in "[a-c]{1,8}", c in "[a-c]{1,8}") {
        // Jaccard distance (1 − J) is a metric on sets.
        let d = |x: &str, y: &str| 1.0 - qgram_jaccard(x, y, 2);
        prop_assert!(d(&a, &c) <= d(&a, &b) + d(&b, &c) + 1e-9);
    }

    #[test]
    fn levenshtein_metric_axioms(a in "[a-d]{0,10}", b in "[a-d]{0,10}") {
        prop_assert_eq!(levenshtein(&a, &b), levenshtein(&b, &a));
        prop_assert_eq!(levenshtein(&a, &a), 0);
        if a != b {
            prop_assert!(levenshtein(&a, &b) > 0);
        }
    }

    #[test]
    fn sorted_jaccard_bounds(mut xs in prop::collection::vec(0u32..50, 0..20),
                             mut ys in prop::collection::vec(0u32..50, 0..20)) {
        xs.sort_unstable(); xs.dedup();
        ys.sort_unstable(); ys.dedup();
        let j = jaccard_sorted(&xs, &ys);
        prop_assert!((0.0..=1.0).contains(&j));
        if !xs.is_empty() && xs == ys {
            prop_assert!((j - 1.0).abs() < 1e-12);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn signature_lengths_monotone_in_tau_and_theta(
        text in text_strategy(8),
        theta in 0.5f64..0.95,
    ) {
        use au_join::core::pebble::{generate_pebbles, PebbleOrder};
        use au_join::core::signature::signature_prefix_len;
        let mut kn = test_knowledge();
        let cfg = SimConfig::default();
        let id = kn.add_record(&text);
        let sr = segment_record(&kn, &cfg, &kn.record(id).tokens);
        let mut p = generate_pebbles(&kn, &cfg, &sr);
        let order = PebbleOrder::build(std::iter::once(p.as_slice()));
        order.sort(&mut p, &mut Default::default());
        let mut last = 0usize;
        for tau in 1..=5u32 {
            let len = signature_prefix_len(
                &sr, &p, FilterKind::AuHeuristic { tau }, theta, cfg.eps);
            prop_assert!(len >= last, "τ={tau}: {len} < {last}");
            prop_assert!(len <= p.len());
            last = len;
        }
    }
}
