//! Adversarial and edge-case integration tests: weird knowledge bases,
//! unicode, degenerate records, overlapping knowledge sources.

mod common;

use au_join::core::join::verify_candidates;
use au_join::core::oracle::{brute_force_join, verify_candidates_reference};
use au_join::core::segment::{segment_record, SegRecord, SegView};
use au_join::core::signature::FilterKind;
use au_join::core::usim::{
    usim_approx_seg, usim_exact_seg, GramPostingsIndex, Verifier, VerifyScratch,
};
use au_join::prelude::*;
use common::join;
use std::sync::Arc;

#[test]
fn rule_side_that_is_also_an_entity() {
    // "coffee drinks" is both a taxonomy entity AND a rule side; a segment
    // carries both, msim takes the max, nothing double-counts.
    let mut kb = KnowledgeBuilder::new();
    kb.taxonomy_path(&["root", "coffee", "coffee drinks", "latte"]);
    kb.taxonomy_path(&["root", "coffee", "coffee drinks", "espresso"]);
    kb.synonym("coffee drinks", "caffeinated beverages", 0.9);
    let mut kn = kb.build();
    let a = kn.add_record("coffee drinks menu");
    let b = kn.add_record("caffeinated beverages menu");
    let cfg = SimConfig::default();
    let sim = usim_approx(&kn, a, b, &cfg);
    // (0.9 synonym + 1.0 menu) / 2
    assert!((sim - 0.95).abs() < 1e-9, "got {sim}");
    let exact = usim_exact(&kn, a, b, &cfg).unwrap();
    assert!((sim - exact).abs() < 1e-9);
}

#[test]
fn self_referential_and_reversed_rules() {
    let mut kb = KnowledgeBuilder::new();
    kb.synonym("alpha", "alpha", 1.0); // self-rule: harmless
    kb.synonym("beta", "gamma", 0.8);
    kb.synonym("gamma", "beta", 0.6); // reversed duplicate with lower C
    let mut kn = kb.build();
    let a = kn.add_record("beta");
    let b = kn.add_record("gamma");
    let cfg = SimConfig::default();
    let sim = usim_approx(&kn, a, b, &cfg);
    assert!((sim - 0.8).abs() < 1e-9, "max closeness must win: {sim}");
    let s = kn.add_record("alpha");
    assert!((usim_approx(&kn, s, s, &cfg) - 1.0).abs() < 1e-9);
}

#[test]
fn unicode_through_the_whole_pipeline() {
    let mut kb = KnowledgeBuilder::new();
    kb.synonym("kahvila keskusta", "café centrum", 1.0);
    kb.taxonomy_path(&["juomat", "kahvi", "espresso"]);
    kb.taxonomy_path(&["juomat", "kahvi", "latte"]);
    let mut kn = kb.build();
    let s = kn.corpus_from_lines(["kahvila keskusta espresso", "jäätelö kioski"]);
    let t = kn.corpus_from_lines(["café centrum latte", "jäätelo kioski"]);
    let cfg = SimConfig::default();
    let res = join(&kn, &cfg, &s, &t, &JoinSpec::threshold(0.7).au_dp(2));
    assert!(
        res.pairs.iter().any(|&(a, b, _)| (a, b) == (0, 0)),
        "unicode synonym+taxonomy pair missing: {:?}",
        res.pairs
    );
    assert!(
        res.pairs.iter().any(|&(a, b, _)| (a, b) == (1, 1)),
        "unicode typo pair missing: {:?}",
        res.pairs
    );
}

#[test]
fn degenerate_records_never_crash_or_match() {
    let mut kb = KnowledgeBuilder::new();
    kb.synonym("a b", "c", 1.0);
    let mut kn = kb.build();
    let s = kn.corpus_from_lines(["", "...", "a", "a a a a a a a a a a a a"]);
    let t = kn.corpus_from_lines(["", "x", "a", "b"]);
    let cfg = SimConfig::default();
    for filter in [FilterKind::UFilter, FilterKind::AuDp { tau: 2 }] {
        let opts = JoinSpec::threshold(0.9).filter(filter).serial();
        let res = join(&kn, &cfg, &s, &t, &opts);
        // identical "a" records must match; empty/punctuation must not
        // match anything (similarity to empty is 0, and empty-vs-empty
        // pairs produce no pebbles so they can't be candidates).
        assert!(res.pairs.iter().any(|&(a, b, _)| (a, b) == (2, 2)));
        assert!(!res
            .pairs
            .iter()
            .any(|&(a, b, _)| a <= 1 && b <= 1 && (a, b) != (2, 2)));
    }
}

#[test]
fn duplicate_tokens_and_repeated_rule_spans() {
    // "cafe cafe cafe" has three overlapping single-token segments with
    // identical pebbles; signatures and verification must stay consistent.
    let mut kb = KnowledgeBuilder::new();
    kb.synonym("coffee shop", "cafe", 1.0);
    let mut kn = kb.build();
    let a = kn.add_record("cafe cafe cafe");
    let b = kn.add_record("coffee shop coffee shop coffee shop");
    let cfg = SimConfig::default();
    let sa = segment_record(&kn, &cfg, &kn.record(a).tokens);
    let sb = segment_record(&kn, &cfg, &kn.record(b).tokens);
    let approx = usim_approx_seg(&kn, &cfg, &sa, &sb);
    let exact = usim_exact_seg(&kn, &cfg, &sa, &sb).unwrap();
    // three synonym matches: 3×1.0 / max(3, 3) = 1.0
    assert!((exact - 1.0).abs() < 1e-9, "exact {exact}");
    assert!(approx <= exact + 1e-9);
    assert!(approx >= 0.99, "approx {approx}");
}

#[test]
fn long_rule_chains_stay_lossless() {
    // Rules with maximal-length sides (k = 4) stress the claw bound and
    // the segment enumeration window.
    let mut kb = KnowledgeBuilder::new();
    kb.synonym("new york city hall", "nyc hall", 1.0);
    kb.synonym("the big apple", "new york", 0.9);
    kb.synonym("city hall", "municipal building", 0.8);
    let mut kn = kb.build();
    let s = kn.corpus_from_lines([
        "new york city hall tours",
        "visit the big apple today",
        "old municipal building",
    ]);
    let t = kn.corpus_from_lines(["nyc hall tours", "visit new york today", "old city hall"]);
    let cfg = SimConfig::default();
    assert_eq!(kn.max_segment_span(), 4);
    for theta in [0.6, 0.8] {
        let oracle: Vec<(u32, u32)> = brute_force_join(&kn, &cfg, &s, &t, theta)
            .iter()
            .map(|&(a, b, _)| (a, b))
            .collect();
        for tau in [1u32, 2, 3] {
            let got: Vec<(u32, u32)> = join(
                &kn,
                &cfg,
                &s,
                &t,
                &JoinSpec::threshold(theta)
                    .filter(FilterKind::AuDp { tau })
                    .serial(),
            )
            .pairs
            .iter()
            .map(|&(a, b, _)| (a, b))
            .collect();
            assert_eq!(got, oracle, "θ={theta} τ={tau}");
        }
        assert!(oracle.contains(&(0, 0)));
        assert!(oracle.contains(&(1, 1)));
    }
}

#[test]
fn theorem2_tightness_instance() {
    // The appendix's worst-case construction for k = 3, showing Eq. 27
    // tight: S = {m1, m2, q1}, T = {n1, p1..p4, q2} with rules
    //   R1: m1 → p1 p2     (C = 0.5)
    //   R2: m2 → p3 p4     (C = 0.5)
    //   R3: q1 → n1 q2     (C = 0.5)
    //   R4: m1 m2 → n1     (C = 0.9)
    // chosen so that C(R4) < ΣC(Ri) but C²(R4) > ΣC²(Ri): Berman's w²
    // local search keeps {R4}, the optimum applies {R1, R2, R3}.
    let mut kb = KnowledgeBuilder::new();
    kb.synonym("ma", "pa pb", 0.5);
    kb.synonym("mb", "pc pd", 0.5);
    kb.synonym("qa", "nn qz", 0.5);
    kb.synonym("ma mb", "nn", 0.9);
    let mut kn = kb.build();
    let s = kn.add_record("ma mb qa");
    // rule sides only bind to *consecutive* tokens: order T so every rhs
    // ("nn qz", "pa pb", "pc pd") is contiguous.
    let t = kn.add_record("nn qz pa pb pc pd");
    // Synonym-only measures keep the conflict graph exactly the paper's
    // four rule vertices (grams would add noise vertices).
    let cfg = SimConfig::default().with_measures(MeasureSet::S);

    // paper-k = max |lhs| + |rhs| = 3 → the graph is 4-claw-free.
    assert_eq!(kn.claw_bound(), 4);

    // Optimum: {R1, R2, R3} → partitions of size 3 on both sides,
    // similarity 3×0.5/3 = 0.5.
    let exact = usim_exact(&kn, s, t, &cfg).unwrap();
    assert!((exact - 0.5).abs() < 1e-9, "exact {exact}");

    // Seed only (t = 1 disables the improvement loop): SquareImp keeps R4
    // (w² 0.81 > 0.75). The paper charges the seed d(I) = k(k−1) = 6 by
    // shattering T's residual into singletons; our GetSim evaluates the
    // *minimal* residual partition ({qz}, {pa pb}, {pc pd} + the matched
    // {nn} = 4), so the seed scores 0.9/4 = 0.225 — the same wrong MIS
    // choice, a strictly tighter denominator (ratio 4/3 ≤ k − 1).
    let mut cfg_seed = cfg;
    cfg_seed.t_param = 1.0;
    let seed = usim_approx(&kn, s, t, &cfg_seed);
    assert!((seed - 0.9 / 4.0).abs() < 1e-9, "seed-only {seed}");
    assert!(exact / seed <= (3 - 1) as f64 * (0.5 / (0.9 / 3.0)) + 1e-9);

    // With the default t the 1/t improvement loop must recover the
    // optimum (the {R1,R2,R3} claw gains 0.275 ≥ 1/50) — Algorithm 1 is
    // strictly stronger than its seed on this instance.
    let full = usim_approx(&kn, s, t, &cfg);
    assert!((full - 0.5).abs() < 1e-9, "full Algorithm 1 {full}");
}

#[test]
fn zero_and_one_thresholds() {
    let mut kb = KnowledgeBuilder::new();
    kb.synonym("a", "b", 1.0);
    let mut kn = kb.build();
    let s = kn.corpus_from_lines(["a x", "y z"]);
    let t = kn.corpus_from_lines(["b x", "p q"]);
    let cfg = SimConfig::default();
    // θ = 1: only perfect matches survive; (0,0) = (1 + 1)/2 = 1.0 ✓
    let res = join(&kn, &cfg, &s, &t, &JoinSpec::threshold(1.0).au_dp(1));
    assert_eq!(
        res.pairs
            .iter()
            .map(|&(a, b, _)| (a, b))
            .collect::<Vec<_>>(),
        vec![(0, 0)]
    );
    // θ ≤ ε (θ = 0 included) would qualify pairs sharing no key, which
    // no probe finds: it is refused with a typed error, never a crash.
    let engine = Engine::new(kn.clone(), cfg).expect("valid config");
    let ps = engine.prepare(&s).expect("prepare S");
    let pt = engine.prepare(&t).expect("prepare T");
    for theta in [0.0, f64::MIN_POSITIVE, cfg.eps] {
        assert!(matches!(
            engine.join(&ps, &pt, &JoinSpec::threshold(theta)),
            Err(AuError::InvalidSpec { field: "theta", .. })
        ));
    }
    // Just above it, every pair with any shared pebble is a result.
    let res0 = join(&kn, &cfg, &s, &t, &JoinSpec::threshold(2.0 * cfg.eps));
    assert!(!res0.pairs.is_empty());
}

/// A probe record whose run needs more mass counters than one worker may
/// hold (520 segments × 2100 partners > 2²⁰): the run-batched source
/// counts it in partner chunks, with the same pairs and the same
/// four-bucket tally as the reference and the per-pair source.
#[test]
fn oversized_run_takes_the_batched_path_in_chunks() {
    // Five-letter pseudo-random words: few shared bigrams, so a pair's
    // similarity is essentially its count of shared whole tokens.
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut word = || {
        (0..5)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (b'a' + (state >> 33) as u8 % 26) as char
            })
            .collect::<String>()
    };
    let giant: Vec<String> = (0..520).map(|_| word()).collect();
    // Partner `b` shares `b % 13` of its 12 tokens with the giant.
    let partners: Vec<String> = (0..2100usize)
        .map(|b| {
            (0..12)
                .map(|i| {
                    if i < b % 13 {
                        giant[(b * 7 + i * 41) % giant.len()].clone()
                    } else {
                        word()
                    }
                })
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect();
    let mut kn = KnowledgeBuilder::new().build();
    let cfg = SimConfig::default();
    let segment = |kn: &Knowledge, c: &Corpus| -> Vec<Arc<SegRecord>> {
        c.iter()
            .map(|r| Arc::new(segment_record(kn, &cfg, &r.tokens)))
            .collect()
    };
    let s = kn.corpus_from_lines([giant.join(" ").as_str(), partners[12].as_str()]);
    let t = kn.corpus_from_lines(partners.iter().map(String::as_str));
    let (sp, tp) = (segment(&kn, &s), segment(&kn, &t));
    assert!(sp[0].n_segments() * tp.len() > 1 << 20);
    let candidates: Vec<(u32, u32)> = (0..2u32)
        .flat_map(|a| (0..tp.len() as u32).map(move |b| (a, b)))
        .collect();
    // 12 of 520 tokens is the most a partner can share with the giant:
    // θ = 0.02 passes the tier-0 bound (12/520) and accepts the 11- and
    // 12-sharers.
    let theta = 0.02;
    let reference = verify_candidates_reference(&kn, &cfg, &sp, &tp, &candidates, theta, false);
    assert!(reference.iter().any(|&(a, _, _)| a == 0));
    let per_pair = {
        let v = Verifier::new(&kn, &cfg);
        let mut scr = VerifyScratch::default();
        for &(a, b) in &candidates {
            v.sim_at_least(&sp[a as usize], &tp[b as usize], theta, &mut scr);
        }
        scr.take_tally()
    };
    assert!(per_pair.mass_rejects > 0 && per_pair.accepted == reference.len() as u64);
    // Serial keeps the giant's run whole.
    let index = GramPostingsIndex::build(&tp);
    for parallel in [false, true] {
        let (pairs, tiers) =
            verify_candidates(&kn, &cfg, &sp, &tp, &candidates, theta, parallel, &index);
        let bits = |v: &[(u32, u32, f64)]| -> Vec<(u32, u32, u64)> {
            v.iter().map(|&(a, b, x)| (a, b, x.to_bits())).collect()
        };
        assert_eq!(bits(&pairs), bits(&reference), "parallel={parallel}");
        assert_eq!(tiers, per_pair, "parallel={parallel}");
    }
}

/// One record with more gram postings than `u16::MAX` — and a surface
/// text longer than that — joined against small partners: every offset
/// of its flat row lies past 16 bits, and the join still equals the
/// oracle, its pairs with the giant included.
#[test]
fn a_giant_record_joins_like_the_oracle() {
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut word = || {
        (0..6)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (b'a' + (state >> 33) as u8 % 26) as char
            })
            .collect::<String>()
    };
    let giant: Vec<String> = (0..16_000).map(|_| word()).collect();
    // Partner `b` shares `b % 9` of its 8 tokens (at most all of them)
    // with the giant, drawn from all along it.
    let partners: Vec<String> = (0..24usize)
        .map(|b| {
            (0..8)
                .map(|i| {
                    if i < b % 9 {
                        giant[(b * 977 + i * 1999) % giant.len()].clone()
                    } else {
                        word()
                    }
                })
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect();
    let mut kn = KnowledgeBuilder::new().build();
    let cfg = SimConfig::default();
    let giant_line = giant.join(" ");
    let s = kn.corpus_from_lines(
        std::iter::once(giant_line.as_str()).chain(partners[..4].iter().map(String::as_str)),
    );
    let t = kn.corpus_from_lines(partners.iter().map(String::as_str));
    let row = segment_record(&kn, &cfg, &s.get(au_join::text::RecordId(0)).tokens);
    let total = |f: fn(SegView<'_>) -> usize| row.segments().map(f).sum::<usize>();
    assert!(
        total(|v| v.grams.len()) > usize::from(u16::MAX),
        "gram postings"
    );
    assert!(
        total(|v| v.text.len()) > usize::from(u16::MAX),
        "text bytes"
    );
    // A full sharer scores 8 / 16,000; θ sits between 5 and 6 sharers.
    let theta = 0.00033;
    let bits = |v: &[(u32, u32, f64)]| -> Vec<(u32, u32, u64)> {
        v.iter().map(|&(a, b, x)| (a, b, x.to_bits())).collect()
    };
    let oracle = brute_force_join(&kn, &cfg, &s, &t, theta);
    assert!(oracle.iter().any(|&(a, _, _)| a == 0), "the giant matches");
    assert!(oracle.iter().any(|&(a, _, _)| a > 0), "small records match");
    let got = join(&kn, &cfg, &s, &t, &JoinSpec::threshold(theta));
    assert_eq!(bits(&got.pairs), bits(&oracle));
}
