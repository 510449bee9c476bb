//! Tier-equivalence harness: the production verification driver
//! (`au_core::join::verify_candidates` over the tiered engine in
//! `au_core::usim::verify`) must produce **byte-identical** `(pairs,
//! sims)` — compared through `f64::to_bits` — to the reference
//! per-candidate path (`verify_candidates_reference`), on generated
//! datasets and on adversarial proptest corpora, serial and parallel
//! alike, through *both* of its count sources: the run-batched one the
//! driver picks at ≥ 2048 candidates and the probe-grouped one it picks
//! below — and both must land every candidate in the same one of the
//! seven tier buckets as a per-pair `Verifier::sim_at_least` call.
//!
//! This is the contract that lets the engine reject candidates before any
//! segment-pair enumeration (tier 0, the mass bound), share the probe
//! side's work across a run and reuse every per-candidate buffer (tier
//! 2): none of it may change a single output bit.

use au_join::core::join::{verify_candidates, verify_candidates_reference};
use au_join::core::segment::{segment_record, SegRecord};
use au_join::core::usim::{
    usim_approx_seg, usim_approx_seg_at_least, usim_exact_seg, GramPostingsIndex, Verifier,
    VerifyScratch,
};
use au_join::datagen::{DatasetProfile, LabeledDataset};
use au_join::prelude::*;
use proptest::prelude::*;

/// The driver's size switch (`BATCHED_VERIFY_MIN` in `au_core::join`):
/// candidate lists at least this long verify through the run-batched mass
/// count, shorter ones through the probe-grouped one.
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
/// schedules *and* across the batched / probe-grouped / per-pair sources).
fn check_candidates(
    kn: &Knowledge,
    s: &[SegRecord],
    t: &[SegRecord],
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
    // `None` lets the driver pick by size (probe-grouped below
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
/// the probe-grouped one.
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
        ("probe-grouped", &out.candidates[..BATCHED_MIN - 1]),
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
    /// reference, serial and parallel (short lists: probe-grouped source).
    #[test]
    fn tiered_corpus_verify_matches(texts in prop::collection::vec(text_strategy(6), 4..16), theta in 0.3f64..0.95) {
        let mut kn = test_knowledge();
        let cfg = SimConfig::default();
        let refs: Vec<&str> = texts.iter().map(|s| s.as_str()).collect();
        let c = kn.corpus_from_lines(refs);
        let sp: Vec<SegRecord> = c.iter().map(|r| segment_record(&kn, &cfg, &r.tokens)).collect();
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
