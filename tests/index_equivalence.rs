//! Candidate generation against its definition.
//!
//! The production scan (CSR postings + epoch-stamped dense counters +
//! per-posting-list τ-skip + first-touch compatibility bound, reached
//! through `Engine::filter_outcome`) must report exactly the candidate set
//! and the `Tτ` (Eq. 16) that the *definition* assigns to the selected
//! signatures — on R×S joins and self-joins, every filter, serial and
//! parallel, across `au-datagen` corpora and randomized small corpora.
//!
//! The oracle below is deliberately naive — O(|S|·|T|·k), no index, no
//! skipping — and is computed from `SelectedSignatures` built here with
//! the public stage functions, independently of the engine's memoized
//! order / signature / index artifacts.
//!
//! (The `csr_matches_legacy_*` test ids are kept stable for the suite's
//! pass-list: the oracle used to be the PR-1 hashmap engine, and
//! `definition` is that engine's candidate rule with the engine removed.)

use au_join::core::config::SimConfig;
use au_join::core::engine::{Engine, JoinSpec, Prepared};
use au_join::core::join::SelectedSignatures;
use au_join::core::pebble::{generate_pebbles, Pebble, PebbleOrder};
use au_join::core::signature::FilterKind;
use au_join::datagen::{DatasetProfile, LabeledDataset};
use proptest::prelude::*;

/// Every side's pebble lists sorted under the global order built over
/// exactly these sides (stage 2, done by hand).
fn sorted_pebbles(
    ds: &LabeledDataset,
    cfg: &SimConfig,
    sides: &[&Prepared],
) -> Vec<Vec<Vec<Pebble>>> {
    let mut lists: Vec<Vec<Vec<Pebble>>> = sides
        .iter()
        .map(|p| {
            p.seg_records()
                .iter()
                .map(|sr| generate_pebbles(&ds.kn, cfg, sr))
                .collect()
        })
        .collect();
    let order = PebbleOrder::build(lists.iter().flatten().map(|v| v.as_slice()));
    for list in lists.iter_mut().flatten() {
        order.sort(list, &mut Default::default());
    }
    lists
}

/// One join side as the definition sees it: key sets, guarantee levels
/// and the tier-0 integers `(|r|, MP(r))`.
struct Side {
    sel: SelectedSignatures,
    tier0: Vec<(u32, u32)>,
}

impl Side {
    fn new(p: &Prepared, sorted: &[Vec<Pebble>], spec: &JoinSpec, eps: f64) -> Self {
        Self {
            sel: SelectedSignatures::select_from(p.seg_records(), sorted, spec, eps),
            tier0: p
                .seg_records()
                .iter()
                .map(|sr| (sr.n_tokens() as u32, sr.min_partition))
                .collect(),
        }
    }
}

/// The definition. `(a, b)` is a candidate ⇔
/// `|keys(a) ∩ keys(b)| ≥ max(1, min(τ, level_a, level_b))` and the tier-0
/// bound `min(|a|,|b|) / max(MP(a),MP(b)) ≥ θ − ε`. `Tτ` is
/// `Σ_key |L_S(key)|·|L_T(key)|`, which is the shared-key count summed
/// over all pairs; a self-join (`t = None`) ranges over `a < b`, i.e.
/// `n(n−1)/2` pairs per posting list.
fn definition(s: &Side, t: Option<&Side>, tau: u32, min_sim: f64) -> (Vec<(u32, u32)>, u64) {
    let indexed = t.unwrap_or(s);
    let mut candidates = Vec::new();
    let mut t_tau = 0u64;
    for a in 0..s.sel.len() as u32 {
        let first = if t.is_none() { a + 1 } else { 0 };
        for b in first..indexed.sel.len() as u32 {
            let keys_b = indexed.sel.record_keys.get(b);
            let shared = s
                .sel
                .record_keys
                .get(a)
                .iter()
                .filter(|k| keys_b.binary_search(k).is_ok())
                .count() as u32;
            t_tau += shared as u64;
            let demand = tau
                .min(s.sel.levels[a as usize])
                .min(indexed.sel.levels[b as usize])
                .max(1);
            let ((na, mpa), (nb, mpb)) = (s.tier0[a as usize], indexed.tier0[b as usize]);
            if shared >= demand && na.min(nb) as f64 / mpa.max(mpb) as f64 >= min_sim {
                candidates.push((a, b));
            }
        }
    }
    (candidates, t_tau)
}

fn assert_scan_matches_definition(
    ds: &LabeledDataset,
    theta: f64,
    filter: FilterKind,
    label: &str,
) {
    let cfg = SimConfig::default();
    let engine = Engine::new(ds.kn.clone(), cfg).expect("engine");
    let ps = engine.prepare(&ds.s).expect("prepare S");
    let pt = engine.prepare(&ds.t).expect("prepare T");
    let spec = JoinSpec::threshold(theta).filter(filter);
    let (tau, min_sim) = (filter.tau(), theta - cfg.eps);

    // R×S: the order counts frequencies across both sides.
    let sorted = sorted_pebbles(ds, &cfg, &[&ps, &pt]);
    let s = Side::new(&ps, &sorted[0], &spec, cfg.eps);
    let t = Side::new(&pt, &sorted[1], &spec, cfg.eps);
    let (want, want_t_tau) = definition(&s, Some(&t), tau, min_sim);
    for parallel in [false, true] {
        let got = engine
            .filter_outcome(&ps, Some(&pt), &spec.parallel(parallel))
            .expect("R×S filter run");
        assert_eq!(
            got.candidates, want,
            "{label} candidates (parallel={parallel})"
        );
        assert_eq!(
            got.processed_pairs, want_t_tau,
            "{label} Tτ (parallel={parallel})"
        );
        assert!(
            (got.avg_sig_len_s - s.sel.record_keys.avg_sig_len()).abs() < 1e-12
                && (got.avg_sig_len_t - t.sel.record_keys.avg_sig_len()).abs() < 1e-12,
            "{label} mean signature lengths"
        );
    }

    // Self-join on the S side: the order is built from S alone.
    let sorted = sorted_pebbles(ds, &cfg, &[&ps]);
    let s = Side::new(&ps, &sorted[0], &spec, cfg.eps);
    let (want, want_t_tau) = definition(&s, None, tau, min_sim);
    for parallel in [false, true] {
        let got = engine
            .filter_outcome(&ps, None, &spec.parallel(parallel))
            .expect("self filter run");
        assert_eq!(
            got.candidates, want,
            "{label} self candidates (parallel={parallel})"
        );
        assert_eq!(
            got.processed_pairs, want_t_tau,
            "{label} self Tτ (parallel={parallel})"
        );
    }
}

fn all_filters() -> Vec<FilterKind> {
    vec![
        FilterKind::UFilter,
        FilterKind::AuHeuristic { tau: 2 },
        FilterKind::AuHeuristic { tau: 4 },
        FilterKind::AuDp { tau: 2 },
        FilterKind::AuDp { tau: 4 },
    ]
}

/// MED-like dataset without depending on the bench crate (the root facade
/// only links the library crates).
fn au_bench_free_med(n: usize, seed: u64) -> LabeledDataset {
    let profile = DatasetProfile::med_like((n as f64 / 2000.0).max(1.0));
    LabeledDataset::generate(&profile, n, n, n / 5, seed)
}

#[test]
fn csr_matches_legacy_on_med_corpora() {
    for (n, seed) in [(60usize, 11u64), (150, 12)] {
        let ds = au_bench_free_med(n, seed);
        for theta in [0.7, 0.9] {
            for filter in all_filters() {
                let label = format!("med n={n} θ={theta} {}", filter.label());
                assert_scan_matches_definition(&ds, theta, filter, &label);
            }
        }
    }
}

#[test]
fn csr_matches_legacy_on_wiki_corpora() {
    let profile = DatasetProfile::wiki_like(1.0);
    let ds = LabeledDataset::generate(&profile, 120, 120, 24, 21);
    for theta in [0.8, 0.95] {
        for filter in all_filters() {
            let label = format!("wiki θ={theta} {}", filter.label());
            assert_scan_matches_definition(&ds, theta, filter, &label);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Randomized corpora: sizes, seeds, θ and τ drawn by proptest; the
    /// scan must agree with the definition on every draw.
    #[test]
    fn csr_matches_legacy_on_random_corpora(
        n in 20usize..90,
        seed in 0u64..1_000,
        theta_pct in 50u32..96,
        tau in 1u32..5,
        dp in proptest::bool::weighted(0.5),
    ) {
        let ds = au_bench_free_med(n, seed);
        let theta = theta_pct as f64 / 100.0;
        let filter = if dp {
            FilterKind::AuDp { tau }
        } else {
            FilterKind::AuHeuristic { tau }
        };
        let label = format!("random n={n} seed={seed} θ={theta} τ={tau}");
        assert_scan_matches_definition(&ds, theta, filter, &label);
    }
}
