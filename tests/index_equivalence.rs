//! Candidate generation against its definition.
//!
//! The production scan (CSR postings + dense counters with a first-touch
//! log, settled by one emission pass: τ-skip, compatibility bound,
//! overlap demand) must report exactly the `Tτ` (Eq. 16), `Vτ` and
//! compatibility rejections that the *definition*
//! (`au_core::oracle::candidate_definition`) assigns to the selected
//! signatures — through `Engine::join` / `join_self` on R×S joins and
//! self-joins, every filter, serial and parallel, across `au-datagen`
//! corpora and randomized small corpora. The exact set the engine's
//! memoized pass emits is checked against the same definition inside
//! au-core (`join::tests`).
//!
//! The definition is deliberately naive — O(|S|·|T|·k), no index, no
//! skipping — and is computed from signatures the oracle selects itself
//! with the public stage functions (`au_core::oracle::FilterSide`),
//! independently of the engine's memoized order / signature / index
//! artifacts.
//!
//! The candidate pass's emission is checked the same way, one probe at a
//! time: `OverlapCounter::probe` marks its hits in a bitmap and reads them
//! out word by word, and what it emits must be ascending and exactly the
//! definition's candidates of that probe record — over the oracle's sides
//! of every corpus above, and on synthetic sides built to hit the
//! bitmap's edges.
//!
//! (The `csr_matches_legacy_*` test ids are kept stable for the suite's
//! pass-list: the oracle used to be the PR-1 hashmap engine, and
//! `candidate_definition` is that engine's candidate rule with the engine
//! removed.)

use au_join::core::config::SimConfig;
use au_join::core::engine::{Engine, JoinSpec};
use au_join::core::index::{CompatBound, CsrIndex, OverlapCounter, RecordKeys};
use au_join::core::join::SelectedSignatures;
use au_join::core::oracle::{candidate_definition, FilterSide};
use au_join::core::signature::FilterKind;
use au_join::datagen::{DatasetProfile, LabeledDataset};
use proptest::prelude::*;

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
    let (s, t) = FilterSide::pair(
        &ds.kn,
        &cfg,
        ps.seg_records(),
        Some(pt.seg_records()),
        &spec,
    );
    let t = t.expect("the T side");
    let want = candidate_definition(&s, Some(&t), tau, min_sim);
    for parallel in [false, true] {
        let got = engine
            .join(&ps, &pt, &spec.parallel(parallel))
            .expect("R×S join")
            .stats;
        assert_eq!(
            (got.candidates, got.processed_pairs, got.compat_rejected),
            (
                want.candidates.len() as u64,
                want.t_tau,
                want.compat_rejected
            ),
            "{label} Vτ, Tτ, compat_rejected (parallel={parallel})"
        );
        assert!(
            (got.avg_sig_len_s - s.sel.record_keys.avg_sig_len()).abs() < 1e-12
                && (got.avg_sig_len_t - t.sel.record_keys.avg_sig_len()).abs() < 1e-12,
            "{label} mean signature lengths"
        );
    }
    assert_emission_matches_definition(&t, Some(&s), tau, min_sim);

    // Self-join on the S side: the order is built from S alone.
    let (s, _) = FilterSide::pair(&ds.kn, &cfg, ps.seg_records(), None, &spec);
    let want = candidate_definition(&s, None, tau, min_sim);
    for parallel in [false, true] {
        let got = engine
            .join_self(&ps, &spec.parallel(parallel))
            .expect("self join")
            .stats;
        assert_eq!(
            (got.candidates, got.processed_pairs, got.compat_rejected),
            (
                want.candidates.len() as u64,
                want.t_tau,
                want.compat_rejected
            ),
            "{label} self Vτ, Tτ, compat_rejected (parallel={parallel})"
        );
        assert!(
            (got.avg_sig_len_s - s.sel.record_keys.avg_sig_len()).abs() < 1e-12,
            "{label} self mean signature length"
        );
    }
    assert_emission_matches_definition(&s, None, tau, min_sim);
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

/// A synthetic join side of `n` records, deterministic in `salt`: every
/// record carries rank 0 (so a probe holding it can hit ids 0 and
/// `n − 1`), plus up to five ranks of 1..24; guarantee levels 1–3 and
/// tier-0 integers spread wide enough that the compatibility bound both
/// admits and refuses.
fn synthetic_side(n: usize, salt: u64) -> FilterSide {
    let mut x = 0x9e37_79b9_7f4a_7c15_u64 ^ salt;
    let mut next = move || {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        x >> 33
    };
    let mut keys = Vec::with_capacity(n);
    let (mut levels, mut tier0) = (Vec::with_capacity(n), Vec::with_capacity(n));
    for _ in 0..n {
        let mut ks: Vec<u32> = std::iter::once(0)
            .chain((0..next() % 6).map(|_| 1 + next() as u32 % 24))
            .collect();
        ks.sort_unstable();
        ks.dedup();
        keys.push(ks);
        levels.push(1 + (next() % 3) as u32);
        let len = 1 + (next() % 8) as u32;
        tier0.push((len, len.div_ceil(1 + (next() % 2) as u32)));
    }
    FilterSide {
        sel: SelectedSignatures {
            record_keys: RecordKeys::build(&keys),
            levels,
        },
        tier0,
    }
}

/// Probe `indexed` with every record of `probe` (a self-join when
/// `probe` is `None`: record `a` probes ids `> a` of its own side) through
/// one reused `OverlapCounter`, twice over — a bit the first sweep left
/// set would surface in the second — and check each probe's emission is
/// strictly ascending and the definition's candidates of that record,
/// and the summed `Tτ` and compatibility rejections the definition's.
/// Returns whether some probe emitted id 0 and some id n − 1.
fn assert_emission_matches_definition(
    indexed: &FilterSide,
    probe: Option<&FilterSide>,
    tau: u32,
    min_sim: f64,
) -> (bool, bool) {
    let want = candidate_definition(
        probe.unwrap_or(indexed),
        probe.map(|_| indexed),
        tau,
        min_sim,
    );
    let index = CsrIndex::from_record_keys(&indexed.sel.record_keys);
    let s = probe.unwrap_or(indexed);
    let n = indexed.sel.len();
    let mut counter = OverlapCounter::new(n);
    let (mut edges, mut out) = ((false, false), Vec::new());
    let mut defined = want.candidates.chunk_by(|x, y| x.0 == y.0).peekable();
    let defined: Vec<Vec<u32>> = (0..s.sel.len() as u32)
        .map(|a| match defined.next_if(|run| run[0].0 == a) {
            Some(run) => run.iter().map(|&(_, b)| b).collect(),
            None => Vec::new(),
        })
        .collect();
    for sweep in 0..2 {
        let (mut t_tau, mut compat_rejected) = (0, 0);
        for a in 0..s.sel.len() as u32 {
            out.clear();
            let stats = counter.probe(
                &index,
                s.sel.record_keys.get(a),
                s.sel.levels[a as usize],
                tau,
                &indexed.sel.levels,
                probe.is_none().then_some(a),
                &CompatBound {
                    tier0: &indexed.tier0,
                    probe_tier0: s.tier0[a as usize],
                    min_sim,
                },
                &mut out,
            );
            t_tau += stats.processed;
            compat_rejected += stats.compat_rejected;
            assert!(out.windows(2).all(|w| w[0] < w[1]), "a={a}: ascending");
            assert_eq!(out, defined[a as usize], "sweep {sweep} a={a} (n={n})");
            edges.0 |= out.first() == Some(&0);
            edges.1 |= n > 0 && out.last() == Some(&(n as u32 - 1));
        }
        assert_eq!((t_tau, compat_rejected), (want.t_tau, want.compat_rejected));
    }
    edges
}

/// `OverlapCounter::probe`'s bitmap emission against the definition:
/// indexed sides of 1, 63, 130 and 200 records (none a multiple of 64,
/// so the last word is partial), R×S probes whose hits include ids 0 and
/// n − 1, and self-joins, whose `min_excl` starts each read-out past the
/// probe's own id.
#[test]
fn bitmap_emission_matches_the_definition() {
    for (n, salt) in [(1usize, 1u64), (63, 2), (130, 3), (200, 4)] {
        let indexed = synthetic_side(n, salt);
        let probe = synthetic_side(40, salt + 100);
        for tau in [1, 2, 3] {
            let edges = assert_emission_matches_definition(&indexed, Some(&probe), tau, 0.6);
            assert_eq!(edges, (true, true), "hits at ids 0 and n − 1 (n={n})");
            let edges = assert_emission_matches_definition(&indexed, None, tau, 0.6);
            assert!(n == 1 || edges.1, "a self-join hit at id n − 1 (n={n})");
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
