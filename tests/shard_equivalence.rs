//! Sharded ↔ monolithic equivalence harness.
//!
//! The memory-lean sharded joins (length-partitioned shard pairs with the
//! PASS-JOIN-style compatibility bound, segmented on demand from a
//! `ShardedPrepared`) must be *observationally identical* to the
//! monolithic engine:
//! same pairs, same similarities (bitwise), same deterministic `(s, t)`
//! order — on datagen MED/WIKI corpora and randomized proptest corpora,
//! serial and parallel, for every filter. Join *statistics* are the one
//! sanctioned difference: sharded runs report honest per-task sums for
//! `Tτ`/`Vτ` (each shard pair selects signatures against its own local
//! pebble order), so only invariants — never equality — are asserted on
//! them. Any pair/sim divergence here is a correctness bug in the shard
//! layer (an unsound pair bound, a lost orientation on cross-shard tasks,
//! a broken merge), not a tuning difference.

use au_join::core::config::SimConfig;
use au_join::core::engine::{Engine, JoinSpec};
use au_join::core::error::AuError;
use au_join::core::shard::ShardSpec;
use au_join::core::signature::FilterKind;
use au_join::datagen::{DatasetProfile, LabeledDataset};
use proptest::prelude::*;

/// MED-like dataset without depending on the bench crate.
fn med(n: usize, seed: u64) -> LabeledDataset {
    let profile = DatasetProfile::med_like((n as f64 / 2000.0).max(1.0));
    LabeledDataset::generate(&profile, n, n, n / 5, seed)
}

fn wiki(n: usize, seed: u64) -> LabeledDataset {
    let profile = DatasetProfile::wiki_like((n as f64 / 2000.0).max(1.0));
    LabeledDataset::generate(&profile, n, n, n / 5, seed)
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

/// Joins (R×S and self), serial and parallel: pairs and sims must match
/// the monolithic engine bitwise, and the shard-task accounting must
/// cover the full pair grid.
fn assert_sharded_equivalent(
    ds: &LabeledDataset,
    theta: f64,
    filter: FilterKind,
    shards: usize,
    label: &str,
) {
    let cfg = SimConfig::default();
    let engine = Engine::new(ds.kn.clone(), cfg).expect("valid config");
    let ps = engine.prepare(&ds.s).expect("prepare S");
    let pt = engine.prepare(&ds.t).expect("prepare T");
    let sspec = ShardSpec::auto().with_shards(shards);
    let sps = engine.prepare_sharded(&ds.s, &sspec).expect("shard S");
    let spt = engine.prepare_sharded(&ds.t, &sspec).expect("shard T");
    for parallel in [false, true] {
        let spec = JoinSpec::threshold(theta).filter(filter).parallel(parallel);

        let base = engine.join(&ps, &pt, &spec).expect("monolithic join");
        assert_eq!(base.stats.shard_tasks, 0, "{label} mono task count");

        // Shards segmented on demand from raw corpora.
        let lazy = engine.join_sharded(&sps, &spt, &spec).expect("lazy join");
        assert_eq!(
            base.pairs, lazy.pairs,
            "{label} lazy pairs (parallel={parallel})"
        );

        // Task accounting must cover the full shard-pair grid.
        let grid = (sps.plan().shard_count() * spt.plan().shard_count()) as u64;
        assert_eq!(
            lazy.stats.shard_tasks + lazy.stats.shard_tasks_pruned,
            grid,
            "{label} R×S task grid"
        );

        let base_self = engine.join_self(&ps, &spec).expect("monolithic self");
        let lazy_self = engine.join_self_sharded(&sps, &spec).expect("lazy self");
        assert_eq!(
            base_self.pairs, lazy_self.pairs,
            "{label} lazy self pairs (parallel={parallel})"
        );
        let g = sps.plan().shard_count() as u64;
        assert_eq!(
            lazy_self.stats.shard_tasks + lazy_self.stats.shard_tasks_pruned,
            g * (g + 1) / 2,
            "{label} self task grid"
        );

        // The per-task tier tallies fold into one decision per candidate
        // — a cross-shard task's forward and reverse groups included —
        // and the folded result count is the merged pair list's.
        for (join, stats, n) in [
            ("R×S", &lazy.stats, lazy.pairs.len()),
            ("self", &lazy_self.stats, lazy_self.pairs.len()),
        ] {
            assert_eq!(
                stats.tiers.decisions(),
                stats.candidates,
                "{label} {join} tier fold (parallel={parallel})"
            );
            assert_eq!(
                stats.result_count, n,
                "{label} {join} result count (parallel={parallel})"
            );
        }
    }
}

#[test]
fn sharded_joins_match_on_med_corpora() {
    for (n, seed, shards) in [(60usize, 11u64, 3usize), (140, 12, 5)] {
        let ds = med(n, seed);
        for theta in [0.7, 0.9] {
            for filter in all_filters() {
                assert_sharded_equivalent(
                    &ds,
                    theta,
                    filter,
                    shards,
                    &format!("med n={n} θ={theta} {}", filter.label()),
                );
            }
        }
    }
}

#[test]
fn sharded_joins_match_on_wiki_corpora() {
    let ds = wiki(120, 21);
    for theta in [0.8, 0.95] {
        for filter in all_filters() {
            assert_sharded_equivalent(
                &ds,
                theta,
                filter,
                4,
                &format!("wiki θ={theta} {}", filter.label()),
            );
        }
    }
}

#[test]
fn high_theta_prunes_shard_pairs_without_losing_results() {
    // At a high threshold on a length-diverse corpus the compatibility
    // bound must actually skip work (pruned > 0) while the surviving
    // tasks still reproduce the monolithic result exactly.
    let ds = med(160, 33);
    let engine = Engine::new(ds.kn.clone(), SimConfig::default()).expect("valid config");
    let ps = engine.prepare(&ds.s).expect("prepare");
    let mono = engine
        .join_self(&ps, &JoinSpec::threshold(0.9).au_dp(2))
        .expect("monolithic");
    let sps = engine
        .prepare_sharded(&ds.s, &ShardSpec::auto().with_shards(8))
        .expect("shard");
    let sharded = engine
        .join_self_sharded(&sps, &JoinSpec::threshold(0.9).au_dp(2))
        .expect("sharded");
    assert_eq!(mono.pairs, sharded.pairs);
    assert!(
        sharded.stats.shard_tasks_pruned > 0,
        "θ=0.9 over 8 length shards pruned nothing: {:?}",
        (sharded.stats.shard_tasks, sharded.stats.shard_tasks_pruned)
    );
}

/// Pins the `Tτ` invariant documented on `JoinStats::processed_pairs`: a
/// sharded run reports the *sum of the per-task counts*. On a corpus with
/// two well-separated length groups and `g = 2`, the cross task is pruned
/// (contributing zero), so the sharded `Tτ` must equal the sum of the two
/// standalone self-joins over the groups — while the pairs themselves stay
/// byte-identical to the monolithic run over the full corpus.
#[test]
fn sharded_t_tau_is_per_task_sum() {
    use au_join::core::knowledge::KnowledgeBuilder;
    let short_lines = ["alpha beta", "alpha gamma", "beta gamma", "alpha beta"];
    let long_tail = "one two three four five six seven eight nine ten \
                     eleven twelve thirteen fourteen fifteen sixteen seventeen \
                     eighteen nineteen twenty twentyone twentytwo twentythree \
                     twentyfour twentyfive twentysix twentyseven twentyeight";
    let long_lines = [
        format!("delta {long_tail}"),
        format!("delta {long_tail}"),
        format!("epsilon {long_tail}"),
        format!("zeta {long_tail} extra"),
    ];
    let mut kn = KnowledgeBuilder::new().build();
    let all_lines: Vec<String> = short_lines
        .iter()
        .map(|s| s.to_string())
        .chain(long_lines.iter().cloned())
        .collect();
    let full = kn.corpus_from_lines(all_lines.iter().map(|s| s.as_str()));
    let short = kn.corpus_from_lines(short_lines);
    let long = kn.corpus_from_lines(long_lines.iter().map(|s| s.as_str()));
    let engine = Engine::new(kn, SimConfig::default()).expect("valid config");
    let p_full = engine.prepare(&full).expect("prepare full");
    let p_short = engine.prepare(&short).expect("prepare short");
    let p_long = engine.prepare(&long).expect("prepare long");

    let spec = JoinSpec::threshold(0.9);
    let mono = engine.join_self(&p_full, &spec).expect("monolithic");
    let sp_full = engine
        .prepare_sharded(&full, &ShardSpec::auto().with_shards(2))
        .expect("shard full");
    let sharded = engine.join_self_sharded(&sp_full, &spec).expect("sharded");
    assert_eq!(mono.pairs, sharded.pairs, "pairs must stay byte-identical");

    // 2-token vs ≥29-token shards cannot meet θ=0.9: the cross task of the
    // g(g+1)/2 = 3-task self-join grid is pruned.
    assert_eq!(sharded.stats.shard_tasks, 2, "both diagonal tasks run");
    assert_eq!(sharded.stats.shard_tasks_pruned, 1, "cross task pruned");

    // Each diagonal task runs the full order/signature/filter pipeline on
    // its shard — identical to a standalone self-join over that group —
    // and the pruned task contributes zero, so the sharded Tτ is exactly
    // the per-task sum.
    let t_short = engine.join_self(&p_short, &spec).expect("short self");
    let t_long = engine.join_self(&p_long, &spec).expect("long self");
    assert!(
        t_long.stats.processed_pairs > 0,
        "long group must generate filter work for the sum to be meaningful"
    );
    assert_eq!(
        sharded.stats.processed_pairs,
        t_short.stats.processed_pairs + t_long.stats.processed_pairs,
        "sharded Tτ must be the per-task sum (short {} + long {})",
        t_short.stats.processed_pairs,
        t_long.stats.processed_pairs
    );
}

#[test]
fn lazy_cache_evicts_and_rebuilds_without_changing_results() {
    // Two resident shards over a 6-shard plan: a band of one plus its
    // streaming partner, so every shard is dropped and re-segmented once
    // per band that reaches it; the rebuilt shards must be
    // bitwise-identical to the first build.
    let ds = med(120, 44);
    let engine = Engine::new(ds.kn.clone(), SimConfig::default()).expect("valid config");
    let ps = engine.prepare(&ds.s).expect("prepare");
    let spec = JoinSpec::threshold(0.6).au_dp(2);
    let mono = engine.join_self(&ps, &spec).expect("monolithic");
    let sp = engine
        .prepare_sharded(
            &ds.s,
            &ShardSpec::auto().with_shards(6).with_cache_capacity(2),
        )
        .expect("shard");
    let lazy = engine.join_self_sharded(&sp, &spec).expect("lazy");
    assert_eq!(mono.pairs, lazy.pairs);
    // No task of this grid is pruned, so band b₀ builds shards b₀..6.
    assert_eq!(lazy.stats.shard_tasks_pruned, 0);
    assert_eq!(sp.shard_builds(), 6 + 5 + 4 + 3 + 2 + 1);
    assert!(sp.peak_memory_bytes() > 0);
}

#[test]
fn blocked_traversal_cuts_rebuilds_without_changing_results() {
    // The grid is walked band by band: a band of shards stays resident
    // while every partner streams past it once. Output must stay
    // byte-identical to the monolithic join, and a shard is built exactly
    // once per band in which it has a compatible task — with nothing
    // pruned, Σ_bands (g − band_start) for a self-join — instead of
    // roughly once per task as with a row-major walk.
    let ds = med(200, 47);
    let engine = Engine::new(ds.kn.clone(), SimConfig::default()).expect("valid config");
    let ps = engine.prepare(&ds.s).expect("prepare");
    let spec = JoinSpec::threshold(0.5).au_dp(2);
    let mono = engine.join_self(&ps, &spec).expect("monolithic");
    let (g, cap) = (10usize, 5usize);
    let sp = engine
        .prepare_sharded(
            &ds.s,
            &ShardSpec::auto().with_shards(g).with_cache_capacity(cap),
        )
        .expect("shard");
    let lazy = engine.join_self_sharded(&sp, &spec).expect("lazy");
    assert_eq!(mono.pairs, lazy.pairs, "blocked traversal changed output");
    assert_eq!(lazy.stats.shard_tasks_pruned, 0);
    // Bands of width cap−1 = 4 (the partner takes the fifth slot) start
    // at 0, 4, 8: (10−0) + (10−4) + (10−8) = 18 builds.
    let per_join: u64 = (0..g).step_by(cap - 1).map(|b0| (g - b0) as u64).sum();
    assert_eq!(sp.shard_builds(), per_join);
    // No shard outlives the join that built it: a second join over the
    // same artifact segments every one of them again.
    let again = engine.join_self_sharded(&sp, &spec).expect("lazy again");
    assert_eq!(again.pairs, lazy.pairs);
    assert_eq!(sp.shard_builds(), 2 * per_join);

    // R×S: the S band is cap wide (T streams beside it), so each
    // S-shard is built once and each T-shard once per band.
    let pt = engine.prepare(&ds.t).expect("prepare T");
    let mono_rs = engine.join(&ps, &pt, &spec).expect("monolithic R×S");
    let sspec = ShardSpec::auto().with_shards(6).with_cache_capacity(3);
    let sps = engine.prepare_sharded(&ds.s, &sspec).expect("shard S");
    let spt = engine.prepare_sharded(&ds.t, &sspec).expect("shard T");
    let lazy_rs = engine.join_sharded(&sps, &spt, &spec).expect("lazy R×S");
    assert_eq!(mono_rs.pairs, lazy_rs.pairs, "blocked R×S changed output");
    assert_eq!(lazy_rs.stats.shard_tasks_pruned, 0);
    let bands = 6u64.div_ceil(3);
    assert_eq!((sps.shard_builds(), spt.shard_builds()), (6, 6 * bands));
}

/// The generation guard: artifacts built before a knowledge mutation must
/// be rejected with `StaleKnowledge`, never silently rescored — on the
/// sharded paths too.
#[test]
fn staleness_guard_rejects_mutated_knowledge() {
    let ds = med(40, 71);
    let mut engine = Engine::new(ds.kn.clone(), SimConfig::default()).expect("valid config");
    let ps = engine.prepare(&ds.s).expect("prepare S");
    let pt = engine.prepare(&ds.t).expect("prepare T");
    let sps = engine
        .prepare_sharded(&ds.s, &ShardSpec::auto().with_shards(3))
        .expect("shard S");
    let spec = JoinSpec::threshold(0.8);
    assert!(engine.join(&ps, &pt, &spec).is_ok());
    assert!(engine.join_self_sharded(&sps, &spec).is_ok());

    // Interning a new record mints a new generation.
    engine
        .knowledge_mut()
        .add_record("a freshly interned record");
    for err in [
        engine.join(&ps, &pt, &spec).unwrap_err(),
        engine.join_self(&ps, &spec).unwrap_err(),
        engine.join_self_sharded(&sps, &spec).unwrap_err(),
        engine.join_sharded(&sps, &sps, &spec).unwrap_err(),
        engine.topk(&ps, &pt, &JoinSpec::topk(3)).unwrap_err(),
        engine.searcher(&pt, &spec).expect_err("stale searcher"),
        engine
            .filter_counts(&ps, &pt, 0.8, FilterKind::UFilter)
            .unwrap_err(),
        engine.usim(&ps, 0, &pt, 0).unwrap_err(),
    ] {
        assert!(
            matches!(err, AuError::StaleKnowledge { expected, found } if expected != found),
            "expected StaleKnowledge, got {err:?}"
        );
    }
    // Re-preparing against the new generation restores service.
    let ps2 = engine.prepare(&ds.s).expect("re-prepare S");
    let pt2 = engine.prepare(&ds.t).expect("re-prepare T");
    assert!(engine.join(&ps2, &pt2, &spec).is_ok());
    let sps2 = engine
        .prepare_sharded(&ds.s, &ShardSpec::auto().with_shards(3))
        .expect("re-shard S");
    assert!(engine.join_self_sharded(&sps2, &spec).is_ok());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Randomized corpora: sizes, seeds, θ, τ and shard counts drawn by
    /// proptest; the sharded paths and the monolithic engine must agree
    /// on every draw.
    #[test]
    fn sharded_matches_monolithic_on_random_corpora(
        n in 20usize..80,
        seed in 0u64..1_000,
        theta_pct in 50u32..96,
        tau in 1u32..5,
        dp in proptest::bool::weighted(0.5),
        shards in 2usize..7,
    ) {
        let ds = med(n, seed);
        let theta = theta_pct as f64 / 100.0;
        let filter = if dp {
            FilterKind::AuDp { tau }
        } else {
            FilterKind::AuHeuristic { tau }
        };
        assert_sharded_equivalent(
            &ds,
            theta,
            filter,
            shards,
            &format!("random n={n} seed={seed} θ={theta} τ={tau} g={shards}"),
        );
    }
}
