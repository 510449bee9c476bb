//! Sharded ↔ monolithic equivalence harness.
//!
//! The memory-lean sharded joins (length-partitioned shard pairs with the
//! PASS-JOIN-style compatibility bound, planned by the join itself and
//! segmented on demand) must be *observationally identical* to the
//! monolithic engine and to the brute-force oracle:
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
use au_join::core::knowledge::KnowledgeBuilder;
use au_join::core::oracle::brute_force_join;
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

/// Pairs with their similarities' bits, for bitwise comparison.
type Bits = Vec<(u32, u32, u64)>;

fn pair_bits(pairs: &[(u32, u32, f64)]) -> Bits {
    pairs.iter().map(|&(a, b, s)| (a, b, s.to_bits())).collect()
}

/// The brute-force oracle's R×S pairs of `ds` at `theta`, and its
/// self-join pairs of `ds.s` (the upper triangle), as [`pair_bits`].
fn oracle(ds: &LabeledDataset, theta: f64) -> (Bits, Bits) {
    let cfg = SimConfig::default();
    let rs = brute_force_join(&ds.kn, &cfg, &ds.s, &ds.t, theta);
    let all = brute_force_join(&ds.kn, &cfg, &ds.s, &ds.s, theta);
    let upper: Vec<_> = all.into_iter().filter(|&(a, b, _)| a < b).collect();
    (pair_bits(&rs), pair_bits(&upper))
}

/// Joins (R×S and self), serial and parallel: pairs and sims must match
/// the monolithic engine and `want` — [`oracle`] at `theta` — bitwise,
/// and the shard-task accounting must cover the full pair grid.
fn assert_sharded_equivalent(
    ds: &LabeledDataset,
    theta: f64,
    filter: FilterKind,
    shards: usize,
    want: &(Bits, Bits),
    label: &str,
) {
    let cfg = SimConfig::default();
    let engine = Engine::new(ds.kn.clone(), cfg).expect("valid config");
    let ps = engine.prepare(&ds.s).expect("prepare S");
    let pt = engine.prepare(&ds.t).expect("prepare T");
    let sspec = ShardSpec::auto().with_shards(shards);
    // Every corpus here has more records than shards asked for.
    let (g_s, g_t) = (shards as u64, shards as u64);
    for parallel in [false, true] {
        let spec = JoinSpec::threshold(theta).filter(filter).parallel(parallel);

        let base = engine.join(&ps, &pt, &spec).expect("monolithic join");
        assert_eq!(base.stats.shard.tasks, 0, "{label} mono task count");

        // Planned and segmented on demand from raw corpora.
        let lazy = (engine.join_sharded(&ds.s, &ds.t, &sspec, &spec)).expect("lazy join");
        assert_eq!(
            base.pairs, lazy.pairs,
            "{label} lazy pairs (parallel={parallel})"
        );
        assert_eq!(pair_bits(&lazy.pairs), want.0, "{label} R×S vs oracle");

        // Task accounting must cover the full shard-pair grid.
        assert_eq!(
            lazy.stats.shard.shards as u64,
            g_s + g_t,
            "{label} R×S plan"
        );
        assert_eq!(
            lazy.stats.shard.tasks + lazy.stats.shard.tasks_pruned,
            g_s * g_t,
            "{label} R×S task grid"
        );

        let base_self = engine.join_self(&ps, &spec).expect("monolithic self");
        let lazy_self = (engine.join_self_sharded(&ds.s, &sspec, &spec)).expect("lazy self");
        assert_eq!(
            base_self.pairs, lazy_self.pairs,
            "{label} lazy self pairs (parallel={parallel})"
        );
        assert_eq!(
            pair_bits(&lazy_self.pairs),
            want.1,
            "{label} self vs oracle"
        );
        assert_eq!(
            lazy_self.stats.shard.shards as u64, g_s,
            "{label} self plan"
        );
        assert_eq!(
            lazy_self.stats.shard.tasks + lazy_self.stats.shard.tasks_pruned,
            g_s * (g_s + 1) / 2,
            "{label} self task grid"
        );

        // The per-task tier tallies fold into one decision per candidate
        // — both probe directions of a cross-shard self-join task
        // included — and the folded result count is the merged pair
        // list's.
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
            let want = oracle(&ds, theta);
            for filter in all_filters() {
                assert_sharded_equivalent(
                    &ds,
                    theta,
                    filter,
                    shards,
                    &want,
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
        let want = oracle(&ds, theta);
        for filter in all_filters() {
            assert_sharded_equivalent(
                &ds,
                theta,
                filter,
                4,
                &want,
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
    let sharded = engine
        .join_self_sharded(
            &ds.s,
            &ShardSpec::auto().with_shards(8),
            &JoinSpec::threshold(0.9).au_dp(2),
        )
        .expect("sharded");
    assert_eq!(mono.pairs, sharded.pairs);
    assert!(
        sharded.stats.shard.tasks_pruned > 0,
        "θ=0.9 over 8 length shards pruned nothing: {:?}",
        sharded.stats.shard
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
    let sharded = engine
        .join_self_sharded(&full, &ShardSpec::auto().with_shards(2), &spec)
        .expect("sharded");
    assert_eq!(mono.pairs, sharded.pairs, "pairs must stay byte-identical");

    // 2-token vs ≥29-token shards cannot meet θ=0.9: the cross task of the
    // g(g+1)/2 = 3-task self-join grid is pruned.
    assert_eq!(sharded.stats.shard.tasks, 2, "both diagonal tasks run");
    assert_eq!(sharded.stats.shard.tasks_pruned, 1, "cross task pruned");

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
    let sspec = ShardSpec::auto().with_shards(6).with_cache_capacity(2);
    let lazy = engine
        .join_self_sharded(&ds.s, &sspec, &spec)
        .expect("lazy");
    assert_eq!(mono.pairs, lazy.pairs);
    // No task of this grid is pruned, so band b₀ builds shards b₀..6.
    assert_eq!(lazy.stats.shard.tasks_pruned, 0);
    assert_eq!(lazy.stats.shard.builds, 6 + 5 + 4 + 3 + 2 + 1);
    assert!(lazy.stats.shard.peak_bytes > 0);
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
    let sspec = ShardSpec::auto().with_shards(g).with_cache_capacity(cap);
    let lazy = engine
        .join_self_sharded(&ds.s, &sspec, &spec)
        .expect("lazy");
    assert_eq!(mono.pairs, lazy.pairs, "blocked traversal changed output");
    assert_eq!(lazy.stats.shard.tasks_pruned, 0);
    // Bands of width cap−1 = 4 (the partner takes the fifth slot) start
    // at 0, 4, 8: (10−0) + (10−4) + (10−8) = 18 builds.
    let per_join: u64 = (0..g).step_by(cap - 1).map(|b0| (g - b0) as u64).sum();
    assert_eq!(lazy.stats.shard.builds, per_join);
    // No shard outlives the join that built it: a second join segments
    // every one of them again.
    let again = engine
        .join_self_sharded(&ds.s, &sspec, &spec)
        .expect("lazy again");
    assert_eq!(again.pairs, lazy.pairs);
    assert_eq!(again.stats.shard, lazy.stats.shard);

    // R×S: the S band is cap wide (T streams beside it), so each
    // S-shard is built once and each T-shard once per band.
    let pt = engine.prepare(&ds.t).expect("prepare T");
    let mono_rs = engine.join(&ps, &pt, &spec).expect("monolithic R×S");
    let sspec = ShardSpec::auto().with_shards(6).with_cache_capacity(3);
    let lazy_rs = (engine.join_sharded(&ds.s, &ds.t, &sspec, &spec)).expect("lazy R×S");
    assert_eq!(mono_rs.pairs, lazy_rs.pairs, "blocked R×S changed output");
    assert_eq!(lazy_rs.stats.shard.tasks_pruned, 0);
    let bands = 6u64.div_ceil(3);
    assert_eq!(lazy_rs.stats.shard.builds, 6 + 6 * bands);
}

/// The generation guard: prepared artifacts built before a knowledge
/// mutation must be rejected with `StaleKnowledge`, never silently
/// rescored.
#[test]
fn staleness_guard_rejects_mutated_knowledge() {
    let ds = med(40, 71);
    let mut engine = Engine::new(ds.kn.clone(), SimConfig::default()).expect("valid config");
    let ps = engine.prepare(&ds.s).expect("prepare S");
    let pt = engine.prepare(&ds.t).expect("prepare T");
    let spec = JoinSpec::threshold(0.8);
    assert!(engine.join(&ps, &pt, &spec).is_ok());

    // Interning a new record mints a new generation.
    engine
        .knowledge_mut()
        .add_record("a freshly interned record");
    for err in [
        engine.join(&ps, &pt, &spec).unwrap_err(),
        engine.join_self(&ps, &spec).unwrap_err(),
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
}

/// A sharded join plans inside the call, under the joining engine's
/// knowledge, so there is no plan to go stale. One corpus is joined under
/// two engines whose knowledge segments it differently: one has the
/// synonym `coffee shop → cafe`, whose two-token side gives every
/// "coffee shop …" record a minimum partition of 2, the other has no rule
/// (a partition of 3). The two length shards are the 2-token "cafe …"
/// records and the 3-token "coffee shop …" ones; a plan made without the
/// rule would bound their pairs by 2/3 and prune the pairs the rule makes
/// equal. Each sharded join equals its own engine's monolithic join and
/// oracle. And after a knowledge mutation mints a new generation, a
/// sharded join of the corpus tokenized before it equals the monolithic
/// join of a fresh prepare.
#[test]
fn a_sharded_plan_follows_the_joining_engines_knowledge() {
    let lines = [
        "coffee shop cafe",
        "cafe latte",
        "coffee shop latte",
        "cafe mocha",
        "coffee shop mocha",
        "cafe espresso",
        "coffee shop espresso",
        "cafe tea",
    ];
    let mut kb = KnowledgeBuilder::new();
    kb.synonym("coffee shop", "cafe", 1.0);
    let mut with_rule = kb.build();
    let mut without_rule = KnowledgeBuilder::new().build();
    // Both vocabularies intern "coffee", "shop", "cafe" first, so the one
    // corpus is valid under both.
    let corpus = without_rule.corpus_from_lines(lines);
    let same = with_rule.corpus_from_lines(lines);
    let tokens = |c: &au_join::text::record::Corpus| -> Vec<Vec<u32>> {
        c.iter()
            .map(|r| r.tokens.iter().map(|t| t.0).collect())
            .collect()
    };
    assert_eq!(tokens(&corpus), tokens(&same));
    let theta = 0.8;
    let spec = JoinSpec::threshold(theta).au_dp(2);
    let sspec = ShardSpec::auto().with_shards(2);
    let mut monolithic = Vec::new();
    for kn in [with_rule, without_rule] {
        let cfg = SimConfig::default();
        let all = brute_force_join(&kn, &cfg, &corpus, &corpus, theta);
        let want: Vec<_> = all.into_iter().filter(|&(a, b, _)| a < b).collect();
        let mut engine = Engine::new(kn, cfg).expect("valid config");
        let p = engine.prepare(&corpus).expect("prepare");
        let mono = engine.join_self(&p, &spec).expect("monolithic");
        let sharded = engine.join_self_sharded(&corpus, &sspec, &spec);
        let sharded = sharded.expect("sharded");
        assert_eq!(pair_bits(&sharded.pairs), pair_bits(&mono.pairs));
        assert_eq!(pair_bits(&sharded.pairs), pair_bits(&want));
        let rs = engine.join_sharded(&corpus, &corpus, &sspec, &spec);
        let mono_rs = engine.join(&p, &p, &spec).expect("monolithic R×S");
        assert_eq!(rs.expect("sharded R×S").pairs, mono_rs.pairs);

        // A new generation: the sharded join of the old corpus is the
        // monolithic join of a fresh prepare.
        engine
            .knowledge_mut()
            .add_record("a freshly interned record");
        let fresh = engine.prepare(&corpus).expect("fresh prepare");
        let mono = engine.join_self(&fresh, &spec).expect("monolithic");
        let sharded = engine.join_self_sharded(&corpus, &sspec, &spec);
        assert_eq!(sharded.expect("sharded").pairs, mono.pairs);
        monolithic.push(mono.pairs);
    }
    // The check bites: the rule joins "cafe latte" with "coffee shop
    // latte", across the two shards.
    assert!(monolithic[0].iter().any(|&(a, b, _)| (a, b) == (1, 2)));
    assert!(!monolithic[1].iter().any(|&(a, b, _)| (a, b) == (1, 2)));
}

/// A corpus holding a token id the engine's vocabulary lacks is refused
/// with a typed error by both sharded entry points, before any shard is
/// segmented.
#[test]
fn a_sharded_join_refuses_an_unknown_token() {
    let ds = med(40, 72);
    let engine = Engine::new(ds.kn.clone(), SimConfig::default()).expect("valid config");
    let mut kn = ds.kn.clone();
    let mut foreign = ds.s.clone();
    kn.push_line(&mut foreign, "zyzzyva quux never seen");
    let sspec = ShardSpec::auto().with_shards(3);
    let spec = JoinSpec::threshold(0.8);
    for err in [
        engine
            .join_self_sharded(&foreign, &sspec, &spec)
            .unwrap_err(),
        engine
            .join_sharded(&ds.s, &foreign, &sspec, &spec)
            .unwrap_err(),
        engine
            .join_sharded(&foreign, &ds.t, &sspec, &spec)
            .unwrap_err(),
    ] {
        assert!(
            matches!(err, AuError::UnknownToken { .. }),
            "expected UnknownToken, got {err:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Randomized corpora: sizes, seeds, θ, τ and shard counts drawn by
    /// proptest; the sharded paths, the monolithic engine and the oracle
    /// must agree on every draw.
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
            &oracle(&ds, theta),
            &format!("random n={n} seed={seed} θ={theta} τ={tau} g={shards}"),
        );
    }
}

/// The sharded funnel on one fixed MED fixture, serial and parallel:
/// `Tτ`, `Vτ`, the walked postings, the four tier buckets, the shard
/// builds and the resident peak of a sharded self-join over S ∪ T and a
/// sharded R×S join, as shard tasks that collected and split a candidate
/// list reported them. Verifying as the task probes moves none of them:
/// the two floored passes of a cross-shard self-join task read exactly
/// the postings and hits of the one unfloored pass. The resident peak is
/// that of signatures held as `u32` ranks over a rank-indexed CSR index
/// (947,703 and 581,228 bytes when they were `PebbleKey`s behind a hashed
/// directory). `compat_rejected` is left out: its
/// τ-skip depends on which side probes, so a two-direction task counts
/// it differently.
#[test]
fn sharded_funnel_is_pinned() {
    let ds = med(140, 12);
    let engine = Engine::new(ds.kn.clone(), SimConfig::default()).expect("valid config");
    let mut both = ds.s.clone();
    for r in ds.t.iter() {
        both.push_tokens(r.tokens.clone(), r.raw.clone());
    }
    let sspec = ShardSpec::auto().with_shards(5);
    let funnel = |r: &au_join::core::join::JoinResult| {
        let (st, t) = (&r.stats, &r.stats.tiers);
        [
            st.processed_pairs,
            st.candidates,
            st.walked,
            t.mass_rejects,
            t.rowmax_rejects,
            t.tier2_rejects,
            t.accepted,
            st.shard.builds,
            st.shard.peak_bytes as u64,
        ]
    };
    for parallel in [false, true] {
        let spec = JoinSpec::threshold(0.5).au_dp(2).parallel(parallel);
        let joined = engine.join_self_sharded(&both, &sspec, &spec);
        assert_eq!(
            funnel(&joined.expect("sharded self-join")),
            [267_578, 34_734, 918_327, 34_535, 161, 10, 28, 9, 777_963],
            "self-join (parallel={parallel})"
        );
        let joined = engine.join_sharded(&ds.s, &ds.t, &sspec, &spec);
        assert_eq!(
            funnel(&joined.expect("sharded R×S")),
            [131_469, 17_363, 227_934, 17_250, 78, 7, 28, 15, 479_224],
            "R×S (parallel={parallel})"
        );
    }
}
