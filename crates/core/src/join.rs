//! Filter-and-verification joins (Algorithms 3 and 6): the stage
//! functions behind [`crate::engine::Engine`].
//!
//! Pipeline:
//! 1. **prepare** — segment every record and count the corpus's pebble
//!    document frequencies ([`crate::engine::Engine::prepare`]);
//! 2. **order** — add the two sides' frequency tables and rank every key
//!    ([`crate::pebble::PebbleOrder`]);
//! 3. **signature** — per record, in one pass: generate its pebbles into a
//!    scratch buffer, sort them by rank, select a prefix with the chosen
//!    filter (U / AU-heuristic / AU-DP) and keep the prefix's distinct
//!    keys ([`record_signature`], [`SelectedSignatures`]);
//! 4. **filter** — probe the CSR index and collect candidate pairs
//!    sharing ≥ τ signature pebbles: `candidate_pass`;
//! 5. **verify** — compute the unified similarity (Algorithm 1) of each
//!    candidate and keep pairs with `USIM ≥ θ`: [`verify_candidates`].
//!
//! The engine owns stages 1–2 and the memoization of 3–4; this module
//! holds the one implementation of stages 3, 4 and 5 plus the two oracles
//! tests compare against ([`verify_candidates_reference`],
//! [`brute_force_join`]).

use crate::config::SimConfig;
use crate::engine::{relock, JoinSpec};
use crate::index::{CompatBound, CsrIndex, OverlapCounter, ProbeStats, RecordKeys};
use crate::knowledge::Knowledge;
use crate::pebble::{generate_pebbles_into, Pebble, PebbleKey, PebbleOrder, SortScratch};
use crate::segment::{segment_record, SegRecord};
use crate::signature::{select_signature, DpScratch, SignatureChoice};
use crate::usim::{GramPostingsIndex, RunScratch, Verifier, VerifyTiers};
use au_text::record::Corpus;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Timing and cardinality statistics of one join run.
#[derive(Debug, Clone, Copy, Default)]
pub struct JoinStats {
    /// Stages 2–3: ranking the pebble keys and the per-record signature
    /// pass (near zero on a memo hit).
    pub sig_time: Duration,
    /// Candidate generation over the inverted index.
    pub filter_time: Duration,
    /// Verification.
    pub verify_time: Duration,
    /// `Tτ`: index pairs touched during filtering (Eq. 16).
    ///
    /// **Sharded-join invariant:** on a sharded run
    /// ([`crate::engine::Engine::join_self_sharded`] /
    /// [`crate::engine::Engine::join_sharded`]) this is the honest *sum
    /// of the per-task counts* — each shard-pair task runs its own
    /// order/signature/filter pipeline over its two shards, so per-task
    /// signature prefixes (and hence posting lists) differ from the
    /// monolithic run's and the sum is structurally *not* the monolithic
    /// `Tτ`. Pruned tasks contribute zero. The relationship is pinned by
    /// `sharded_t_tau_is_per_task_sum` in `tests/shard_equivalence.rs`;
    /// result pairs, by contrast, are byte-identical to the monolithic
    /// join's.
    pub processed_pairs: u64,
    /// `Vτ`: candidates surviving the τ-overlap test and the in-probe
    /// compatibility bound.
    pub candidates: u64,
    /// Pairs rejected at first touch by the tier-0 compatibility bound
    /// (see [`crate::index::ProbeStats::compat_rejected`]).
    pub compat_rejected: u64,
    /// Mean signature length (distinct pebbles), S side.
    pub avg_sig_len_s: f64,
    /// Mean signature length (distinct pebbles), T side.
    pub avg_sig_len_t: f64,
    /// Number of result pairs.
    pub result_count: usize,
    /// Per-tier verification telemetry: which cascade stage decided each
    /// candidate. The tier buckets are pure per-candidate functions —
    /// deterministic across thread counts and runs — and
    /// `tiers.decisions() == candidates`.
    pub tiers: VerifyTiers,
    /// Shard-pair tasks actually executed by a sharded join
    /// ([`crate::engine::Engine::join_self_sharded`] /
    /// [`crate::engine::Engine::join_sharded`]; 0 on monolithic joins).
    pub shard_tasks: u64,
    /// Shard-pair tasks skipped wholesale by the shard-pair bound
    /// ([`crate::shard::shard_pair_bound`] `< θ − ε`; 0 on monolithic
    /// joins).
    pub shard_tasks_pruned: u64,
}

impl JoinStats {
    /// Total wall-clock of the measured stages (stage 1 ran once, up
    /// front: [`crate::engine::Prepared::prepare_seconds`] holds its cost).
    pub fn total_time(&self) -> Duration {
        self.sig_time + self.filter_time + self.verify_time
    }
}

/// Result pairs `(s_record, t_record, usim)` plus statistics.
#[derive(Debug, Clone, Default)]
pub struct JoinResult {
    /// Accepted pairs, sorted by (s, t) id.
    pub pairs: Vec<(u32, u32, f64)>,
    /// Run statistics.
    pub stats: JoinStats,
}

/// Per-worker buffers of [`record_signature`]: the record's transient
/// pebble list, the rank sort's buffers and the DP selector's tables.
#[derive(Debug, Default)]
pub struct SignatureScratch {
    pebbles: Vec<Pebble>,
    sort: SortScratch,
    dp: DpScratch,
}

/// Stage 3 for one record, the one record → signature function of joins
/// and queries alike: generate `sr`'s pebbles into the scratch buffer, sort
/// them under `order`, select the signature prefix under `spec`'s θ and
/// filter, and return the selection with the prefix's distinct keys
/// (sorted by `PebbleKey` order). The pebble list does not outlive the
/// call.
pub fn record_signature(
    kn: &Knowledge,
    cfg: &SimConfig,
    order: &PebbleOrder,
    spec: &JoinSpec,
    sr: &SegRecord,
    scratch: &mut SignatureScratch,
) -> (SignatureChoice, Vec<PebbleKey>) {
    generate_pebbles_into(kn, cfg, sr, &mut scratch.pebbles);
    order.sort(&mut scratch.pebbles, &mut scratch.sort);
    signature_of_sorted(sr, &scratch.pebbles, spec, cfg.eps, &mut scratch.dp)
}

/// The selection half of [`record_signature`], on an order-sorted list.
fn signature_of_sorted(
    sr: &SegRecord,
    sorted: &[Pebble],
    spec: &JoinSpec,
    eps: f64,
    dp: &mut DpScratch,
) -> (SignatureChoice, Vec<PebbleKey>) {
    let choice = select_signature(sr, sorted, spec.filter, spec.theta, eps, dp);
    let mut keys: Vec<PebbleKey> = sorted[..choice.len].iter().map(|p| p.key).collect();
    // Equal keys are adjacent after the order sort, so this leaves each
    // key once; then from rank order to `PebbleKey` order.
    keys.dedup();
    keys.sort_unstable();
    (choice, keys)
}

/// One join side after stage 3: per-record distinct signature key sets and
/// guarantee levels — everything the candidate pass needs. (The pebble
/// lists the keys were selected from are gone by the time this exists.)
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelectedSignatures {
    /// Flattened per-record distinct signature keys.
    pub record_keys: RecordKeys,
    /// Per-record guarantee levels (see
    /// [`crate::signature::guarantee_level`]).
    pub levels: Vec<u32>,
}

impl SelectedSignatures {
    /// Stage 3 over a whole side: [`record_signature`] per record —
    /// independent per record, over [`crate::parallel`] when the spec is
    /// parallel, one scratch per worker — flattened for the candidate
    /// pass.
    pub fn select(
        kn: &Knowledge,
        cfg: &SimConfig,
        segrecs: &[Arc<SegRecord>],
        order: &PebbleOrder,
        spec: &JoinSpec,
    ) -> Self {
        Self::assemble(crate::parallel::par_map_scratch(
            segrecs,
            spec.parallel,
            SignatureScratch::default,
            |scratch, sr| record_signature(kn, cfg, order, spec, sr, scratch),
            |_| {},
        ))
    }

    /// Stage 3 on pebble lists the caller generated and sorted itself —
    /// the definitional form (`tests/index_equivalence.rs` builds its
    /// oracle with it, independently of the engine's fused pass).
    pub fn select_from(
        segrecs: &[Arc<SegRecord>],
        pebbles: &[Vec<Pebble>],
        spec: &JoinSpec,
        eps: f64,
    ) -> Self {
        let items: Vec<(&Arc<SegRecord>, &Vec<Pebble>)> = segrecs.iter().zip(pebbles).collect();
        Self::assemble(crate::parallel::par_map_scratch(
            &items,
            spec.parallel,
            DpScratch::default,
            |dp, &(sr, p)| signature_of_sorted(sr, p, spec, eps, dp),
            |_| {},
        ))
    }

    fn assemble(per_record: Vec<(SignatureChoice, Vec<PebbleKey>)>) -> Self {
        let (levels, keys): (Vec<u32>, Vec<Vec<PebbleKey>>) = per_record
            .into_iter()
            .map(|(choice, keys)| (choice.level, keys))
            .unzip();
        Self {
            record_keys: RecordKeys::build(&keys),
            levels,
        }
    }

    /// This side minus the strictly ascending rows `dropped`, then
    /// `appended`'s records: what [`SelectedSignatures::select`] returns
    /// for those rows under the order (or one inherited from it) both
    /// were selected under.
    pub(crate) fn carry(&self, dropped: &[u32], appended: &Self) -> Self {
        let kept = || {
            let mut gone = dropped.iter().peekable();
            (0..self.len() as u32).filter(move |r| gone.next_if_eq(&r).is_none())
        };
        let levels = kept().map(|r| self.levels[r as usize]);
        Self {
            record_keys: self.record_keys.carry(kept(), &appended.record_keys),
            levels: levels.chain(appended.levels.iter().copied()).collect(),
        }
    }

    /// Number of records on this side.
    pub fn len(&self) -> usize {
        self.levels.len()
    }

    /// True when the side has no records.
    pub fn is_empty(&self) -> bool {
        self.levels.is_empty()
    }

    /// Heap footprint in bytes (length-based, deterministic).
    pub fn memory_bytes(&self) -> usize {
        self.record_keys.memory_bytes() + self.levels.len() * std::mem::size_of::<u32>()
    }
}

/// Output of the filtering stage (stages 2–4).
#[derive(Debug, Clone, Default)]
pub struct FilterOutcome {
    /// Candidate pairs with ≥ τ common signature pebbles that pass the
    /// in-probe compatibility bound, sorted by `(s, t)`.
    pub candidates: Vec<(u32, u32)>,
    /// `Tτ` (Eq. 16).
    pub processed_pairs: u64,
    /// Pairs rejected in-probe by the tier-0 compatibility bound.
    pub compat_rejected: u64,
    /// Mean signature length on the S side.
    pub avg_sig_len_s: f64,
    /// Mean signature length on the T side.
    pub avg_sig_len_t: f64,
}

/// What the in-probe compatibility bound needs from the two join sides:
/// the cached tier-0 `(n_tokens, min_partition)` integers and the
/// verifier's acceptance threshold `θ − ε`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CompatCtx<'a> {
    /// Probe-side `(|S|, MP(S))` per record id.
    pub tier0_s: &'a [(u32, u32)],
    /// Indexed-side `(|T|, MP(T))` per record id.
    pub tier0_t: &'a [(u32, u32)],
    /// `θ − ε`.
    pub min_sim: f64,
}

/// Stage 4: probe every record of `s` against the CSR `index` over
/// `indexed`'s signatures through a dense, branch-free [`OverlapCounter`].
///
/// For a self-join (`self_join`, with `s` and `indexed` the same side)
/// each record `a` probes only ids `> a`, producing every pair exactly
/// once. Probing is parallelised over
/// [`crate::parallel::par_map_scratch`] (one counter per worker); output
/// order is deterministic either way.
pub(crate) fn candidate_pass(
    s: &SelectedSignatures,
    indexed: &SelectedSignatures,
    index: &CsrIndex,
    self_join: bool,
    tau: u32,
    parallel: bool,
    ctx: &CompatCtx<'_>,
) -> FilterOutcome {
    let ids: Vec<u32> = (0..s.len() as u32).collect();
    let per_record: Vec<(Vec<u32>, ProbeStats)> = crate::parallel::par_map_scratch(
        &ids,
        parallel,
        || OverlapCounter::new(index.record_count()),
        |ctr, &a| {
            let mut hits = Vec::new();
            let stats = ctr.probe(
                index,
                s.record_keys.get(a),
                s.levels[a as usize],
                tau,
                &indexed.levels,
                self_join.then_some(a),
                &CompatBound {
                    tier0: ctx.tier0_t,
                    probe_tier0: ctx.tier0_s[a as usize],
                    min_sim: ctx.min_sim,
                },
                &mut hits,
            );
            (hits, stats)
        },
        |_| {},
    );
    let mut candidates = Vec::new();
    let mut totals = ProbeStats::default();
    for (a, (hits, stats)) in per_record.into_iter().enumerate() {
        totals.merge(&stats);
        candidates.extend(hits.into_iter().map(|b| (a as u32, b)));
    }
    FilterOutcome {
        candidates,
        processed_pairs: totals.processed,
        compat_rejected: totals.compat_rejected,
        avg_sig_len_s: s.record_keys.avg_sig_len(),
        avg_sig_len_t: indexed.record_keys.avg_sig_len(),
    }
}

/// Below this many candidates the run-batched path's one-time
/// corpus-level posting index is not worth building; results are
/// identical either way.
const BATCHED_VERIFY_MIN: usize = 2048;

/// Whether verifying `n_candidates` against a collection of `n_t` records
/// pays for *building* its transposed posting index ([`GramPostingsIndex`];
/// one that exists already is used whatever the size). A pure function of
/// sizes, so which path a workload takes is deterministic; results and
/// tier counters are identical either way.
pub(crate) fn batched_verify_pays(n_candidates: usize, n_t: usize) -> bool {
    n_candidates >= BATCHED_VERIFY_MIN && n_candidates * 4 >= n_t && n_t > 0
}

/// Stage 5: verify candidates `(a, b)` — ids into `s` and `t` — with the
/// bound-cascade engine (see [`crate::usim::verify`]) and return the
/// accepted `(a, b, usim)` in candidate order plus the per-tier decision
/// telemetry.
///
/// The sorted candidate list is partitioned into per-probe-record runs.
/// Large lists count each run's shared pebble mass in one walk of a
/// corpus-level transposed posting index over `t` (work ∝ the probe's
/// document frequencies) and enumerate only the candidates that bound
/// cannot reject; small ones count pair by pair
/// ([`Verifier::sim_at_least`]). With `index = None` the candidate count
/// decides (`batched_verify_pays`) and an index built here dies with the
/// call; the engine passes the indexed collection's own (built at most
/// once per corpus, shared by every sink batch, later join and searcher).
/// Accepted pairs, similarities and tier counters are byte-identical on
/// both paths and to [`verify_candidates_reference`] —
/// `tests/verify_equivalence.rs` enforces it.
#[allow(clippy::too_many_arguments)]
pub fn verify_candidates(
    kn: &Knowledge,
    cfg: &SimConfig,
    s: &[Arc<SegRecord>],
    t: &[Arc<SegRecord>],
    candidates: &[(u32, u32)],
    theta: f64,
    parallel: bool,
    index: Option<&GramPostingsIndex>,
) -> (Vec<(u32, u32, f64)>, VerifyTiers) {
    let own_index = (index.is_none() && batched_verify_pays(candidates.len(), t.len()))
        .then(|| GramPostingsIndex::build(t));
    let index = index.or(own_index.as_ref());
    let engine = Verifier::new(kn, cfg);
    // Worker tallies are folded in the parallel layer's drain hook; the
    // tier buckets are pure per-candidate functions, so the aggregate is
    // deterministic regardless of scheduling.
    let tally = Mutex::new(VerifyTiers::default());
    // Results stay in candidate order, so serial and parallel runs return
    // identical vectors; the scratch — including a run's mass counters —
    // is per worker, so the parallel path stays lock-free. A run is split
    // across workers only when one probe record owns more than a worker's
    // fair share of the list.
    let pairs = crate::parallel::par_fragments_scratch(
        candidates,
        parallel,
        &|&(a, _): &(u32, u32)| a as u64,
        RunScratch::default,
        |rs, frag| {
            let mut out = Vec::new();
            match index {
                Some(posting_index) => {
                    for run in frag.chunk_by(|x, y| x.0 == y.0) {
                        let probe = &s[run[0].0 as usize];
                        engine.verify_run_at_least(
                            probe,
                            t,
                            run,
                            posting_index,
                            theta,
                            rs,
                            &mut out,
                        );
                    }
                }
                None => {
                    for &(a, b) in frag {
                        let (sa, tb) = (&s[a as usize], &t[b as usize]);
                        let sim = engine.sim_at_least(sa, tb, theta, &mut rs.verify);
                        if sim >= theta - cfg.eps {
                            out.push((a, b, sim));
                        }
                    }
                }
            }
            out
        },
        |rs| relock(&tally).merge(&rs.take_tally()),
    );
    let tiers = *relock(&tally);
    debug_assert_eq!(tiers.decisions(), candidates.len() as u64);
    (pairs, tiers)
}

/// Stage 5 on the reference per-candidate path
/// ([`crate::usim::usim_approx_seg_at_least`] with no cross-candidate
/// sharing beyond per-worker bound/search buffers): the oracle
/// [`verify_candidates`] must match bit for bit.
pub fn verify_candidates_reference(
    kn: &Knowledge,
    cfg: &SimConfig,
    s: &[Arc<SegRecord>],
    t: &[Arc<SegRecord>],
    candidates: &[(u32, u32)],
    theta: f64,
    parallel: bool,
) -> Vec<(u32, u32, f64)> {
    crate::parallel::par_filter_map_scratch(
        candidates,
        parallel,
        crate::usim::approx::RefineScratch::default,
        |rs, &(a, b)| {
            let sim = crate::usim::approx::usim_approx_seg_at_least_with(
                kn,
                cfg,
                &s[a as usize],
                &t[b as usize],
                theta,
                rs,
            );
            (sim >= theta - cfg.eps).then_some((a, b, sim))
        },
    )
}

/// Brute force: verify all |S|×|T| pairs (the oracle for filter tests).
pub fn brute_force_join(
    kn: &Knowledge,
    cfg: &SimConfig,
    s: &Corpus,
    t: &Corpus,
    theta: f64,
) -> Vec<(u32, u32, f64)> {
    let segment = |c: &Corpus| -> Vec<Arc<SegRecord>> {
        c.iter()
            .map(|r| Arc::new(segment_record(kn, cfg, &r.tokens)))
            .collect()
    };
    let (sp, tp) = (segment(s), segment(t));
    let all: Vec<(u32, u32)> = (0..s.len() as u32)
        .flat_map(|a| (0..t.len() as u32).map(move |b| (a, b)))
        .collect();
    verify_candidates(kn, cfg, &sp, &tp, &all, theta, true, None).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::knowledge::KnowledgeBuilder;
    use crate::signature::FilterKind;

    /// Threshold join on freshly prepared corpora.
    fn join(
        kn: &Knowledge,
        cfg: &SimConfig,
        s: &Corpus,
        t: &Corpus,
        spec: &JoinSpec,
    ) -> JoinResult {
        let engine = Engine::new(kn.clone(), *cfg).expect("valid config");
        let ps = engine.prepare(s).expect("prepare S");
        let pt = engine.prepare(t).expect("prepare T");
        engine.join(&ps, &pt, spec).expect("join")
    }

    fn join_self(kn: &Knowledge, cfg: &SimConfig, c: &Corpus, spec: &JoinSpec) -> JoinResult {
        let engine = Engine::new(kn.clone(), *cfg).expect("valid config");
        let pc = engine.prepare(c).expect("prepare");
        engine.join_self(&pc, spec).expect("self join")
    }

    fn u_join(kn: &Knowledge, cfg: &SimConfig, s: &Corpus, t: &Corpus, theta: f64) -> JoinResult {
        join(kn, cfg, s, t, &JoinSpec::threshold(theta))
    }

    fn setup() -> (Knowledge, Corpus, Corpus) {
        let mut b = KnowledgeBuilder::new();
        b.synonym("coffee shop", "cafe", 1.0);
        b.taxonomy_path(&["wikipedia", "food", "coffee", "coffee drinks", "latte"]);
        b.taxonomy_path(&["wikipedia", "food", "coffee", "coffee drinks", "espresso"]);
        let mut kn = b.build();
        let s = kn.corpus_from_lines([
            "coffee shop latte helsingki",
            "cake and tea",
            "espresso north",
            "unrelated words entirely",
        ]);
        let t = kn.corpus_from_lines([
            "espresso cafe helsinki",
            "tea cake",
            "latte south",
            "different thing",
        ]);
        (kn, s, t)
    }

    #[test]
    fn ujoin_finds_figure1_pair() {
        let (kn, s, t) = setup();
        let cfg = SimConfig::default();
        let res = u_join(&kn, &cfg, &s, &t, 0.7);
        assert!(
            res.pairs.iter().any(|&(a, b, _)| a == 0 && b == 0),
            "expected the POI pair, got {:?}",
            res.pairs
        );
        assert!(res.stats.candidates >= res.pairs.len() as u64);
        assert!(res.stats.processed_pairs >= res.stats.candidates);
    }

    #[test]
    fn filters_agree_with_brute_force() {
        let (kn, s, t) = setup();
        let cfg = SimConfig::default();
        for theta in [0.5, 0.7, 0.85] {
            let oracle = brute_force_join(&kn, &cfg, &s, &t, theta);
            for filter in [
                FilterKind::UFilter,
                FilterKind::AuHeuristic { tau: 2 },
                FilterKind::AuHeuristic { tau: 3 },
                FilterKind::AuDp { tau: 2 },
                FilterKind::AuDp { tau: 3 },
            ] {
                let opts = JoinSpec::threshold(theta).filter(filter).serial();
                let res = join(&kn, &cfg, &s, &t, &opts);
                let got: Vec<(u32, u32)> = res.pairs.iter().map(|&(a, b, _)| (a, b)).collect();
                let want: Vec<(u32, u32)> = oracle.iter().map(|&(a, b, _)| (a, b)).collect();
                assert_eq!(got, want, "θ={theta}, filter {}", filter.label());
            }
        }
    }

    #[test]
    fn filters_agree_with_brute_force_under_every_gram_measure() {
        use crate::config::GramMeasure;
        let (kn, s, t) = setup();
        for gram in GramMeasure::ALL {
            let cfg = SimConfig::default().with_gram(gram);
            for theta in [0.6, 0.8] {
                let oracle = brute_force_join(&kn, &cfg, &s, &t, theta);
                for filter in [
                    FilterKind::UFilter,
                    FilterKind::AuHeuristic { tau: 2 },
                    FilterKind::AuDp { tau: 2 },
                ] {
                    let opts = JoinSpec::threshold(theta).filter(filter).serial();
                    let res = join(&kn, &cfg, &s, &t, &opts);
                    let got: Vec<(u32, u32)> = res.pairs.iter().map(|&(a, b, _)| (a, b)).collect();
                    let want: Vec<(u32, u32)> = oracle.iter().map(|&(a, b, _)| (a, b)).collect();
                    assert_eq!(got, want, "gram {gram:?} θ={theta} {}", filter.label());
                }
            }
        }
    }

    #[test]
    fn short_records_survive_large_tau() {
        // Regression for the guarantee-level clamp: records with fewer
        // pebbles than τ (here single 1-char tokens with one gram pebble)
        // must still find their identical partners — the literal
        // Algorithm 6 silently drops them.
        let mut kn = KnowledgeBuilder::new().build();
        let s = kn.corpus_from_lines(["a", "xy", "completely different words"]);
        let t = kn.corpus_from_lines(["a", "xy", "unrelated gibberish"]);
        let cfg = SimConfig::default();
        for filter in [
            FilterKind::AuHeuristic { tau: 2 },
            FilterKind::AuHeuristic { tau: 5 },
            FilterKind::AuDp { tau: 2 },
            FilterKind::AuDp { tau: 5 },
        ] {
            let opts = JoinSpec::threshold(0.9).filter(filter).serial();
            let res = join(&kn, &cfg, &s, &t, &opts);
            let got: Vec<(u32, u32)> = res.pairs.iter().map(|&(a, b, _)| (a, b)).collect();
            assert!(
                got.contains(&(0, 0)) && got.contains(&(1, 1)),
                "{}: identical short records lost: {got:?}",
                filter.label()
            );
        }
    }

    #[test]
    fn self_join_reports_ordered_pairs() {
        let (kn, s, _) = setup();
        let cfg = SimConfig::default();
        let mut kn = kn;
        let c = {
            let mut lines = vec![
                "coffee shop latte".to_string(),
                "cafe latte".to_string(),
                "espresso cafe".to_string(),
            ];
            lines.push("coffee shop latte".to_string()); // duplicate of 0
            let refs: Vec<&str> = lines.iter().map(|s| s.as_str()).collect();
            kn.corpus_from_lines(refs)
        };
        drop(s);
        let res = join_self(&kn, &cfg, &c, &JoinSpec::threshold(0.9).au_dp(2));
        for &(a, b, _) in &res.pairs {
            assert!(a < b);
        }
        // the duplicate pair (0, 3) must be found at any θ
        assert!(res.pairs.iter().any(|&(a, b, _)| (a, b) == (0, 3)));
    }

    #[test]
    fn higher_theta_fewer_candidates_at_fixed_tau() {
        // Signatures shrink as θ grows (prefix lengths are monotone), so
        // at a fixed τ the candidate set can only shrink. (The τ trend of
        // Figure 3(b) is empirical, not an invariant, and is exercised by
        // the bench harness on realistic data instead.)
        let (kn, s, t) = setup();
        let cfg = SimConfig::default();
        for tau in [1u32, 2, 3] {
            let mut last = u64::MAX;
            for theta in [0.5, 0.7, 0.85, 0.95] {
                let res = join(
                    &kn,
                    &cfg,
                    &s,
                    &t,
                    &JoinSpec::threshold(theta).au_heuristic(tau),
                );
                assert!(
                    res.stats.candidates <= last,
                    "τ={tau} θ={theta}: {} candidates > {last}",
                    res.stats.candidates
                );
                last = res.stats.candidates;
            }
        }
    }

    #[test]
    fn empty_corpora() {
        let (kn, s, _) = setup();
        let cfg = SimConfig::default();
        let empty = Corpus::new();
        let res = join(&kn, &cfg, &s, &empty, &JoinSpec::threshold(0.8));
        assert!(res.pairs.is_empty());
        assert_eq!(res.stats.candidates, 0);
        let res = join(&kn, &cfg, &empty, &empty, &JoinSpec::threshold(0.8));
        assert!(res.pairs.is_empty());
    }

    #[test]
    fn parallel_and_serial_agree() {
        let (kn, s, t) = setup();
        let cfg = SimConfig::default();
        let spec = JoinSpec::threshold(0.6).au_dp(2);
        let serial = join(&kn, &cfg, &s, &t, &spec.serial());
        let parallel = join(&kn, &cfg, &s, &t, &spec);
        assert_eq!(serial.pairs, parallel.pairs);
    }
}
