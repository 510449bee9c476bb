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
//! 4. **filter** — probe the CSR index with one record at a time and keep
//!    the ids sharing ≥ τ signature pebbles with it: `CandidatePass`;
//! 5. **verify** — bound the unified similarity (Algorithm 1) of each
//!    candidate and keep pairs reaching `θ`, one probe record's run of
//!    candidates at a time, through the transposed posting index of the
//!    verified side ([`crate::usim::Verifier::verify_run_at_least`]); only
//!    [`crate::engine::Engine::scan`] (a serving delta) counts per pair.
//!
//! A join runs stages 4 and 5 as one pass per probe record: the worker
//! that probed a record verifies its run there and then, so no candidate
//! list exists (PASS-JOIN's shape), and cost calibration times that same
//! pass. The list is built only where it is the product —
//! [`crate::engine::Engine::filter_outcome`] and the shard-pair tasks,
//! which verify it with [`verify_candidates`] — and the Bernoulli
//! estimator only counts it. Either way a probe record's run is the unit
//! of parallel work: verified whole, on one worker.
//!
//! The engine owns stages 1–2 and the memoization of 3–4; this module
//! holds the one implementation of stages 3, 4 and 5. Tests check them
//! against [`crate::oracle`], which shares none of this code.

use crate::config::SimConfig;
use crate::engine::{relock, JoinSpec};
use crate::index::{CompatBound, CsrIndex, OverlapCounter, ProbeStats, RecordKeys};
use crate::knowledge::Knowledge;
use crate::pebble::{generate_pebbles_into, Pebble, PebbleKey, PebbleOrder, SortScratch};
use crate::segment::SegRecord;
use crate::shard::ShardStats;
use crate::signature::{select_signature, DpScratch, SignatureChoice};
use crate::usim::{GramPostingsIndex, RunScratch, RunSide, Verifier, VerifyTiers};
use std::ops::Range;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Timing and cardinality statistics of one join run.
#[derive(Debug, Clone, Copy, Default)]
pub struct JoinStats {
    /// Stages 2–3: ranking the pebble keys and the per-record signature
    /// pass (near zero on a memo hit).
    pub sig_time: Duration,
    /// Candidate generation over the inverted index (stage 4).
    ///
    /// A join probes and verifies in one pass, so this is the pass's
    /// wall-clock × the share of its workers' summed time spent probing
    /// (each worker times its per-record probe and verify spans), plus
    /// the CSR index fetch.
    pub filter_time: Duration,
    /// Verification (stage 5): the rest of that pass's wall-clock, plus
    /// the transposed posting index fetch. `sig_time + filter_time +
    /// verify_time` stays the join's wall-clock.
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
    /// Posting entries the verification walks read: per probe record, its
    /// run's walk of the transposed posting index (every distinct key's
    /// list, once per partner chunk), summed. The walk reads a key's list
    /// once per probe segment carrying the key, so it touches more entries
    /// than this counts — 1.52 × on the `join_dense` shape (36,654,631
    /// list reads for 24,074,660 `walked`, n = 1,500, seed 71). A pure
    /// function of the candidate runs, so independent of the thread count.
    /// A sharded run sums its tasks' walks.
    pub walked: u64,
    /// A sharded join's plan, task grid and residency
    /// ([`crate::engine::Engine::join_self_sharded`] /
    /// [`crate::engine::Engine::join_sharded`]; all zero on monolithic
    /// joins).
    pub shard: ShardStats,
}

impl JoinStats {
    /// Total wall-clock of the measured stages (stage 1 ran once, up
    /// front: [`crate::engine::Prepared::prepare_seconds`] holds its cost).
    pub fn total_time(&self) -> Duration {
        self.sig_time + self.filter_time + self.verify_time
    }
}

/// Result pairs `(s_record, t_record, sim)` plus statistics.
#[derive(Debug, Clone, Default)]
pub struct JoinResult {
    /// Accepted pairs, sorted by (s, t) id. `sim` is the value the
    /// verifier accepted the pair at: a lower bound on Algorithm 1's
    /// similarity that stops once θ is reached.
    /// [`crate::engine::Engine::usim`] and the top-k joins give the full
    /// value.
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

/// Output of the filtering stage (stages 2–4) run with the collect
/// consumer (`CandidatePass::collect`).
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

/// Stage 4 of one join, ready to run: the probe side's signatures, the
/// indexed side's, the CSR index over the latter, τ and the in-probe
/// compatibility bound.
///
/// [`CandidatePass::run`] probes one record at a time through a dense,
/// branch-free [`OverlapCounter`] and hands the record's hits to a
/// consumer on the worker that probed them; no candidate list outlives
/// the record unless the consumer keeps one. Three consumers exist:
/// verify ([`CandidatePass::verify`], every join and calibration's `c_v`),
/// collect ([`CandidatePass::collect`], the list itself) and count
/// ([`CandidatePass::count`], the funnel only, and calibration's `c_f`).
#[derive(Debug)]
pub(crate) struct CandidatePass<'a> {
    /// The probe side's signatures.
    pub s: Arc<SelectedSignatures>,
    /// The indexed side's signatures.
    pub indexed: Arc<SelectedSignatures>,
    /// CSR index over `indexed`.
    pub index: Arc<CsrIndex>,
    /// A self-join, with `s` and `indexed` the same side: each record `a`
    /// probes only ids `> a`, producing every pair exactly once.
    pub self_join: bool,
    /// τ.
    pub tau: u32,
    /// The in-probe compatibility bound.
    pub ctx: CompatCtx<'a>,
}

/// What a candidate pass adds up over its probe records: the probe funnel,
/// `Vτ`, and the time workers spent probing and consuming, each summed
/// over the workers.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PassTotals {
    /// `Tτ` and the in-probe rejections.
    pub probe: ProbeStats,
    /// `Vτ`: hits handed to the consumer.
    pub candidates: u64,
    /// Worker time inside [`OverlapCounter::probe`].
    pub probe_time: Duration,
    /// Worker time inside the consumer.
    pub consume_time: Duration,
}

impl PassTotals {
    /// Add another pass's (or worker's) totals.
    pub fn merge(&mut self, other: &Self) {
        self.probe.merge(&other.probe);
        self.candidates += other.candidates;
        self.probe_time += other.probe_time;
        self.consume_time += other.consume_time;
    }

    /// `wall` split between probing and consuming in the ratio the
    /// workers' summed spans give (all of it probing when neither ran).
    pub fn split(&self, wall: Duration) -> (Duration, Duration) {
        let spans = self.probe_time + self.consume_time;
        if spans.is_zero() {
            return (wall, Duration::ZERO);
        }
        let probing = wall.mul_f64(self.probe_time.as_secs_f64() / spans.as_secs_f64());
        (probing, wall.saturating_sub(probing))
    }

    /// Fold the funnel into `stats`; its times stay the caller's.
    pub fn funnel_into(&self, stats: &mut JoinStats) {
        stats.processed_pairs += self.probe.processed;
        stats.candidates += self.candidates;
        stats.compat_rejected += self.probe.compat_rejected;
    }
}

/// One probe record's accepted `(a, b, sim)` triples, in `b` order.
pub(crate) type Accepted = Vec<(u32, u32, f64)>;

/// Per-worker state of a candidate pass: the overlap counter, the hit
/// buffer every probe refills, the worker's totals and the consumer's own
/// scratch.
struct PassWorker<W> {
    counter: OverlapCounter,
    hits: Vec<u32>,
    totals: PassTotals,
    consumer: W,
}

impl CandidatePass<'_> {
    /// True when no probe can hit: the probe side or the CSR index is
    /// empty.
    pub fn is_empty(&self) -> bool {
        self.s.is_empty() || self.index.posting_count() == 0
    }

    /// The probe step: record `a`'s hits — ids of `indexed` sharing ≥ τ
    /// signature keys with it and passing the compatibility bound — into
    /// `w.hits`, ascending.
    fn probe<W>(&self, a: u32, w: &mut PassWorker<W>) {
        w.hits.clear();
        let stats = w.counter.probe(
            &self.index,
            self.s.record_keys.get(a),
            self.s.levels[a as usize],
            self.tau,
            &self.indexed.levels,
            self.self_join.then_some(a),
            &CompatBound {
                tier0: self.ctx.tier0_t,
                probe_tier0: self.ctx.tier0_s[a as usize],
                min_sim: self.ctx.min_sim,
            },
            &mut w.hits,
        );
        w.totals.probe.merge(&stats);
        w.totals.candidates += w.hits.len() as u64;
    }

    /// Stage 4 over the probe records `block`: probe each record and hand
    /// `(a, hits)` to `consume` on the same worker, then return the
    /// consumer's outputs in record order with the pass's totals.
    /// Parallel over [`crate::parallel::par_map_scratch`] when `parallel`
    /// (one counter, hit buffer and consumer scratch from `init` per
    /// worker; `drain` folds the consumer scratch once per worker); the
    /// output is the serial output either way.
    pub fn run<W, U>(
        &self,
        block: Range<u32>,
        parallel: bool,
        init: impl Fn() -> W + Sync,
        consume: impl Fn(&mut W, u32, &[u32]) -> U + Sync,
        drain: impl Fn(&mut W) + Sync,
    ) -> (Vec<U>, PassTotals)
    where
        U: Send,
    {
        let ids: Vec<u32> = block.collect();
        let totals = Mutex::new(PassTotals::default());
        let out = crate::parallel::par_map_scratch(
            &ids,
            parallel,
            || PassWorker {
                counter: OverlapCounter::new(self.index.record_count()),
                hits: Vec::new(),
                totals: PassTotals::default(),
                consumer: init(),
            },
            |w, &a| {
                let start = Instant::now();
                self.probe(a, w);
                let probed = Instant::now();
                let out = consume(&mut w.consumer, a, &w.hits);
                w.totals.probe_time += probed - start;
                w.totals.consume_time += probed.elapsed();
                out
            },
            |w| {
                relock(&totals).merge(&w.totals);
                drain(&mut w.consumer);
            },
        );
        let totals = *relock(&totals);
        (out, totals)
    }

    /// The count consumer: each probe record's candidate count and the
    /// funnel of the whole probe side, and no candidate kept.
    pub fn count(&self, parallel: bool) -> (Vec<usize>, PassTotals) {
        let all = 0..self.s.len() as u32;
        self.run(all, parallel, || (), |_, _, hits| hits.len(), |_| {})
    }

    /// The collect consumer: every candidate pair of the whole probe side,
    /// sorted by `(s, t)`.
    pub fn collect(&self, parallel: bool) -> (Vec<(u32, u32)>, PassTotals) {
        let all = 0..self.s.len() as u32;
        let (per_record, totals) =
            self.run(all, parallel, || (), |_, _, hits| hits.to_vec(), |_| {});
        let mut candidates = Vec::with_capacity(totals.candidates as usize);
        for (a, hits) in per_record.into_iter().enumerate() {
            candidates.extend(hits.into_iter().map(|b| (a as u32, b)));
        }
        (candidates, totals)
    }

    /// The verify consumer — stages 4 and 5 fused over the probe records
    /// `block`: each record's hits become its run `(a, b…)` in a buffer
    /// the worker reuses, verified on the spot against `side`, the
    /// indexed side's records, tier-0 column and transposed posting index
    /// (see [`Verifier::verify_run_at_least`]). Returns the accepted
    /// `(a, b, sim)` per probe record, in record order; the workers' tier
    /// tallies and walked postings are folded into `totals`. Pairs,
    /// similarity bits and tallies are those [`verify_candidates`] gives
    /// the collected list.
    #[allow(clippy::too_many_arguments)]
    pub fn verify(
        &self,
        block: Range<u32>,
        parallel: bool,
        verifier: &Verifier<'_>,
        s: &[Arc<SegRecord>],
        side: RunSide<'_>,
        theta: f64,
        totals: &Mutex<RunTotals>,
    ) -> (Vec<Accepted>, PassTotals) {
        self.run(
            block,
            parallel,
            || (RunScratch::default(), Vec::new(), 0u64),
            |(rs, run, walked), a, hits| {
                let mut accepted = Vec::new();
                if !hits.is_empty() {
                    run.clear();
                    run.extend(hits.iter().map(|&b| (a, b)));
                    let keys = rs.resolve(&s[a as usize], side);
                    *walked += verifier.verify_run_at_least(keys, run, theta, rs, &mut accepted);
                }
                accepted
            },
            |(rs, _, walked)| relock(totals).add(rs, std::mem::take(walked)),
        )
    }
}

/// What stage 5 adds up over the runs it verifies: the tier buckets and
/// the postings the runs' walks read.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RunTotals {
    /// Every candidate's bucket.
    pub tiers: VerifyTiers,
    /// Posting entries the run walks read.
    pub walked: u64,
}

impl RunTotals {
    /// Fold in a worker's tally (taken from `rs`) and its walked postings.
    fn add(&mut self, rs: &mut RunScratch, walked: u64) {
        self.tiers.merge(&rs.take_tally());
        self.walked += walked;
    }
}

/// Stage 5: verify candidates `(a, b)` — ids into `s` and `t` — with the
/// bound-cascade engine (see [`crate::usim::verify`]) and return the
/// accepted `(a, b, sim)` in candidate order plus the per-tier decision
/// telemetry.
///
/// The sorted candidate list is cut into per-probe-record runs, each run
/// is one work unit of [`crate::parallel::par_map_scratch`], verified
/// whole on one worker — the unit a join's `CandidatePass::verify` maps —
/// and its shared pebble mass is counted in one walk of `index`, the
/// transposed posting index over `t` (work ∝ the probe's document
/// frequencies); only the candidates that bound cannot reject are
/// enumerated. Only [`crate::engine::Engine::scan`] counts pair by pair.
/// Accepted pairs and similarities are byte-identical to
/// [`crate::oracle::verify_candidates_reference`], and the tier counters
/// to per-pair [`crate::usim::Verifier::sim_at_least`] calls —
/// `tests/verify_equivalence.rs` enforces both.
#[allow(clippy::too_many_arguments)]
pub fn verify_candidates(
    kn: &Knowledge,
    cfg: &SimConfig,
    s: &[Arc<SegRecord>],
    t: &[Arc<SegRecord>],
    candidates: &[(u32, u32)],
    theta: f64,
    parallel: bool,
    index: &GramPostingsIndex,
) -> (Vec<(u32, u32, f64)>, VerifyTiers) {
    // No `Prepared` here to hold `t`'s tier-0 column: derive it.
    let tier0: Vec<(u32, u32)> = (t.iter()).map(|r| r.tier0()).collect();
    let side = RunSide {
        recs: t,
        tier0: &tier0,
        index,
    };
    let (accepted, totals) = verify_runs(kn, cfg, s, side, candidates, theta, parallel);
    (accepted, totals.tiers)
}

/// [`verify_candidates`] against a verified side whose tier-0 column
/// exists (the shard-pair tasks pass their shard's), with the walked
/// postings reported beside the tiers.
pub(crate) fn verify_runs(
    kn: &Knowledge,
    cfg: &SimConfig,
    s: &[Arc<SegRecord>],
    side: RunSide<'_>,
    candidates: &[(u32, u32)],
    theta: f64,
    parallel: bool,
) -> (Vec<(u32, u32, f64)>, RunTotals) {
    let engine = Verifier::new(kn, cfg);
    // Worker tallies are folded in the parallel layer's drain hook; the
    // tier buckets are pure per-candidate functions and a run's walk a
    // pure function of the run, so the aggregate is deterministic
    // regardless of scheduling.
    let totals = Mutex::new(RunTotals::default());
    let runs: Vec<&[(u32, u32)]> = candidates.chunk_by(|x, y| x.0 == y.0).collect();
    let per_run = crate::parallel::par_map_scratch(
        &runs,
        parallel,
        || (RunScratch::default(), 0u64),
        |(rs, walked), run| {
            let mut out = Vec::new();
            let keys = rs.resolve(&s[run[0].0 as usize], side);
            *walked += engine.verify_run_at_least(keys, run, theta, rs, &mut out);
            out
        },
        |(rs, walked)| relock(&totals).add(rs, std::mem::take(walked)),
    );
    let totals = *relock(&totals);
    debug_assert_eq!(totals.tiers.decisions(), candidates.len() as u64);
    (per_run.into_iter().flatten().collect(), totals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::knowledge::KnowledgeBuilder;
    use crate::oracle::brute_force_join;
    use crate::signature::FilterKind;
    use au_text::record::Corpus;

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
    fn the_fused_pass_equals_the_collected_list_verified_and_counted() {
        // Past `MIN_PARALLEL_ITEMS` probe records the pass fans out, and
        // every worker folds its funnel, times and tier tallies in the
        // drain hook. The join's verify consumer, the collect consumer's
        // list verified afterwards and the count consumer must agree on
        // every pair, similarity bit and counter — R×S and self-join.
        use crate::engine::tests::{pair_bits, pooled_corpus};
        let mut kn = KnowledgeBuilder::new().build();
        let (s, t) = (
            pooled_corpus(&mut kn, 300, 0),
            pooled_corpus(&mut kn, 300, 3),
        );
        let engine = Engine::new(kn, SimConfig::default()).unwrap();
        let (ps, pt) = (engine.prepare(&s).unwrap(), engine.prepare(&t).unwrap());
        let theta = 0.7;
        for parallel in [false, true] {
            let spec = JoinSpec::threshold(theta).au_dp(2).parallel(parallel);
            for other in [Some(&pt), None] {
                let verified = other.unwrap_or(&ps);
                let fused = match other {
                    Some(pt) => engine.join(&ps, pt, &spec),
                    None => engine.join_self(&ps, &spec),
                };
                let fused = fused.unwrap();
                let listed = engine.filter_outcome(&ps, other, &spec).unwrap();
                let (pairs, tiers) = verify_candidates(
                    engine.knowledge(),
                    engine.config(),
                    ps.seg_records(),
                    verified.seg_records(),
                    &listed.candidates,
                    theta,
                    parallel,
                    &verified.transposed(false),
                );
                let at = format!("parallel={parallel} self={}", other.is_none());
                assert!(!pairs.is_empty() && tiers.mass_rejects > 0, "{at}");
                assert_eq!(pair_bits(&fused.pairs), pair_bits(&pairs), "{at}");
                assert_eq!(fused.stats.tiers, tiers, "{at}");
                assert_eq!(
                    (fused.stats.candidates, fused.stats.processed_pairs),
                    (listed.candidates.len() as u64, listed.processed_pairs),
                    "{at}"
                );
                assert_eq!(fused.stats.compat_rejected, listed.compat_rejected);
                assert_eq!(fused.stats.result_count, pairs.len());
            }
            let counts = engine
                .filter_counts(&ps, &pt, theta, FilterKind::AuDp { tau: 2 })
                .unwrap();
            let listed = engine.filter_outcome(&ps, Some(&pt), &spec).unwrap();
            assert_eq!(
                (counts.processed, counts.candidates),
                (listed.processed_pairs, listed.candidates.len() as u64)
            );
        }
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
