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
//! Every join — monolithic, or one shard-pair task of a sharded join —
//! runs stages 4 and 5 as one pass per probe record: the worker that
//! probed a record verifies its run there and then, so no candidate list
//! exists (PASS-JOIN's shape), and cost calibration times that same pass.
//! The Bernoulli estimator (Eq. 17) only counts the candidates. A probe
//! record's run is the unit of parallel work: verified whole, on one
//! worker.
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
use crate::usim::{RunScratch, RunSide, Verifier, VerifyTiers};
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
    /// (see [`crate::index::ProbeStats::compat_rejected`]). A sharded run
    /// sums its tasks' probe directions; the τ-skip before the bound
    /// depends on which side probes, so a cross-shard self-join task,
    /// probing both ways, may count slightly more or fewer than one way.
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
    /// the definitional form ([`crate::oracle::FilterSide`] builds the
    /// filter oracle's sides with it, independently of the engine's
    /// fused pass).
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

/// Which indexed ids probe record `a` may pair with, where an R×S pass
/// takes every id: ids above `a` (`Own`, a self-join: every pair once),
/// or ids `b` whose global id `indexed[b]` exceeds `probe[a]`
/// (`Global(probe, indexed)`, both maps ascending: a cross-shard self-join
/// task keeps each pair for the direction probing with the smaller id —
/// `Own` under the identity map).
#[derive(Debug, Clone, Copy)]
pub(crate) enum ProbeFloor<'a> {
    Own,
    Global(&'a [u32], &'a [u32]),
}

impl ProbeFloor<'_> {
    /// `a`'s floor as [`OverlapCounter::probe`]'s `min_excl`, the last
    /// local id excluded: under a global map, one binary search.
    pub(crate) fn min_excl(self, a: u32) -> Option<u32> {
        match self {
            Self::Own => Some(a),
            Self::Global(probe, indexed) => {
                let above = indexed.partition_point(|&g| g <= probe[a as usize]);
                (above as u32).checked_sub(1)
            }
        }
    }
}

/// Stage 4 of one join, ready to run: the probe side's signatures, the
/// indexed side's, the CSR index over the latter, the probe floor, τ and
/// the in-probe compatibility bound.
///
/// [`CandidatePass::run`] probes one record at a time through a dense,
/// branch-free [`OverlapCounter`] and hands the record's hits to a
/// consumer on the worker that probed them; no candidate outlives its
/// probe record. Two consumers exist: verify ([`CandidatePass::verify`],
/// every join and calibration's `c_v`) and count
/// ([`CandidatePass::count`], the funnel only, and calibration's `c_f`).
#[derive(Debug)]
pub(crate) struct CandidatePass<'a> {
    /// The probe side's signatures.
    pub s: Arc<SelectedSignatures>,
    /// The indexed side's signatures.
    pub indexed: Arc<SelectedSignatures>,
    /// CSR index over `indexed`.
    pub index: Arc<CsrIndex>,
    /// The ids each probe record may pair with (`None`: every id).
    pub floor: Option<ProbeFloor<'a>>,
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

    /// This pass the other way round: `indexed` probes a CSR index built
    /// here over `s`'s signatures (the caller's transient, filed in no
    /// memo), with the tier-0 columns and a global floor's maps swapped.
    pub fn mirrored(&self) -> Self {
        let (mut floor, mut ctx) = (self.floor, self.ctx);
        if let Some(ProbeFloor::Global(probe, indexed)) = &mut floor {
            std::mem::swap(probe, indexed);
        }
        std::mem::swap(&mut ctx.tier0_s, &mut ctx.tier0_t);
        Self {
            s: self.indexed.clone(),
            indexed: self.s.clone(),
            index: Arc::new(CsrIndex::from_record_keys(&self.s.record_keys)),
            floor,
            tau: self.tau,
            ctx,
        }
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
            self.floor.and_then(|f| f.min_excl(a)),
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

    /// The verify consumer — stages 4 and 5 fused over the probe records
    /// `block`: each record's hits become its run `(a, b…)` in a buffer
    /// the worker reuses, verified on the spot against `side`, the
    /// indexed side's records, tier-0 column and transposed posting index
    /// (see [`Verifier::verify_run_at_least`]). Returns the accepted
    /// `(a, b, sim)` per probe record, in record order; the workers' tier
    /// tallies and walked postings are folded into `totals`. Pairs,
    /// similarity bits and tallies are those of a per-pair
    /// [`Verifier::sim_at_least`] over the record's candidates.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, Prepared};
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

    /// The candidate pairs the engine's own memoized pass emits for `s`
    /// against `t`, kept by an inline consumer, with the pass's totals.
    fn emitted(
        engine: &Engine,
        s: &Prepared,
        t: &Prepared,
        self_join: bool,
        spec: &JoinSpec,
    ) -> (Vec<(u32, u32)>, PassTotals) {
        let (pass, _) = engine.candidate_pass(s, t, self_join, spec);
        let all = 0..pass.s.len() as u32;
        let keep = |_: &mut (), a: u32, hits: &[u32]| -> Vec<(u32, u32)> {
            hits.iter().map(|&b| (a, b)).collect()
        };
        let (per_record, totals) = pass.run(all, spec.parallel, || (), keep, |_| {});
        (per_record.concat(), totals)
    }

    #[test]
    fn the_fused_pass_equals_per_pair_verification_and_the_count() {
        // Past `MIN_PARALLEL_ITEMS` probe records the pass fans out, and
        // every worker folds its funnel, times and tier tallies in the
        // drain hook. The join's verify consumer, a per-pair
        // `sim_at_least` over the candidates the pass emits and the count
        // consumer must agree on every pair, similarity bit and counter —
        // R×S and self-join.
        use crate::engine::tests::{pair_bits, pooled_corpus};
        use crate::usim::VerifyScratch;
        let mut kn = KnowledgeBuilder::new().build();
        let (s, t) = (
            pooled_corpus(&mut kn, 300, 0),
            pooled_corpus(&mut kn, 300, 3),
        );
        let engine = Engine::new(kn, SimConfig::default()).unwrap();
        let (ps, pt) = (engine.prepare(&s).unwrap(), engine.prepare(&t).unwrap());
        let theta = 0.7;
        let verifier = Verifier::new(engine.knowledge(), engine.config());
        for parallel in [false, true] {
            let spec = JoinSpec::threshold(theta).au_dp(2).parallel(parallel);
            for other in [Some(&pt), None] {
                let verified = other.unwrap_or(&ps);
                let fused = match other {
                    Some(pt) => engine.join(&ps, pt, &spec),
                    None => engine.join_self(&ps, &spec),
                };
                let fused = fused.unwrap();
                let (candidates, totals) = emitted(&engine, &ps, verified, other.is_none(), &spec);
                let (mut scr, mut pairs) = (VerifyScratch::default(), Vec::new());
                for &(a, b) in &candidates {
                    let (sa, tb) = (
                        &ps.seg_records()[a as usize],
                        &verified.seg_records()[b as usize],
                    );
                    let sim = verifier.sim_at_least(sa, tb, theta, &mut scr);
                    if sim >= theta - engine.config().eps {
                        pairs.push((a, b, sim));
                    }
                }
                let tiers = scr.take_tally();
                let at = format!("parallel={parallel} self={}", other.is_none());
                assert!(!pairs.is_empty() && tiers.mass_rejects > 0, "{at}");
                assert_eq!(pair_bits(&fused.pairs), pair_bits(&pairs), "{at}");
                assert_eq!(fused.stats.tiers, tiers, "{at}");
                assert_eq!(
                    (fused.stats.candidates, fused.stats.processed_pairs),
                    (candidates.len() as u64, totals.probe.processed),
                    "{at}"
                );
                assert_eq!(fused.stats.compat_rejected, totals.probe.compat_rejected);
                assert_eq!(fused.stats.result_count, pairs.len());
            }
            let counts = engine
                .filter_counts(&ps, &pt, theta, FilterKind::AuDp { tau: 2 })
                .unwrap();
            let (candidates, totals) = emitted(&engine, &ps, &pt, false, &spec);
            assert_eq!(
                (counts.processed, counts.candidates),
                (totals.probe.processed, candidates.len() as u64)
            );
        }
    }

    /// `n` records of one to five words off `MERGE_WORDS`, drawn from
    /// `seed`. Under `setup`'s knowledge the pool holds both sides of a
    /// synonym rule ("coffee shop" / "cafe") and taxonomy nodes
    /// ("coffee", "latte", "espresso").
    fn drawn_corpus(kn: &mut Knowledge, n: usize, seed: u64) -> Corpus {
        use crate::engine::tests::MERGE_WORDS;
        let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = move |m: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % m) as usize
        };
        let lines: Vec<String> = (0..n)
            .map(|_| {
                let words: Vec<&str> = (0..1 + next(5)).map(|_| MERGE_WORDS[next(12)]).collect();
                words.join(" ")
            })
            .collect();
        kn.corpus_from_lines(lines.iter().map(String::as_str))
    }

    /// The set the engine's memoized pass emits — and its `Tτ`, `Vτ` and
    /// compatibility rejections — is exactly the filter oracle's
    /// ([`crate::oracle::candidate_definition`] over sides it selects by
    /// hand), for all five filters, R×S and self-join, serial and
    /// parallel.
    fn assert_pass_emits_the_definition(n: usize, seed: u64, theta: f64) {
        use crate::oracle::{candidate_definition, FilterSide};
        let (mut kn, _, _) = crate::engine::tests::setup();
        let s = drawn_corpus(&mut kn, n, seed);
        let t = drawn_corpus(&mut kn, n, seed ^ 0x5bd1_e995);
        let engine = Engine::new(kn, SimConfig::default()).unwrap();
        let (ps, pt) = (engine.prepare(&s).unwrap(), engine.prepare(&t).unwrap());
        let (kn, cfg) = (engine.knowledge(), engine.config());
        let carries = |f: fn(&SegRecord) -> bool| ps.seg_records().iter().any(|r| f(r));
        assert!(
            carries(|r| !r.rule_postings().is_empty()) && carries(|r| !r.node_segs().is_empty())
        );
        for filter in [
            FilterKind::UFilter,
            FilterKind::AuHeuristic { tau: 2 },
            FilterKind::AuHeuristic { tau: 4 },
            FilterKind::AuDp { tau: 2 },
            FilterKind::AuDp { tau: 4 },
        ] {
            let spec = JoinSpec::threshold(theta).filter(filter);
            for other in [Some(&pt), None] {
                let recs = other.map(|p| p.seg_records());
                let (ds, dt) = FilterSide::pair(kn, cfg, ps.seg_records(), recs, &spec);
                let want = candidate_definition(&ds, dt.as_ref(), filter.tau(), theta - cfg.eps);
                let at = format!(
                    "n={n} seed={seed} θ={theta} {} self={}",
                    filter.label(),
                    other.is_none()
                );
                assert!(!want.candidates.is_empty(), "{at}: no candidates");
                for parallel in [false, true] {
                    let spec = spec.parallel(parallel);
                    let verified = other.unwrap_or(&ps);
                    let (got, totals) = emitted(&engine, &ps, verified, other.is_none(), &spec);
                    assert_eq!(got, want.candidates, "{at} parallel={parallel}");
                    assert_eq!(
                        (
                            totals.candidates,
                            totals.probe.processed,
                            totals.probe.compat_rejected
                        ),
                        (got.len() as u64, want.t_tau, want.compat_rejected),
                        "{at} parallel={parallel}"
                    );
                }
            }
        }
    }

    mod exact_set {
        use super::*;
        use crate::parallel::MIN_PARALLEL_ITEMS;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4))]

            /// Past `MIN_PARALLEL_ITEMS` probe records, so the parallel
            /// pass fans out.
            #[test]
            fn the_engine_pass_emits_the_oracle_candidate_set(
                extra in 0usize..48,
                seed in 0u64..1_000_000,
                theta_pct in 50u32..96,
            ) {
                let n = MIN_PARALLEL_ITEMS + extra;
                assert_pass_emits_the_definition(n, seed, theta_pct as f64 / 100.0);
            }
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
