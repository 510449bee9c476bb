//! Bound-cascade verification — the join's fifth stage.
//!
//! Stage 5 owns most of the join's wall-clock: tier 0 rejects less than
//! half the candidates, and without sharing every survivor would re-run
//! the full posting-table merge-join and row-max bound independently even
//! though the candidate pass emits candidates sorted by probe record.
//! This engine keeps the reference semantics — byte-identical accepted
//! `(pair, sim)` results, enforced by `tests/verify_equivalence.rs` —
//! while rejecting through a cascade of progressively stronger, still
//! cheap upper bounds (AdaptJoin's filter-power-vs-cost trade). The
//! shared pebble mass the cascade starts from has exactly **two count
//! sources**: per pair, a two-pointer merge of the two records' posting
//! tables ([`Verifier::sim_at_least`]); per probe run, one walk of the
//! corpus-level [`GramPostingsIndex`] that counts every partner of the
//! run at once ([`Verifier::verify_run_at_least`] — PASS-JOIN's
//! shared-verification idea):
//!
//! * **Tier 0 — record-level pre-graph rejection.** Every matched pair
//!   scores `msim ≤ 1` (gram measures and taxonomy similarity are ratios
//!   in `[0, 1]`; rule closeness is validated into `(0, 1]`), an
//!   independent set has at most `min(|S|, |T|)` pairs (each consumes a
//!   token per side), and Eq. 6's denominator is at least
//!   `max(MP(S), MP(T))` (matched + residual segments partition each
//!   side). Hence `USIM ≤ min(|S|, |T|) / max(MP(S), MP(T))` — two cached
//!   integers per record, O(1) per candidate, no segment-pair work at all.
//! * **Tier "mass" — shared pebble mass, before any pair is surfaced.**
//!   Each probe segment `sa` is credited the most it could score against
//!   *any* segment of `T`: 1 when `T` carries its surface key or one of
//!   its synonym rules, otherwise the gram score of `sa` against the
//!   `c = |G(sa) ∩ G(T)|` of its distinct grams that occur anywhere in
//!   `T` (`score(c, |G(sa)|, c)`) or its best taxonomy similarity to a
//!   node of `T`. The credits, summed in segment order over
//!   `max(MP(S), MP(T))`, dominate the row-max bound **as floats**
//!   (`Verifier::mass_bound`), so this tier rejects only pairs tier 1
//!   rejects anyway — but it needs *which records* carry a key, not which
//!   segment pairs share it: no stamp table, no pair list, no `msim`. A
//!   probe record's whole candidate run is counted in one walk of the
//!   corpus-level [`GramPostingsIndex`] ([`Verifier::verify_run_at_least`]);
//!   per-pair calls count over the two records' own posting tables.
//! * **Tier 1 — sparse vertex enumeration.** `msim > 0`
//!   requires a shared gram (J), a shared synonym rule (S), taxonomy nodes
//!   on both sides (T), or surface equality — so positive pairs are
//!   surfaced from per-record posting tables
//!   ([`crate::segment::SegRecord::gram_posts`] and friends) by
//!   merge-joining the two tables — whichever source counted the mass,
//!   only its survivors get here. Enumeration feeds a cascade:
//!   - **surfaced-segment cap** — an independent set uses distinct,
//!     positive-`msim` segments per side, so
//!     `USIM ≤ min(#surfaced S-segs, #surfaced T-segs, |S|, |T|) /
//!     max(MP(S), MP(T))`, checked *before* any `msim` is scored;
//!   - **incremental abort** — while scoring surfaced pairs (s-major
//!     order) the running S-side row-max sum is tracked, and scoring
//!     aborts the moment even crediting every unscored segment with the
//!     maximal weight 1 cannot reach θ.
//! * **Tier 1 bound — row-max.** The classic vertex upper bound
//!   `min(Σ_s best, Σ_t best) / max(MP(S), MP(T))`, float-identical to the
//!   reference decision fast path.
//! * **Tier 1.5 — greedy-matching bound.** A one-pass weight-sorted
//!   greedy matching of the per-side bests (`greedy_matching_bound_with`
//!   in `usim::approx`): provably ≥
//!   exact USIM and provably ≤ the row-max bound, yet needs no conflict
//!   graph, no `GetSim` masks and no min-partition DP — Algorithm 1 only
//!   ever runs on candidates a matching-strength bound could not kill.
//! * **Tier 2 — allocation-free Algorithm 1.** Survivors run the same
//!   SquareImp + claw-improvement search as the reference
//!   ([`crate::usim::approx`]'s `refine_set` *is* the shared
//!   implementation) over reused [`VerifyScratch`] buffers.
//!
//! Every bound only ever *rejects* (never accepts), and every bound is a
//! provable upper bound of exact USIM, so the accept set — and the
//! accepted values, which always come from the shared `refine_set` — are
//! byte-identical to the reference per-candidate path. Per-worker scratch
//! composes with [`crate::parallel::par_fragments_scratch`]: workers never
//! share mutable state, nothing is cached across candidates, and the per-tier
//! rejection counters ([`VerifyTiers`]) are pure per-candidate functions,
//! so counts and results are independent of scheduling.

use crate::config::{GramMeasure, SimConfig};
use crate::index::Transposed;
use crate::knowledge::Knowledge;
use crate::msim::MeasureKind;
use crate::segment::SegRecord;
use crate::usim::approx::{
    greedy_matching_bound_with, refine_set, vertex_upper_bound_with, RefineScratch,
};
use crate::usim::eval::get_sim_with;
use crate::usim::graph::{add_conflict_edges, UsimGraph, VertexPair};
use std::sync::Arc;

/// Per-pair flags of the epoch-stamped surfacing table.
const FLAG_RULE: u8 = 1;
const FLAG_NODE: u8 = 2;

/// Mass-count mark: some segment of the partner has this probe segment's
/// surface key or shares a synonym rule with it — full credit. Gram counts
/// live in the low bits (a segment's distinct grams never reach 2³¹).
const FULL: u32 = 1 << 31;

/// Mass counters (`partners × probe segments`) one worker holds at a
/// time; a run needing more is counted in partner chunks.
#[cfg(not(test))]
const RUN_COUNTERS_MAX: usize = 1 << 20;
/// Shrunk under test, so that a query's few hundred candidates span
/// several chunks and this crate's unit tests cross chunk boundaries.
#[cfg(test)]
const RUN_COUNTERS_MAX: usize = 256;

/// [`RunScratch`] row of a record that is not a partner of the current
/// run chunk.
const NO_ROW: u32 = u32::MAX;

/// Per-tier decision telemetry of the verification cascade. Every
/// decision-mode call ([`Verifier::sim_at_least`] /
/// [`Verifier::verify_run_at_least`]) lands in exactly one bucket, and every bucket is a **pure
/// per-candidate function** of `(S, T, θ, config)` — independent of
/// scheduling, thread count and which count source ran — so their sums
/// over a candidate set are deterministic and CI gates them exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VerifyTiers {
    /// Rejected by the tier-0 record-level bound (or an empty side).
    pub tier0_rejects: u64,
    /// Rejected by the shared-pebble-mass bound, before any segment pair
    /// was surfaced.
    pub mass_rejects: u64,
    /// Rejected during sparse enumeration: the surfaced-segment cap, or
    /// the incremental abort while scoring surfaced pairs.
    pub enum_rejects: u64,
    /// Rejected by the row-max vertex upper bound (tier 1).
    pub rowmax_rejects: u64,
    /// Rejected by the tier-1.5 greedy-matching bound.
    pub greedy_rejects: u64,
    /// Rejected by Algorithm 1's exact decision (tier 2).
    pub tier2_rejects: u64,
    /// Accepted (always via Algorithm 1 — bounds only ever reject).
    pub accepted: u64,
}

impl VerifyTiers {
    /// Fold another tally into this one (worker drain).
    pub fn merge(&mut self, o: &VerifyTiers) {
        self.tier0_rejects += o.tier0_rejects;
        self.mass_rejects += o.mass_rejects;
        self.enum_rejects += o.enum_rejects;
        self.rowmax_rejects += o.rowmax_rejects;
        self.greedy_rejects += o.greedy_rejects;
        self.tier2_rejects += o.tier2_rejects;
        self.accepted += o.accepted;
    }

    /// Total decision-mode verifications (every candidate lands in
    /// exactly one bucket).
    pub fn decisions(&self) -> u64 {
        self.tier0_rejects
            + self.mass_rejects
            + self.enum_rejects
            + self.rowmax_rejects
            + self.greedy_rejects
            + self.tier2_rejects
            + self.accepted
    }
}

/// Every cascade upper bound of one pair, fully evaluated (no early
/// exits) — the soundness-proptest and explain surface. Each bound
/// dominates exact USIM; additionally `tier0 ≥ surfaced`,
/// `mass ≥ rowmax` (as floats, not just up to rounding) and
/// `rowmax ≥ greedy` (the surfaced cap counts *segments*, which can
/// exceed the row-max weight sum when segments overlap, so those two are
/// not mutually ordered).
#[derive(Debug, Clone, Copy)]
pub struct CascadeBounds {
    /// Tier 0: `min(|S|,|T|) / max(MP(S),MP(T))`.
    pub tier0: f64,
    /// Tier "mass": shared pebble mass of the probe side.
    pub mass: f64,
    /// Tier 1a: surfaced-segment cap.
    pub surfaced: f64,
    /// Tier 1: row-max vertex bound.
    pub rowmax: f64,
    /// Tier 1.5: greedy-matching bound.
    pub greedy: f64,
}

/// The gram credits of one probe record, tabulated once per run:
/// `get(sa, c) = gram.score(c, |G(sa)|, c)` for every `c ≤ |G(sa)|` —
/// the very call the per-pair path makes, so the float is the same and a
/// run pays no division per candidate.
#[derive(Debug, Clone, Default)]
struct CreditTable {
    /// Start of each segment's `|G(sa)| + 1` entries in `val`.
    off: Vec<u32>,
    val: Vec<f64>,
}

impl CreditTable {
    fn build(&mut self, s: &SegRecord, gram: GramMeasure) {
        self.off.clear();
        self.val.clear();
        for seg in &s.segments {
            self.off.push(self.val.len() as u32);
            let n = seg.grams.len();
            self.val.extend((0..=n).map(|c| gram.score(c, n, c)));
        }
    }

    #[inline]
    fn get(&self, sa: usize, c: u32) -> f64 {
        self.val[(self.off[sa] + c) as usize]
    }
}

/// The distinct keys of a key-sorted posting list into the empty `out`.
/// Branch-free — every key is written, the cursor moves only past a new
/// one: whether a posting repeats its predecessor's key is a coin flip,
/// and this loop reads every posting of a corpus.
fn distinct_keys_into<K: PartialEq + Copy + Into<u64>>(posts: &Posts<K>, out: &mut Vec<u64>) {
    let Some(&(first, _)) = posts.first() else {
        return;
    };
    out.resize(posts.len(), first.into());
    let mut n = 1usize;
    for w in posts.windows(2) {
        out[n] = w[1].0.into();
        n += usize::from(w[1].0 != w[0].0);
    }
    out.truncate(n);
}

/// Fewest records per gram range of [`GramPostingsIndex::build`] (each
/// range hashes a directory of every gram it sees).
const GRAM_RANGE_RECORDS: usize = 512;

/// Corpus-level transposed posting tables of one prepared collection
/// (surface keys, grams, synonym rules; rule ids widened to u64): which
/// *records* carry a key — the mass bound never asks which segment. An
/// artifact of the corpus alone (no order, no θ), built at most once per
/// [`crate::engine::Prepared`] and shared read-only by every join against
/// and query over it. A run's mass count
/// ([`Verifier::verify_run_at_least`]) walks only the probe record's keys'
/// posting lists — work proportional to the probe's document frequencies,
/// instead of every partner's full posting tables.
#[derive(Debug, Clone, Default)]
pub struct GramPostingsIndex {
    keys: Transposed<u64>,
    grams: Transposed<u64>,
    rules: Transposed<u64>,
}

impl GramPostingsIndex {
    /// Transpose the per-record posting tables of `recs`. Grams are shared
    /// by much of the corpus, so their table — nine tenths of the postings
    /// — is built over record ranges (two per worker) and concatenated; a
    /// surface key or a rule is carried by a record or two, so those
    /// tables (almost a key per posting) are built whole, beside the gram
    /// ranges (`parallel::par_tasks`, longest task first). Every
    /// list is the same whatever the thread count.
    pub fn build(recs: &[Arc<SegRecord>]) -> Self {
        let workers = crate::parallel::available_threads();
        Self::build_in(
            recs,
            (recs.len() / GRAM_RANGE_RECORDS).clamp(1, 2 * workers),
        )
    }

    /// [`GramPostingsIndex::build`] with the gram table cut into `ranges`.
    fn build_in(recs: &[Arc<SegRecord>], ranges: usize) -> Self {
        #[derive(Clone, Copy)]
        enum Task {
            Keys,
            Grams(u32, u32),
            Rules,
        }
        fn table<'r, K: PartialEq + Copy + Into<u64> + 'r>(
            (lo, hi): (u32, u32),
            posts_of: impl Fn(u32) -> &'r Posts<K>,
        ) -> Transposed<u64> {
            Transposed::build_range(lo, hi, &|r, out| distinct_keys_into(posts_of(r), out))
        }
        let n = u32::try_from(recs.len()).expect("record ids exceed u32");
        let of = |r: u32| &recs[r as usize];
        let bound = |p: usize| (recs.len() * p / ranges) as u32;
        let tasks: Vec<Task> = std::iter::once(Task::Keys)
            .chain((0..ranges).map(|p| Task::Grams(bound(p), bound(p + 1))))
            .chain([Task::Rules])
            .collect();
        let mut built = crate::parallel::par_tasks(&tasks, |&task| match task {
            Task::Keys => table((0, n), |r| &of(r).key_posts),
            Task::Grams(lo, hi) => table((lo, hi), |r| &of(r).gram_posts),
            Task::Rules => table((0, n), |r| &of(r).rule_posts),
        })
        .into_iter();
        Self {
            keys: built.next().unwrap_or_default(),
            rules: built.next_back().unwrap_or_default(),
            grams: Transposed::concat(built.collect()),
        }
    }

    /// Total posting entries (diagnostics).
    pub fn len(&self) -> usize {
        self.keys.posting_count() + self.grams.posting_count() + self.rules.posting_count()
    }

    /// True when no record contributed a posting.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Heap footprint in bytes (length-based, deterministic).
    pub fn memory_bytes(&self) -> usize {
        self.keys.memory_bytes() + self.grams.memory_bytes() + self.rules.memory_bytes()
    }
}

/// Per-worker state of run-batched verification: a [`VerifyScratch`] plus
/// the run-level mass counters. Fields are module-private; the run driver
/// ([`Verifier::verify_run_at_least`]) borrows the counter rows and the
/// verify scratch disjointly.
#[derive(Debug, Clone, Default)]
pub struct RunScratch {
    /// The per-candidate verification scratch.
    pub verify: VerifyScratch,
    /// Partner record id → its row in `acc` for the current run chunk
    /// ([`NO_ROW`] for everyone else; reset after every chunk).
    row_of: Vec<u32>,
    /// Mass counters, one row of `s.segments.len()` per partner of the
    /// chunk: shared distinct grams, or [`FULL`].
    acc: Vec<u32>,
}

impl RunScratch {
    /// Mass-count one chunk of a probe run: for every distinct surface
    /// key, gram and rule of `s`, walk the ids of the records carrying it
    /// and bump the counters of those that are partners of `run` —
    /// exactly the counts [`VerifyScratch::count_shared`] makes pair by
    /// pair.
    ///
    /// `n_t_records` is the partner-side record count; partner ids within
    /// one run must be unique (candidate lists are deduplicated pairs).
    /// `keep(b)` filters which partners participate at all — the run
    /// driver passes the tier-0 pre-screen, so partners the record-level
    /// bound already rejects never cost a counter bump.
    fn count_run(
        &mut self,
        s: &SegRecord,
        n_t_records: usize,
        run: &[(u32, u32)],
        idx: &GramPostingsIndex,
        keep: impl Fn(u32) -> bool,
    ) {
        let ns = s.segments.len();
        if self.row_of.len() < n_t_records {
            self.row_of.resize(n_t_records, NO_ROW);
        }
        self.acc.clear();
        self.acc.resize(run.len() * ns, 0);
        for (k, &(_, b)) in run.iter().enumerate() {
            if keep(b) {
                self.row_of[b as usize] = k as u32;
            }
        }
        let Self { row_of, acc, .. } = self;
        walk_postings(&s.key_posts, &idx.keys, row_of, ns, acc, |c| *c |= FULL);
        walk_postings(&s.gram_posts, &idx.grams, row_of, ns, acc, |c| *c += 1);
        walk_postings(&s.rule_posts, &idx.rules, row_of, ns, acc, |c| *c |= FULL);
        for &(_, b) in run {
            row_of[b as usize] = NO_ROW;
        }
    }

    /// Take (and reset) the inner verify scratch's tier tally.
    pub fn take_tally(&mut self) -> VerifyTiers {
        self.verify.take_tally()
    }
}

/// One table's share of [`RunScratch::count_run`]: `hit` fires on the
/// counter of every `(partner row, probe segment)` whose partner carries
/// a key of that segment — once per distinct key.
fn walk_postings<K: PartialEq + Copy + Into<u64>>(
    posts: &[(K, u32)],
    table: &Transposed<u64>,
    row_of: &[u32],
    ns: usize,
    acc: &mut [u32],
    hit: impl Fn(&mut u32),
) {
    for_each_group(posts, |key, sg| {
        for &b in table.get(key.into()).unwrap_or_default() {
            let row = row_of[b as usize];
            if row != NO_ROW {
                for &(_, sa) in sg {
                    hit(&mut acc[row as usize * ns + sa as usize]);
                }
            }
        }
    });
}

/// Reusable per-worker state of the verification engine. Create one per
/// worker (e.g. via `Default` in a [`crate::parallel`] `init`) and feed it
/// to every [`Verifier`] call on that worker.
#[derive(Debug, Clone, Default)]
pub struct VerifyScratch {
    /// Mass counters of the current candidate, one per probe segment
    /// ([`VerifyScratch::count_shared`]).
    shared: Vec<u32>,
    /// Gram credits of the current run's probe record
    /// ([`Verifier::verify_run_at_least`]).
    credit: CreditTable,
    /// Epoch stamps of the dense per-candidate `(s_seg, t_seg)` table.
    stamps: Vec<u32>,
    /// Shared-gram counts per surfaced pair (valid where stamp == epoch).
    counts: Vec<u32>,
    /// Surfacing-source flags per pair (valid where stamp == epoch).
    flags: Vec<u8>,
    /// Per-segment epoch stamps for distinct surfaced-segment counting.
    seen_s: Vec<u32>,
    seen_t: Vec<u32>,
    epoch: u32,
    /// Surfaced pairs of the current candidate (surfacing order).
    pairs: Vec<(u32, u32)>,
    /// Counting-sort buckets and output for the s-major scoring order.
    sort_bucket: Vec<u32>,
    pairs_sorted: Vec<(u32, u32)>,
    /// Vertex list of the current candidate.
    vertices: Vec<VertexPair>,
    /// Reused conflict graph + vertex annotations.
    graph: UsimGraph,
    weights: Vec<f64>,
    /// Upper-bound per-side best-weight buffers.
    best_s: Vec<f64>,
    best_t: Vec<f64>,
    /// Greedy-matching bound sort buffers.
    gm_s: Vec<f64>,
    gm_t: Vec<f64>,
    /// Algorithm 1 local-search buffers (shared with the reference path).
    refine: RefineScratch,
    /// Per-tier decision counters since the last [`VerifyScratch::take_tally`].
    tally: VerifyTiers,
}

impl VerifyScratch {
    /// Take (and reset) the per-tier decision counters accumulated since
    /// the last call. Workers call this from the parallel drain hook.
    pub fn take_tally(&mut self) -> VerifyTiers {
        std::mem::take(&mut self.tally)
    }

    /// The mass count of one pair into `self.shared`: per probe segment,
    /// the number of its distinct grams occurring anywhere in `t`, or
    /// [`FULL`] when `t` carries its surface key or one of its rules.
    fn count_shared(&mut self, s: &SegRecord, t: &SegRecord) {
        let shared = &mut self.shared;
        shared.clear();
        shared.resize(s.segments.len(), 0);
        shared_groups(&s.key_posts, &t.key_posts, |sg, _| {
            sg.iter().for_each(|&(_, sa)| shared[sa as usize] |= FULL);
        });
        shared_groups(&s.gram_posts, &t.gram_posts, |sg, _| {
            sg.iter().for_each(|&(_, sa)| shared[sa as usize] += 1);
        });
        shared_groups(&s.rule_posts, &t.rule_posts, |sg, _| {
            sg.iter().for_each(|&(_, sa)| shared[sa as usize] |= FULL);
        });
    }
}

/// The verification engine: borrow the knowledge context once, verify
/// many candidates through a per-worker [`VerifyScratch`].
///
/// **Single-lineage precondition:** both [`SegRecord`]s of a call must
/// have been segmented against this engine's `Knowledge` (or an ancestor
/// of it in the clone/mutate lineage — interners are append-only, so
/// earlier segmentations stay valid). Mixing segment records from
/// *diverged* clones is undefined: their interners can assign one id to
/// different words, and the engine compares interned keys, not text.
/// The reference path (`usim_approx_seg*`) compares text and has no such
/// precondition.
#[derive(Debug, Clone, Copy)]
pub struct Verifier<'a> {
    kn: &'a Knowledge,
    cfg: &'a SimConfig,
}

impl<'a> Verifier<'a> {
    /// New engine over a knowledge context and similarity configuration.
    pub fn new(kn: &'a Knowledge, cfg: &'a SimConfig) -> Self {
        Self { kn, cfg }
    }

    /// The tier-0 record-level bound `min(|S|,|T|)/max(MP(S),MP(T))`
    /// from the two cached integers. `None` when a side is empty (the
    /// callers' empty-record conventions differ from any ratio). The
    /// single formula behind both the per-candidate tier-0 check and the
    /// run driver's pre-screen — the two must never drift.
    #[inline]
    fn tier0_bound(s: &SegRecord, t: &SegRecord) -> Option<f64> {
        let ns = s.n_tokens();
        let nt = t.n_tokens();
        if ns == 0 || nt == 0 {
            return None;
        }
        Some(ns.min(nt) as f64 / s.min_partition.max(t.min_partition) as f64)
    }

    /// The tier-0 decision of [`Verifier::tier0_bound`] (the run
    /// driver's pre-screen; empty sides are never counted).
    #[inline]
    fn passes_tier0(&self, s: &SegRecord, t: &SegRecord, theta: f64) -> bool {
        Self::tier0_bound(s, t).is_some_and(|ub0| ub0 >= theta - self.cfg.eps)
    }

    /// Tier "mass": `Σ_sa credit(sa, T) / max(MP(S), MP(T))` from the
    /// mass counts `shared` of the pair (one per segment of `s`; see
    /// [`VerifyScratch::count_shared`]), where `credit(sa, T)` is 1 for a
    /// [`FULL`] count and otherwise the larger of
    /// `gram_credit(sa, c) = gram.score(c, |G(sa)|, c)` and `sa`'s best
    /// taxonomy similarity to a node of `t`.
    ///
    /// Sound against the row-max bound at the float level, term by term:
    /// `c ≥ |G(sa) ∩ G(ta)|` for every segment `ta` of `t`, and
    /// `score(i, n, m) ≤ score(c, n, c)` whenever `i ≤ c`, `i ≤ m`, for
    /// every [`GramMeasure`] (the division and square root are monotone
    /// and correctly rounded; `c × pebble_weight(n)` would *not* do —
    /// `1/n` rounds); rule closeness is ≤ 1; the taxonomy term is the
    /// exact value. So `credit(sa, T) ≥ max_ta msim(sa, ta)` as `f64`s,
    /// float addition is monotone in each argument, and the sum runs in
    /// the segment order of `vertex_upper_bound_with`'s `Σ_s best`: the
    /// result is `≥ Σ_s best / denom ≥` the row-max bound, bit for bit.
    ///
    /// The taxonomy term is lazy: node-bearing segments are first
    /// credited 1, and LCAs are computed only when that optimistic sum
    /// does not already fall below `reject_below` — the returned value
    /// then is the optimistic one, which decides the same way (it
    /// dominates the exact sum). With `reject_below = None` the exact
    /// bound is always returned.
    fn mass_bound(
        &self,
        s: &SegRecord,
        t: &SegRecord,
        shared: &[u32],
        gram_credit: impl Fn(usize, u32) -> f64,
        reject_below: Option<f64>,
    ) -> f64 {
        let denom = s.min_partition.max(t.min_partition) as f64;
        let t_nodes = !t.node_segs.is_empty();
        let mut lazy = false;
        let mut mass = 0.0f64;
        for (sa, &c) in shared.iter().enumerate() {
            mass += if c >= FULL {
                1.0
            } else if t_nodes && s.segments[sa].node.is_some() {
                lazy = true;
                1.0
            } else {
                gram_credit(sa, c)
            };
        }
        if !lazy || reject_below.is_some_and(|min| mass / denom < min) {
            return mass / denom;
        }
        let mut mass = 0.0f64;
        for (sa, &c) in shared.iter().enumerate() {
            mass += match s.segments[sa].node {
                _ if c >= FULL => 1.0,
                None => gram_credit(sa, c),
                Some(na) => t
                    .node_segs
                    .iter()
                    .filter_map(|&tb| t.segments[tb as usize].node)
                    .map(|nb| self.kn.taxonomy.sim(na, nb))
                    .fold(gram_credit(sa, c), f64::max),
            };
        }
        mass / denom
    }

    /// [`CreditTable`]'s entry computed on the spot (per-pair calls have
    /// no run to tabulate for).
    #[inline]
    fn gram_credit(&self, s: &SegRecord, sa: usize, c: u32) -> f64 {
        let c = c as usize;
        self.cfg.gram.score(c, s.segments[sa].grams.len(), c)
    }

    /// Decision-oriented verification: a valid lower bound of `USIM(s, t)`
    /// whose `≥ θ − eps` decision — and accepted value — is byte-identical
    /// to [`crate::usim::usim_approx_seg_at_least`].
    pub fn sim_at_least(
        &self,
        s: &SegRecord,
        t: &SegRecord,
        theta: f64,
        scr: &mut VerifyScratch,
    ) -> f64 {
        self.sim_at_least_impl(s, t, theta, None, scr)
    }

    /// Verify one whole probe run through the run-batched mass count: `s`
    /// against every `(a, b)` candidate of `run` (ids into `t_recs`). One
    /// walk of the corpus-level `idx` counts the shared pebble mass of
    /// every partner at once — in partner chunks when the run needs more
    /// than `RUN_COUNTERS_MAX` (2²⁰) counters — and only the candidates the
    /// mass bound cannot reject go on to per-pair enumeration. Accepted
    /// `(a, b, sim)` triples are pushed to `out` in run order —
    /// byte-identical, tallies included, to calling
    /// [`Verifier::sim_at_least`] per candidate.
    #[allow(clippy::too_many_arguments)]
    pub fn verify_run_at_least(
        &self,
        s: &SegRecord,
        t_recs: &[Arc<SegRecord>],
        run: &[(u32, u32)],
        idx: &GramPostingsIndex,
        theta: f64,
        rs: &mut RunScratch,
        out: &mut Vec<(u32, u32, f64)>,
    ) {
        let ns = s.segments.len();
        rs.verify.credit.build(s, self.cfg.gram);
        for part in run.chunks((RUN_COUNTERS_MAX / ns.max(1)).max(1)) {
            // Tier-0 pre-screen while assigning rows: partners the
            // record-level bound rejects never cost a counter bump (their
            // per-candidate call below still lands them in the tier-0
            // bucket without looking at the counts).
            rs.count_run(s, t_recs.len(), part, idx, |b| {
                self.passes_tier0(s, &t_recs[b as usize], theta)
            });
            for (k, &(a, b)) in part.iter().enumerate() {
                let sim = self.sim_at_least_impl(
                    s,
                    &t_recs[b as usize],
                    theta,
                    Some(&rs.acc[k * ns..(k + 1) * ns]),
                    &mut rs.verify,
                );
                if sim >= theta - self.cfg.eps {
                    out.push((a, b, sim));
                }
            }
        }
    }

    /// The decision cascade of one candidate. `counted` carries the
    /// pair's mass counts when a run walk already made them (the scratch
    /// then holds the probe's credit table); otherwise they are counted
    /// here by merging the two records' posting tables.
    fn sim_at_least_impl(
        &self,
        s: &SegRecord,
        t: &SegRecord,
        theta: f64,
        counted: Option<&[u32]>,
        scr: &mut VerifyScratch,
    ) -> f64 {
        // Tier 0: record-level upper bound from two cached integers
        // (None = an empty side; both empty scores 1 by convention).
        let Some(ub0) = Self::tier0_bound(s, t) else {
            if s.n_tokens() == 0 && t.n_tokens() == 0 {
                if 1.0 >= theta - self.cfg.eps {
                    scr.tally.accepted += 1;
                } else {
                    scr.tally.tier0_rejects += 1;
                }
                return 1.0;
            }
            scr.tally.tier0_rejects += 1;
            return 0.0;
        };
        let min_sim = theta - self.cfg.eps;
        if ub0 < min_sim {
            scr.tally.tier0_rejects += 1;
            return ub0.min(theta);
        }
        // Tier "mass": one bound, whichever source counted. A run walk
        // tabulated the probe's gram credits; a per-pair call computes
        // them on the spot — the same `score` call.
        let mass = match counted {
            Some(shared) => {
                self.mass_bound(s, t, shared, |sa, c| scr.credit.get(sa, c), Some(min_sim))
            }
            None => {
                scr.count_shared(s, t);
                let on_the_spot = |sa: usize, c: u32| self.gram_credit(s, sa, c);
                self.mass_bound(s, t, &scr.shared, on_the_spot, Some(min_sim))
            }
        };
        if mass < min_sim {
            scr.tally.mass_rejects += 1;
            return mass.min(theta);
        }
        self.sim_tiered(s, t, Some(theta), scr)
    }

    /// Full-value verification: same value as
    /// [`crate::usim::usim_approx_seg`] (no early stop), over the sparse
    /// enumeration and reused buffers. Used by top-k re-scoring.
    pub fn sim(&self, s: &SegRecord, t: &SegRecord, scr: &mut VerifyScratch) -> f64 {
        self.sim_tiered(s, t, None, scr)
    }

    /// Every cascade bound of one pair, fully evaluated with no early
    /// exits — the surface the soundness proptests (and rejection
    /// explanations) use. Does not touch the decision counters.
    pub fn upper_bounds(
        &self,
        s: &SegRecord,
        t: &SegRecord,
        scr: &mut VerifyScratch,
    ) -> CascadeBounds {
        let ns = s.n_tokens();
        let nt = t.n_tokens();
        if ns == 0 || nt == 0 {
            let v = if ns == 0 && nt == 0 { 1.0 } else { 0.0 };
            return CascadeBounds {
                tier0: v,
                mass: v,
                surfaced: v,
                rowmax: v,
                greedy: v,
            };
        }
        let denom = s.min_partition.max(t.min_partition);
        scr.count_shared(s, t);
        let on_the_spot = |sa: usize, c: u32| self.gram_credit(s, sa, c);
        let mass = self.mass_bound(s, t, &scr.shared, on_the_spot, None);
        let (cnt_s, cnt_t) = self.surface_pairs(s, t, scr);
        let aborted = self.score_pairs(s, t, denom, None, scr);
        debug_assert!(aborted.is_none(), "no abort without a target");
        let tier0 = ns.min(nt) as f64 / denom as f64;
        let surfaced = (cnt_s as usize).min(cnt_t as usize).min(ns).min(nt) as f64 / denom as f64;
        let rowmax = vertex_upper_bound_with(s, t, &scr.vertices, &mut scr.best_s, &mut scr.best_t);
        let greedy = greedy_matching_bound_with(
            ns,
            nt,
            denom,
            &scr.best_s,
            &scr.best_t,
            &mut scr.gm_s,
            &mut scr.gm_t,
        );
        CascadeBounds {
            tier0,
            mass,
            surfaced,
            rowmax,
            greedy,
        }
    }

    /// Tiers 1–2 (the caller has already applied tier 0 and the mass
    /// bound when a target exists). Each cascade stage only ever rejects
    /// with a provable upper bound below `θ − eps`; acceptance always
    /// comes from the shared `refine_set`, so accepted values mirror the
    /// reference bit for bit.
    fn sim_tiered(
        &self,
        s: &SegRecord,
        t: &SegRecord,
        target: Option<f64>,
        scr: &mut VerifyScratch,
    ) -> f64 {
        let (cnt_s, cnt_t) = self.surface_pairs(s, t, scr);
        let denom = s.min_partition.max(t.min_partition);
        if let Some(th) = target {
            // Surfaced-segment cap: an independent set needs distinct
            // surfaced segments per side, each weighing ≤ 1 — checked
            // before a single `msim` is scored.
            let cap_n = (cnt_s as usize)
                .min(cnt_t as usize)
                .min(s.n_tokens())
                .min(t.n_tokens());
            let cap = cap_n as f64 / denom as f64;
            if cap < th - self.cfg.eps {
                scr.tally.enum_rejects += 1;
                return cap.min(th);
            }
        }
        if let Some(rejected) = self.score_pairs(s, t, denom, target, scr) {
            scr.tally.enum_rejects += 1;
            return rejected;
        }
        if let Some(th) = target {
            // Pre-graph rejection on the vertex upper bound, exactly as
            // the reference decision fast path (same formula, same eps
            // slack).
            let ub = vertex_upper_bound_with(s, t, &scr.vertices, &mut scr.best_s, &mut scr.best_t);
            if ub < th - self.cfg.eps {
                scr.tally.rowmax_rejects += 1;
                return ub.min(th);
            }
            let gm = greedy_matching_bound_with(
                s.n_tokens(),
                t.n_tokens(),
                denom,
                &scr.best_s,
                &scr.best_t,
                &mut scr.gm_s,
                &mut scr.gm_t,
            );
            if gm < th - self.cfg.eps {
                scr.tally.greedy_rejects += 1;
                return gm.min(th);
            }
        }
        // Tier 2: rebuild the conflict graph in reused buffers. The
        // vertex list is put in dense enumeration order (s-major,
        // t-minor) only now — bounds are order-independent, and sorting
        // just the cascade's rare survivors is far cheaper than sorting
        // every candidate's pair list. Edge insertion replicates
        // `finish_graph`'s loop verbatim so adjacency order (which steers
        // tie-breaks in the local search) is identical.
        scr.vertices.sort_unstable_by_key(|v| (v.s_seg, v.t_seg));
        std::mem::swap(&mut scr.graph.vertices, &mut scr.vertices);
        let UsimGraph { graph, vertices } = &mut scr.graph;
        scr.weights.clear();
        scr.weights.extend(vertices.iter().map(|v| v.weight));
        graph.reset_with_weights(&scr.weights);
        add_conflict_edges(graph, vertices, s, t);
        let sim = if graph.is_empty() {
            get_sim_with(s, t, &scr.graph, &[], &mut scr.refine.eval)
        } else {
            refine_set(self.kn, self.cfg, s, t, &scr.graph, target, &mut scr.refine)
        };
        if let Some(th) = target {
            if sim >= th - self.cfg.eps {
                scr.tally.accepted += 1;
            } else {
                scr.tally.tier2_rejects += 1;
            }
        }
        sim
    }

    /// Tier 1, phase one: surface every segment pair that can have
    /// `msim > 0` into the epoch-stamped tables, by merge-joining the two
    /// records' posting tables. Returns the distinct surfaced segment
    /// counts per side. Pairs are left in surfacing order in `scr.pairs`;
    /// [`Verifier::score_pairs`] groups them by s-segment itself.
    fn surface_pairs(&self, s: &SegRecord, t: &SegRecord, scr: &mut VerifyScratch) -> (u32, u32) {
        let ns_segs = s.segments.len();
        let nt_segs = t.segments.len();
        let slots = ns_segs * nt_segs;
        let VerifyScratch {
            stamps,
            counts,
            flags,
            seen_s,
            seen_t,
            epoch,
            pairs,
            ..
        } = scr;
        if stamps.len() < slots {
            stamps.resize(slots, 0);
            counts.resize(slots, 0);
            flags.resize(slots, 0);
        }
        if seen_s.len() < ns_segs {
            seen_s.resize(ns_segs, 0);
        }
        if seen_t.len() < nt_segs {
            seen_t.resize(nt_segs, 0);
        }
        *epoch = epoch.wrapping_add(1);
        if *epoch == 0 {
            stamps.fill(0);
            seen_s.fill(0);
            seen_t.fill(0);
            *epoch = 1;
        }
        let epoch = *epoch;
        pairs.clear();
        {
            let mut touch = |sa: u32, ta: u32, dcount: u32, flag: u8| {
                let slot = sa as usize * nt_segs + ta as usize;
                if stamps[slot] != epoch {
                    stamps[slot] = epoch;
                    counts[slot] = 0;
                    flags[slot] = 0;
                    pairs.push((sa, ta));
                }
                counts[slot] += dcount;
                flags[slot] |= flag;
            };
            // Surface identity (`msim`'s text-equality rule, every
            // config).
            shared_groups(&s.key_posts, &t.key_posts, |sg, tg| {
                cross(sg, tg, |sa, ta| touch(sa, ta, 0, 0));
            });
            // J: a positive gram score needs a shared distinct gram;
            // count them (postings are empty when J is disabled).
            shared_groups(&s.gram_posts, &t.gram_posts, |sg, tg| {
                cross(sg, tg, |sa, ta| touch(sa, ta, 1, 0));
            });
            // S: a positive synonym score needs a rule with both surfaces
            // as sides — that rule is in both segments' rule lists.
            shared_groups(&s.rule_posts, &t.rule_posts, |sg, tg| {
                cross(sg, tg, |sa, ta| touch(sa, ta, 0, FLAG_RULE));
            });
            // T: a positive taxonomy score needs nodes on both sides.
            for &sa in &s.node_segs {
                for &ta in &t.node_segs {
                    touch(sa, ta, 0, FLAG_NODE);
                }
            }
        }
        // Census over the deduplicated pairs (one pass, not one check
        // per raw incidence): distinct surfaced segments per side for
        // the surfaced-segment cap. Pairs stay in surfacing order — the
        // scoring pass groups them by s-segment with a counting sort,
        // and only tier-2 survivors need the full dense order.
        let mut cnt_s = 0u32;
        let mut cnt_t = 0u32;
        for &(sa, ta) in pairs.iter() {
            if seen_s[sa as usize] != epoch {
                seen_s[sa as usize] = epoch;
                cnt_s += 1;
            }
            if seen_t[ta as usize] != epoch {
                seen_t[ta as usize] = epoch;
                cnt_t += 1;
            }
        }
        (cnt_s, cnt_t)
    }

    /// Tier 1, phase two: score the surfaced pairs into the vertex list —
    /// exactly the vertex list of [`crate::usim::build_vertices`] (same
    /// order, same weights, same winning measures).
    ///
    /// The gram merge **counted** shared distinct grams per pair as it
    /// surfaced, so the J score is `score(count, |A|, |B|)` with no
    /// per-pair re-intersection — the same arguments `msim` passes, hence
    /// the same float. Synonym and taxonomy lookups fire only for pairs
    /// surfaced by the rule/node joins (for any other pair those measures
    /// score 0 and cannot beat the running best, mirroring `msim`'s
    /// strict-`>` J-then-S-then-T order).
    ///
    /// When `abort_target` is set, the running S-side row-max sum is
    /// maintained as s-segment groups complete; scoring aborts — and the
    /// rejected bound is returned — as soon as crediting every unscored
    /// group with the maximal weight 1 cannot reach the target (the final
    /// row-max bound can only be smaller). Returns `None` when scoring
    /// ran to completion.
    fn score_pairs(
        &self,
        s: &SegRecord,
        t: &SegRecord,
        denom: u32,
        abort_target: Option<f64>,
        scr: &mut VerifyScratch,
    ) -> Option<f64> {
        let ns_segs = s.segments.len();
        let nt_segs = t.segments.len();
        let VerifyScratch {
            counts,
            flags,
            pairs,
            sort_bucket,
            pairs_sorted,
            vertices,
            ..
        } = scr;
        vertices.clear();
        // Group the surfaced pairs by s-segment with a stable counting
        // sort (cheaper than a comparison sort, and the incremental
        // abort below only needs group-contiguity — group maxima are
        // order-independent, so the tier split is a pure function of the
        // pair *set*).
        sort_bucket.clear();
        sort_bucket.resize(ns_segs + 1, 0);
        let mut groups_left = 0u32;
        for &(sa, _) in pairs.iter() {
            if sort_bucket[sa as usize + 1] == 0 {
                groups_left += 1;
            }
            sort_bucket[sa as usize + 1] += 1;
        }
        for i in 1..sort_bucket.len() {
            sort_bucket[i] += sort_bucket[i - 1];
        }
        pairs_sorted.clear();
        pairs_sorted.resize(pairs.len(), (0, 0));
        for &(sa, ta) in pairs.iter() {
            let c = &mut sort_bucket[sa as usize];
            pairs_sorted[*c as usize] = (sa, ta);
            *c += 1;
        }
        let mut done_sum = 0.0f64;
        let mut group_best = 0.0f64;
        let mut cur_sa = u32::MAX;
        for &(sa, ta) in pairs_sorted.iter() {
            if sa != cur_sa {
                if cur_sa != u32::MAX {
                    done_sum += group_best;
                    groups_left -= 1;
                    if let Some(th) = abort_target {
                        // Crediting every unscored group with weight 1:
                        // the final Σ_s best can only be smaller.
                        let potential = (done_sum + groups_left as f64) / denom as f64;
                        if potential < th - self.cfg.eps {
                            return Some(potential.min(th));
                        }
                    }
                }
                cur_sa = sa;
                group_best = 0.0;
            }
            let a = &s.segments[sa as usize];
            let b = &t.segments[ta as usize];
            let slot = sa as usize * nt_segs + ta as usize;
            let (w, kind) = if a.key == b.key {
                // msim's identity rule (any measure subset).
                (1.0, MeasureKind::Jaccard)
            } else {
                // J from the precomputed shared-gram count; synonym and
                // taxonomy lookups only where the rule / node joins
                // surfaced the pair.
                let mut best = (0.0f64, MeasureKind::Jaccard);
                let inter = counts[slot] as usize;
                if inter > 0 {
                    let j = self.cfg.gram.score(inter, a.grams.len(), b.grams.len());
                    if j > best.0 {
                        best = (j, MeasureKind::Jaccard);
                    }
                }
                if flags[slot] & FLAG_RULE != 0 {
                    if let (Some(pa), Some(pb)) = (a.phrase, b.phrase) {
                        let sv = self.kn.synonyms.sim(pa, pb);
                        if sv > best.0 {
                            best = (sv, MeasureKind::Synonym);
                        }
                    }
                }
                if flags[slot] & FLAG_NODE != 0 {
                    if let (Some(na), Some(nb)) = (a.node, b.node) {
                        let tv = self.kn.taxonomy.sim(na, nb);
                        if tv > best.0 {
                            best = (tv, MeasureKind::Taxonomy);
                        }
                    }
                }
                best
            };
            debug_assert_eq!(
                {
                    let m = crate::msim::msim_explained(self.kn, self.cfg, a, b);
                    (m.0.to_bits(), m.1)
                },
                (w.to_bits(), kind),
                "sparse msim diverged from reference for {:?} / {:?}",
                a.text,
                b.text
            );
            if w > group_best {
                group_best = w;
            }
            if w > 0.0 {
                vertices.push(VertexPair {
                    s_seg: sa as usize,
                    t_seg: ta as usize,
                    weight: w,
                    kind,
                });
            }
        }
        None
    }

    /// Surface + score with no target: the full vertex list (tests).
    #[cfg(test)]
    fn enumerate_vertices(&self, s: &SegRecord, t: &SegRecord, scr: &mut VerifyScratch) {
        let denom = s.min_partition.max(t.min_partition).max(1);
        self.surface_pairs(s, t, scr);
        let aborted = self.score_pairs(s, t, denom, None, scr);
        debug_assert!(aborted.is_none());
        scr.vertices.sort_unstable_by_key(|v| (v.s_seg, v.t_seg));
    }
}

/// Iterate the key-groups of a sorted posting list: `f(key, group)` fires
/// once per distinct key with the contiguous entries carrying it (the
/// run-level posting walk).
fn for_each_group<K: PartialEq + Copy>(posts: &[(K, u32)], mut f: impl FnMut(K, &[(K, u32)])) {
    let mut i = 0usize;
    while i < posts.len() {
        let (k, start) = (posts[i].0, i);
        while i < posts.len() && posts[i].0 == k {
            i += 1;
        }
        f(k, &posts[start..i]);
    }
}

/// A sorted posting list.
type Posts<K> = [(K, u32)];

/// The join of the probe record's postings `sp` with a partner's `tp` by
/// two-pointer merge: `f(s_group, t_group)` fires once per key both carry,
/// with each side's entries for it. The mass count reads the probe group
/// only; surfacing crosses the two.
fn shared_groups<K: Ord + Copy>(
    sp: &Posts<K>,
    tp: &Posts<K>,
    mut f: impl FnMut(&Posts<K>, &Posts<K>),
) {
    let (mut i, mut j) = (0usize, 0usize);
    while i < sp.len() && j < tp.len() {
        match sp[i].0.cmp(&tp[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                let k = sp[i].0;
                let (i0, j0) = (i, j);
                while i < sp.len() && sp[i].0 == k {
                    i += 1;
                }
                while j < tp.len() && tp[j].0 == k {
                    j += 1;
                }
                f(&sp[i0..i], &tp[j0..j]);
            }
        }
    }
}

/// Every `(s_seg, t_seg)` pair of two posting groups sharing a key.
fn cross<K>(sg: &Posts<K>, tg: &Posts<K>, mut emit: impl FnMut(u32, u32)) {
    for &(_, sa) in sg {
        for &(_, ta) in tg {
            emit(sa, ta);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{GramMeasure, MeasureSet};
    use crate::knowledge::{Knowledge, KnowledgeBuilder};
    use crate::segment::segment_record;
    use crate::usim::approx::{usim_approx_seg, usim_approx_seg_at_least};
    use crate::usim::exact::usim_exact_seg;
    use crate::usim::graph::build_vertices;

    fn kn_figure1() -> Knowledge {
        let mut b = KnowledgeBuilder::new();
        b.synonym("coffee shop", "cafe", 1.0);
        b.synonym("cake", "gateau", 0.7);
        b.taxonomy_path(&["wikipedia", "food", "coffee", "coffee drinks", "latte"]);
        b.taxonomy_path(&["wikipedia", "food", "coffee", "coffee drinks", "espresso"]);
        b.taxonomy_path(&["wikipedia", "food", "cake", "apple cake"]);
        b.build()
    }

    fn corpus_texts() -> Vec<&'static str> {
        vec![
            "coffee shop latte helsingki",
            "espresso cafe helsinki",
            "latte corner cafe",
            "apple cake and tea",
            "gateau du jour",
            "totally unrelated words",
            "coffee coffee coffee",
            "cake",
            "",
            "espresso",
        ]
    }

    /// The sparse enumeration must reproduce the dense vertex list
    /// byte for byte: same order, same weights, same winning measures.
    #[test]
    fn sparse_matches_dense_vertices() {
        for measures in [MeasureSet::TJS, MeasureSet::J, MeasureSet::S, MeasureSet::T] {
            let mut kn = kn_figure1();
            let cfg = SimConfig::default().with_measures(measures);
            let ids: Vec<_> = corpus_texts().iter().map(|t| kn.add_record(t)).collect();
            let segs: Vec<_> = ids
                .iter()
                .map(|&id| segment_record(&kn, &cfg, &kn.record(id).tokens))
                .collect();
            let v = Verifier::new(&kn, &cfg);
            let mut scr = VerifyScratch::default();
            for a in &segs {
                for b in &segs {
                    let dense = build_vertices(&kn, &cfg, a, b);
                    v.enumerate_vertices(a, b, &mut scr);
                    assert_eq!(dense.len(), scr.vertices.len(), "vertex count");
                    for (x, y) in dense.iter().zip(&scr.vertices) {
                        assert_eq!((x.s_seg, x.t_seg), (y.s_seg, y.t_seg));
                        assert_eq!(x.weight.to_bits(), y.weight.to_bits());
                        assert_eq!(x.kind, y.kind);
                    }
                }
            }
        }
    }

    /// No cascade bound ever rejects a pair the reference accepts, and
    /// accepted values are bitwise equal to the reference.
    #[test]
    fn tiered_decisions_match_reference() {
        let mut kn = kn_figure1();
        let cfg = SimConfig::default();
        let ids: Vec<_> = corpus_texts().iter().map(|t| kn.add_record(t)).collect();
        let segs: Vec<_> = ids
            .iter()
            .map(|&id| segment_record(&kn, &cfg, &kn.record(id).tokens))
            .collect();
        let v = Verifier::new(&kn, &cfg);
        let mut scr = VerifyScratch::default();
        for theta in [0.2, 0.5, 0.7, 0.9, 1.0] {
            for a in &segs {
                for b in &segs {
                    let reference = usim_approx_seg_at_least(&kn, &cfg, a, b, theta);
                    let tiered = v.sim_at_least(a, b, theta, &mut scr);
                    let ref_accept = reference >= theta - cfg.eps;
                    assert_eq!(
                        ref_accept,
                        tiered >= theta - cfg.eps,
                        "decision at θ={theta}"
                    );
                    if ref_accept {
                        assert_eq!(
                            reference.to_bits(),
                            tiered.to_bits(),
                            "accepted value at θ={theta}"
                        );
                    }
                }
            }
        }
    }

    /// The full-value path equals `usim_approx_seg` bitwise (top-k
    /// re-scoring relies on this).
    #[test]
    fn full_value_matches_reference() {
        let mut kn = kn_figure1();
        let cfg = SimConfig::default();
        let ids: Vec<_> = corpus_texts().iter().map(|t| kn.add_record(t)).collect();
        let segs: Vec<_> = ids
            .iter()
            .map(|&id| segment_record(&kn, &cfg, &kn.record(id).tokens))
            .collect();
        let v = Verifier::new(&kn, &cfg);
        let mut scr = VerifyScratch::default();
        for a in &segs {
            for b in &segs {
                let reference = usim_approx_seg(&kn, &cfg, a, b);
                let tiered = v.sim(a, b, &mut scr);
                assert_eq!(reference.to_bits(), tiered.to_bits());
            }
        }
    }

    /// Every cascade bound dominates exact USIM, with the provable
    /// orderings `tier0 ≥ surfaced`, `rowmax ≥ greedy` and — **as
    /// floats**, no tolerance — `mass ≥ rowmax`, under every measure
    /// subset (J off: the key credit alone carries identity; S off; T
    /// off) and every gram measure.
    #[test]
    fn cascade_bounds_are_sound_and_ordered() {
        for measures in MeasureSet::all_combinations() {
            for gram in GramMeasure::ALL {
                let mut kn = kn_figure1();
                let cfg = SimConfig::default().with_measures(measures).with_gram(gram);
                let ids: Vec<_> = corpus_texts().iter().map(|t| kn.add_record(t)).collect();
                let segs: Vec<_> = ids
                    .iter()
                    .map(|&id| segment_record(&kn, &cfg, &kn.record(id).tokens))
                    .collect();
                let v = Verifier::new(&kn, &cfg);
                let mut scr = VerifyScratch::default();
                for a in &segs {
                    for b in &segs {
                        let ctx = format!("{measures:?} {gram:?}");
                        let bounds = v.upper_bounds(a, b, &mut scr);
                        let approx = usim_approx_seg(&kn, &cfg, a, b);
                        assert!(bounds.tier0 >= bounds.surfaced - 1e-12, "tier0 < surfaced");
                        assert!(bounds.rowmax >= bounds.greedy - 1e-12, "rowmax < greedy");
                        assert!(
                            bounds.mass >= bounds.rowmax,
                            "{ctx}: mass {} < rowmax {}",
                            bounds.mass,
                            bounds.rowmax
                        );
                        for (name, ub) in [
                            ("tier0", bounds.tier0),
                            ("mass", bounds.mass),
                            ("surfaced", bounds.surfaced),
                            ("rowmax", bounds.rowmax),
                            ("greedy", bounds.greedy),
                        ] {
                            assert!(ub >= approx - 1e-12, "{ctx}: {name} {ub} < approx {approx}");
                            if let Some(exact) = usim_exact_seg(&kn, &cfg, a, b) {
                                assert!(ub >= exact - 1e-9, "{ctx}: {name} {ub} < exact {exact}");
                            }
                        }
                    }
                }
            }
        }
    }

    /// Every decision lands in exactly one tally bucket.
    #[test]
    fn tally_buckets_partition_decisions() {
        let mut kn = kn_figure1();
        let cfg = SimConfig::default();
        let ids: Vec<_> = corpus_texts().iter().map(|t| kn.add_record(t)).collect();
        let segs: Vec<_> = ids
            .iter()
            .map(|&id| segment_record(&kn, &cfg, &kn.record(id).tokens))
            .collect();
        let v = Verifier::new(&kn, &cfg);
        let mut scr = VerifyScratch::default();
        for a in &segs {
            for b in &segs {
                v.sim_at_least(a, b, 0.7, &mut scr);
            }
        }
        let tally = scr.take_tally();
        assert_eq!(tally.decisions(), (segs.len() * segs.len()) as u64);
        assert!(tally.accepted > 0 && tally.tier0_rejects > 0 && tally.mass_rejects > 0);
        // Taking the tally resets it.
        assert_eq!(scr.take_tally().decisions(), 0);
    }

    /// The run-batched driver (corpus-level posting index + run-level
    /// mass count + tier-0 pre-screen) accepts exactly the pairs of
    /// per-pair `sim_at_least` calls with identical bits, and both count
    /// sources — the run walk and the per-pair merge — land every
    /// candidate in the same one of the seven buckets.
    #[test]
    fn run_batched_equals_per_pair() {
        let mut kn = kn_figure1();
        let cfg = SimConfig::default();
        let ids: Vec<_> = corpus_texts().iter().map(|t| kn.add_record(t)).collect();
        let segs: Vec<_> = ids
            .iter()
            .map(|&id| Arc::new(segment_record(&kn, &cfg, &kn.record(id).tokens)))
            .collect();
        let idx = GramPostingsIndex::build(&segs);
        assert!(!idx.is_empty());
        let v = Verifier::new(&kn, &cfg);
        for theta in [0.3, 0.6, 0.9] {
            let mut rs = RunScratch::default();
            let mut per_pair = VerifyScratch::default();
            for (a, sa) in segs.iter().enumerate() {
                // One run: record a against every record (including
                // empty/degenerate partners).
                let run: Vec<(u32, u32)> = (0..segs.len() as u32).map(|b| (a as u32, b)).collect();
                let mut batched = Vec::new();
                v.verify_run_at_least(sa, &segs, &run, &idx, theta, &mut rs, &mut batched);
                let mut expect = Vec::new();
                for &(x, b) in &run {
                    let sim = v.sim_at_least(sa, &segs[b as usize], theta, &mut per_pair);
                    if sim >= theta - cfg.eps {
                        expect.push((x, b, sim));
                    }
                }
                assert_eq!(batched.len(), expect.len(), "θ={theta} a={a}");
                for (x, y) in batched.iter().zip(&expect) {
                    assert_eq!((x.0, x.1, x.2.to_bits()), (y.0, y.1, y.2.to_bits()));
                }
            }
            let bt = rs.take_tally();
            let pt = per_pair.take_tally();
            assert_eq!(
                bt.decisions(),
                (segs.len() * segs.len()) as u64,
                "θ={theta}"
            );
            assert_eq!(bt, pt, "θ={theta}: batched vs per-pair");
        }
    }

    /// `n` records of 1–6 words drawn (deterministically in `salt`) from
    /// a pool that holds the knowledge's rule sides and entities, one empty
    /// record among them.
    fn pooled_lines(n: usize, salt: u32) -> Vec<String> {
        const POOL: [&str; 14] = [
            "coffee",
            "shop",
            "cafe",
            "latte",
            "espresso",
            "helsinki",
            "helsingki",
            "cake",
            "gateau",
            "apple",
            "tea",
            "corner",
            "north",
            "zanzibar",
        ];
        let mut x = 0x9e37_79b9_u32 ^ salt;
        let mut next = || {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            (x >> 16) as usize
        };
        (0..n)
            .map(|i| {
                let words = if i == n / 2 { 0 } else { 1 + next() % 6 };
                let line: Vec<&str> = (0..words).map(|_| POOL[next() % POOL.len()]).collect();
                line.join(" ")
            })
            .collect()
    }

    fn segment_lines(kn: &mut Knowledge, cfg: &SimConfig, lines: &[String]) -> Vec<Arc<SegRecord>> {
        let c = kn.corpus_from_lines(lines.iter().map(String::as_str));
        c.iter()
            .map(|r| Arc::new(segment_record(kn, cfg, &r.tokens)))
            .collect()
    }

    /// The three tables of `idx` against the sort-based builder.
    fn assert_index_equals_sorted(idx: &GramPostingsIndex, recs: &[Arc<SegRecord>], ctx: &str) {
        use crate::index::tests::transpose_by_sorting;
        let of = |r: u32| &recs[r as usize];
        let n = recs.len();
        let keys = transpose_by_sorting(n, |r, out| distinct_keys_into(&of(r).key_posts, out));
        let grams = transpose_by_sorting(n, |r, out| distinct_keys_into(&of(r).gram_posts, out));
        let rules = transpose_by_sorting(n, |r, out| distinct_keys_into(&of(r).rule_posts, out));
        assert_eq!(idx.keys.sorted_lists(), keys, "{ctx}: surface keys");
        assert_eq!(idx.grams.sorted_lists(), grams, "{ctx}: grams");
        assert_eq!(idx.rules.sorted_lists(), rules, "{ctx}: rules");
        assert_eq!(
            idx.len(),
            keys.iter()
                .chain(&grams)
                .chain(&rules)
                .map(|(_, l)| l.len())
                .sum::<usize>()
        );
    }

    /// The range-parallel builder equals the sort-based one it replaced —
    /// same key sets, same ascending id lists — however many ranges the
    /// gram table is cut into (one, as many as three workers would get,
    /// more than there are records), with every measure subset (J off: no
    /// record has a gram), on an empty corpus, and through the public
    /// entry point on this host's thread count.
    #[test]
    fn transposed_index_equals_the_sort_based_builder() {
        for measures in [MeasureSet::TJS, MeasureSet::J, MeasureSet::S] {
            let cfg = SimConfig::default().with_measures(measures);
            let mut kn = kn_figure1();
            let recs = segment_lines(&mut kn, &cfg, &pooled_lines(700, 7));
            assert!(recs.iter().any(|r| r.tokens.is_empty()));
            assert_eq!(
                recs.iter().all(|r| r.gram_posts.is_empty()),
                !measures.contains(MeasureSet::J)
            );
            let whole = GramPostingsIndex::build_in(&recs, 1);
            assert_index_equals_sorted(&whole, &recs, &format!("{measures:?} whole"));
            for ranges in [2, 6, 701] {
                let cut = GramPostingsIndex::build_in(&recs, ranges);
                assert_index_equals_sorted(&cut, &recs, &format!("{measures:?} {ranges} ranges"));
                assert_eq!(cut.memory_bytes(), whole.memory_bytes());
            }
            assert_index_equals_sorted(&GramPostingsIndex::build(&recs), &recs, "build");
        }
        let none = GramPostingsIndex::build(&[]);
        assert!(none.is_empty());
        assert_index_equals_sorted(&none, &[], "empty corpus");
    }

    /// `distinct_keys_into` is `dedup` on the key column.
    #[test]
    fn distinct_keys_are_the_deduplicated_key_column() {
        let mut out = Vec::new();
        for posts in [
            vec![],
            vec![(7u64, 0u32)],
            vec![(1, 0), (1, 1), (1, 2)],
            vec![(1, 0), (2, 0), (2, 3), (5, 1), (9, 0), (9, 9)],
        ] {
            out.clear();
            distinct_keys_into(&posts, &mut out);
            let mut want: Vec<u64> = posts.iter().map(|p| p.0).collect();
            want.dedup();
            assert_eq!(out, want);
        }
    }

    /// Tier 0's bound dominates the reference similarity (soundness).
    #[test]
    fn tier0_bound_is_sound() {
        let mut kn = kn_figure1();
        let cfg = SimConfig::default();
        let ids: Vec<_> = corpus_texts().iter().map(|t| kn.add_record(t)).collect();
        let segs: Vec<_> = ids
            .iter()
            .map(|&id| segment_record(&kn, &cfg, &kn.record(id).tokens))
            .collect();
        for a in &segs {
            for b in &segs {
                if a.n_tokens() == 0 || b.n_tokens() == 0 {
                    continue;
                }
                let ub0 = a.n_tokens().min(b.n_tokens()) as f64
                    / a.min_partition.max(b.min_partition) as f64;
                let sim = usim_approx_seg(&kn, &cfg, a, b);
                assert!(ub0 >= sim - 1e-12, "tier0 {ub0} < sim {sim}");
            }
        }
    }
}
