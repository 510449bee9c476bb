//! Probe-grouped bound-cascade verification — the join's fifth stage.
//!
//! Stage 5 owns most of the join's wall-clock: tier 0 rejects less than
//! half the candidates, and without sharing every survivor would re-run
//! the full posting-table merge-join and row-max bound independently even
//! though the candidate pass emits candidates sorted by probe record.
//! This engine keeps the reference semantics — byte-identical accepted
//! `(pair, sim)` results, enforced by `tests/verify_equivalence.rs` —
//! while amortizing per-record work across each probe record's whole
//! candidate run (PASS-JOIN's shared-verification idea) and rejecting
//! through a cascade of progressively stronger, still cheap upper bounds
//! (AdaptJoin's filter-power-vs-cost trade):
//!
//! * **Tier 0 — record-level pre-graph rejection.** Every matched pair
//!   scores `msim ≤ 1` (gram measures and taxonomy similarity are ratios
//!   in `[0, 1]`; rule closeness is validated into `(0, 1]`), an
//!   independent set has at most `min(|S|, |T|)` pairs (each consumes a
//!   token per side), and Eq. 6's denominator is at least
//!   `max(MP(S), MP(T))` (matched + residual segments partition each
//!   side). Hence `USIM ≤ min(|S|, |T|) / max(MP(S), MP(T))` — two cached
//!   integers per record, O(1) per candidate, no segment-pair work at all.
//! * **Tier 1 — sparse vertex enumeration, probe-grouped.** `msim > 0`
//!   requires a shared gram (J), a shared synonym rule (S), taxonomy nodes
//!   on both sides (T), or surface equality — so positive pairs are
//!   surfaced from per-record posting tables
//!   ([`crate::segment::SegRecord::gram_posts`] and friends). Per-pair
//!   calls merge-join the two tables; the probe-grouped path
//!   ([`Verifier::begin_probe`] + [`Verifier::probed_sim_at_least`])
//!   instead indexes the probe side's tables into hash maps **once per
//!   run** and streams every partner through them, so a partner pays for
//!   its own postings only. Enumeration feeds a cascade:
//!   - **surfaced-segment cap** — an independent set uses distinct,
//!     positive-`msim` segments per side, so
//!     `USIM ≤ min(#surfaced S-segs, #surfaced T-segs, |S|, |T|) /
//!     max(MP(S), MP(T))`, checked *before* any `msim` is scored;
//!   - **incremental abort** — while scoring surfaced pairs (s-major
//!     order) the running S-side row-max sum is tracked, and scoring
//!     aborts the moment even crediting every unscored segment with the
//!     maximal weight 1 cannot reach θ;
//!   - the `msim` of each surfaced pair is memoised across candidates in
//!     a direct-mapped cache-resident table keyed by the interned surface
//!     identity pair ([`crate::segment::Segment::key`]).
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
//! byte-identical to the reference per-candidate path. Per-worker scratch composes with
//! [`crate::parallel::par_filter_map_runs_scratch`]: workers never share
//! mutable state, memo contents affect only speed, and the per-tier
//! rejection counters ([`VerifyTiers`]) are pure per-candidate functions,
//! so counts and results are independent of scheduling.

use crate::config::{GramMeasure, MeasureSet, SimConfig};
use crate::knowledge::Knowledge;
use crate::msim::MeasureKind;
use crate::segment::SegRecord;
use crate::usim::approx::{
    greedy_matching_bound_with, refine_set, vertex_upper_bound_with, RefineScratch,
};
use crate::usim::eval::get_sim_with;
use crate::usim::graph::{add_conflict_edges, UsimGraph, VertexPair};
use au_text::FxHashMap;
use std::hash::Hash;

/// Slots in the direct-mapped cross-candidate `msim` memo (2^16 entries ≈
/// 2.5 MB — sized to stay cache-resident; a bigger hash map was measured
/// *slower* than recomputation because every probe became a DRAM miss).
const MEMO_SLOTS: usize = 1 << 16;

/// Sentinel key marking an empty memo slot (no segment key uses the high
/// bits above bit 32, so this collides with nothing).
const MEMO_EMPTY: (u64, u64) = (u64::MAX, u64::MAX);

/// Direct-mapped `msim` memo keyed by interned surface-identity pairs
/// ([`crate::segment::Segment::key`]). Collisions overwrite — the memo is
/// a performance cache, never a source of truth, and `msim` is a pure
/// function of the key pair under a fixed knowledge context, so a stale
/// hit is impossible and an evicted entry merely recomputes.
#[derive(Debug, Clone, Default)]
struct MsimMemo {
    /// Lazily sized to [`MEMO_SLOTS`] on first insert — a scratch that
    /// never verifies enough pairs to insert (tiny joins, single search
    /// queries) pays no allocation or memset.
    keys: Vec<(u64, u64)>,
    vals: Vec<(f64, MeasureKind)>,
    hits: u64,
    misses: u64,
}

impl MsimMemo {
    #[inline]
    fn slot(key: (u64, u64)) -> usize {
        // Fx-style multiplicative mix of both halves.
        let h = (key.0 ^ key.1.rotate_left(32)).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
        (h >> 32) as usize & (MEMO_SLOTS - 1)
    }

    #[inline]
    fn get(&mut self, key: (u64, u64)) -> Option<(f64, MeasureKind)> {
        if self.keys.is_empty() {
            self.misses += 1;
            return None;
        }
        let s = Self::slot(key);
        if self.keys[s] == key {
            self.hits += 1;
            Some(self.vals[s])
        } else {
            self.misses += 1;
            None
        }
    }

    #[inline]
    fn put(&mut self, key: (u64, u64), val: (f64, MeasureKind)) {
        if self.keys.is_empty() {
            self.keys.resize(MEMO_SLOTS, MEMO_EMPTY);
            self.vals.resize(MEMO_SLOTS, (0.0, MeasureKind::Jaccard));
        }
        let s = Self::slot(key);
        self.keys[s] = key;
        self.vals[s] = val;
    }
}

/// Per-pair flags of the epoch-stamped surfacing table.
const FLAG_RULE: u8 = 1;
const FLAG_NODE: u8 = 2;

/// Per-tier decision telemetry of the verification cascade. Every
/// decision-mode call ([`Verifier::sim_at_least`] /
/// [`Verifier::probed_sim_at_least`]) lands in exactly one decision
/// bucket; the tier buckets are **pure per-candidate functions** of
/// `(S, T, θ, config)` — independent of scheduling, thread count and memo
/// state — so their sums over a candidate set are deterministic and CI
/// gates them exactly. The memo counters are *not* deterministic under
/// parallel execution (they depend on which worker verified which
/// candidates) and are reported as diagnostics only.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VerifyTiers {
    /// Rejected by the tier-0 record-level bound (or an empty side).
    pub tier0_rejects: u64,
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
    /// `msim` memo probes that hit (diagnostic, scheduling-dependent).
    pub memo_hits: u64,
    /// `msim` memo probes that missed (diagnostic, scheduling-dependent).
    pub memo_misses: u64,
}

impl VerifyTiers {
    /// Fold another tally into this one (worker drain).
    pub fn merge(&mut self, o: &VerifyTiers) {
        self.tier0_rejects += o.tier0_rejects;
        self.enum_rejects += o.enum_rejects;
        self.rowmax_rejects += o.rowmax_rejects;
        self.greedy_rejects += o.greedy_rejects;
        self.tier2_rejects += o.tier2_rejects;
        self.accepted += o.accepted;
        self.memo_hits += o.memo_hits;
        self.memo_misses += o.memo_misses;
    }

    /// Total decision-mode verifications (every candidate lands in
    /// exactly one bucket).
    pub fn decisions(&self) -> u64 {
        self.tier0_rejects
            + self.enum_rejects
            + self.rowmax_rejects
            + self.greedy_rejects
            + self.tier2_rejects
            + self.accepted
    }
}

/// Every cascade upper bound of one pair, fully evaluated (no early
/// exits) — the soundness-proptest and explain surface. Each bound
/// dominates exact USIM; additionally `tier0 ≥ surfaced` and
/// `rowmax ≥ greedy` (the surfaced cap counts *segments*, which can
/// exceed the row-max weight sum when segments overlap, so those two are
/// not mutually ordered).
#[derive(Debug, Clone, Copy)]
pub struct CascadeBounds {
    /// Tier 0: `min(|S|,|T|) / max(MP(S),MP(T))`.
    pub tier0: f64,
    /// Tier 1a: surfaced-segment cap.
    pub surfaced: f64,
    /// Tier 1: row-max vertex bound.
    pub rowmax: f64,
    /// Tier 1.5: greedy-matching bound.
    pub greedy: f64,
}

/// Identity of the `(Knowledge, SimConfig)` context a memo's entries were
/// computed under. The knowledge side is the process-unique
/// [`Knowledge::generation`] id (minted per build and per vocabulary
/// mutation, so diverged clones never share one — immune to
/// address-reuse ABA); the config side is the `msim`-relevant fields. A
/// [`VerifyScratch`] reused against a *different* context flushes its
/// memo instead of serving stale similarities.
#[derive(Debug, Clone, Copy, PartialEq)]
struct MemoStamp {
    generation: u64,
    measures: MeasureSet,
    gram: GramMeasure,
    q: usize,
}

impl MemoStamp {
    fn of(kn: &Knowledge, cfg: &SimConfig) -> Self {
        Self {
            generation: kn.generation(),
            measures: cfg.measures,
            gram: cfg.gram,
            q: cfg.q,
        }
    }
}

/// Hash-indexed view of one probe record's posting tables: each key maps
/// to its contiguous `(offset, len)` group inside the record's own sorted
/// posting array. Built once per candidate run by
/// [`Verifier::begin_probe`]; a partner's enumeration then walks *its*
/// postings only and joins through O(1) lookups instead of re-merging the
/// probe side per candidate.
///
/// The view holds offsets, not references — it stays valid only for the
/// record it was built from, which [`Verifier::probed_sim_at_least`]
/// debug-asserts by pointer identity. It is rebuilt unconditionally at
/// every run start (never identity-cached): a freed record's address can
/// be reused by a new one, and a stale view would score silently wrong.
#[derive(Debug, Clone, Default)]
struct ProbeIndex {
    grams: FxHashMap<u64, (u32, u32)>,
    rules: FxHashMap<u32, (u32, u32)>,
    keys: FxHashMap<u64, (u32, u32)>,
    /// Pointer identity of the probed record (debug-assert only).
    ptr: usize,
}

impl ProbeIndex {
    fn build(&mut self, s: &SegRecord) {
        self.ptr = s as *const SegRecord as usize;
        Self::fill(&mut self.grams, &s.gram_posts);
        Self::fill(&mut self.rules, &s.rule_posts);
        Self::fill(&mut self.keys, &s.key_posts);
    }

    fn fill<K: Eq + Hash + Copy>(map: &mut FxHashMap<K, (u32, u32)>, posts: &[(K, u32)]) {
        map.clear();
        for_each_group_range(
            posts,
            |p| p.0,
            |k, start, end| {
                map.insert(k, (start as u32, (end - start) as u32));
            },
        );
    }
}

/// Where a candidate's shared-posting pairs come from during surfacing.
#[derive(Clone, Copy)]
enum GramSource<'e> {
    /// Two-pointer merge of both records' posting tables (per-pair path).
    Merge,
    /// Walk the partner's postings against the probe index
    /// ([`Verifier::begin_probe`]).
    Probe,
    /// Pre-collected packed `(kind, s_seg, t_seg)` touches of this
    /// candidate — identity, gram and rule joins batched over the whole
    /// run through the corpus-level [`GramPostingsIndex`]
    /// ([`RunScratch::collect_events`]). Only the taxonomy cross product
    /// remains per-candidate.
    Events(&'e [u32]),
}

/// Event payloads of the run-batched join (which posting table surfaced
/// the pair — determines the `touch` contribution).
const EV_KEY: u32 = 0;
const EV_GRAM: u32 = 1;
const EV_RULE: u32 = 2;

/// Segment indices in packed events get 13 bits each; records with more
/// segments fall back to the probe-grouped path (`verify_candidates`
/// guards).
pub const EVENT_SEG_LIMIT: usize = 1 << 13;

#[inline]
fn pack_event(kind: u32, sa: u32, ta: u32) -> u32 {
    debug_assert!((sa as usize) < EVENT_SEG_LIMIT && (ta as usize) < EVENT_SEG_LIMIT);
    (kind << 26) | (sa << 13) | ta
}

#[inline]
fn unpack_event(ev: u32) -> (u32, u32, u32) {
    (ev >> 26, (ev >> 13) & 0x1fff, ev & 0x1fff)
}

/// One corpus-level transposed posting table: every `(record, segment)`
/// entry carrying a key, grouped by key.
#[derive(Debug, Clone, Default)]
struct PostingTable {
    map: FxHashMap<u64, (u32, u32)>,
    postings: Vec<(u32, u32)>,
}

impl PostingTable {
    fn build<'r, I>(recs: &'r [SegRecord], posts_of: impl Fn(&'r SegRecord) -> I) -> Self
    where
        I: Iterator<Item = (u64, u32)> + 'r,
    {
        let mut triples: Vec<(u64, u32, u32)> = Vec::new();
        for (rid, rec) in recs.iter().enumerate() {
            triples.extend(posts_of(rec).map(|(g, seg)| (g, rid as u32, seg)));
        }
        triples.sort_unstable();
        let mut map = FxHashMap::default();
        let mut postings = Vec::with_capacity(triples.len());
        for_each_group_range(
            &triples,
            |t| t.0,
            |g, start, end| {
                map.insert(g, (start as u32, (end - start) as u32));
                postings.extend(triples[start..end].iter().map(|&(_, rid, seg)| (rid, seg)));
            },
        );
        Self { map, postings }
    }
}

/// Corpus-level transposed posting tables of one prepared join side
/// (surface keys, grams, synonym rules). Built once per verification
/// stage and shared read-only across workers;
/// [`RunScratch::collect_events`] walks only the probe record's keys'
/// posting lists — work proportional to the probe's document frequencies
/// plus the true shared-posting events, instead of every partner's full
/// posting tables.
#[derive(Debug, Clone, Default)]
pub struct GramPostingsIndex {
    keys: PostingTable,
    grams: PostingTable,
    rules: PostingTable,
}

impl GramPostingsIndex {
    /// Transpose the per-record posting tables of `recs`. Rule ids are
    /// u32 in [`SegRecord`]; the shared tables widen them to u64.
    pub fn build(recs: &[SegRecord]) -> Self {
        Self {
            keys: PostingTable::build(recs, |r| r.key_posts.iter().copied()),
            grams: PostingTable::build(recs, |r| r.gram_posts.iter().copied()),
            rules: PostingTable::build(recs, |r| {
                r.rule_posts.iter().map(|&(rule, seg)| (rule as u64, seg))
            }),
        }
    }

    /// Total posting entries (diagnostics).
    pub fn len(&self) -> usize {
        self.keys.postings.len() + self.grams.postings.len() + self.rules.postings.len()
    }

    /// True when no record contributed a posting.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Per-worker state of run-batched verification: a [`VerifyScratch`] plus
/// the run-level buffers — partner membership stamps and the per-run
/// event table. Fields are module-private; the run driver
/// ([`Verifier::verify_run_at_least`]) borrows the event slices and the
/// verify scratch disjointly.
#[derive(Debug, Clone, Default)]
pub struct RunScratch {
    /// The per-candidate verification scratch.
    pub verify: VerifyScratch,
    /// Epoch-stamped partner membership (indexed by t-record id).
    stamp: Vec<u32>,
    /// Partner id → local index within the current run (valid where
    /// `stamp` matches the epoch).
    local: Vec<u32>,
    epoch: u32,
    /// Collected events: `local partner << 32 | packed (kind, sa, ta)`.
    events: Vec<u64>,
    /// Packed events grouped by local partner (counting sort of
    /// `events`, low halves only).
    sorted: Vec<u32>,
    /// Group offsets into `sorted` (`run_len + 1` entries).
    offsets: Vec<u32>,
    /// Counting-sort cursors.
    cursors: Vec<u32>,
    /// Reused widening buffer for the probe's rule postings (rule ids
    /// are u32 in [`SegRecord`], the shared tables are keyed by u64).
    rules64: Vec<(u64, u32)>,
}

impl RunScratch {
    /// Collect the surfacing events of one probe run: for every distinct
    /// surface key, gram and rule of `s`, walk its corpus-level posting
    /// list and keep the entries whose record is one of the run's
    /// partners. After this, [`RunScratch::events_of`] yields each
    /// candidate's `(s_seg, t_seg, kind)` touches — exactly the pairs
    /// the per-partner merge joins would surface; only the taxonomy
    /// cross product stays per-candidate (it has no misses to skip).
    ///
    /// `n_t_records` is the partner-side record count (sizes the
    /// membership stamps); partner ids within one run must be unique
    /// (candidate lists are deduplicated pairs). `keep(b)` filters which
    /// partners participate at all — the run driver passes the tier-0
    /// pre-screen, so partners the record-level bound already rejects
    /// never cost a single posting walk.
    pub fn collect_events(
        &mut self,
        s: &SegRecord,
        n_t_records: usize,
        run: &[(u32, u32)],
        idx: &GramPostingsIndex,
        keep: impl Fn(u32) -> bool,
    ) {
        if self.stamp.len() < n_t_records {
            self.stamp.resize(n_t_records, 0);
            self.local.resize(n_t_records, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.fill(0);
            self.epoch = 1;
        }
        let epoch = self.epoch;
        for (k, &(_, b)) in run.iter().enumerate() {
            if keep(b) {
                self.stamp[b as usize] = epoch;
                self.local[b as usize] = k as u32;
            }
        }
        self.events.clear();
        // Widen the probe's rule ids into the reused buffer first (the
        // walk closure borrows `self` mutably): tiny lists, but this
        // runs once per run fragment — no per-run allocation.
        let mut rules64 = std::mem::take(&mut self.rules64);
        rules64.clear();
        rules64.extend(s.rule_posts.iter().map(|&(r, seg)| (r as u64, seg)));
        let mut walk = |posts: &[(u64, u32)], table: &PostingTable, kind: u32| {
            for_each_group(posts, |g, sg| {
                if let Some(&(o, l)) = table.map.get(&g) {
                    for &(b, tseg) in &table.postings[o as usize..(o + l) as usize] {
                        if self.stamp[b as usize] == epoch {
                            let j = self.local[b as usize] as u64;
                            for &(_, sa) in sg {
                                self.events
                                    .push(j << 32 | pack_event(kind, sa, tseg) as u64);
                            }
                        }
                    }
                }
            });
        };
        walk(&s.key_posts, &idx.keys, EV_KEY);
        walk(&s.gram_posts, &idx.grams, EV_GRAM);
        walk(&rules64, &idx.rules, EV_RULE);
        // `walk`'s borrow of `self` ends with its last call; hand the
        // widening buffer back for the next run.
        self.rules64 = rules64;
        // Counting sort by local partner index (stable — per-candidate
        // event order is a pure function of the probe and partner).
        self.offsets.clear();
        self.offsets.resize(run.len() + 1, 0);
        for &ev in &self.events {
            self.offsets[(ev >> 32) as usize + 1] += 1;
        }
        for i in 1..self.offsets.len() {
            self.offsets[i] += self.offsets[i - 1];
        }
        self.cursors.clear();
        self.cursors.extend_from_slice(&self.offsets[..run.len()]);
        self.sorted.clear();
        self.sorted.resize(self.events.len(), 0);
        for &ev in &self.events {
            let c = &mut self.cursors[(ev >> 32) as usize];
            self.sorted[*c as usize] = ev as u32;
            *c += 1;
        }
    }

    /// The collected packed events of the run's `k`-th candidate.
    pub fn events_of(&self, k: usize) -> &[u32] {
        &self.sorted[self.offsets[k] as usize..self.offsets[k + 1] as usize]
    }

    /// Take (and reset) the inner verify scratch's tier tally.
    pub fn take_tally(&mut self) -> VerifyTiers {
        self.verify.take_tally()
    }
}

/// Reusable per-worker state of the verification engine. Create one per
/// worker (e.g. via `Default` in `par_filter_map_runs_scratch`'s `init`)
/// and feed it to every [`Verifier`] call on that worker.
#[derive(Debug, Clone, Default)]
pub struct VerifyScratch {
    /// Cross-candidate `msim` memo.
    memo: MsimMemo,
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
    /// Probe-side posting view of the current run ([`Verifier::begin_probe`]).
    probe: ProbeIndex,
    /// Algorithm 1 local-search buffers (shared with the reference path).
    refine: RefineScratch,
    /// Per-tier decision counters since the last [`VerifyScratch::take_tally`].
    tally: VerifyTiers,
    /// Context the memo entries belong to (see [`MemoStamp`]).
    stamp: Option<MemoStamp>,
}

impl VerifyScratch {
    /// Memo probes that hit (diagnostics).
    pub fn memo_hits(&self) -> u64 {
        self.memo.hits
    }

    /// Memo probes that missed (diagnostics).
    pub fn memo_misses(&self) -> u64 {
        self.memo.misses
    }

    /// Take (and reset) the per-tier decision counters accumulated since
    /// the last call, folding in the memo hit/miss counts. Workers call
    /// this from the parallel drain hook.
    pub fn take_tally(&mut self) -> VerifyTiers {
        let mut t = std::mem::take(&mut self.tally);
        t.memo_hits += std::mem::take(&mut self.memo.hits);
        t.memo_misses += std::mem::take(&mut self.memo.misses);
        t
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
    /// run driver's event pre-screen — the two must never drift.
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
    /// driver's event pre-screen; empty sides never surface events).
    #[inline]
    fn passes_tier0(&self, s: &SegRecord, t: &SegRecord, theta: f64) -> bool {
        Self::tier0_bound(s, t).is_some_and(|ub0| ub0 >= theta - self.cfg.eps)
    }

    /// Flush the scratch's memo if it was populated under a different
    /// `(Knowledge, SimConfig)` context — a reused scratch must never
    /// serve `msim` values from another world.
    fn restamp(&self, scr: &mut VerifyScratch) {
        let stamp = MemoStamp::of(self.kn, self.cfg);
        if scr.stamp != Some(stamp) {
            if scr.stamp.is_some() {
                scr.memo.keys.fill(MEMO_EMPTY);
            }
            scr.stamp = Some(stamp);
        }
    }

    /// Index the probe record `s`'s posting tables into the scratch's
    /// probe view, starting a probe-grouped run: every subsequent
    /// [`Verifier::probed_sim_at_least`] / [`Verifier::probed_sim`] call
    /// on this scratch must pass the same `s` until the next
    /// `begin_probe`. The view is rebuilt unconditionally — identity
    /// caching across runs would be unsound under address reuse.
    pub fn begin_probe(&self, s: &SegRecord, scr: &mut VerifyScratch) {
        scr.probe.build(s);
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
        self.sim_at_least_impl(s, t, theta, GramSource::Merge, scr)
    }

    /// [`Verifier::sim_at_least`] through the probe-grouped enumeration:
    /// `s` must be the record of the scratch's last
    /// [`Verifier::begin_probe`]. Identical decisions and bits; the probe
    /// side's posting tables are joined through the prebuilt index
    /// instead of per-candidate merges.
    pub fn probed_sim_at_least(
        &self,
        s: &SegRecord,
        t: &SegRecord,
        theta: f64,
        scr: &mut VerifyScratch,
    ) -> f64 {
        debug_assert_eq!(
            scr.probe.ptr, s as *const SegRecord as usize,
            "probed call against a record begin_probe never saw"
        );
        self.sim_at_least_impl(s, t, theta, GramSource::Probe, scr)
    }

    /// Verify one whole probe run through the run-batched gram path: `s`
    /// against every `(a, b)` candidate of `run` (ids into `t_recs`),
    /// with shared-gram pairs pre-collected through the corpus-level
    /// `idx` and key/rule joins through the per-run probe index.
    /// Accepted `(a, b, sim)` triples are pushed to `out` in run order —
    /// byte-identical to calling [`Verifier::sim_at_least`] per
    /// candidate.
    #[allow(clippy::too_many_arguments)]
    pub fn verify_run_at_least(
        &self,
        s: &SegRecord,
        t_recs: &[SegRecord],
        run: &[(u32, u32)],
        idx: &GramPostingsIndex,
        theta: f64,
        rs: &mut RunScratch,
        out: &mut Vec<(u32, u32, f64)>,
    ) {
        // Tier-0 pre-screen while stamping run membership: partners the
        // record-level bound rejects never cost a posting walk (their
        // per-candidate call below still lands them in the tier-0
        // bucket without looking at events).
        rs.collect_events(s, t_recs.len(), run, idx, |b| {
            self.passes_tier0(s, &t_recs[b as usize], theta)
        });
        for (k, &(a, b)) in run.iter().enumerate() {
            let ev = &rs.sorted[rs.offsets[k] as usize..rs.offsets[k + 1] as usize];
            let sim = self.sim_at_least_impl(
                s,
                &t_recs[b as usize],
                theta,
                GramSource::Events(ev),
                &mut rs.verify,
            );
            if sim >= theta - self.cfg.eps {
                out.push((a, b, sim));
            }
        }
    }

    fn sim_at_least_impl(
        &self,
        s: &SegRecord,
        t: &SegRecord,
        theta: f64,
        grams: GramSource<'_>,
        scr: &mut VerifyScratch,
    ) -> f64 {
        self.restamp(scr);
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
        if ub0 < theta - self.cfg.eps {
            scr.tally.tier0_rejects += 1;
            return ub0.min(theta);
        }
        self.sim_tiered(s, t, Some(theta), grams, scr)
    }

    /// Full-value verification: same value as
    /// [`crate::usim::usim_approx_seg`] (no early stop), with all
    /// enumeration sharing. Used by top-k re-scoring.
    pub fn sim(&self, s: &SegRecord, t: &SegRecord, scr: &mut VerifyScratch) -> f64 {
        self.restamp(scr);
        self.sim_tiered(s, t, None, GramSource::Merge, scr)
    }

    /// [`Verifier::sim`] through the probe-grouped enumeration (see
    /// [`Verifier::probed_sim_at_least`]).
    pub fn probed_sim(&self, s: &SegRecord, t: &SegRecord, scr: &mut VerifyScratch) -> f64 {
        debug_assert_eq!(
            scr.probe.ptr, s as *const SegRecord as usize,
            "probed call against a record begin_probe never saw"
        );
        self.restamp(scr);
        self.sim_tiered(s, t, None, GramSource::Probe, scr)
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
        self.restamp(scr);
        let ns = s.n_tokens();
        let nt = t.n_tokens();
        if ns == 0 || nt == 0 {
            let v = if ns == 0 && nt == 0 { 1.0 } else { 0.0 };
            return CascadeBounds {
                tier0: v,
                surfaced: v,
                rowmax: v,
                greedy: v,
            };
        }
        let denom = s.min_partition.max(t.min_partition);
        let (cnt_s, cnt_t) = self.surface_pairs(s, t, GramSource::Merge, scr);
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
            surfaced,
            rowmax,
            greedy,
        }
    }

    /// Tiers 1–2 (the caller has already applied tier 0 when a target
    /// exists). Each cascade stage only ever rejects with a provable
    /// upper bound below `θ − eps`; acceptance always comes from the
    /// shared `refine_set`, so accepted values mirror the reference bit
    /// for bit.
    fn sim_tiered(
        &self,
        s: &SegRecord,
        t: &SegRecord,
        target: Option<f64>,
        grams: GramSource<'_>,
        scr: &mut VerifyScratch,
    ) -> f64 {
        let (cnt_s, cnt_t) = self.surface_pairs(s, t, grams, scr);
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
    /// `msim > 0` into the epoch-stamped tables, via per-pair merge
    /// joins, the prebuilt probe index, or pre-collected run events (see
    /// [`GramSource`]) — identical surfaced *sets* whichever path ran.
    /// Returns the distinct surfaced segment counts per side. Pairs are
    /// left in surfacing order in `scr.pairs`;
    /// [`Verifier::score_pairs`] groups them by s-segment itself.
    fn surface_pairs(
        &self,
        s: &SegRecord,
        t: &SegRecord,
        grams: GramSource<'_>,
        scr: &mut VerifyScratch,
    ) -> (u32, u32) {
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
            probe,
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
            match grams {
                GramSource::Merge => {
                    // Surface identity (`msim`'s text-equality rule,
                    // every config).
                    merge_join(&s.key_posts, &t.key_posts, &mut |sa, ta| {
                        touch(sa, ta, 0, 0);
                    });
                    // J: a positive gram score needs a shared distinct
                    // gram; count them (postings are empty when J is
                    // disabled).
                    merge_join(&s.gram_posts, &t.gram_posts, &mut |sa, ta| {
                        touch(sa, ta, 1, 0);
                    });
                    // S: a positive synonym score needs a rule with both
                    // surfaces as sides — that rule is in both segments'
                    // rule lists.
                    merge_join(&s.rule_posts, &t.rule_posts, &mut |sa, ta| {
                        touch(sa, ta, 0, FLAG_RULE);
                    });
                }
                GramSource::Probe => {
                    // Probe-grouped: walk the partner's postings only;
                    // the probe side is joined through the per-run hash
                    // index.
                    for_each_group(&t.key_posts, |key, tg| {
                        if let Some(&(o, l)) = probe.keys.get(&key) {
                            for &(_, sa) in &s.key_posts[o as usize..(o + l) as usize] {
                                for &(_, ta) in tg {
                                    touch(sa, ta, 0, 0);
                                }
                            }
                        }
                    });
                    for_each_group(&t.gram_posts, |key, tg| {
                        if let Some(&(o, l)) = probe.grams.get(&key) {
                            for &(_, sa) in &s.gram_posts[o as usize..(o + l) as usize] {
                                for &(_, ta) in tg {
                                    touch(sa, ta, 1, 0);
                                }
                            }
                        }
                    });
                    for_each_group(&t.rule_posts, |key, tg| {
                        if let Some(&(o, l)) = probe.rules.get(&key) {
                            for &(_, sa) in &s.rule_posts[o as usize..(o + l) as usize] {
                                for &(_, ta) in tg {
                                    touch(sa, ta, 0, FLAG_RULE);
                                }
                            }
                        }
                    });
                }
                GramSource::Events(events) => {
                    // Run-batched: this candidate's identity/gram/rule
                    // touches were pre-collected through the corpus-level
                    // posting index — exactly what the merges surface.
                    for &ev in events {
                        let (kind, sa, ta) = unpack_event(ev);
                        match kind {
                            EV_KEY => touch(sa, ta, 0, 0),
                            EV_GRAM => touch(sa, ta, 1, 0),
                            _ => touch(sa, ta, 0, FLAG_RULE),
                        }
                    }
                }
            }
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
            memo,
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
        // order-independent, so the tier split stays a pure function of
        // the pair *sets* whichever surfacing path produced them).
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
                // msim's identity rule (any measure subset) — free, no
                // memo traffic.
                (1.0, MeasureKind::Jaccard)
            } else if flags[slot] == 0 {
                // Pure-gram pair (surfaced by the gram join alone): the J
                // score from the precomputed shared-gram count is two
                // float ops — cheaper than the memo's two random cache
                // lines, and gram pairs are too diverse to hit anyway.
                let inter = counts[slot] as usize;
                (
                    self.cfg.gram.score(inter, a.grams.len(), b.grams.len()),
                    MeasureKind::Jaccard,
                )
            } else {
                // Rule/node-flagged pair: synonym and taxonomy lookups do
                // real work (rule tables, LCA walks) and the pair space
                // is small — exactly what the cross-candidate memo is
                // for.
                let key = (a.key, b.key);
                match memo.get(key) {
                    Some(v) => v,
                    None => {
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
                        memo.put(key, best);
                        best
                    }
                }
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
        self.surface_pairs(s, t, GramSource::Merge, scr);
        let aborted = self.score_pairs(s, t, denom, None, scr);
        debug_assert!(aborted.is_none());
        scr.vertices.sort_unstable_by_key(|v| (v.s_seg, v.t_seg));
    }
}

/// Iterate the key-groups of any key-sorted slice: `f(key, start, end)`
/// fires once per distinct key with the `[start, end)` range of
/// contiguous items carrying it. The one group-walk implementation
/// behind the probe index, the corpus-level posting tables and the
/// posting-list joins.
fn for_each_group_range<T, K: PartialEq + Copy>(
    items: &[T],
    key: impl Fn(&T) -> K,
    mut f: impl FnMut(K, usize, usize),
) {
    let mut i = 0usize;
    while i < items.len() {
        let k = key(&items[i]);
        let start = i;
        while i < items.len() && key(&items[i]) == k {
            i += 1;
        }
        f(k, start, i);
    }
}

/// Iterate the key-groups of a sorted posting list: `f(key, group)` fires
/// once per distinct key with the contiguous entries carrying it.
fn for_each_group<K: PartialEq + Copy>(posts: &[(K, u32)], mut f: impl FnMut(K, &[(K, u32)])) {
    for_each_group_range(posts, |p| p.0, |k, start, end| f(k, &posts[start..end]));
}

/// Two-pointer merge of key-sorted postings; `emit` fires for every cross
/// pair of entries sharing a key.
fn merge_join<K: Ord + Copy>(a: &[(K, u32)], b: &[(K, u32)], emit: &mut impl FnMut(u32, u32)) {
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                let k = a[i].0;
                let i0 = i;
                while i < a.len() && a[i].0 == k {
                    i += 1;
                }
                let j0 = j;
                while j < b.len() && b[j].0 == k {
                    j += 1;
                }
                for &(_, x) in &a[i0..i] {
                    for &(_, y) in &b[j0..j] {
                        emit(x, y);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MeasureSet;
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
    /// byte for byte: same order, same weights, same winning measures —
    /// through the merge-join path *and* the probe-grouped path.
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
            let mut probed_scr = VerifyScratch::default();
            for a in &segs {
                v.begin_probe(a, &mut probed_scr);
                for b in &segs {
                    let dense = build_vertices(&kn, &cfg, a, b);
                    v.enumerate_vertices(a, b, &mut scr);
                    assert_eq!(dense.len(), scr.vertices.len(), "vertex count");
                    for (x, y) in dense.iter().zip(&scr.vertices) {
                        assert_eq!((x.s_seg, x.t_seg), (y.s_seg, y.t_seg));
                        assert_eq!(x.weight.to_bits(), y.weight.to_bits());
                        assert_eq!(x.kind, y.kind);
                    }
                    // Probe-grouped surfacing finds the identical set.
                    let denom = a.min_partition.max(b.min_partition).max(1);
                    v.surface_pairs(a, b, GramSource::Probe, &mut probed_scr);
                    let _ = v.score_pairs(a, b, denom, None, &mut probed_scr);
                    probed_scr
                        .vertices
                        .sort_unstable_by_key(|v| (v.s_seg, v.t_seg));
                    assert_eq!(dense.len(), probed_scr.vertices.len(), "probed count");
                    for (x, y) in dense.iter().zip(&probed_scr.vertices) {
                        assert_eq!((x.s_seg, x.t_seg), (y.s_seg, y.t_seg));
                        assert_eq!(x.weight.to_bits(), y.weight.to_bits());
                        assert_eq!(x.kind, y.kind);
                    }
                }
            }
        }
    }

    /// No cascade bound ever rejects a pair the reference accepts, and
    /// accepted values are bitwise equal to the reference — per-pair and
    /// probed.
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
        let mut scr_probed = VerifyScratch::default();
        for theta in [0.2, 0.5, 0.7, 0.9, 1.0] {
            for a in &segs {
                v.begin_probe(a, &mut scr_probed);
                for b in &segs {
                    let reference = usim_approx_seg_at_least(&kn, &cfg, a, b, theta);
                    let tiered = v.sim_at_least(a, b, theta, &mut scr);
                    let probed = v.probed_sim_at_least(a, b, theta, &mut scr_probed);
                    let ref_accept = reference >= theta - cfg.eps;
                    for (label, got) in [("merged", tiered), ("probed", probed)] {
                        let accept = got >= theta - cfg.eps;
                        assert_eq!(ref_accept, accept, "{label} decision at θ={theta}");
                        if ref_accept {
                            assert_eq!(
                                reference.to_bits(),
                                got.to_bits(),
                                "{label} accepted value at θ={theta}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// The full-value path equals `usim_approx_seg` bitwise (top-k
    /// re-scoring relies on this), per-pair and probed.
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
            v.begin_probe(a, &mut scr);
            for b in &segs {
                let reference = usim_approx_seg(&kn, &cfg, a, b);
                let probed = v.probed_sim(a, b, &mut scr);
                assert_eq!(reference.to_bits(), probed.to_bits());
                let tiered = v.sim(a, b, &mut scr);
                assert_eq!(reference.to_bits(), tiered.to_bits());
            }
        }
    }

    /// Every cascade bound dominates exact USIM, with the provable
    /// orderings `tier0 ≥ surfaced` and `rowmax ≥ greedy`.
    #[test]
    fn cascade_bounds_are_sound_and_ordered() {
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
                let bounds = v.upper_bounds(a, b, &mut scr);
                let approx = usim_approx_seg(&kn, &cfg, a, b);
                assert!(bounds.tier0 >= bounds.surfaced - 1e-12, "tier0 < surfaced");
                assert!(bounds.rowmax >= bounds.greedy - 1e-12, "rowmax < greedy");
                for (name, ub) in [
                    ("tier0", bounds.tier0),
                    ("surfaced", bounds.surfaced),
                    ("rowmax", bounds.rowmax),
                    ("greedy", bounds.greedy),
                ] {
                    assert!(ub >= approx - 1e-12, "{name} {ub} < approx {approx}");
                    if let Some(exact) = usim_exact_seg(&kn, &cfg, a, b) {
                        assert!(ub >= exact - 1e-9, "{name} {ub} < exact {exact}");
                    }
                }
            }
        }
    }

    /// Every decision lands in exactly one tally bucket, and the tier
    /// buckets are identical whether the cascade runs per-pair or probed
    /// (pure per-candidate functions).
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
        let mut scr_probed = VerifyScratch::default();
        let mut n = 0u64;
        for a in &segs {
            v.begin_probe(a, &mut scr_probed);
            for b in &segs {
                let x = v.sim_at_least(a, b, 0.7, &mut scr);
                let y = v.probed_sim_at_least(a, b, 0.7, &mut scr_probed);
                assert_eq!(x.to_bits(), y.to_bits());
                n += 1;
            }
        }
        let tally = scr.take_tally();
        let tally_probed = scr_probed.take_tally();
        assert_eq!(tally.decisions(), n);
        assert!(tally.accepted > 0 && tally.tier0_rejects > 0);
        for (a, b) in [
            (tally.tier0_rejects, tally_probed.tier0_rejects),
            (tally.enum_rejects, tally_probed.enum_rejects),
            (tally.rowmax_rejects, tally_probed.rowmax_rejects),
            (tally.greedy_rejects, tally_probed.greedy_rejects),
            (tally.tier2_rejects, tally_probed.tier2_rejects),
            (tally.accepted, tally_probed.accepted),
        ] {
            assert_eq!(a, b, "tier buckets diverge between per-pair and probed");
        }
        // Taking the tally resets it.
        assert_eq!(scr.take_tally().decisions(), 0);
    }

    /// The run-batched driver (corpus-level posting index + event
    /// collection + tier-0 pre-screen) accepts exactly the pairs of
    /// per-pair `sim_at_least` calls with identical bits, and its tally
    /// matches.
    #[test]
    fn run_batched_equals_per_pair() {
        let mut kn = kn_figure1();
        let cfg = SimConfig::default();
        let ids: Vec<_> = corpus_texts().iter().map(|t| kn.add_record(t)).collect();
        let segs: Vec<_> = ids
            .iter()
            .map(|&id| segment_record(&kn, &cfg, &kn.record(id).tokens))
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
            assert_eq!(bt.decisions(), pt.decisions(), "θ={theta}");
            assert_eq!(
                (bt.tier0_rejects, bt.enum_rejects, bt.rowmax_rejects),
                (pt.tier0_rejects, pt.enum_rejects, pt.rowmax_rejects),
            );
            assert_eq!(
                (bt.greedy_rejects, bt.tier2_rejects, bt.accepted),
                (pt.greedy_rejects, pt.tier2_rejects, pt.accepted),
            );
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

    /// A scratch reused against a different `(Knowledge, SimConfig)`
    /// context must flush its memo instead of serving stale similarities.
    #[test]
    fn scratch_reuse_across_configs_is_safe() {
        let mut kn = kn_figure1();
        let ids: Vec<_> = corpus_texts().iter().map(|t| kn.add_record(t)).collect();
        let mut scr = VerifyScratch::default();
        for measures in [
            MeasureSet::TJS,
            MeasureSet::J,
            MeasureSet::S,
            MeasureSet::TJS, // back again — memo flushed in between
        ] {
            let cfg = SimConfig::default().with_measures(measures);
            let segs: Vec<_> = ids
                .iter()
                .map(|&id| segment_record(&kn, &cfg, &kn.record(id).tokens))
                .collect();
            let v = Verifier::new(&kn, &cfg);
            for a in &segs {
                for b in &segs {
                    let reference = usim_approx_seg_at_least(&kn, &cfg, a, b, 0.4);
                    let tiered = v.sim_at_least(a, b, 0.4, &mut scr);
                    let ra = reference >= 0.4 - cfg.eps;
                    assert_eq!(ra, tiered >= 0.4 - cfg.eps);
                    if ra {
                        assert_eq!(reference.to_bits(), tiered.to_bits());
                    }
                }
            }
        }
    }

    /// The memo never changes values: a warm scratch returns the same
    /// bits as a cold one.
    #[test]
    fn warm_memo_is_transparent() {
        let mut kn = kn_figure1();
        let cfg = SimConfig::default();
        let ids: Vec<_> = corpus_texts().iter().map(|t| kn.add_record(t)).collect();
        let segs: Vec<_> = ids
            .iter()
            .map(|&id| segment_record(&kn, &cfg, &kn.record(id).tokens))
            .collect();
        let v = Verifier::new(&kn, &cfg);
        let mut warm = VerifyScratch::default();
        // Warm the memo on every pair, then re-verify and compare against
        // per-pair cold scratches.
        for a in &segs {
            for b in &segs {
                v.sim_at_least(a, b, 0.5, &mut warm);
            }
        }
        assert!(
            warm.memo_hits() > 0,
            "repeated surfaces should hit the memo"
        );
        for a in &segs {
            for b in &segs {
                let mut cold = VerifyScratch::default();
                let x = v.sim_at_least(a, b, 0.5, &mut cold);
                let y = v.sim_at_least(a, b, 0.5, &mut warm);
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }
}
