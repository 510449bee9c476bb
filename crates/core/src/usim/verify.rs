//! Bound-cascade verification — the join's fifth stage.
//!
//! Stage 5 owns most of the join's wall-clock, and without sharing every
//! candidate would re-run a full posting-table merge-join of its own even
//! though the candidate pass hands over each probe record's candidates
//! as one run. This engine keeps the reference semantics — byte-identical
//! accepted `(pair, sim)` results, enforced by
//! `tests/verify_equivalence.rs` — while deciding each candidate through
//! exactly three steps, each landing its decisions in one
//! [`VerifyTiers`] bucket:
//!
//! * **Mass bound** (`mass_rejects`) — shared pebble mass, before any
//!   segment pair is surfaced. Each probe segment `sa` is credited the
//!   most it could score against *any* segment of `T`: 1 when `T` carries
//!   its surface key or one of its synonym rules, otherwise the gram score
//!   of `sa` against the `c = |G(sa) ∩ G(T)|` of its distinct grams that
//!   occur anywhere in `T` (`score(c, |G(sa)|, c)`) or its best taxonomy
//!   similarity to a node of `T`. The credits, summed in segment order
//!   over `max(MP(S), MP(T))`, dominate the row-max bound **as floats**
//!   (`Verifier::mass_bound`), so this step rejects only pairs row-max
//!   rejects anyway — but it needs *which records* carry a key, not which
//!   segment pairs share it. The mass has exactly **two count sources**:
//!   per pair, a two-pointer merge of the two records' posting tables
//!   ([`Verifier::sim_at_least`]); per probe run, one walk of the
//!   corpus-level [`GramPostingsIndex`] that counts every partner of the
//!   run at once ([`Verifier::verify_run_at_least`] — PASS-JOIN's
//!   shared-verification idea). A run's counters are segment-major — one
//!   column per probe segment, one entry per partner — so the walk bumps
//!   one column per posting group and the bound is decided column by
//!   column for the whole run: per probe segment, one pass over every
//!   partner adds its credit, and each partner's sum is the float the
//!   per-pair loop adds, in the same order. `|T|`, `MP(T)` and "`T` has
//!   a node segment" come from per-record columns ([`RunSide`]), so a
//!   partner the bound rejects is never dereferenced.
//! * **Row-max** (`rowmax_rejects`) — the survivors' segment pairs that
//!   can have `msim > 0` (a shared gram, a shared synonym rule, taxonomy
//!   nodes on both sides, or surface equality) are surfaced by
//!   merge-joining the two records' posting tables and scored into
//!   Algorithm 1's vertex list; the classic vertex upper bound
//!   `min(Σ_s best, Σ_t best) / max(MP(S), MP(T))` over it is
//!   float-identical to the reference decision fast path.
//! * **Algorithm 1** (`tier2_rejects` / `accepted`) — the same SquareImp
//!   and claw-improvement search as the reference
//!   ([`crate::usim::approx`]'s `refine_set` *is* the shared
//!   implementation) over reused [`VerifyScratch`] buffers.
//!
//! An empty side is decided before all three by `usim_approx`'s
//! convention (both empty → 1, one empty → 0) and counted by its decision.
//! Bounds only ever *reject* (never accept), and each is a provable
//! upper bound of exact USIM, so the accept set — and the accepted values,
//! which always come from the shared `refine_set` — are byte-identical to
//! the reference per-candidate path. Scratch is per worker, and a probe
//! record's run is verified whole by the worker that probed it (a join's
//! candidate pass maps probe records through
//! [`crate::parallel::par_map_scratch`], and `Engine::verify_pass` is
//! the one driver of that pass over runs):
//! workers never share mutable state, nothing is cached across
//! candidates, and the buckets are pure per-candidate functions, so counts
//! and results are independent of scheduling.

use crate::config::{GramMeasure, SimConfig};
use crate::index::Transposed;
use crate::knowledge::Knowledge;
use crate::msim::MeasureKind;
use crate::segment::{Postings, SegRecord};
use crate::usim::approx::{refine_set, vertex_upper_bound_with, RefineScratch};
use crate::usim::eval::get_sim_with;
use crate::usim::graph::{add_conflict_edges, UsimGraph, VertexPair};
use std::ops::Range;
use std::sync::Arc;

/// Per-pair flags of the epoch-stamped surfacing table.
const FLAG_RULE: u8 = 1;
const FLAG_NODE: u8 = 2;

/// Mass-count mark: some segment of the partner has this probe segment's
/// surface key or shares a synonym rule with it — full credit. Gram counts
/// live in the low bits (a segment's distinct grams never reach 2³¹).
const FULL: u32 = 1 << 31;

/// Mass counters (`probe segments × (sinks + partners)`) one worker holds
/// at a time; a run needing more is counted in partner chunks. Shrunk
/// under test, so that a query's few hundred candidates span several
/// chunks and this crate's unit tests cross chunk boundaries.
const RUN_COUNTERS_MAX: usize = if cfg!(test) { 256 } else { 1 << 20 };

/// Partners per counter chunk of a run whose probe record has
/// `n_segments` segments: a run this long or shorter is walked once.
pub(crate) fn chunk_partners(n_segments: usize) -> usize {
    (RUN_COUNTERS_MAX / n_segments.max(1))
        .saturating_sub(SINKS)
        .max(1)
}

/// Counter slots at the front of every column of [`RunScratch::acc`] that
/// absorb the hits of records outside the current run chunk (record `b` →
/// slot `b % SINKS`), so the walk never tests partnership. Eight, not one:
/// consecutive non-partners on a single sink serialize on its store →
/// load chain.
const SINKS: usize = 8;

/// Per-step decision telemetry of the verification cascade. Every
/// decision-mode call ([`Verifier::sim_at_least`] /
/// [`Verifier::verify_run_at_least`]) lands in exactly one bucket, and every bucket is a **pure
/// per-candidate function** of `(S, T, θ, config)` — independent of
/// scheduling, thread count and which count source ran — so their sums
/// over a candidate set are deterministic and CI gates them exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VerifyTiers {
    /// Rejected by the shared-pebble-mass bound, before any segment pair
    /// was surfaced (or by an empty side).
    pub mass_rejects: u64,
    /// Rejected by the row-max vertex upper bound.
    pub rowmax_rejects: u64,
    /// Rejected by Algorithm 1's exact decision.
    pub tier2_rejects: u64,
    /// Accepted — by Algorithm 1, or by the empty-side convention (bounds
    /// only ever reject).
    pub accepted: u64,
}

impl VerifyTiers {
    /// Fold another tally into this one (worker drain).
    pub fn merge(&mut self, o: &VerifyTiers) {
        self.mass_rejects += o.mass_rejects;
        self.rowmax_rejects += o.rowmax_rejects;
        self.tier2_rejects += o.tier2_rejects;
        self.accepted += o.accepted;
    }

    /// Total decision-mode verifications (every candidate lands in
    /// exactly one bucket).
    pub fn decisions(&self) -> u64 {
        self.mass_rejects + self.rowmax_rejects + self.tier2_rejects + self.accepted
    }
}

/// The gram credits of one probe record, tabulated once per run:
/// `get(sa, c) = gram.score(c, |G(sa)|, c)` for every `c ≤ |G(sa)|` —
/// the very call the per-pair path makes, so the float is the same and a
/// run pays no division per candidate.
#[derive(Debug, Clone, Default)]
struct CreditTable {
    /// Start of each segment's `|G(sa)| + 1` entries in `val`, then
    /// `val.len()`.
    off: Vec<u32>,
    val: Vec<f64>,
}

impl CreditTable {
    fn build(&mut self, s: &SegRecord, gram: GramMeasure) {
        self.off.clear();
        self.val.clear();
        for seg in s.segments() {
            self.off.push(self.val.len() as u32);
            let n = seg.grams.len();
            self.val.extend((0..=n).map(|c| gram.score(c, n, c)));
        }
        self.off.push(self.val.len() as u32);
    }

    /// Segment `sa`'s credits, indexed by its gram count.
    #[inline]
    fn segment(&self, sa: usize) -> &[f64] {
        &self.val[self.off[sa] as usize..self.off[sa + 1] as usize]
    }
}

/// The distinct keys of a key-sorted posting table into the empty `out`.
/// Branch-free — every key is written, the cursor moves only past a new
/// one: whether a posting repeats its predecessor's key is a coin flip,
/// and this loop reads every posting of a corpus.
fn distinct_keys_into(posts: Postings<'_>, out: &mut Vec<u64>) {
    let mut keys = posts.keys();
    let Some(mut prev) = keys.next() else {
        return;
    };
    out.resize(posts.len(), prev);
    let mut n = 1usize;
    for key in keys {
        out[n] = key;
        n += usize::from(key != prev);
        prev = key;
    }
    out.truncate(n);
}

/// Fewest records per gram range of [`GramPostingsIndex::build`] (each
/// range hashes a directory of every gram it sees).
const GRAM_RANGE_RECORDS: usize = 512;

/// Corpus-level transposed posting tables of one prepared collection
/// (surface keys, grams, synonym rules; rule ids widened to u64): which
/// *records* carry a key — the mass bound never asks which segment — plus
/// one bit per record saying whether it carries a taxonomy node. An
/// artifact of the corpus alone (no order, no θ), built at most once per
/// [`crate::engine::Prepared`] and shared read-only by every join against
/// and query over it. A run's mass count
/// ([`Verifier::verify_run_at_least`]) walks only the probe record's keys'
/// posting lists — work proportional to the probe's document frequencies,
/// instead of every partner's full posting tables.
#[derive(Debug, Clone, Default)]
pub struct GramPostingsIndex {
    keys: Transposed,
    grams: Transposed,
    rules: Transposed,
    /// Bit `b % 64` of word `b / 64`: record `b` has a node segment.
    nodes: Vec<u64>,
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
        Self::build_for(recs, true)
    }

    /// [`GramPostingsIndex::build`] for a spec: on every available thread
    /// when `parallel`, else every table whole on the caller's thread.
    pub(crate) fn build_for(recs: &[Arc<SegRecord>], parallel: bool) -> Self {
        let workers = if parallel {
            crate::parallel::available_threads()
        } else {
            1
        };
        let ranges = match workers {
            0 | 1 => 1,
            _ => (recs.len() / GRAM_RANGE_RECORDS).clamp(1, 2 * workers),
        };
        Self::build_in(recs, ranges, workers)
    }

    /// [`GramPostingsIndex::build`] on `workers` threads with the gram
    /// table cut into `ranges`.
    fn build_in(recs: &[Arc<SegRecord>], ranges: usize, workers: usize) -> Self {
        #[derive(Clone, Copy)]
        enum Task {
            Keys,
            Grams(u32, u32),
            Rules,
        }
        fn table<'r>((lo, hi): (u32, u32), posts_of: impl Fn(u32) -> Postings<'r>) -> Transposed {
            Transposed::build_range(lo, hi, &|r, out| distinct_keys_into(posts_of(r), out))
        }
        let n = u32::try_from(recs.len()).expect("record ids exceed u32");
        let of = |r: u32| &recs[r as usize];
        let bound = |p: usize| (recs.len() * p / ranges) as u32;
        let tasks: Vec<Task> = std::iter::once(Task::Keys)
            .chain((0..ranges).map(|p| Task::Grams(bound(p), bound(p + 1))))
            .chain([Task::Rules])
            .collect();
        let mut built = crate::parallel::par_tasks(&tasks, workers, |&task| match task {
            Task::Keys => table((0, n), |r| of(r).key_postings()),
            Task::Grams(lo, hi) => table((lo, hi), |r| of(r).gram_postings()),
            Task::Rules => table((0, n), |r| of(r).rule_postings()),
        })
        .into_iter();
        let mut nodes = vec![0u64; recs.len().div_ceil(64)];
        for (b, r) in recs.iter().enumerate() {
            nodes[b / 64] |= u64::from(!r.node_segs().is_empty()) << (b % 64);
        }
        Self {
            keys: built.next().unwrap_or_default(),
            rules: built.next_back().unwrap_or_default(),
            grams: Transposed::concat(built.collect()),
            nodes,
        }
    }

    /// Whether record `b` has a node segment.
    #[inline]
    fn has_nodes(&self, b: u32) -> bool {
        self.nodes[b as usize / 64] >> (b % 64) & 1 != 0
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
        self.keys.memory_bytes()
            + self.grams.memory_bytes()
            + self.rules.memory_bytes()
            + self.nodes.len() * std::mem::size_of::<u64>()
    }
}

/// The verified side of a probe run: its records by id, their tier-0
/// `(|T|, MP(T))` integers ([`crate::engine::Prepared`]'s column, the one
/// the in-probe compatibility bound reads) and the transposed posting
/// index over them. The run's mass decision reads only the columns and
/// the index; a record is dereferenced only once the bound lets it by.
#[derive(Debug, Clone, Copy)]
pub struct RunSide<'a> {
    /// The records, by id.
    pub recs: &'a [Arc<SegRecord>],
    /// `(n_tokens, min_partition)` per record id.
    pub tier0: &'a [(u32, u32)],
    /// The transposed posting index over `recs`.
    pub index: &'a GramPostingsIndex,
}

/// Per-worker state of run-batched verification: a [`VerifyScratch`] plus
/// the run-level mass counters and the per-partner sums the column pass
/// leaves. Fields are module-private; the run driver
/// ([`Verifier::verify_run_at_least`]) borrows them and the verify scratch
/// disjointly.
///
/// The counters are segment-major: one column of `stride = SINKS + chunk
/// partners` slots per probe segment. Every record has a slot in every
/// column — a partner of the current run chunk its own, everyone else one
/// of eight sink slots nobody reads — so the walk does one `slot_of` load
/// and one add per posting and never branches on partnership.
#[derive(Debug, Clone, Default)]
pub struct RunScratch {
    /// The per-candidate verification scratch.
    pub verify: VerifyScratch,
    /// Record id `b` → its slot in every column of `acc`: `SINKS + k` for
    /// the chunk's `k`-th partner, sink `b % SINKS` for everyone else
    /// (restored after every chunk).
    slot_of: Vec<u32>,
    /// Mass counters, column `sa` at `acc[sa * stride..][..stride]`: the
    /// sinks, then the chunk's partners — shared distinct grams, or
    /// [`FULL`].
    acc: Vec<u32>,
    /// Per partner of the chunk: the optimistic mass sum (node-bearing
    /// segments credited 1 against a node-bearing partner)…
    mass: Vec<f64>,
    /// …whether that credit was taken (the bound is then lazy)…
    lazy: Vec<bool>,
    /// …and whether the partner has a node segment.
    t_nodes: Vec<bool>,
    /// Gram credits of the current run's probe record.
    credit: CreditTable,
    /// The last run's key buffer ([`RunKeys`]), which the next
    /// [`RunScratch::resolve`] reuses.
    spare: Vec<KeyList>,
}

/// A probe record's distinct surface keys, grams and rules, looked up once
/// in the verified side's transposed index ([`RunScratch::resolve`]) —
/// what [`Verifier::verify_run_at_least`] walks, however many chunks the
/// run takes. It carries the record and the side it was resolved for, so
/// the walk cannot read another's lists.
#[derive(Debug)]
pub struct RunKeys<'a> {
    s: &'a SegRecord,
    side: RunSide<'a>,
    /// The resolved keys, surface keys first, then grams, then rules;
    /// keys no record carries left out…
    lists: Vec<KeyList>,
    /// …where the gram and the rule groups start in `lists`…
    split: [usize; 2],
    /// …and the postings one walk of them reads.
    walk: u64,
}

impl RunKeys<'_> {
    /// The postings one walk of the run reads: Σ of the resolved keys'
    /// list lengths. A key's list is read once per probe segment carrying
    /// it, but counted once.
    pub fn walk(&self) -> u64 {
        self.walk
    }
}

/// One distinct key of a probe record, resolved: its list's span in the
/// table's arena and the range of the record's postings carrying it (one
/// per probe segment that has the key).
#[derive(Debug, Clone, Copy)]
struct KeyList {
    span: (u32, u32),
    group: (u32, u32),
}

impl RunScratch {
    /// Look up every distinct surface key, gram and rule of `s` in
    /// `side`'s transposed index once for the whole run, however many
    /// chunks then walk them ([`RunKeys::walk`] prices the walk).
    pub fn resolve<'a>(&mut self, s: &'a SegRecord, side: RunSide<'a>) -> RunKeys<'a> {
        let mut lists = std::mem::take(&mut self.spare);
        lists.clear();
        let (mut split, mut walk) = ([0; 2], 0);
        let idx = side.index;
        let tables = [
            (s.key_postings(), &idx.keys),
            (s.gram_postings(), &idx.grams),
            (s.rule_postings(), &idx.rules),
        ];
        for (t, (posts, table)) in tables.into_iter().enumerate() {
            if t > 0 {
                split[t - 1] = lists.len();
            }
            for_each_group(posts, |key, group| {
                if let Some(span) = table.span(key) {
                    walk += u64::from(span.1 - span.0);
                    let group = (group.start as u32, group.end as u32);
                    lists.push(KeyList { span, group });
                }
            });
        }
        RunKeys {
            s,
            side,
            lists,
            split,
            walk,
        }
    }

    /// Mass-count one chunk of a probe run: for every distinct surface
    /// key, gram and rule `keys` resolved, walk the ids of the records
    /// carrying it and bump their counters: for partners of `run`, exactly
    /// the counts [`VerifyScratch::count_shared`] makes pair by pair.
    /// Returns the posting entries read.
    ///
    /// Partner ids within one run must be unique (candidate lists are
    /// deduplicated pairs).
    fn count_run(&mut self, keys: &RunKeys<'_>, run: &[(u32, u32)]) -> u64 {
        let (s, idx, n_t_records) = (keys.s, keys.side.index, keys.side.recs.len());
        let stride = SINKS + run.len();
        let grown = self.slot_of.len()..n_t_records;
        self.slot_of.extend(grown.map(|b| (b % SINKS) as u32));
        self.acc.clear();
        self.acc.resize(stride * s.n_segments(), 0);
        for (k, &(_, b)) in run.iter().enumerate() {
            self.slot_of[b as usize] = (SINKS + k) as u32;
        }
        let (slot_of, acc) = (&self.slot_of, &mut self.acc[..]);
        // Only a sink's gram count can approach 2³² (one add per posting
        // the chunk walks); nobody reads a sink, so it may wrap.
        let (lists, [grams, rules]) = (&keys.lists, keys.split);
        let (key_lists, gram_lists, rule_lists) =
            (&lists[..grams], &lists[grams..rules], &lists[rules..]);
        walk_postings(
            key_lists,
            s.key_postings(),
            &idx.keys,
            slot_of,
            stride,
            acc,
            |c| *c |= FULL,
        );
        walk_postings(
            gram_lists,
            s.gram_postings(),
            &idx.grams,
            slot_of,
            stride,
            acc,
            |c| *c = c.wrapping_add(1),
        );
        walk_postings(
            rule_lists,
            s.rule_postings(),
            &idx.rules,
            slot_of,
            stride,
            acc,
            |c| *c |= FULL,
        );
        for &(_, b) in run {
            self.slot_of[b as usize] = b % SINKS as u32;
        }
        keys.walk
    }

    /// The column pass over the chunk `run` just counted: per probe
    /// segment, in segment order, one loop over every partner adds its
    /// credit — 1 for [`FULL`]; 1 for a node segment against a
    /// node-bearing partner (`idx`'s node bit), which marks the partner
    /// lazy; otherwise the gram credit of its count. Each partner's sum in
    /// `mass` is then the float [`Verifier::mass_bound`]'s optimistic loop
    /// adds, bit for bit. No partner's record is read.
    fn column_pass(&mut self, s: &SegRecord, run: &[(u32, u32)], idx: &GramPostingsIndex) {
        let (m, stride) = (run.len(), SINKS + run.len());
        let Self {
            acc,
            mass,
            lazy,
            t_nodes,
            credit,
            ..
        } = self;
        mass.clear();
        mass.resize(m, 0.0);
        lazy.clear();
        lazy.resize(m, false);
        t_nodes.clear();
        if !s.node_segs().is_empty() {
            t_nodes.extend(run.iter().map(|&(_, b)| idx.has_nodes(b)));
        }
        for sa in 0..s.n_segments() {
            let col = &acc[sa * stride + SINKS..(sa + 1) * stride];
            let tab = credit.segment(sa);
            // A partner's count carries at most |G(sa)| in its low bits.
            let gram = |c: u32| tab[(c & !FULL) as usize];
            if s.node_of(sa).is_some() {
                for (((sum, lz), &node), &c) in
                    mass.iter_mut().zip(&mut *lazy).zip(&*t_nodes).zip(col)
                {
                    let full = c >= FULL;
                    *lz |= node & !full;
                    *sum += if full | node { 1.0 } else { gram(c) };
                }
            } else {
                for (sum, &c) in mass.iter_mut().zip(col) {
                    let credit = gram(c);
                    *sum += if c >= FULL { 1.0 } else { credit };
                }
            }
        }
    }

    /// Take (and reset) the inner verify scratch's tier tally.
    pub fn take_tally(&mut self) -> VerifyTiers {
        self.verify.take_tally()
    }
}

/// One table's share of [`RunScratch::count_run`]: `hit` fires on the
/// counter of every `(slot, probe segment)` whose record carries a key of
/// that segment — once per distinct key. Per probe segment of a key's
/// group (`posts`' postings carrying it), the key's list is walked through
/// that segment's one column, so a posting costs a `slot_of` load and an
/// add, no multiply.
fn walk_postings(
    lists: &[KeyList],
    posts: Postings<'_>,
    table: &Transposed,
    slot_of: &[u32],
    stride: usize,
    acc: &mut [u32],
    hit: impl Fn(&mut u32),
) {
    let arena = table.arena();
    for &KeyList { span, group } in lists {
        let list = &arena[span.0 as usize..span.1 as usize];
        for i in group.0..group.1 {
            let sa = posts.seg(i as usize) as usize;
            let col = &mut acc[sa * stride..(sa + 1) * stride];
            for &b in list {
                hit(&mut col[slot_of[b as usize] as usize]);
            }
        }
    }
}

/// Reusable per-worker state of the verification engine. Create one per
/// worker (e.g. via `Default` in a [`crate::parallel`] `init`) and feed it
/// to every [`Verifier`] call on that worker.
#[derive(Debug, Clone, Default)]
pub struct VerifyScratch {
    /// Mass counters of the current candidate, one per probe segment
    /// ([`VerifyScratch::count_shared`], or a lazy run partner's counts
    /// gathered from the run's columns).
    shared: Vec<u32>,
    /// Epoch stamps of the dense per-candidate `(s_seg, t_seg)` table.
    stamps: Vec<u32>,
    /// Shared-gram counts per surfaced pair (valid where stamp == epoch).
    counts: Vec<u32>,
    /// Surfacing-source flags per pair (valid where stamp == epoch).
    flags: Vec<u8>,
    epoch: u32,
    /// Surfaced pairs of the current candidate (surfacing order).
    pairs: Vec<(u32, u32)>,
    /// Vertex list of the current candidate.
    vertices: Vec<VertexPair>,
    /// Reused conflict graph + vertex annotations.
    graph: UsimGraph,
    weights: Vec<f64>,
    /// Row-max bound per-side best-weight buffers.
    best_s: Vec<f64>,
    best_t: Vec<f64>,
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
        shared.resize(s.n_segments(), 0);
        let sp = s.key_postings();
        shared_groups(sp, t.key_postings(), |sg, _| {
            sg.for_each(|i| shared[sp.seg(i) as usize] |= FULL);
        });
        let sp = s.gram_postings();
        shared_groups(sp, t.gram_postings(), |sg, _| {
            sg.for_each(|i| shared[sp.seg(i) as usize] += 1);
        });
        let sp = s.rule_postings();
        shared_groups(sp, t.rule_postings(), |sg, _| {
            sg.for_each(|i| shared[sp.seg(i) as usize] |= FULL);
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

    /// `usim_approx`'s empty-record convention on the two sides' token
    /// counts, the one decision made before the mass bound: `Some(1.0)`
    /// when both sides are empty, `Some(0.0)` when one is, `None`
    /// otherwise.
    #[inline]
    fn empty_side(ns: usize, nt: usize) -> Option<f64> {
        match (ns, nt) {
            (0, 0) => Some(1.0),
            (0, _) | (_, 0) => Some(0.0),
            _ => None,
        }
    }

    /// The empty-side decision of one candidate, tallied: accepted when
    /// its convention value reaches `min_sim`, else a mass reject (an
    /// empty side carries no mass).
    fn decide_empty(sim: f64, min_sim: f64, scr: &mut VerifyScratch) -> f64 {
        if sim >= min_sim {
            scr.tally.accepted += 1;
        } else {
            scr.tally.mass_rejects += 1;
        }
        sim
    }

    /// The mass bound: `Σ_sa credit(sa, T) / max(MP(S), MP(T))` from the
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
        let t_nodes = !t.node_segs().is_empty();
        let mut lazy = false;
        let mut mass = 0.0f64;
        for (sa, &c) in shared.iter().enumerate() {
            mass += if c >= FULL {
                1.0
            } else if t_nodes && s.node_of(sa).is_some() {
                lazy = true;
                1.0
            } else {
                gram_credit(sa, c)
            };
        }
        if !lazy || reject_below.is_some_and(|min| mass / denom < min) {
            return mass / denom;
        }
        self.exact_mass(s, t, shared, gram_credit) / denom
    }

    /// The lazy bound's exact sum: the optimistic credit of every
    /// node-bearing segment replaced by the larger of its gram credit and
    /// its best taxonomy similarity to a node of `t`.
    fn exact_mass(
        &self,
        s: &SegRecord,
        t: &SegRecord,
        shared: &[u32],
        gram_credit: impl Fn(usize, u32) -> f64,
    ) -> f64 {
        let mut mass = 0.0f64;
        for (sa, &c) in shared.iter().enumerate() {
            mass += match s.node_of(sa) {
                _ if c >= FULL => 1.0,
                None => gram_credit(sa, c),
                Some(na) => (t.node_segs().iter())
                    .filter_map(|&tb| t.node_of(tb as usize))
                    .map(|nb| self.kn.taxonomy.sim(na, nb))
                    .fold(gram_credit(sa, c), f64::max),
            };
        }
        mass
    }

    /// The mass bound of one pair counted by merging the two records'
    /// posting tables, each gram credit computed on the spot (a per-pair
    /// call has no run to tabulate [`CreditTable`] for) — the same `score`
    /// call, so the same float.
    fn pair_mass(
        &self,
        s: &SegRecord,
        t: &SegRecord,
        reject_below: Option<f64>,
        scr: &mut VerifyScratch,
    ) -> f64 {
        scr.count_shared(s, t);
        let gram_credit = |sa: usize, c: u32| {
            let c = c as usize;
            self.cfg.gram.score(c, s.grams_of(sa).len(), c)
        };
        self.mass_bound(s, t, &scr.shared, gram_credit, reject_below)
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
        let min_sim = theta - self.cfg.eps;
        if let Some(sim) = Self::empty_side(s.n_tokens(), t.n_tokens()) {
            return Self::decide_empty(sim, min_sim, scr);
        }
        let mass = self.pair_mass(s, t, Some(min_sim), scr);
        if mass < min_sim {
            scr.tally.mass_rejects += 1;
            return mass.min(theta);
        }
        self.sim_tiered(s, t, Some(theta), scr)
    }

    /// Verify one whole probe run through the run-batched mass count: the
    /// record `keys` were resolved for ([`RunScratch::resolve`]) against
    /// every `(a, b)` candidate of `run` (ids into the side they were
    /// resolved against). One
    /// walk of the side's transposed index counts the shared pebble mass
    /// of every partner at once — in partner chunks when the run needs
    /// more than `RUN_COUNTERS_MAX` (2²⁰, sinks included) counters — and
    /// the column pass sums every partner's mass; with `|T|` and `MP(T)`
    /// from `side.tier0`, the bound rejects without touching the partner's
    /// record. Only the candidates it cannot reject are dereferenced, for
    /// the lazy taxonomy sum and per-pair enumeration. Accepted `(a, b,
    /// sim)` triples are pushed to `out` in run order — byte-identical,
    /// tallies included, to calling [`Verifier::sim_at_least`] per
    /// candidate. Returns the posting entries the walk read, summed over
    /// its chunks (0 for an empty run): a key's list counts once per
    /// chunk, though the walk reads it once per probe segment carrying the
    /// key (on the benchmark's q = 2 queries ≈ 1.5 × the count).
    pub fn verify_run_at_least(
        &self,
        keys: RunKeys<'_>,
        run: &[(u32, u32)],
        theta: f64,
        rs: &mut RunScratch,
        out: &mut Vec<(u32, u32, f64)>,
    ) -> u64 {
        let (s, side) = (keys.s, keys.side);
        let min_sim = theta - self.cfg.eps;
        let (ns, ns_tokens, mps) = (s.n_segments(), s.n_tokens(), s.min_partition);
        if !run.is_empty() {
            rs.credit.build(s, self.cfg.gram);
        }
        let mut walked = 0;
        for part in run.chunks(chunk_partners(ns)) {
            let stride = SINKS + part.len();
            walked += rs.count_run(&keys, part);
            rs.column_pass(s, part, side.index);
            let RunScratch {
                verify: scr,
                acc,
                mass,
                lazy,
                credit,
                ..
            } = &mut *rs;
            for (k, &(a, b)) in part.iter().enumerate() {
                let (nt, mpt) = side.tier0[b as usize];
                if let Some(sim) = Self::empty_side(ns_tokens, nt as usize) {
                    if Self::decide_empty(sim, min_sim, scr) >= min_sim {
                        out.push((a, b, sim));
                    }
                    continue;
                }
                let denom = mps.max(mpt) as f64;
                let mut bound = mass[k] / denom;
                if lazy[k] && bound >= min_sim {
                    // Partner k's counts, one per probe segment.
                    scr.shared.clear();
                    scr.shared
                        .extend((0..ns).map(|sa| acc[sa * stride + SINKS + k]));
                    let tab = |sa: usize, c: u32| credit.segment(sa)[c as usize];
                    bound = self.exact_mass(s, &side.recs[b as usize], &scr.shared, tab) / denom;
                }
                if bound < min_sim {
                    scr.tally.mass_rejects += 1;
                    continue;
                }
                let sim = self.sim_tiered(s, &side.recs[b as usize], Some(theta), scr);
                if sim >= min_sim {
                    out.push((a, b, sim));
                }
            }
        }
        rs.spare = keys.lists;
        walked
    }

    /// Full-value verification: same value as
    /// [`crate::usim::usim_approx_seg`] (no early stop), over the sparse
    /// enumeration and reused buffers. Used by top-k re-scoring.
    pub fn sim(&self, s: &SegRecord, t: &SegRecord, scr: &mut VerifyScratch) -> f64 {
        self.sim_tiered(s, t, None, scr)
    }

    /// The exact mass bound of one pair, counted pair by pair (no lazy
    /// shortcut; an empty side gets its convention value) — the surface
    /// the soundness property checks against the row-max bound. Does not
    /// touch the decision counters.
    pub fn mass_upper_bound(&self, s: &SegRecord, t: &SegRecord, scr: &mut VerifyScratch) -> f64 {
        Self::empty_side(s.n_tokens(), t.n_tokens())
            .unwrap_or_else(|| self.pair_mass(s, t, None, scr))
    }

    /// Row-max, then Algorithm 1 (the caller has already applied the mass
    /// bound when a target exists). Row-max only ever rejects, with a
    /// provable upper bound below `θ − eps`; acceptance always comes from
    /// the shared `refine_set`, so accepted values mirror the reference
    /// bit for bit.
    fn sim_tiered(
        &self,
        s: &SegRecord,
        t: &SegRecord,
        target: Option<f64>,
        scr: &mut VerifyScratch,
    ) -> f64 {
        self.surface_pairs(s, t, scr);
        self.score_pairs(s, t, scr);
        if let Some(th) = target {
            // Pre-graph rejection on the vertex upper bound, exactly as
            // the reference decision fast path (same formula, same eps
            // slack).
            let ub = vertex_upper_bound_with(s, t, &scr.vertices, &mut scr.best_s, &mut scr.best_t);
            if ub < th - self.cfg.eps {
                scr.tally.rowmax_rejects += 1;
                return ub.min(th);
            }
        }
        // Algorithm 1: rebuild the conflict graph in reused buffers. The
        // vertex list is put in dense enumeration order (s-major,
        // t-minor) only now — row-max is order-independent, and sorting
        // just its survivors is far cheaper than sorting every
        // candidate's pair list. Edge insertion replicates
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

    /// Surface every segment pair that can have `msim > 0` into the
    /// epoch-stamped tables, by merge-joining the two records' posting
    /// tables. Pairs are left in surfacing order in `scr.pairs`.
    fn surface_pairs(&self, s: &SegRecord, t: &SegRecord, scr: &mut VerifyScratch) {
        let slots = s.n_segments() * t.n_segments();
        let nt_segs = t.n_segments();
        let VerifyScratch {
            stamps,
            counts,
            flags,
            epoch,
            pairs,
            ..
        } = scr;
        if stamps.len() < slots {
            stamps.resize(slots, 0);
            counts.resize(slots, 0);
            flags.resize(slots, 0);
        }
        *epoch = epoch.wrapping_add(1);
        if *epoch == 0 {
            stamps.fill(0);
            *epoch = 1;
        }
        let epoch = *epoch;
        pairs.clear();
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
        // Surface identity (`msim`'s text-equality rule, every config).
        let (sp, tp) = (s.key_postings(), t.key_postings());
        shared_groups(sp, tp, |sg, tg| {
            cross(sp, sg, tp, tg, |sa, ta| touch(sa, ta, 0, 0));
        });
        // J: a positive gram score needs a shared distinct gram; count
        // them (postings are empty when J is disabled).
        let (sp, tp) = (s.gram_postings(), t.gram_postings());
        shared_groups(sp, tp, |sg, tg| {
            cross(sp, sg, tp, tg, |sa, ta| touch(sa, ta, 1, 0));
        });
        // S: a positive synonym score needs a rule with both surfaces as
        // sides — that rule is in both segments' rule lists.
        let (sp, tp) = (s.rule_postings(), t.rule_postings());
        shared_groups(sp, tp, |sg, tg| {
            cross(sp, sg, tp, tg, |sa, ta| touch(sa, ta, 0, FLAG_RULE));
        });
        // T: a positive taxonomy score needs nodes on both sides.
        for &sa in s.node_segs() {
            for &ta in t.node_segs() {
                touch(sa, ta, 0, FLAG_NODE);
            }
        }
    }

    /// Score the surfaced pairs into the vertex list — once sorted by
    /// `(s_seg, t_seg)`, exactly the vertex list of
    /// [`crate::usim::build_vertices`] (same weights, same winning
    /// measures).
    ///
    /// The gram merge **counted** shared distinct grams per pair as it
    /// surfaced, so the J score is `score(count, |A|, |B|)` with no
    /// per-pair re-intersection — the same arguments `msim` passes, hence
    /// the same float. Synonym and taxonomy lookups fire only for pairs
    /// surfaced by the rule/node joins (for any other pair those measures
    /// score 0 and cannot beat the running best, mirroring `msim`'s
    /// strict-`>` J-then-S-then-T order).
    fn score_pairs(&self, s: &SegRecord, t: &SegRecord, scr: &mut VerifyScratch) {
        let nt_segs = t.n_segments();
        let VerifyScratch {
            counts,
            flags,
            pairs,
            vertices,
            ..
        } = scr;
        vertices.clear();
        for &(sa, ta) in pairs.iter() {
            let a = s.segment(sa as usize);
            let b = t.segment(ta as usize);
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
                    let m = crate::msim::msim_explained(self.kn, self.cfg, &a, &b);
                    (m.0.to_bits(), m.1)
                },
                (w.to_bits(), kind),
                "sparse msim diverged from reference for {:?} / {:?}",
                a.text,
                b.text
            );
            if w > 0.0 {
                vertices.push(VertexPair {
                    s_seg: sa as usize,
                    t_seg: ta as usize,
                    weight: w,
                    kind,
                });
            }
        }
    }
}

/// Iterate the key-groups of a sorted posting table: `f(key, group)`
/// fires once per distinct key with the range of postings carrying it
/// (the run-level posting walk).
fn for_each_group(posts: Postings<'_>, mut f: impl FnMut(u64, Range<usize>)) {
    let mut i = 0usize;
    while i < posts.len() {
        let (k, start) = (posts.key(i), i);
        i += 1;
        while i < posts.len() && posts.key(i) == k {
            i += 1;
        }
        f(k, start..i);
    }
}

/// The join of the probe record's postings `sp` with a partner's `tp` by
/// two-pointer merge: `f(s_group, t_group)` fires once per key both carry,
/// with each side's range of postings for it. The mass count reads the
/// probe group only; surfacing crosses the two.
fn shared_groups(
    sp: Postings<'_>,
    tp: Postings<'_>,
    mut f: impl FnMut(Range<usize>, Range<usize>),
) {
    // Each posting's key is read once: it sits behind a slot.
    let key = |p: &Postings<'_>, i: usize| (i < p.len()).then(|| p.key(i));
    let (mut i, mut j) = (0usize, 0usize);
    let (mut a, mut b) = (key(&sp, 0), key(&tp, 0));
    while let (Some(ka), Some(kb)) = (a, b) {
        match ka.cmp(&kb) {
            std::cmp::Ordering::Less => {
                i += 1;
                a = key(&sp, i);
            }
            std::cmp::Ordering::Greater => {
                j += 1;
                b = key(&tp, j);
            }
            std::cmp::Ordering::Equal => {
                let (i0, j0) = (i, j);
                while a == Some(ka) {
                    i += 1;
                    a = key(&sp, i);
                }
                while b == Some(ka) {
                    j += 1;
                    b = key(&tp, j);
                }
                f(i0..i, j0..j);
            }
        }
    }
}

/// Every `(s_seg, t_seg)` pair of two posting groups sharing a key.
fn cross(
    sp: Postings<'_>,
    sg: Range<usize>,
    tp: Postings<'_>,
    tg: Range<usize>,
    mut emit: impl FnMut(u32, u32),
) {
    for i in sg {
        let sa = sp.seg(i);
        for j in tg.clone() {
            emit(sa, tp.seg(j));
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

    /// Surface + score with no target: the full vertex list, in dense
    /// enumeration order.
    fn enumerate_vertices(v: &Verifier<'_>, s: &SegRecord, t: &SegRecord, scr: &mut VerifyScratch) {
        v.surface_pairs(s, t, scr);
        v.score_pairs(s, t, scr);
        scr.vertices.sort_unstable_by_key(|v| (v.s_seg, v.t_seg));
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
                    enumerate_vertices(&v, a, b, &mut scr);
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

    /// Every decision lands in exactly one tally bucket, and `accepted`
    /// counts exactly the results a caller keeps — empty records included
    /// (the corpus holds two), at θ = 0 where one empty side is kept and
    /// at θ ∈ {0.5, 0.7} where only both-empty is.
    #[test]
    fn tally_buckets_partition_decisions() {
        let mut kn = kn_figure1();
        let cfg = SimConfig::default();
        let texts = corpus_texts().into_iter().chain([""]);
        let ids: Vec<_> = texts.map(|t| kn.add_record(t)).collect();
        let segs: Vec<_> = ids
            .iter()
            .map(|&id| segment_record(&kn, &cfg, &kn.record(id).tokens))
            .collect();
        let v = Verifier::new(&kn, &cfg);
        let mut scr = VerifyScratch::default();
        for theta in [0.0, 0.5, 0.7] {
            let mut kept = 0u64;
            for a in &segs {
                for b in &segs {
                    if v.sim_at_least(a, b, theta, &mut scr) >= theta - cfg.eps {
                        kept += 1;
                    }
                }
            }
            let tally = scr.take_tally();
            assert_eq!(tally.decisions(), (segs.len() * segs.len()) as u64);
            assert_eq!(tally.accepted, kept, "θ={theta}");
            if theta > 0.0 {
                assert!(tally.mass_rejects > 0 && tally.accepted >= 4, "θ={theta}");
            }
        }
        // Taking the tally resets it.
        assert_eq!(scr.take_tally().decisions(), 0);
    }

    /// The run-batched driver (corpus-level posting index + run-level
    /// mass count) accepts exactly the pairs of per-pair `sim_at_least`
    /// calls with identical bits, and both count sources — the run walk
    /// and the per-pair merge — land every candidate in the same one of
    /// the four buckets.
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
        let tier0 = tier0_of(&segs);
        let side = RunSide {
            recs: &segs,
            tier0: &tier0,
            index: &idx,
        };
        let v = Verifier::new(&kn, &cfg);
        for theta in [0.3, 0.6, 0.9] {
            let mut rs = RunScratch::default();
            let mut per_pair = VerifyScratch::default();
            for (a, sa) in segs.iter().enumerate() {
                // One run: record a against every record (including
                // empty/degenerate partners).
                let run: Vec<(u32, u32)> = (0..segs.len() as u32).map(|b| (a as u32, b)).collect();
                let mut batched = Vec::new();
                let keys = rs.resolve(sa, side);
                v.verify_run_at_least(keys, &run, theta, &mut rs, &mut batched);
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

    /// A corpus built to stress the sink rows: record `i` and `i + 8` have
    /// the same text (so a partner and a non-partner congruent mod 8 carry
    /// the same keys), every record carries "tea" (so every non-partner
    /// hits a sink on its grams), and lengths vary. Partners are the
    /// records of the even blocks of eight — 96 of 192.
    fn sink_corpus() -> (Knowledge, SimConfig, Vec<Arc<SegRecord>>, Vec<u32>) {
        const PHRASES: [&str; 8] = [
            "coffee shop",
            "latte",
            "cafe helsinki",
            "apple cake",
            "gateau",
            "espresso corner",
            "north zanzibar",
            "cake",
        ];
        let lines: Vec<String> = (0..192)
            .map(|i| {
                let base = i % 8;
                let extra: Vec<&str> = (0..=base % 4).map(|j| PHRASES[(base + j) % 8]).collect();
                format!("tea {}", extra.join(" "))
            })
            .collect();
        let (mut kn, cfg) = (kn_figure1(), SimConfig::default());
        let recs = segment_lines(&mut kn, &cfg, &lines);
        let partners = (0..192u32).filter(|b| (b / 8).is_multiple_of(2)).collect();
        (kn, cfg, recs, partners)
    }

    /// Σ over the distinct keys of `posts` of their list lengths in `table`.
    fn list_lengths(posts: Postings<'_>, table: &Transposed) -> u64 {
        let mut keys = Vec::new();
        distinct_keys_into(posts, &mut keys);
        keys.iter()
            .map(|&k| table.get(k).map_or(0, <[u32]>::len) as u64)
            .sum()
    }

    fn assert_slots_restored(rs: &RunScratch) {
        for (b, &slot) in rs.slot_of.iter().enumerate() {
            assert_eq!(slot as usize, b % SINKS, "slot_of[{b}] after a chunk");
        }
    }

    /// Every record's `(|T|, MP(T))`, as `Prepared` caches them.
    fn tier0_of(recs: &[Arc<SegRecord>]) -> Vec<(u32, u32)> {
        (recs.iter())
            .map(|r| (r.n_tokens() as u32, r.min_partition))
            .collect()
    }

    /// `count_run` chunk by chunk, read column by column: partner `k`'s
    /// slot of every probe segment's column holds exactly the per-pair
    /// count, the gram hits of a column — partners' and sinks' together —
    /// are every posting of that segment's grams' lists (so the sinks take
    /// exactly what the partners do not), the walk reads every posting of
    /// the probe's distinct keys once per chunk, and every record is back
    /// on its sink after.
    #[test]
    fn run_rows_count_what_pairs_count_and_sinks_take_the_rest() {
        let (_, _, recs, partners) = sink_corpus();
        let idx = GramPostingsIndex::build(&recs);
        let everyone = (recs[0].gram_postings().keys())
            .any(|g| idx.grams.get(g).map(<[u32]>::len) == Some(recs.len()));
        assert!(everyone, "some gram is carried by every record");
        let tier0 = tier0_of(&recs);
        let side = RunSide {
            recs: &recs,
            tier0: &tier0,
            index: &idx,
        };
        let (mut rs, mut pair) = (RunScratch::default(), VerifyScratch::default());
        for (a, s) in recs.iter().enumerate().take(16) {
            let ns = s.n_segments();
            let per_chunk = list_lengths(s.key_postings(), &idx.keys)
                + list_lengths(s.gram_postings(), &idx.grams)
                + list_lengths(s.rule_postings(), &idx.rules);
            // Per probe segment: the gram postings its column must take.
            let mut gram_hits = vec![0u64; ns];
            let posts = s.gram_postings();
            for i in 0..posts.len() {
                let list = idx.grams.get(posts.key(i)).unwrap_or_default();
                gram_hits[posts.seg(i) as usize] += list.len() as u64;
            }
            let run: Vec<(u32, u32)> = partners.iter().map(|&b| (a as u32, b)).collect();
            let keys = rs.resolve(s, side);
            assert_eq!(keys.walk(), per_chunk, "a={a}: the priced walk");
            let mut chunks = 0;
            for part in run.chunks(chunk_partners(ns)) {
                chunks += 1;
                let walked = rs.count_run(&keys, part);
                assert_eq!(walked, per_chunk, "a={a}: postings walked per chunk");
                let stride = SINKS + part.len();
                assert_eq!(rs.acc.len(), ns * stride, "a={a}: one column per segment");
                for (k, &(_, b)) in part.iter().enumerate() {
                    let column: Vec<u32> =
                        (0..ns).map(|sa| rs.acc[sa * stride + SINKS + k]).collect();
                    pair.count_shared(s, &recs[b as usize]);
                    assert_eq!(column, pair.shared, "a={a} b={b}: run counts ≡ pair count");
                }
                for (sa, &want) in gram_hits.iter().enumerate() {
                    let col = &rs.acc[sa * stride..(sa + 1) * stride];
                    let grams = |c: &[u32]| c.iter().map(|&c| u64::from(c & !FULL)).sum::<u64>();
                    let (sinks, mine) = (grams(&col[..SINKS]), grams(&col[SINKS..]));
                    assert_eq!(sinks + mine, want, "a={a} sa={sa}: column takes every hit");
                }
                assert_slots_restored(&rs);
            }
            assert!(chunks >= 1);
        }
    }

    /// The run walk with sinks ≡ per-pair `sim_at_least` — accepted pairs,
    /// similarity bits and all four buckets — on the sink corpus: runs of
    /// ≥ 3 chunks, and every record back on its sink after every run.
    #[test]
    fn run_walk_with_sinks_equals_per_pair() {
        let (kn, cfg, recs, partners) = sink_corpus();
        let idx = GramPostingsIndex::build(&recs);
        let tier0 = tier0_of(&recs);
        let side = RunSide {
            recs: &recs,
            tier0: &tier0,
            index: &idx,
        };
        let v = Verifier::new(&kn, &cfg);
        let chunks = |a: usize| {
            partners
                .len()
                .div_ceil(chunk_partners(recs[a].n_segments()))
        };
        assert!((0..8).any(|a| chunks(a) >= 3), "a run spans ≥ 3 chunks");
        for theta in [0.3, 0.6, 0.9] {
            let (mut rs, mut per_pair) = (RunScratch::default(), VerifyScratch::default());
            // Probes: every distinct text, once as a partner, once not.
            for a in (0..8).chain(8..16) {
                let s = &recs[a];
                let run: Vec<(u32, u32)> = partners.iter().map(|&b| (a as u32, b)).collect();
                let mut batched = Vec::new();
                let keys = rs.resolve(s, side);
                v.verify_run_at_least(keys, &run, theta, &mut rs, &mut batched);
                assert_slots_restored(&rs);
                let mut expect = Vec::new();
                for &(x, b) in &run {
                    let sim = v.sim_at_least(s, &recs[b as usize], theta, &mut per_pair);
                    if sim >= theta - cfg.eps {
                        expect.push((x, b, sim.to_bits()));
                    }
                }
                let got: Vec<_> = batched
                    .iter()
                    .map(|&(x, b, sim)| (x, b, sim.to_bits()))
                    .collect();
                assert_eq!(got, expect, "θ={theta} a={a}");
            }
            let (bt, pt) = (rs.take_tally(), per_pair.take_tally());
            assert_eq!(bt, pt, "θ={theta}: run walk vs per pair");
            assert_eq!(bt.decisions(), 16 * partners.len() as u64);
        }
    }

    /// The column pass ≡ per-pair `sim_at_least` — accepted pairs,
    /// similarity bits and all four buckets — on a pooled corpus built to
    /// reach every branch of the pass: node segments on both sides (with
    /// pairs whose lazy optimistic bound passes and whose exact taxonomy
    /// sum then rejects), an empty partner, [`FULL`] counts from shared
    /// surface keys and from shared rules, and runs of every record that
    /// cross chunk boundaries.
    #[test]
    fn column_pass_equals_per_pair() {
        let (mut kn, cfg) = (kn_figure1(), SimConfig::default());
        let recs = segment_lines(&mut kn, &cfg, &pooled_lines(260, 11));
        let idx = GramPostingsIndex::build(&recs);
        let tier0 = tier0_of(&recs);
        let side = RunSide {
            recs: &recs,
            tier0: &tier0,
            index: &idx,
        };
        let v = Verifier::new(&kn, &cfg);
        let n = recs.len();
        assert!(recs.iter().any(|r| r.n_tokens() == 0), "an empty partner");
        let shares = |posts: fn(&SegRecord) -> Postings<'_>| {
            (recs.iter()).any(|s| {
                (recs.iter()).any(|t| {
                    let mut any = false;
                    shared_groups(posts(s), posts(t), |_, _| any = true);
                    any && !std::ptr::eq(&**s, &**t)
                })
            })
        };
        assert!(shares(SegRecord::key_postings), "FULL from a surface key");
        assert!(shares(SegRecord::rule_postings), "FULL from a rule");
        let chunks = |r: &SegRecord| n.div_ceil(chunk_partners(r.n_segments()));
        let mut probes = recs.iter().filter(|r| r.n_tokens() > 0);
        assert!(
            probes.all(|r| chunks(r) >= 2),
            "every non-empty run crosses a chunk"
        );
        // Per non-empty pair: the lazy bound's optimistic and exact values.
        let mut scr = VerifyScratch::default();
        let mut bounds = Vec::new();
        for s in &recs {
            for t in &recs {
                if Verifier::empty_side(s.n_tokens(), t.n_tokens()).is_none() {
                    let optimistic = v.pair_mass(s, t, Some(f64::INFINITY), &mut scr);
                    bounds.push((optimistic, v.pair_mass(s, t, None, &mut scr)));
                }
            }
        }
        let mut exact_rejects = 0;
        for theta in [0.3, 0.5, 0.7, 0.9] {
            let min_sim = theta - cfg.eps;
            let lazy_rejects =
                |&(optimistic, exact): &(f64, f64)| optimistic >= min_sim && exact < min_sim;
            exact_rejects += bounds.iter().filter(|b| lazy_rejects(b)).count();
            let (mut rs, mut per_pair) = (RunScratch::default(), VerifyScratch::default());
            for (a, s) in recs.iter().enumerate() {
                let run: Vec<(u32, u32)> = (0..n as u32).map(|b| (a as u32, b)).collect();
                let mut batched = Vec::new();
                let keys = rs.resolve(s, side);
                v.verify_run_at_least(keys, &run, theta, &mut rs, &mut batched);
                let mut expect = Vec::new();
                for &(x, b) in &run {
                    let sim = v.sim_at_least(s, &recs[b as usize], theta, &mut per_pair);
                    if sim >= min_sim {
                        expect.push((x, b, sim.to_bits()));
                    }
                }
                let got: Vec<_> = (batched.iter())
                    .map(|&(x, b, sim)| (x, b, sim.to_bits()))
                    .collect();
                assert_eq!(got, expect, "θ={theta} a={a}");
            }
            let (bt, pt) = (rs.take_tally(), per_pair.take_tally());
            assert_eq!(bt, pt, "θ={theta}: column pass vs per pair");
            assert_eq!(bt.decisions(), (n * n) as u64);
            assert!(bt.mass_rejects > 0 && bt.accepted > 0, "θ={theta}: {bt:?}");
        }
        assert!(
            exact_rejects > 0,
            "some lazy partner is rejected by the exact taxonomy sum"
        );
    }

    /// The three tables of `idx` against the sort-based builder.
    fn assert_index_equals_sorted(idx: &GramPostingsIndex, recs: &[Arc<SegRecord>], ctx: &str) {
        use crate::index::tests::transpose_by_sorting;
        let of = |r: u32| &recs[r as usize];
        let n = recs.len();
        let keys = transpose_by_sorting(n, |r, out| distinct_keys_into(of(r).key_postings(), out));
        let grams =
            transpose_by_sorting(n, |r, out| distinct_keys_into(of(r).gram_postings(), out));
        let rules =
            transpose_by_sorting(n, |r, out| distinct_keys_into(of(r).rule_postings(), out));
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
            assert!(recs.iter().any(|r| r.n_tokens() == 0));
            assert_eq!(
                recs.iter().all(|r| r.gram_postings().is_empty()),
                !measures.contains(MeasureSet::J)
            );
            let whole = GramPostingsIndex::build_in(&recs, 1, 2);
            assert_index_equals_sorted(&whole, &recs, &format!("{measures:?} whole"));
            let serial = GramPostingsIndex::build_for(&recs, false);
            assert_index_equals_sorted(&serial, &recs, &format!("{measures:?} serial"));
            for ranges in [2, 6, 701] {
                let cut = GramPostingsIndex::build_in(&recs, ranges, 2);
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
        let mut kn = kn_figure1();
        let recs = segment_lines(&mut kn, &SimConfig::default(), &pooled_lines(200, 3));
        for r in &recs {
            for posts in [r.key_postings(), r.gram_postings(), r.rule_postings()] {
                out.clear();
                distinct_keys_into(posts, &mut out);
                let mut want: Vec<u64> = posts.keys().collect();
                want.dedup();
                assert_eq!(out, want);
            }
        }
        assert!(recs.iter().any(|r| r.n_tokens() == 0));
    }
}
