//! The unified session API: one engine, one prepared artifact.
//!
//! The paper's whole point is that threshold joins, top-k joins and online
//! search all run on the *same* USIM signatures and U-/AU-Filters, so the
//! public surface is one pipeline with one options type ([`JoinSpec`]) and
//! one prepared artifact ([`Prepared`]) — the shape a long-lived service
//! answering many operations over the same corpora wants:
//!
//! ```text
//! Engine (Knowledge + SimConfig, validated once)
//!   └─ prepare(corpus) → Prepared        segmentation + SegRecord posting
//!        │                               tables + cached tier-0 integers +
//!        │                               pebble document frequencies
//!        ├─ join / join_self / join_sink  (threshold, streaming optional)
//!        ├─ topk / topk_self              (threshold descent)
//!        ├─ searcher(..).query(..)        (online search, no &mut)
//!        └─ suggest_tau / calibrate / filter_outcome / probe (tuning)
//!   └─ scan(session, rows, query)        filterless search over loose
//!                                        SegRecords (small append-only
//!                                        segments; no Prepared at all)
//! ```
//!
//! A [`Prepared`] lazily memoizes the order-dependent artifacts — the
//! global [`PebbleOrder`], signature key sets ([`SelectedSignatures`]) and
//! the CSR inverted index — keyed by `(order, θ, filter, MP mode)`, so a
//! `tune_tau`-then-join workflow, a top-k descent revisiting a θ, or a
//! search following a join never prepares (or re-selects) the same thing
//! twice. Pebble lists are never resident: a record's pebbles exist only
//! inside the pass that selects its signature
//! ([`crate::join::record_signature`]). Output bytes are pinned
//! by `tests/determinism_pin.rs`; completeness is checked against
//! [`crate::join::brute_force_join`] throughout the test suites.
//!
//! **Staleness guard.** Every vocabulary mutation mints a new
//! [`Knowledge::generation`], and each [`Prepared`] stamps the generation
//! it was built under; an operation against a mismatched generation
//! returns [`AuError::StaleKnowledge`]. The guard is deliberately
//! conservative: interning into *one* knowledge context only appends, but
//! generations exist to tell apart knowledge clones that diverged after a
//! fork (two clones can assign the same fresh id to different words — the
//! silently-wrong-score hazard), and a per-mutation mint is what makes
//! that detection airtight. The cost of the conservatism is bounded:
//! tokenize every corpus *before* handing the knowledge to the engine
//! (or re-prepare after [`Engine::corpus_from_lines`], which documents
//! the invalidation).

use crate::config::SimConfig;
use crate::error::AuError;
use crate::estimate::{CostModel, FilterCounts};
use crate::index::CsrIndex;
use crate::join::{
    batched_verify_pays, candidate_pass, verify_candidates, CompatCtx, FilterOutcome, JoinResult,
    JoinStats, SelectedSignatures,
};
use crate::knowledge::Knowledge;
use crate::pebble::{DocFreqs, PebbleOrder};
use crate::probe::{probe_loop, ProbeOutcome};
use crate::search::{run_scan, SearchCore, SearchOutcome};
pub use crate::search::{QuerySession, Searcher, SnapshotSearcher};
use crate::segment::{segment_record, segment_stats, SegRecord};
use crate::shard::{shard_pair_compatible, ShardPlan, ShardSpec, ShardedPrepared};
use crate::signature::{FilterKind, MpMode};
use crate::suggest::{suggest_loop, SuggestConfig, SuggestOutcome};
use crate::topk::TopkResult;
use crate::usim::{usim_approx_seg, GramPostingsIndex, Verifier, VerifyScratch, VerifyTiers};
use au_text::record::{Corpus, RecordId};
use au_text::FxHashMap;
use au_text::TokenId;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Mint for [`Prepared`] identities (memo keys for pair orders).
static NEXT_PREPARED_ID: AtomicU64 = AtomicU64::new(1);

/// Process-wide count of stage-1 runs (whole-corpus segmentation inside
/// [`Engine::prepare`]). Tests assert that session
/// workflows (`calibrate` + join, search after join) prepare a corpus
/// exactly once; a service dashboard can watch it for accidental
/// re-preparation.
static PREPARE_INVOCATIONS: AtomicU64 = AtomicU64::new(0);

/// How many times stage 1 has run in this process.
pub fn prepare_invocations() -> u64 {
    // ordering: Relaxed — an advisory monotonic counter; readers tolerate
    // any in-flight increment, and tests that need an exact value create
    // the happens-before edge themselves by joining the preparing thread
    // (or running single-threaded) before loading.
    PREPARE_INVOCATIONS.load(Ordering::Relaxed)
}

/// Lock a session mutex, recovering from poisoning instead of panicking.
///
/// Every mutex in the session API guards cache or scratch state whose
/// contents are correctness-neutral: memoized artifacts equal what a
/// rebuild would produce byte-for-byte, the sharded-join counters are
/// monotone telemetry, and the searcher overlay is a lookup-or-append
/// interner. A panic on another thread while holding one of these locks
/// therefore cannot leave state a later reader must not observe — at
/// worst an entry is missing and gets rebuilt — so the poison flag is
/// cleared and the guard handed out. This keeps `unwrap`/`expect` out of
/// the public engine paths (the `P` lint): a long-lived service survives
/// a stray panic in one request instead of unwinding every later caller.
pub(crate) fn relock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Candidates verified per batch by the streaming sink paths — bounds the
/// materialized result memory without starving the parallel verifier.
const SINK_CHUNK: usize = 64 * 1024;

// ---------------------------------------------------------------------------
// JoinSpec
// ---------------------------------------------------------------------------

/// Which result shape a [`JoinSpec`] asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SpecMode {
    Threshold,
    Topk,
}

/// Builder-style description of one join/search/top-k operation.
///
/// Construct with [`JoinSpec::threshold`] (θ-join, search) or
/// [`JoinSpec::topk`] (descent), then chain filter and execution options:
///
/// ```
/// use au_core::engine::JoinSpec;
///
/// let spec = JoinSpec::threshold(0.8).au_dp(2).serial();
/// assert_eq!(spec.theta(), 0.8);
/// let top = JoinSpec::topk(10).au_heuristic(3).descent(0.9, 0.4, 0.1);
/// assert_eq!(top.k(), 10);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JoinSpec {
    mode: SpecMode,
    pub(crate) theta: f64,
    pub(crate) filter: FilterKind,
    pub(crate) mp_mode: MpMode,
    pub(crate) parallel: bool,
    k: usize,
    theta_start: f64,
    theta_floor: f64,
    step: f64,
}

impl JoinSpec {
    /// Threshold mode: report every pair with `USIM ≥ theta`.
    ///
    /// Defaults: U-Filter, exact-DP minimum partitions, parallel
    /// execution.
    pub fn threshold(theta: f64) -> Self {
        Self {
            mode: SpecMode::Threshold,
            theta,
            filter: FilterKind::UFilter,
            mp_mode: MpMode::ExactDp,
            parallel: true,
            k: 0,
            theta_start: 0.95,
            theta_floor: 0.3,
            step: 0.1,
        }
    }

    /// Top-k mode: report the `k` most similar pairs via threshold
    /// descent (defaults: AU-Filter DP τ=2, start 0.95, floor 0.3, step
    /// 0.1).
    pub fn topk(k: usize) -> Self {
        Self {
            mode: SpecMode::Topk,
            k,
            filter: FilterKind::AuDp { tau: 2 },
            ..Self::threshold(0.95)
        }
    }

    /// Use the U-Filter (Algorithm 3; one required overlap).
    pub fn u_filter(mut self) -> Self {
        self.filter = FilterKind::UFilter;
        self
    }

    /// Use the AU-Filter with heuristic signatures (Algorithm 4/6).
    pub fn au_heuristic(mut self, tau: u32) -> Self {
        self.filter = FilterKind::AuHeuristic { tau };
        self
    }

    /// Use the AU-Filter with DP signatures (Algorithm 5/6).
    pub fn au_dp(mut self, tau: u32) -> Self {
        self.filter = FilterKind::AuDp { tau };
        self
    }

    /// Use an explicit [`FilterKind`].
    pub fn filter(mut self, filter: FilterKind) -> Self {
        self.filter = filter;
        self
    }

    /// Minimum-partition bound mode (default exact DP).
    pub fn mp_mode(mut self, mp: MpMode) -> Self {
        self.mp_mode = mp;
        self
    }

    /// Run single-threaded (deterministic output is identical either
    /// way; serial mode exists for measurement and debugging).
    pub fn serial(mut self) -> Self {
        self.parallel = false;
        self
    }

    /// Enable/disable multi-threaded probing + verification (worker count
    /// follows the host, overridable with `AU_THREADS`).
    pub fn parallel(mut self, on: bool) -> Self {
        self.parallel = on;
        self
    }

    /// Top-k descent schedule: first-round θ, the floor below which the
    /// descent stops, and the per-round subtractive step.
    pub fn descent(mut self, theta_start: f64, theta_floor: f64, step: f64) -> Self {
        self.theta_start = theta_start;
        self.theta_floor = theta_floor;
        self.step = step;
        self
    }

    /// The threshold θ (threshold mode) or first-round θ (top-k mode).
    pub fn theta(&self) -> f64 {
        match self.mode {
            SpecMode::Threshold => self.theta,
            SpecMode::Topk => self.theta_start,
        }
    }

    /// The `k` of a top-k spec (0 for threshold specs).
    pub fn k(&self) -> usize {
        self.k
    }

    /// The configured filter.
    pub fn filter_kind(&self) -> FilterKind {
        self.filter
    }

    /// True for [`JoinSpec::topk`] specs.
    pub fn is_topk(&self) -> bool {
        self.mode == SpecMode::Topk
    }

    fn invalid(field: &'static str, message: String) -> AuError {
        AuError::InvalidSpec { field, message }
    }

    /// Validate for a threshold-mode operation (the stage functions read
    /// `theta` / `filter` / `mp_mode` / `parallel` straight off a spec
    /// that passed this).
    fn validate_threshold(&self) -> Result<(), AuError> {
        if self.mode != SpecMode::Threshold {
            return Err(Self::invalid(
                "mode",
                "top-k spec passed to a threshold operation; use Engine::topk".into(),
            ));
        }
        if !(0.0..=1.0).contains(&self.theta) || self.theta.is_nan() {
            return Err(Self::invalid(
                "theta",
                format!("threshold must be in [0, 1], got {}", self.theta),
            ));
        }
        Ok(())
    }

    /// Validate a top-k spec (descent schedule sanity).
    fn validate_topk(&self) -> Result<(), AuError> {
        if self.mode != SpecMode::Topk {
            return Err(Self::invalid(
                "mode",
                "threshold spec passed to Engine::topk; use JoinSpec::topk(k)".into(),
            ));
        }
        if self.theta_floor <= 0.0 || self.theta_floor.is_nan() {
            return Err(Self::invalid(
                "theta_floor",
                format!(
                    "floor must be positive (a floor of 0 degrades to brute force), got {}",
                    self.theta_floor
                ),
            ));
        }
        if self.theta_start < self.theta_floor || self.theta_start > 1.0 {
            return Err(Self::invalid(
                "theta_start",
                format!(
                    "need theta_floor <= theta_start <= 1, got start {} floor {}",
                    self.theta_start, self.theta_floor
                ),
            ));
        }
        if self.step <= 0.0 || self.step.is_nan() {
            return Err(Self::invalid(
                "step",
                format!("descent step must be positive, got {}", self.step),
            ));
        }
        Ok(())
    }

    /// The same spec as a threshold-mode operation at `theta` (one round
    /// of the top-k descent).
    fn at_theta(&self, theta: f64) -> Self {
        Self {
            mode: SpecMode::Threshold,
            theta,
            ..*self
        }
    }
}

// ---------------------------------------------------------------------------
// Prepared
// ---------------------------------------------------------------------------

/// Key identifying which global pebble order an artifact was built under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum OrderKey {
    /// Order built from this corpus alone (self-joins, search indexes).
    SelfOrder,
    /// Order built over this corpus and the partner [`Prepared`] with the
    /// given id (R×S joins). `Pair(own id)` means R×S of a corpus with
    /// itself — frequencies count both sides.
    Pair(u64),
}

/// Memo key for signature prefixes and CSR indexes: everything selection
/// depends on besides the corpus itself. (`eps` comes from the engine's
/// [`SimConfig`], fixed for the engine's lifetime; parallelism affects
/// only speed, never the selected prefixes.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct SigKey {
    order: OrderKey,
    theta_bits: u64,
    filter: FilterKind,
    mp_mode: MpMode,
}

impl SigKey {
    fn new(order: OrderKey, spec: &JoinSpec) -> Self {
        Self {
            order,
            theta_bits: spec.theta.to_bits(),
            filter: spec.filter,
            mp_mode: spec.mp_mode,
        }
    }

    /// A spec selecting what this key memoizes.
    fn spec(&self) -> JoinSpec {
        JoinSpec::threshold(f64::from_bits(self.theta_bits))
            .filter(self.filter)
            .mp_mode(self.mp_mode)
    }
}

/// One resident memo entry, queued in arrival order for capacity
/// eviction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MemoSlot {
    Order(OrderKey),
    Sig(SigKey),
    Csr(SigKey),
}

/// A resident order. It may be an inherited one ([`PebbleOrder::inherit`]),
/// not a function of the corpus — so what was selected under it is filed
/// and served only while it is resident ([`Memo::under`]), and leaves the
/// memo before it does ([`Memo::enforce_capacity`]).
#[derive(Debug)]
struct Ranked {
    order: Arc<PebbleOrder>,
    /// Records run through stage 3 under this order for this memo.
    signed: u64,
}

/// Lazily built, memoized artifacts of one prepared corpus.
#[derive(Debug, Default)]
struct Memo {
    orders: FxHashMap<OrderKey, Ranked>,
    sigs: FxHashMap<SigKey, Arc<SelectedSignatures>>,
    csr: FxHashMap<SigKey, Arc<CsrIndex>>,
    /// [`Prepared::transposed`]: one per corpus (no order, no θ), so
    /// outside `arrivals` and the capacity bound, which exist for the
    /// artifacts a threshold sweep multiplies.
    transposed: Option<Arc<GramPostingsIndex>>,
    hits: u64,
    misses: u64,
    /// Arrival order of every resident entry (front = oldest), kept in
    /// lockstep with the three maps; drives capacity eviction.
    arrivals: VecDeque<MemoSlot>,
    /// Max resident entries across the three maps; 0 = unbounded.
    capacity: usize,
    evictions: u64,
}

impl Memo {
    fn resident(&self) -> usize {
        self.orders.len() + self.sigs.len() + self.csr.len()
    }

    /// The entry of `key` while it still holds `order` itself (it may have
    /// been cleared and re-ranked between a caller's two visits).
    fn under(&mut self, key: OrderKey, order: &Arc<PebbleOrder>) -> Option<&mut Ranked> {
        (self.orders.get_mut(&key)).filter(|e| Arc::ptr_eq(&e.order, order))
    }

    /// The resident order of `key`; `order`, filed, when there is none.
    fn order_or_insert(&mut self, key: OrderKey, order: Arc<PebbleOrder>) -> Arc<PebbleOrder> {
        let entry = self.orders.entry(key);
        let out = entry.or_insert(Ranked { order, signed: 0 }).order.clone();
        self.note_insert(MemoSlot::Order(key));
        out
    }

    /// Record that `slot` is (still) resident, then evict the oldest
    /// entries past the capacity bound. Evicting an entry a caller just
    /// received is harmless — the caller holds its own `Arc`, the memo is
    /// purely a cache — and cannot happen to the entry recorded here
    /// while anything older remains (`slot` sits at the back of the
    /// queue, eviction pops the front).
    fn note_insert(&mut self, slot: MemoSlot) {
        if !self.arrivals.contains(&slot) {
            self.arrivals.push_back(slot);
        }
        self.enforce_capacity();
    }

    fn enforce_capacity(&mut self) {
        if self.capacity == 0 {
            return;
        }
        while self.resident() > self.capacity {
            let old = match self.arrivals.pop_front() {
                Some(s) => s,
                None => break,
            };
            match old {
                // An order outlives what was selected under it: back of
                // the queue while it has dependents (each has a slot of its
                // own, so the loop advances).
                MemoSlot::Order(k) => {
                    let under_k = |s: &MemoSlot| match s {
                        MemoSlot::Sig(d) | MemoSlot::Csr(d) => d.order == k,
                        MemoSlot::Order(_) => false,
                    };
                    if self.arrivals.iter().any(under_k) {
                        self.arrivals.push_back(old);
                        continue;
                    }
                    self.orders.remove(&k);
                }
                MemoSlot::Sig(k) => {
                    self.sigs.remove(&k);
                }
                MemoSlot::Csr(k) => {
                    self.csr.remove(&k);
                }
            }
            self.evictions += 1;
        }
    }
}

/// One corpus, prepared once: segmentation, per-record posting tables
/// (inside each [`SegRecord`]), cached tier-0 integers, the corpus's pebble
/// document frequencies, and a memo of the artifacts operations derive
/// from them (per order and θ: order, signatures, CSR index; per corpus:
/// the verifier's transposed posting index). Nothing
/// here is proportional to the pebble count — pebbles are regenerated per
/// record inside signature selection and dropped. Create with
/// [`Engine::prepare`]; every engine operation consumes `&Prepared`.
///
/// ```
/// use au_core::engine::Engine;
/// use au_core::{KnowledgeBuilder, SimConfig};
///
/// let mut kn = KnowledgeBuilder::new().build();
/// let c = kn.corpus_from_lines(["coffee shop", "tea house"]);
/// let engine = Engine::new(kn, SimConfig::default()).unwrap();
/// let prepared = engine.prepare(&c).unwrap();
/// assert_eq!(prepared.len(), 2);
/// assert!(prepared.memory_bytes() > 0);
/// ```
#[derive(Debug)]
pub struct Prepared {
    id: u64,
    gen: u64,
    /// Configuration the artifact was segmented under (checked by every
    /// engine operation — see [`AuError::ConfigMismatch`]).
    cfg: SimConfig,
    corpus: Corpus,
    /// Segmented records (posting tables included), by record id; shared
    /// with every artifact [`Engine::merge_prepared`] derives from this
    /// one (a row is immutable once segmented).
    segrecs: Vec<Arc<SegRecord>>,
    /// Pebble key → number of this corpus's records carrying it, counted
    /// once here; every global order over this corpus (alone or with a
    /// join partner) is built by adding such tables.
    df: DocFreqs,
    /// `(|S|, MP(S))` per record — the two integers of the verifier's
    /// tier-0 record-level bound `USIM ≤ min(|S|,|T|) / max(MP(S),MP(T))`,
    /// packed for O(1) [`Engine::usim_upper_bound`] pre-screens.
    pub(crate) tier0: Vec<(u32, u32)>,
    prepare_seconds: f64,
    memo: Mutex<Memo>,
}

impl Prepared {
    /// Number of records.
    pub fn len(&self) -> usize {
        self.segrecs.len()
    }

    /// True when the corpus has no records.
    pub fn is_empty(&self) -> bool {
        self.segrecs.is_empty()
    }

    /// The corpus this artifact was prepared from.
    pub fn corpus(&self) -> &Corpus {
        &self.corpus
    }

    /// Knowledge generation this artifact was prepared under.
    pub fn generation(&self) -> u64 {
        self.gen
    }

    /// Wall-clock spent segmenting at [`Engine::prepare`] time (merging,
    /// for [`Engine::merge_prepared`]). Operations on this artifact never
    /// pay it again — [`JoinStats`] times stages 2–5 only.
    pub fn prepare_seconds(&self) -> f64 {
        self.prepare_seconds
    }

    /// Deep heap footprint of this artifact in bytes: corpus, segmented
    /// records (posting tables included), tier-0 integers, the document
    /// frequency table, plus every *currently memoized* order / signature
    /// / CSR artifact and the transposed posting index once an operation
    /// has built it. Length-based accounting (buffer lengths, not
    /// capacities), so the figure is deterministic for a given corpus and
    /// operation history — the number the sharded joins' peak-memory
    /// claim and the perf harness's memory column are measured in.
    /// A row counts in full (pointer and counts included) in every artifact
    /// holding it: generations sharing rows sum to more than the process holds.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        let mut total = size_of::<Self>();
        total += self.corpus.memory_bytes();
        let arc_bytes = size_of::<Arc<SegRecord>>() + 2 * size_of::<usize>();
        for sr in &self.segrecs {
            total += arc_bytes + sr.memory_bytes();
        }
        total += self.tier0.len() * size_of::<(u32, u32)>();
        total += self.df.memory_bytes();
        let m = self.memo();
        // det: the three memo walks below fold into a commutative +=
        // sum, so map iteration order cannot reach the returned total.
        for ranked in m.orders.values() {
            total += ranked.order.memory_bytes();
        }
        // det: order-insensitive sum (see above).
        for sel in m.sigs.values() {
            total += sel.memory_bytes();
        }
        // det: order-insensitive sum (see above).
        for csr in m.csr.values() {
            total += csr.memory_bytes();
        }
        total + m.transposed.as_ref().map_or(0, |idx| idx.memory_bytes())
    }

    /// Every segmented record, indexed by record id — the slices the
    /// stage functions of [`crate::join`] take.
    pub fn seg_records(&self) -> &[Arc<SegRecord>] {
        &self.segrecs
    }

    /// The segmented record `id`.
    pub fn seg_record(&self, id: u32) -> Result<&SegRecord, AuError> {
        self.segrecs
            .get(id as usize)
            .map(|sr| &**sr)
            .ok_or(AuError::RecordOutOfBounds {
                id,
                len: self.len(),
            })
    }

    /// Memoized-artifact lookups served from cache so far (orders,
    /// signatures, CSR indexes).
    pub fn memo_hits(&self) -> u64 {
        relock(&self.memo).hits
    }

    /// Memoized-artifact builds (cache misses) so far — orders,
    /// signatures, CSR indexes, the one transposed posting index.
    pub fn memo_misses(&self) -> u64 {
        relock(&self.memo).misses
    }

    /// Number of memoized artifacts currently retained.
    ///
    /// The memo grows by two entries — signatures and CSR index — per
    /// distinct `(order, θ, filter, MP mode)` combination, plus one per
    /// distinct order (the per-corpus transposed posting index is not
    /// counted here). By default it never evicts: a service exposing
    /// *user-chosen* thresholds to a long-lived `Prepared` should either
    /// bucket them to a fixed grid, set a bound with
    /// [`Prepared::with_memo_capacity`], or call
    /// [`Prepared::clear_memo`] periodically — entries for dropped join
    /// partners are likewise only reclaimed by eviction or a clear.
    pub fn memo_len(&self) -> usize {
        relock(&self.memo).resident()
    }

    /// Cap the memo at `capacity` resident artifacts (0 = unbounded, the
    /// default). Past the bound the oldest entries are evicted on every
    /// insert — the pressure valve that keeps a threshold-sweeping
    /// service's footprint flat without giving up warm-path memo hits.
    /// Builder-style wrapper over [`Prepared::set_memo_capacity`] for
    /// use at prepare time.
    pub fn with_memo_capacity(self, capacity: usize) -> Self {
        self.set_memo_capacity(capacity);
        self
    }

    /// Set the memo capacity on a shared artifact (0 = unbounded). When
    /// the new bound is below the current population the oldest entries
    /// are evicted immediately.
    pub fn set_memo_capacity(&self, capacity: usize) {
        let mut m = relock(&self.memo);
        m.capacity = capacity;
        m.enforce_capacity();
    }

    /// Current memo capacity (0 = unbounded).
    pub fn memo_capacity(&self) -> usize {
        relock(&self.memo).capacity
    }

    /// Memo entries evicted by the capacity bound so far.
    pub fn memo_evictions(&self) -> u64 {
        relock(&self.memo).evictions
    }

    /// Records run through stage 3 under the orders this memo holds:
    /// every row per selection made here, only the appended rows per
    /// selection [`Engine::merge_prepared`] inherited.
    pub fn records_signed(&self) -> u64 {
        // det: order-insensitive sum.
        self.memo().orders.values().map(|r| r.signed).sum()
    }

    /// Drop every memoized artifact, the transposed posting index
    /// included (the segmentation itself is kept — subsequent operations
    /// rebuild orders/signatures/indexes lazily, never stage 1). Bounds
    /// memory for services that stream distinct thresholds or join
    /// partners through one long-lived `Prepared`. An inherited order
    /// ([`Engine::merge_prepared`]) goes too: the next operation ranks
    /// this corpus's own frequencies, as a fresh prepare would.
    pub fn clear_memo(&self) {
        let mut m = relock(&self.memo);
        m.orders.clear();
        m.sigs.clear();
        m.csr.clear();
        m.arrivals.clear();
        m.transposed = None;
    }

    /// The corpus-level transposed posting index (which records carry a
    /// surface key, gram or rule), built on first use — under the memo
    /// lock, so exactly once — and shared from then on by every join
    /// against, and every searcher over, this corpus at any θ.
    fn transposed(&self) -> Arc<GramPostingsIndex> {
        let mut m = self.memo();
        if let Some(idx) = &m.transposed {
            return idx.clone();
        }
        m.misses += 1;
        let idx = Arc::new(GramPostingsIndex::build(&self.segrecs));
        m.transposed = Some(idx.clone());
        idx
    }

    /// The index stage 5 verifies `n_candidates` against this corpus
    /// through: [`Prepared::transposed`] once it exists, or when the
    /// candidates pay for building it; `None` = count pair by pair.
    fn verify_index(&self, n_candidates: usize) -> Option<Arc<GramPostingsIndex>> {
        let built = self.memo().transposed.is_some();
        (built || batched_verify_pays(n_candidates, self.len())).then(|| self.transposed())
    }

    fn memo(&self) -> std::sync::MutexGuard<'_, Memo> {
        relock(&self.memo)
    }
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

/// The session root: an immutable knowledge context plus a validated
/// similarity configuration.
///
/// ```
/// use au_core::engine::{Engine, JoinSpec};
/// use au_core::{KnowledgeBuilder, SimConfig};
///
/// let mut kb = KnowledgeBuilder::new();
/// kb.synonym("coffee shop", "cafe", 1.0);
/// let mut kn = kb.build();
/// let s = kn.corpus_from_lines(["coffee shop latte"]);
/// let t = kn.corpus_from_lines(["cafe latte", "tea house"]);
///
/// let engine = Engine::new(kn, SimConfig::default()).unwrap();
/// let ps = engine.prepare(&s).unwrap();
/// let pt = engine.prepare(&t).unwrap();
/// let res = engine.join(&ps, &pt, &JoinSpec::threshold(0.7).au_dp(2)).unwrap();
/// assert_eq!(res.pairs[0].0, 0);
/// // Second operation on the same artifacts skips preparation entirely.
/// let again = engine.join(&ps, &pt, &JoinSpec::threshold(0.7).au_dp(2)).unwrap();
/// assert_eq!(again.pairs, res.pairs);
/// assert!(pt.memo_hits() > 0);
/// ```
#[derive(Debug)]
pub struct Engine {
    kn: Knowledge,
    cfg: SimConfig,
}

fn validate_config(cfg: &SimConfig) -> Result<(), AuError> {
    let bad = |field: &'static str, message: String| AuError::InvalidConfig { field, message };
    if cfg.q == 0 {
        return Err(bad("q", "gram length must be at least 1".into()));
    }
    if cfg.measures.is_empty() {
        return Err(bad(
            "measures",
            "at least one measure must be enabled".into(),
        ));
    }
    if cfg.t_param <= 1.0 || cfg.t_param.is_nan() {
        return Err(bad(
            "t_param",
            format!("Algorithm 1 needs t > 1 (Theorem 2), got {}", cfg.t_param),
        ));
    }
    if cfg.max_talons < 3 {
        return Err(bad(
            "max_talons",
            format!(
                "claw search needs at least 3 talons, got {}",
                cfg.max_talons
            ),
        ));
    }
    if !(0.0..0.1).contains(&cfg.eps) {
        return Err(bad(
            "eps",
            format!("float slack must be in [0, 0.1), got {}", cfg.eps),
        ));
    }
    Ok(())
}

impl Engine {
    /// Validate `cfg` once and take ownership of the knowledge context.
    pub fn new(kn: Knowledge, cfg: SimConfig) -> Result<Self, AuError> {
        validate_config(&cfg)?;
        Ok(Self { kn, cfg })
    }

    /// An engine over `kn` under this engine's already-validated
    /// configuration — infallible, which is what lets a serving layer
    /// publish a new knowledge state (one more interned record) without a
    /// failure path after its commit point.
    pub fn with_knowledge(&self, kn: Knowledge) -> Self {
        Self { kn, cfg: self.cfg }
    }

    /// The engine's knowledge context (read-only: every mutation path
    /// goes through [`Engine::knowledge_mut`], which invalidates prepared
    /// artifacts via the generation guard).
    pub fn knowledge(&self) -> &Knowledge {
        &self.kn
    }

    /// The validated similarity configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Mutable access to the knowledge context. Any vocabulary mutation
    /// mints a new [`Knowledge::generation`], after which every existing
    /// [`Prepared`] returns [`AuError::StaleKnowledge`] — re-prepare.
    pub fn knowledge_mut(&mut self) -> &mut Knowledge {
        &mut self.kn
    }

    /// Tokenize lines into a corpus sharing this engine's vocabulary.
    /// Interning mutates the vocabulary, so existing [`Prepared`]
    /// artifacts become stale (see [`Engine::knowledge_mut`]).
    pub fn corpus_from_lines<'a>(&mut self, lines: impl IntoIterator<Item = &'a str>) -> Corpus {
        self.kn.corpus_from_lines(lines)
    }

    /// Recover the knowledge context.
    pub fn into_knowledge(self) -> Knowledge {
        self.kn
    }

    /// Stage 1, once per corpus: segment every record, build its posting
    /// tables, cache the tier-0 integers and count the corpus's pebble
    /// document frequencies (records are independent, so the pass fans out
    /// over [`crate::parallel`] past its size floor). Everything else an
    /// operation needs is derived lazily (and memoized) from this.
    pub fn prepare(&self, corpus: &Corpus) -> Result<Prepared, AuError> {
        self.prepare_owned(corpus.clone())
    }

    /// [`Engine::prepare`] taking the corpus by value — the zero-copy
    /// path for services that don't keep their own handle. The corpus is
    /// retained inside the [`Prepared`] (sampling for
    /// [`Engine::suggest_tau`]/[`Engine::probe`] and result rendering
    /// need the records), so `prepare(&c)` costs one deep corpus clone
    /// that this variant avoids.
    pub fn prepare_owned(&self, corpus: Corpus) -> Result<Prepared, AuError> {
        self.check_tokens(&corpus)?;
        Ok(self.prepare_trusted(corpus))
    }

    /// Every token of `corpus` must be an id of this engine's vocabulary.
    fn check_tokens(&self, corpus: &Corpus) -> Result<(), AuError> {
        corpus.iter().try_for_each(|r| self.check_ids(&r.tokens))
    }

    /// Every id of `tokens` must be an id of this engine's vocabulary.
    fn check_ids(&self, tokens: &[TokenId]) -> Result<(), AuError> {
        let vocab_len = self.kn.vocab.len();
        match tokens.iter().find(|t| t.idx() >= vocab_len) {
            Some(bad) => Err(AuError::UnknownToken {
                id: bad.0,
                vocab_len,
            }),
            None => Ok(()),
        }
    }

    /// Stage 1 on a corpus whose tokens are known to be in this engine's
    /// vocabulary ([`Engine::prepare_owned`] and
    /// [`Engine::prepare_sharded`] check; Bernoulli samples of an
    /// already-prepared corpus and shards of an already-checked one need
    /// no re-check).
    fn prepare_trusted(&self, corpus: Corpus) -> Prepared {
        self.prepare_with(corpus, true)
    }

    /// [`Engine::prepare_trusted`] with the fan-out switch exposed (the
    /// serial leg exists for the parallel ≡ serial test).
    fn prepare_with(&self, corpus: Corpus, parallel: bool) -> Prepared {
        // ordering: Relaxed — the count only needs each increment applied
        // exactly once, which RMW atomicity guarantees; nothing else is
        // published through this counter (see `prepare_invocations`).
        PREPARE_INVOCATIONS.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        // Each worker counts its records' keys into a table of its own,
        // folded here when the worker is done; frequencies add.
        let df = Mutex::new(DocFreqs::default());
        let segrecs = crate::parallel::par_map_scratch(
            corpus.records(),
            parallel,
            || (Vec::new(), DocFreqs::default()),
            |(keys, counts): &mut (Vec<_>, DocFreqs), r| {
                let sr = segment_record(&self.kn, &self.cfg, &r.tokens);
                counts.count_record(&self.kn, &sr, keys);
                sr
            },
            |(_, counts)| relock(&df).add(counts),
        );
        // A pass of its own: row headers allocated back to back keep a
        // candidate walk ≈ 15 % cheaper than interleaved ones (DESIGN.md).
        let segrecs = segrecs.into_iter().map(Arc::new).collect();
        let df = df
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        self.assemble(corpus, segrecs, df, start)
    }

    /// A fresh [`Prepared`] of this engine over `segrecs` (row `i` segments
    /// `corpus` record `i`; `df` counts exactly these rows).
    fn assemble(
        &self,
        corpus: Corpus,
        segrecs: Vec<Arc<SegRecord>>,
        df: DocFreqs,
        start: Instant,
    ) -> Prepared {
        let tier0 = segrecs
            .iter()
            .map(|sr| (sr.n_tokens() as u32, sr.min_partition))
            .collect();
        Prepared {
            // ordering: Relaxed — the id only needs uniqueness, which the
            // RMW atomicity of fetch_add alone guarantees; no other memory
            // is published through this counter (the Prepared itself is
            // handed to other threads via &-reference or Arc, whose
            // construction/send provides the happens-before edge).
            id: NEXT_PREPARED_ID.fetch_add(1, Ordering::Relaxed),
            gen: self.kn.generation(),
            cfg: self.cfg,
            corpus,
            segrecs,
            df,
            tier0,
            prepare_seconds: start.elapsed().as_secs_f64(),
            memo: Mutex::new(Memo::default()),
        }
    }

    /// A [`Prepared`] derived from `base` **without running stage 1**:
    /// `base`'s rows minus the strictly ascending row ids `dropped_rows`,
    /// then the already-segmented `appended` rows (each with its raw
    /// text), stamped with this engine's knowledge generation. Carried
    /// rows are the same `Arc`s and `df` is `base`'s − dropped + appended:
    /// field for field what [`Engine::prepare_owned`] makes of the same
    /// records.
    ///
    /// **The memo is inherited** while `base`'s self order is still
    /// trusted ([`PebbleOrder::age`]): that order, and per signature
    /// set `base` holds under it the carried rows' signatures copied and
    /// only the appended rows selected — bit for bit
    /// [`SelectedSignatures::select`] over all merged rows under that
    /// order. Results equal a fresh prepare's; funnel counters are that
    /// order's until [`Prepared::clear_memo`]. Past the churn rule the memo
    /// starts empty (DESIGN.md, "Signatures outlive a compaction").
    ///
    /// `base` and `appended` must have been segmented under this engine's
    /// configuration (checked for `base`) and under this knowledge or an
    /// earlier state of its lineage ([`Engine::scan`]'s precondition:
    /// interners only append; phrases, rules and entities are fixed at
    /// build time). A `base` that shows itself foreign — a newer generation,
    /// a dropped row it never counted — is [`AuError::StaleKnowledge`].
    pub fn merge_prepared<'a>(
        &self,
        base: &Prepared,
        dropped_rows: &[u32],
        appended: impl IntoIterator<Item = (&'a Arc<SegRecord>, &'a str)>,
    ) -> Result<Prepared, AuError> {
        let start = Instant::now();
        if base.cfg != self.cfg {
            return Err(AuError::ConfigMismatch);
        }
        if !dropped_rows.windows(2).all(|w| w[0] < w[1]) {
            return Err(AuError::InvalidSpec {
                field: "dropped_rows",
                message: "row ids must be strictly ascending".into(),
            });
        }
        let len = base.len();
        if let Some(&id) = dropped_rows.last().filter(|&&r| r as usize >= len) {
            return Err(AuError::RecordOutOfBounds { id, len });
        }
        // Generations are minted in increasing order.
        let (expected, found) = (self.kn.generation(), base.gen);
        let foreign = AuError::StaleKnowledge { expected, found };
        if found > expected {
            return Err(foreign);
        }
        let mut df = base.df.clone();
        let mut keys = Vec::new();
        let mut corpus = Corpus::new();
        let mut segrecs = Vec::with_capacity(len - dropped_rows.len());
        let mut dropped = dropped_rows.iter().peekable();
        for (row, (sr, rec)) in base.segrecs.iter().zip(base.corpus.records()).enumerate() {
            if dropped.next_if(|&&d| d as usize == row).is_some() {
                if !df.uncount_record(&self.kn, sr, &mut keys) {
                    return Err(foreign);
                }
                continue;
            }
            corpus.push_tokens(rec.tokens.clone(), rec.raw.clone());
            segrecs.push(sr.clone());
        }
        for (sr, raw) in appended {
            self.check_ids(&sr.tokens)?;
            df.count_record(&self.kn, sr, &mut keys);
            corpus.push_tokens(sr.tokens.clone(), raw.to_string());
            segrecs.push(sr.clone());
        }
        let merged = self.assemble(corpus, segrecs, df, start);
        self.inherit_memo(base, dropped_rows, &merged);
        Ok(merged)
    }

    /// Seed the memo of `merged` — `base` minus `dropped` plus the rows
    /// past the carried ones — with `base`'s self order and what `base`
    /// holds selected under it, oldest first.
    fn inherit_memo(&self, base: &Prepared, dropped: &[u32], merged: &Prepared) {
        let key = OrderKey::SelfOrder;
        let appended = &merged.segrecs[base.len() - dropped.len()..];
        let (order, sets) = {
            let from = base.memo();
            let Some(ranked) = from.orders.get(&key) else {
                return;
            };
            let sets = from.arrivals.iter().filter_map(|slot| match slot {
                MemoSlot::Sig(k) if k.order == key => from.sigs.get(k).map(|s| (*k, s.clone())),
                _ => None,
            });
            (ranked.order.clone(), sets.collect::<Vec<_>>())
        };
        let churned = dropped.len() + appended.len();
        let Some(order) = order.inherit(&merged.df, churned).map(Arc::new) else {
            return;
        };
        // `merged` is new and unbounded: nothing contends, nothing evicts.
        let mut m = merged.memo();
        let signed = (appended.len() * sets.len()) as u64;
        m.arrivals.push_back(MemoSlot::Order(key));
        for (k, sel) in sets {
            let tail = SelectedSignatures::select(&self.kn, &self.cfg, appended, &order, &k.spec());
            m.sigs.insert(k, Arc::new(sel.carry(dropped, &tail)));
            m.arrivals.push_back(MemoSlot::Sig(k));
        }
        m.orders.insert(key, Ranked { order, signed });
    }

    /// Artifact guard: the knowledge generation must match
    /// ([`AuError::StaleKnowledge`]) and so must the configuration —
    /// generations are shared by un-mutated [`Knowledge`] clones, so two
    /// engines over the same knowledge but different [`SimConfig`]s would
    /// otherwise accept each other's (config-dependent) artifacts.
    fn check_stamp(&self, gen: u64, cfg: &SimConfig) -> Result<(), AuError> {
        let expected = self.kn.generation();
        if gen != expected {
            return Err(AuError::StaleKnowledge {
                expected,
                found: gen,
            });
        }
        if *cfg != self.cfg {
            return Err(AuError::ConfigMismatch);
        }
        Ok(())
    }

    fn check(&self, p: &Prepared) -> Result<(), AuError> {
        self.check_stamp(p.gen, &p.cfg)
    }

    // -- memoized artifact builders -----------------------------------------

    /// The global order over this corpus alone (self-joins, search): the
    /// one its memo holds — inherited from the corpus it was merged from
    /// ([`Engine::merge_prepared`]) or ranked earlier — else a fresh
    /// ranking of its own document frequencies.
    fn order_self(&self, c: &Prepared) -> Arc<PebbleOrder> {
        let key = OrderKey::SelfOrder;
        {
            let mut m = c.memo();
            if let Some(o) = m.orders.get(&key).map(|r| r.order.clone()) {
                m.hits += 1;
                return o;
            }
        }
        let order = Arc::new(PebbleOrder::from_doc_freqs(&[&c.df], c.len()));
        let mut m = c.memo();
        m.misses += 1;
        m.order_or_insert(key, order)
    }

    /// The global order over both sides of an R×S join (document
    /// frequencies counted across the pair). Stored symmetrically in both
    /// artifacts' memos.
    fn order_pair(&self, s: &Prepared, t: &Prepared) -> Arc<PebbleOrder> {
        let (key_s, key_t) = (OrderKey::Pair(t.id), OrderKey::Pair(s.id));
        let found = {
            let mut m = s.memo();
            let found = m.orders.get(&key_s).map(|r| r.order.clone());
            m.hits += u64::from(found.is_some());
            found
        };
        let order = found.unwrap_or_else(|| {
            let rows = s.len() + t.len();
            let order = Arc::new(PebbleOrder::from_doc_freqs(&[&s.df, &t.df], rows));
            let mut m = s.memo();
            m.misses += 1;
            m.order_or_insert(key_s, order)
        });
        if s.id != t.id {
            let mut m = t.memo();
            m.order_or_insert(key_t, order.clone());
            // A pair order is a pure function of the two frequency tables:
            // a copy `t` kept from an earlier join equals this one, so
            // what `t` selected under it stays valid under this one.
            if let Some(ranked) = m.orders.get_mut(&key_t) {
                ranked.order = order.clone();
            }
        }
        order
    }

    /// What `map` files for `slot` — served, and a `build` filed, only
    /// while `order` is the resident order of the slot's key
    /// ([`Memo::under`]); a filed signature set adds its records to that
    /// order's stage-3 count.
    fn memoized<T>(
        c: &Prepared,
        slot: MemoSlot,
        order: &Arc<PebbleOrder>,
        map: fn(&mut Memo) -> &mut FxHashMap<SigKey, Arc<T>>,
        build: impl FnOnce() -> T,
    ) -> Arc<T> {
        let (k, signs) = match slot {
            MemoSlot::Sig(k) => (k, c.len() as u64),
            MemoSlot::Csr(k) => (k, 0),
            MemoSlot::Order(_) => return Arc::new(build()),
        };
        {
            let mut m = c.memo();
            let resident = m.under(k.order, order).is_some();
            if let Some(hit) = map(&mut m).get(&k).filter(|_| resident).cloned() {
                m.hits += 1;
                return hit;
            }
        }
        let built = Arc::new(build());
        let mut m = c.memo();
        m.misses += 1;
        let Some(ranked) = m.under(k.order, order) else {
            return built;
        };
        ranked.signed += signs;
        let out = map(&mut m).entry(k).or_insert(built).clone();
        m.note_insert(slot);
        out
    }

    /// Signature key sets + guarantee levels for `(order, θ, filter, MP)`.
    fn signatures(
        &self,
        c: &Prepared,
        key: OrderKey,
        order: &Arc<PebbleOrder>,
        spec: &JoinSpec,
    ) -> Arc<SelectedSignatures> {
        let slot = MemoSlot::Sig(SigKey::new(key, spec));
        let select = || SelectedSignatures::select(&self.kn, &self.cfg, &c.segrecs, order, spec);
        Self::memoized(c, slot, order, |m| &mut m.sigs, select)
    }

    /// CSR inverted index over `sel` — the signatures of memo key `k`,
    /// selected under `order`.
    fn csr(
        &self,
        c: &Prepared,
        k: SigKey,
        order: &Arc<PebbleOrder>,
        sel: &SelectedSignatures,
    ) -> Arc<CsrIndex> {
        let build = || CsrIndex::from_record_keys(&sel.record_keys);
        Self::memoized(c, MemoSlot::Csr(k), order, |m| &mut m.csr, build)
    }

    // -- pipeline stages ----------------------------------------------------

    /// Stages 2–4 on prepared state: order, signatures, CSR probe.
    fn filter_run(
        &self,
        s: &Prepared,
        t: &Prepared,
        self_join: bool,
        spec: &JoinSpec,
    ) -> (FilterOutcome, Duration, Duration) {
        let sig_start = Instant::now();
        let (key_s, key_t, order) = if self_join {
            (OrderKey::SelfOrder, OrderKey::SelfOrder, self.order_self(s))
        } else {
            (
                OrderKey::Pair(t.id),
                OrderKey::Pair(s.id),
                self.order_pair(s, t),
            )
        };
        let sel_s = self.signatures(s, key_s, &order, spec);
        let sel_t = if self_join || s.id == t.id {
            sel_s.clone()
        } else {
            self.signatures(t, key_t, &order, spec)
        };
        let sig_time = sig_start.elapsed();

        let filter_start = Instant::now();
        let index = self.csr(t, SigKey::new(key_t, spec), &order, &sel_t);
        let outcome = candidate_pass(
            &sel_s,
            &sel_t,
            &index,
            self_join,
            spec.filter.tau(),
            spec.parallel,
            &CompatCtx {
                tier0_s: &s.tier0,
                tier0_t: &t.tier0,
                min_sim: spec.theta - self.cfg.eps,
            },
        );
        (outcome, sig_time, filter_start.elapsed())
    }

    /// Stages 2–5 on prepared state, with accepted pairs handed to `sink`
    /// in `(s, t)` order. Candidates are verified in batches of at most
    /// `chunk`, so that many results at most are ever materialized; the
    /// batches share `t`'s transposed posting index
    /// ([`Prepared::verify_index`], decided once from the whole stream's
    /// size).
    fn join_run(
        &self,
        s: &Prepared,
        t: &Prepared,
        self_join: bool,
        spec: &JoinSpec,
        chunk: usize,
        mut sink: impl FnMut(u32, u32, f64),
    ) -> JoinStats {
        let (outcome, sig_time, filter_time) = self.filter_run(s, t, self_join, spec);
        let verify_start = Instant::now();
        let mut result_count = 0usize;
        let mut tiers = VerifyTiers::default();
        let index = t.verify_index(outcome.candidates.len());
        for batch in outcome.candidates.chunks(chunk) {
            let (accepted, batch_tiers) = verify_candidates(
                &self.kn,
                &self.cfg,
                &s.segrecs,
                &t.segrecs,
                batch,
                spec.theta,
                spec.parallel,
                index.as_deref(),
            );
            tiers.merge(&batch_tiers);
            result_count += accepted.len();
            for (a, b, sim) in accepted {
                sink(a, b, sim);
            }
        }
        JoinStats {
            sig_time,
            filter_time,
            verify_time: verify_start.elapsed(),
            processed_pairs: outcome.processed_pairs,
            candidates: outcome.candidates.len() as u64,
            compat_rejected: outcome.compat_rejected,
            avg_sig_len_s: outcome.avg_sig_len_s,
            avg_sig_len_t: outcome.avg_sig_len_t,
            result_count,
            tiers,
            shard_tasks: 0,
            shard_tasks_pruned: 0,
        }
    }

    /// [`Engine::join_run`] materializing the whole result.
    fn join_full(
        &self,
        s: &Prepared,
        t: &Prepared,
        self_join: bool,
        spec: &JoinSpec,
    ) -> JoinResult {
        let mut pairs = Vec::new();
        let stats = self.join_run(s, t, self_join, spec, usize::MAX, |a, b, sim| {
            pairs.push((a, b, sim))
        });
        JoinResult { pairs, stats }
    }

    // -- joins --------------------------------------------------------------

    /// Threshold R×S join of two prepared corpora.
    pub fn join(&self, s: &Prepared, t: &Prepared, spec: &JoinSpec) -> Result<JoinResult, AuError> {
        self.check(s)?;
        self.check(t)?;
        spec.validate_threshold()?;
        Ok(self.join_full(s, t, false, spec))
    }

    /// Threshold self-join (pairs reported with `s < t`).
    pub fn join_self(&self, c: &Prepared, spec: &JoinSpec) -> Result<JoinResult, AuError> {
        self.check(c)?;
        spec.validate_threshold()?;
        Ok(self.join_full(c, c, true, spec))
    }

    /// Streaming threshold R×S join: accepted pairs are emitted to `sink`
    /// in deterministic `(s, t)` order as verification batches complete,
    /// instead of materializing one `Vec` of results. Returns the run's
    /// statistics only.
    pub fn join_sink(
        &self,
        s: &Prepared,
        t: &Prepared,
        spec: &JoinSpec,
        sink: impl FnMut(u32, u32, f64),
    ) -> Result<JoinStats, AuError> {
        self.check(s)?;
        self.check(t)?;
        spec.validate_threshold()?;
        Ok(self.join_run(s, t, false, spec, SINK_CHUNK, sink))
    }

    /// Streaming threshold self-join (see [`Engine::join_sink`]).
    pub fn join_self_sink(
        &self,
        c: &Prepared,
        spec: &JoinSpec,
        sink: impl FnMut(u32, u32, f64),
    ) -> Result<JoinStats, AuError> {
        self.check(c)?;
        spec.validate_threshold()?;
        Ok(self.join_run(c, c, true, spec, SINK_CHUNK, sink))
    }

    // -- sharded joins ------------------------------------------------------

    /// Plan a corpus for sharded joins **without preparing it**: only the
    /// per-record tier-0 integers are computed (the lean
    /// [`segment_stats`] pass — no gram hashing, no posting tables), then
    /// length-partitioned into a [`ShardPlan`]. Shards are segmented on
    /// demand during [`Engine::join_self_sharded`] /
    /// [`Engine::join_sharded`], `spec.cache_capacity` of them at a time
    /// (plus one streaming partner in an R×S join), so peak memory stays
    /// a small fraction of a whole-corpus [`Engine::prepare`]
    /// ([`ShardedPrepared::peak_memory_bytes`]).
    pub fn prepare_sharded(
        &self,
        corpus: &Corpus,
        spec: &ShardSpec,
    ) -> Result<ShardedPrepared, AuError> {
        self.check_tokens(corpus)?;
        let tier0: Vec<(u32, u32)> = corpus
            .iter()
            .map(|r| segment_stats(&self.kn, &self.cfg, &r.tokens))
            .collect();
        let g = if spec.shards == 0 {
            ShardPlan::auto_shard_count(corpus.len())
        } else {
            spec.shards
        };
        let plan = ShardPlan::build(&tier0, g);
        Ok(ShardedPrepared {
            gen: self.kn.generation(),
            cfg: self.cfg,
            corpus: corpus.clone(),
            tier0,
            plan,
            cache_capacity: spec.effective_cache_capacity(),
            counters: Mutex::default(),
        })
    }

    /// Threshold self-join over a lazily-segmented [`ShardedPrepared`]
    /// (pairs reported with `s < t`, byte-identical to
    /// [`Engine::join_self`] on a full prepare of the same corpus).
    pub fn join_self_sharded(
        &self,
        sp: &ShardedPrepared,
        spec: &JoinSpec,
    ) -> Result<JoinResult, AuError> {
        self.check_stamp(sp.gen, &sp.cfg)?;
        spec.validate_threshold()?;
        Ok(self.join_shards(sp, None, spec))
    }

    /// Threshold R×S join over two lazily-segmented [`ShardedPrepared`]
    /// artifacts (byte-identical to [`Engine::join`] on full prepares).
    pub fn join_sharded(
        &self,
        s: &ShardedPrepared,
        t: &ShardedPrepared,
        spec: &JoinSpec,
    ) -> Result<JoinResult, AuError> {
        self.check_stamp(s.gen, &s.cfg)?;
        self.check_stamp(t.gen, &t.cfg)?;
        spec.validate_threshold()?;
        Ok(self.join_shards(s, Some(t), spec))
    }

    /// The shard in `slot`, segmenting shard `idx` of `sp` into it first
    /// when the slot is empty. Cannot fail: the tokens were checked by
    /// [`Engine::prepare_sharded`], the generation stamp by the join's
    /// entry point.
    fn resident_shard(
        &self,
        slot: &mut Option<Arc<Prepared>>,
        sp: &ShardedPrepared,
        idx: usize,
    ) -> Arc<Prepared> {
        slot.get_or_insert_with(|| {
            relock(&sp.counters).builds += 1;
            let mut sub = Corpus::new();
            for &id in sp.plan.shard(idx).records() {
                let r = sp.corpus.get(RecordId(id));
                sub.push_tokens(r.tokens.clone(), r.raw.clone());
            }
            Arc::new(self.prepare_trusted(sub))
        })
        .clone()
    }

    /// The sharded join: every compatible shard-pair task of the grid —
    /// unordered pairs `(i, j ≥ i)` of `s` for a self-join (`t = None`),
    /// `s × t` otherwise — run one at a time, each task's inner pipeline
    /// honouring `spec.parallel`. Tasks cover disjoint record-pair sets,
    /// so no dedup is needed and the final `(s, t)` sort is the
    /// deterministic merge; that also frees the task *order*, which is
    /// chosen for residency and is the whole residency policy.
    ///
    /// A band of `s`-shards stays segmented while every partner `j`
    /// streams past it once. A band shard is built on its first
    /// compatible task and dropped at band end, the partner likewise for
    /// its one `j`. The band is `cache_capacity − 1` wide for a self-join
    /// (the partner comes out of the same budget — and *is* a band
    /// member while `j` lies inside the band) and `cache_capacity` wide
    /// for R×S, so at most `cache_capacity` (self) or
    /// `cache_capacity + 1` (R×S) shards are ever live, and a shard is
    /// built once per band in which it has a compatible task.
    ///
    /// After each task the resident bytes are sampled at their fullest —
    /// the task's order/signature/CSR memos included — and those memos
    /// dropped: they are keyed by join partner and every shard pair is
    /// visited once, so no later task could reuse them, while keeping
    /// them would let a band shard accumulate one partner's worth per
    /// task. The posting index a task's stage 5 may have built over its
    /// indexed shard is a transient of that stage, as it always was: gone
    /// before the sample.
    fn join_shards(
        &self,
        s: &ShardedPrepared,
        t: Option<&ShardedPrepared>,
        spec: &JoinSpec,
    ) -> JoinResult {
        let self_join = t.is_none();
        let t = t.unwrap_or(s);
        let (g_s, g_t) = (s.plan.shard_count(), t.plan.shard_count());
        // `effective_cache_capacity` is ≥ 2, so the band is never empty.
        let band = s.cache_capacity - usize::from(self_join);
        let mut agg = StatAgg::default();
        let mut pairs: Vec<(u32, u32, f64)> = Vec::new();
        let (mut peak_bytes, mut most_resident) = (0usize, 0usize);
        for b0 in (0..g_s).step_by(band) {
            let b1 = (b0 + band).min(g_s);
            let mut held: Vec<Option<Arc<Prepared>>> = vec![None; b1 - b0];
            let j0 = if self_join { b0 } else { 0 };
            for j in j0..g_t {
                let mut partner: Option<Arc<Prepared>> = None;
                let i1 = if self_join { b1.min(j + 1) } else { b1 };
                for i in b0..i1 {
                    let (info_a, info_b) = (s.plan.shard(i), t.plan.shard(j));
                    if !shard_pair_compatible(info_a, info_b, spec.theta, self.cfg.eps) {
                        agg.pruned += 1;
                        continue;
                    }
                    agg.tasks += 1;
                    let pa = self.resident_shard(&mut held[i - b0], s, i);
                    let pb = if self_join && j < b1 {
                        self.resident_shard(&mut held[j - b0], s, j)
                    } else {
                        self.resident_shard(&mut partner, t, j)
                    };
                    let (ids_a, ids_b) = (info_a.records(), info_b.records());
                    if self_join && i != j {
                        self.cross_self_task(&pa, &pb, ids_a, ids_b, spec, &mut agg, &mut pairs);
                    } else {
                        let res = self.join_full(&pa, &pb, self_join, spec);
                        agg.absorb(&res.stats, pa.len(), pb.len());
                        pairs.extend(
                            res.pairs
                                .iter()
                                .map(|&(a, b, sim)| (ids_a[a as usize], ids_b[b as usize], sim)),
                        );
                    }
                    relock(&pb.memo).transposed = None;
                    let resident = || held.iter().flatten().chain(&partner);
                    peak_bytes = peak_bytes.max(resident().map(|p| p.memory_bytes()).sum());
                    most_resident = most_resident.max(resident().count());
                    pa.clear_memo();
                    pb.clear_memo();
                }
            }
        }
        // Both sides report the whole join's residency (`t` aliases `s`
        // in a self-join; taking the max twice is harmless).
        for sp in [s, t] {
            let mut c = relock(&sp.counters);
            c.peak_bytes = c.peak_bytes.max(peak_bytes);
            c.most_resident = c.most_resident.max(most_resident);
        }
        pairs.sort_unstable_by_key(|x| (x.0, x.1));
        JoinResult {
            stats: agg.into_stats(pairs.len()),
            pairs,
        }
    }

    /// One cross-shard task of a self-join: filter shard `A` against
    /// shard `B` as an R×S pass, then orient each candidate by *global*
    /// id before verifying. Shards partition by length, not by id range,
    /// so a task sees both orientations; the monolithic self-join always
    /// verifies `(min_id, max_id)` with the smaller id on the probe side,
    /// and `usim` is not guaranteed bitwise-symmetric — splitting into a
    /// forward and a reverse verification group reproduces its exact
    /// similarity values.
    #[allow(clippy::too_many_arguments)]
    fn cross_self_task(
        &self,
        pa: &Prepared,
        pb: &Prepared,
        ids_a: &[u32],
        ids_b: &[u32],
        spec: &JoinSpec,
        agg: &mut StatAgg,
        pairs: &mut Vec<(u32, u32, f64)>,
    ) {
        let (outcome, sig_time, filter_time) = self.filter_run(pa, pb, false, spec);
        let mut fwd: Vec<(u32, u32)> = Vec::new();
        let mut rev: Vec<(u32, u32)> = Vec::new();
        for &(la, lb) in &outcome.candidates {
            // Disjoint shards: global ids never tie.
            if ids_a[la as usize] < ids_b[lb as usize] {
                fwd.push((la, lb));
            } else {
                rev.push((lb, la));
            }
        }
        // Probe-sorted inputs keep the grouped verifier's runs contiguous.
        fwd.sort_unstable();
        rev.sort_unstable();
        let verify_start = Instant::now();
        let (pf, tf) = verify_candidates(
            &self.kn,
            &self.cfg,
            &pa.segrecs,
            &pb.segrecs,
            &fwd,
            spec.theta,
            spec.parallel,
            None,
        );
        let (pr, tr) = verify_candidates(
            &self.kn,
            &self.cfg,
            &pb.segrecs,
            &pa.segrecs,
            &rev,
            spec.theta,
            spec.parallel,
            None,
        );
        let verify_time = verify_start.elapsed();
        pairs.extend(
            pf.iter()
                .map(|&(la, lb, sim)| (ids_a[la as usize], ids_b[lb as usize], sim)),
        );
        pairs.extend(
            pr.iter()
                .map(|&(lb, la, sim)| (ids_b[lb as usize], ids_a[la as usize], sim)),
        );
        agg.sig_time += sig_time;
        agg.filter_time += filter_time;
        agg.verify_time += verify_time;
        agg.processed_pairs += outcome.processed_pairs;
        agg.candidates += outcome.candidates.len() as u64;
        agg.compat_rejected += outcome.compat_rejected;
        agg.add_sig_len(
            outcome.avg_sig_len_s,
            pa.len(),
            outcome.avg_sig_len_t,
            pb.len(),
        );
        agg.tiers.merge(&tf);
        agg.tiers.merge(&tr);
    }

    // -- top-k --------------------------------------------------------------

    /// Top-k R×S join via threshold descent over prepared state.
    pub fn topk(&self, s: &Prepared, t: &Prepared, spec: &JoinSpec) -> Result<TopkResult, AuError> {
        self.check(s)?;
        self.check(t)?;
        spec.validate_topk()?;
        Ok(self.topk_impl(s, t, false, spec))
    }

    /// Top-k self-join (pairs reported with `s < t`).
    pub fn topk_self(&self, c: &Prepared, spec: &JoinSpec) -> Result<TopkResult, AuError> {
        self.check(c)?;
        spec.validate_topk()?;
        Ok(self.topk_impl(c, c, true, spec))
    }

    fn topk_impl(
        &self,
        s: &Prepared,
        t: &Prepared,
        self_join: bool,
        spec: &JoinSpec,
    ) -> TopkResult {
        if spec.k == 0 {
            return TopkResult::default();
        }
        let mut theta = spec.theta_start;
        let mut rounds = 0usize;
        loop {
            rounds += 1;
            let res = self.join_full(s, t, self_join, &spec.at_theta(theta));
            let done = res.pairs.len() >= spec.k || theta <= spec.theta_floor + self.cfg.eps;
            if done {
                // Re-score fully (the verifier's early-accept may report a
                // lower bound), rank, truncate.
                let verifier = Verifier::new(&self.kn, &self.cfg);
                let mut pairs: Vec<(u32, u32, f64)> = crate::parallel::par_map_scratch(
                    &res.pairs,
                    spec.parallel,
                    VerifyScratch::default,
                    |scr, &(a, b, _)| {
                        let sim = verifier.sim(&s.segrecs[a as usize], &t.segrecs[b as usize], scr);
                        (a, b, sim)
                    },
                    |_| {},
                );
                pairs.sort_by(|x, y| {
                    y.2.total_cmp(&x.2)
                        .then_with(|| (x.0, x.1).cmp(&(y.0, y.1)))
                });
                pairs.truncate(spec.k);
                return TopkResult {
                    pairs,
                    rounds,
                    final_theta: theta,
                };
            }
            theta = (theta - spec.step).max(spec.theta_floor);
        }
    }

    // -- search -------------------------------------------------------------

    /// An online search session over one prepared collection: queries
    /// arrive as free strings, results carry the same completeness
    /// guarantee as the join at the spec's θ. Unknown query tokens are
    /// interned into a searcher-private scratch vocabulary — the shared
    /// knowledge context is never mutated by reads.
    pub fn searcher<'e>(
        &'e self,
        c: &'e Prepared,
        spec: &JoinSpec,
    ) -> Result<Searcher<'e>, AuError> {
        Ok(Searcher {
            engine: self,
            prepared: c,
            core: self.search_core(c, spec)?,
        })
    }

    /// Owning variant of [`Engine::searcher`] for long-lived services:
    /// the engine and collection travel by `Arc`, so the returned
    /// [`SnapshotSearcher`] is `'static` and can be stored inside an
    /// atomically-swapped snapshot and shared across worker threads.
    /// Artifact selection is identical (and served from the same
    /// [`Prepared`] memo, so building a second searcher against a warm
    /// collection is cheap).
    pub fn snapshot_searcher(
        engine: Arc<Engine>,
        prepared: Arc<Prepared>,
        spec: &JoinSpec,
    ) -> Result<SnapshotSearcher, AuError> {
        let core = engine.search_core(&prepared, spec)?;
        Ok(SnapshotSearcher {
            engine,
            prepared,
            core,
        })
    }

    fn search_core(&self, c: &Prepared, spec: &JoinSpec) -> Result<SearchCore, AuError> {
        self.check(c)?;
        spec.validate_threshold()?;
        let order = self.order_self(c);
        let sel = self.signatures(c, OrderKey::SelfOrder, &order, spec);
        let index = self.csr(c, SigKey::new(OrderKey::SelfOrder, spec), &order, &sel);
        Ok(SearchCore {
            spec: *spec,
            order,
            sel,
            index,
            // Forced: its build belongs to making the collection
            // searchable, not to a first query.
            transposed: c.transposed(),
            session: QuerySession::default(),
        })
    }

    /// Filterless search over already-segmented `rows`: every row whose
    /// tier-0 bound can still reach the spec's θ is verified — there is no
    /// order, signature or index, so nothing has to be built (or rebuilt
    /// when a row is appended) and completeness is trivial. `matches`
    /// carry row indices into `rows` and equal, bit for bit, what
    /// [`Searcher::query`] returns over the same records: both end in the
    /// same verification and similarity is a pure function of the pair.
    /// Cost is verification work linear in `rows.len()`, on the caller's
    /// thread — the trade a small append-only segment (`au-serve`'s delta)
    /// wants, and nothing larger does.
    ///
    /// Only the spec's θ is read (there is no signature to select), so no
    /// spec can fail here. `query` ([`QuerySession::segment`]) and each
    /// row ([`crate::segment::segment_record`]) must have been segmented
    /// under this engine's configuration and under this knowledge or an
    /// earlier state of the same lineage — interning only appends, so
    /// earlier segmentations stay valid.
    pub fn scan(
        &self,
        session: &QuerySession,
        rows: &[&SegRecord],
        query: &SegRecord,
        spec: &JoinSpec,
    ) -> SearchOutcome {
        run_scan(self, session, rows, query, spec.theta())
    }

    // -- tuning -------------------------------------------------------------

    /// Stages 2–4 only (no verification) on prepared corpora: the
    /// candidate list with its funnel counters — `Tτ`, the in-probe
    /// compatibility rejections, mean signature lengths. `t = None` runs
    /// the self-join of `s` (pairs with `s < t`). Served from the same
    /// memoized order / signatures / CSR index as [`Engine::join`], whose
    /// filtering stage this *is*.
    pub fn filter_outcome(
        &self,
        s: &Prepared,
        t: Option<&Prepared>,
        spec: &JoinSpec,
    ) -> Result<FilterOutcome, AuError> {
        self.check(s)?;
        if let Some(t) = t {
            self.check(t)?;
        }
        spec.validate_threshold()?;
        Ok(self.filter_run(s, t.unwrap_or(s), t.is_none(), spec).0)
    }

    /// The raw `T′τ` / `V′τ` counts of the Bernoulli estimator (Eq. 17):
    /// [`Engine::filter_outcome`] of a serial R×S pass, counted.
    pub fn filter_counts(
        &self,
        s: &Prepared,
        t: &Prepared,
        theta: f64,
        filter: FilterKind,
    ) -> Result<FilterCounts, AuError> {
        let spec = JoinSpec::threshold(theta).filter(filter).serial();
        Ok(FilterCounts::of(&self.filter_outcome(s, Some(t), &spec)?))
    }

    /// [`Engine::filter_counts`] on one Bernoulli sample pair drawn from
    /// corpora this engine already prepared: each sample is prepared and
    /// filtered through exactly the stages the full join runs, so Eq. 17
    /// scales the production path's own counts.
    fn sample_counts(
        &self,
        s: &Corpus,
        t: &Corpus,
        theta: f64,
        filter: FilterKind,
    ) -> FilterCounts {
        let (ps, pt) = (
            self.prepare_trusted(s.clone()),
            self.prepare_trusted(t.clone()),
        );
        let spec = JoinSpec::threshold(theta).filter(filter).serial();
        FilterCounts::of(&self.filter_run(&ps, &pt, false, &spec).0)
    }

    /// Measure the per-unit costs `c_f` / `c_v` of Eq. 15 on prepared
    /// corpora: `c_f` from one timed filtering pass over the memoized
    /// artifacts, `c_v` from timing up to `max_verifications` of its
    /// candidates through [`verify_candidates`]. Preparation is never
    /// repeated.
    pub fn calibrate(
        &self,
        s: &Prepared,
        t: &Prepared,
        theta: f64,
        filter: FilterKind,
        max_verifications: usize,
    ) -> Result<CostModel, AuError> {
        self.check(s)?;
        self.check(t)?;
        let spec = JoinSpec::threshold(theta).filter(filter).serial();
        spec.validate_threshold()?;
        let f_start = Instant::now();
        let (outcome, _, _) = self.filter_run(s, t, false, &spec);
        let f_time = f_start.elapsed().as_secs_f64();
        Ok(crate::estimate::cost_model_from_filter_run(
            outcome.processed_pairs,
            &outcome.candidates,
            f_time,
            s.len(),
            t.len(),
            max_verifications,
            |pairs| {
                let v_start = Instant::now();
                let _ = verify_candidates(
                    &self.kn, &self.cfg, &s.segrecs, &t.segrecs, pairs, theta, false, None,
                );
                v_start.elapsed().as_secs_f64()
            },
        ))
    }

    /// Algorithm 7 on prepared corpora: recommend the overlap constraint
    /// τ minimising the estimated join cost at `theta`. Bernoulli samples
    /// are drawn from the prepared corpora's records; the full corpora
    /// themselves are never re-prepared.
    pub fn suggest_tau(
        &self,
        s: &Prepared,
        t: &Prepared,
        theta: f64,
        model: &CostModel,
        sc: &SuggestConfig,
    ) -> Result<SuggestOutcome, AuError> {
        self.check(s)?;
        self.check(t)?;
        if sc.universe.is_empty() {
            return Err(AuError::InvalidSpec {
                field: "universe",
                message: "the τ universe must not be empty".into(),
            });
        }
        for (name, p) in [("ps", sc.ps), ("pt", sc.pt)] {
            if !(0.0..=1.0).contains(&p) {
                return Err(AuError::InvalidSpec {
                    field: name,
                    message: format!("sampling probability out of range: {p}"),
                });
            }
        }
        Ok(suggest_loop(&s.corpus, &t.corpus, model, sc, |a, b, f| {
            self.sample_counts(a, b, theta, f)
        }))
    }

    /// Pilot-based sampling-probability tuner (the paper's stated future
    /// work) on prepared corpora.
    pub fn probe(
        &self,
        s: &Prepared,
        t: &Prepared,
        theta: f64,
        model: &CostModel,
        spec: &ProbeSpec,
    ) -> Result<ProbeOutcome, AuError> {
        self.check(s)?;
        self.check(t)?;
        if spec.candidates.is_empty() {
            return Err(AuError::InvalidSpec {
                field: "candidates",
                message: "need at least one candidate probability".into(),
            });
        }
        if spec.universe.is_empty() {
            return Err(AuError::InvalidSpec {
                field: "universe",
                message: "the τ universe must not be empty".into(),
            });
        }
        Ok(probe_loop(
            &s.corpus,
            &t.corpus,
            model,
            &spec.candidates,
            &spec.universe,
            spec.pilot_iters,
            spec.seed,
            |a, b, f| self.sample_counts(a, b, theta, f),
        ))
    }

    // -- one-off similarities -----------------------------------------------

    /// Unified similarity of two prepared records (Algorithm 1).
    pub fn usim(&self, s: &Prepared, a: u32, t: &Prepared, b: u32) -> Result<f64, AuError> {
        self.check(s)?;
        self.check(t)?;
        Ok(usim_approx_seg(
            &self.kn,
            &self.cfg,
            s.seg_record(a)?,
            t.seg_record(b)?,
        ))
    }

    /// The verifier's tier-0 record-level bound
    /// `USIM ≤ min(|S|,|T|) / max(MP(S),MP(T))` from the cached integers —
    /// O(1), no segment-pair work; useful as a cheap pre-screen.
    pub fn usim_upper_bound(
        &self,
        s: &Prepared,
        a: u32,
        t: &Prepared,
        b: u32,
    ) -> Result<f64, AuError> {
        self.check(s)?;
        self.check(t)?;
        let &(ns, mps) = s.tier0.get(a as usize).ok_or(AuError::RecordOutOfBounds {
            id: a,
            len: s.len(),
        })?;
        let &(nt, mpt) = t.tier0.get(b as usize).ok_or(AuError::RecordOutOfBounds {
            id: b,
            len: t.len(),
        })?;
        Ok(if ns == 0 && nt == 0 {
            1.0
        } else if ns == 0 || nt == 0 {
            0.0
        } else {
            ns.min(nt) as f64 / mps.max(mpt) as f64
        })
    }
}

/// Accumulator merging per-task [`JoinStats`] into the honest aggregate
/// of a sharded run: times, `Tτ` and `Vτ` are sums over the executed
/// tasks (each task runs its own order/signature/filter pipeline, so the
/// totals are comparable with a monolithic run's but not identical to
/// them — see DESIGN.md "Memory-lean joins"); signature lengths are
/// record-weighted means; tier telemetry merges exactly.
#[derive(Default)]
struct StatAgg {
    sig_time: Duration,
    filter_time: Duration,
    verify_time: Duration,
    processed_pairs: u64,
    candidates: u64,
    compat_rejected: u64,
    sig_len_s_weighted: f64,
    sig_len_s_records: u64,
    sig_len_t_weighted: f64,
    sig_len_t_records: u64,
    tiers: VerifyTiers,
    tasks: u64,
    pruned: u64,
}

impl StatAgg {
    fn absorb(&mut self, st: &JoinStats, n_s: usize, n_t: usize) {
        self.sig_time += st.sig_time;
        self.filter_time += st.filter_time;
        self.verify_time += st.verify_time;
        self.processed_pairs += st.processed_pairs;
        self.candidates += st.candidates;
        self.compat_rejected += st.compat_rejected;
        self.add_sig_len(st.avg_sig_len_s, n_s, st.avg_sig_len_t, n_t);
        self.tiers.merge(&st.tiers);
    }

    fn add_sig_len(&mut self, avg_s: f64, n_s: usize, avg_t: f64, n_t: usize) {
        self.sig_len_s_weighted += avg_s * n_s as f64;
        self.sig_len_s_records += n_s as u64;
        self.sig_len_t_weighted += avg_t * n_t as f64;
        self.sig_len_t_records += n_t as u64;
    }

    fn into_stats(self, result_count: usize) -> JoinStats {
        JoinStats {
            sig_time: self.sig_time,
            filter_time: self.filter_time,
            verify_time: self.verify_time,
            processed_pairs: self.processed_pairs,
            candidates: self.candidates,
            compat_rejected: self.compat_rejected,
            avg_sig_len_s: if self.sig_len_s_records == 0 {
                0.0
            } else {
                self.sig_len_s_weighted / self.sig_len_s_records as f64
            },
            avg_sig_len_t: if self.sig_len_t_records == 0 {
                0.0
            } else {
                self.sig_len_t_weighted / self.sig_len_t_records as f64
            },
            result_count,
            tiers: self.tiers,
            shard_tasks: self.tasks,
            shard_tasks_pruned: self.pruned,
        }
    }
}

/// Per-probe tuner parameters for [`Engine::probe`].
#[derive(Debug, Clone)]
pub struct ProbeSpec {
    /// Candidate sampling probabilities to pilot.
    pub candidates: Vec<f64>,
    /// τ universe the suggestion loop would use.
    pub universe: Vec<u32>,
    /// Pilot iterations per candidate (≥ 2; 5–8 is plenty).
    pub pilot_iters: usize,
    /// RNG seed (all sampling deterministic given this).
    pub seed: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::join::brute_force_join;
    use crate::knowledge::KnowledgeBuilder;

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
    fn engine_join_finds_figure1_pair_and_memoizes() {
        let (kn, s, t) = setup();
        let engine = Engine::new(kn, SimConfig::default()).unwrap();
        let ps = engine.prepare(&s).unwrap();
        let pt = engine.prepare(&t).unwrap();
        let spec = JoinSpec::threshold(0.7).u_filter();
        let first = engine.join(&ps, &pt, &spec).unwrap();
        assert!(first.pairs.iter().any(|&(a, b, _)| a == 0 && b == 0));
        // One order, a signature set per side, the indexed side's CSR —
        // and no per-order pebble list beside them.
        let misses_after_first = ps.memo_misses() + pt.memo_misses();
        assert_eq!(misses_after_first, 4);
        assert_eq!((ps.memo_len(), pt.memo_len()), (2, 3));
        let second = engine.join(&ps, &pt, &spec).unwrap();
        assert_eq!(first.pairs, second.pairs);
        assert_eq!(
            ps.memo_misses() + pt.memo_misses(),
            misses_after_first,
            "second identical join must build nothing new"
        );
        assert!(ps.memo_hits() + pt.memo_hits() > 0);
    }

    #[test]
    fn memo_capacity_bounds_threshold_sweep() {
        // A long-lived service sweeping user-chosen thresholds over one
        // Prepared must stay bounded under with_memo_capacity, while
        // evicted entries rebuild transparently with identical results.
        let (kn, s, _) = setup();
        let engine = Engine::new(kn, SimConfig::default()).unwrap();
        let unbounded = engine.prepare(&s).unwrap();
        // One θ of a self-join keeps three artifacts: the order, the
        // signatures, the CSR index.
        let bounded = engine.prepare(&s).unwrap().with_memo_capacity(3);
        assert_eq!(bounded.memo_capacity(), 3);
        let thetas: Vec<f64> = (30..=90).step_by(5).map(|t| t as f64 / 100.0).collect();
        let mut reference = Vec::new();
        for &th in &thetas {
            let spec = JoinSpec::threshold(th).u_filter();
            reference.push(engine.join_self(&unbounded, &spec).unwrap().pairs);
            let got = engine.join_self(&bounded, &spec).unwrap().pairs;
            assert_eq!(got, *reference.last().unwrap(), "theta {th}");
            assert!(
                bounded.memo_len() <= 3,
                "memo grew past capacity: {}",
                bounded.memo_len()
            );
        }
        // The order once, signatures + CSR per θ.
        assert_eq!(unbounded.memo_len(), 1 + 2 * thetas.len());
        assert!(bounded.memo_evictions() > 0);
        // Re-running an evicted threshold still matches byte-for-byte.
        for (th, expect) in thetas.iter().zip(&reference) {
            let spec = JoinSpec::threshold(*th).u_filter();
            assert_eq!(engine.join_self(&bounded, &spec).unwrap().pairs, *expect);
        }
        // Tightening the capacity on a shared artifact evicts immediately.
        bounded.set_memo_capacity(1);
        assert!(bounded.memo_len() <= 1);
    }

    #[test]
    fn invalid_configs_and_specs_are_typed_errors() {
        let (kn, s, _) = setup();
        let bad_cfg = SimConfig {
            q: 0,
            ..SimConfig::default()
        };
        assert!(matches!(
            Engine::new(kn.clone(), bad_cfg),
            Err(AuError::InvalidConfig { field: "q", .. })
        ));
        let engine = Engine::new(kn, SimConfig::default()).unwrap();
        let ps = engine.prepare(&s).unwrap();
        assert!(matches!(
            engine.join_self(&ps, &JoinSpec::threshold(1.5)),
            Err(AuError::InvalidSpec { field: "theta", .. })
        ));
        assert!(matches!(
            engine.join_self(&ps, &JoinSpec::topk(3)),
            Err(AuError::InvalidSpec { field: "mode", .. })
        ));
        assert!(matches!(
            engine.topk_self(&ps, &JoinSpec::threshold(0.8)),
            Err(AuError::InvalidSpec { field: "mode", .. })
        ));
        assert!(matches!(
            engine.topk_self(&ps, &JoinSpec::topk(3).descent(0.9, 0.0, 0.1)),
            Err(AuError::InvalidSpec {
                field: "theta_floor",
                ..
            })
        ));
    }

    #[test]
    fn clear_memo_reclaims_artifacts_and_rebuilds_lazily() {
        let (kn, s, t) = setup();
        let engine = Engine::new(kn, SimConfig::default()).unwrap();
        let ps = engine.prepare(&s).unwrap();
        let pt = engine.prepare(&t).unwrap();
        // A fresh artifact is its corpus, its segmentation (each row
        // behind a pointer and two reference counts), the tier-0 integers
        // and the frequency table: nothing per pebble.
        let fresh = ps.memory_bytes();
        assert_eq!(
            fresh,
            std::mem::size_of::<Prepared>()
                + ps.corpus.memory_bytes()
                + ps.segrecs.iter().map(|sr| sr.memory_bytes()).sum::<usize>()
                + ps.len() * 3 * std::mem::size_of::<usize>()
                + ps.tier0.len() * std::mem::size_of::<(u32, u32)>()
                + ps.df.memory_bytes()
        );
        let spec = JoinSpec::threshold(0.7).au_dp(2);
        let first = engine.join(&ps, &pt, &spec).unwrap();
        assert!(ps.memo_len() > 0 && pt.memo_len() > 0);
        assert!(ps.memory_bytes() > fresh);
        ps.clear_memo();
        pt.clear_memo();
        assert_eq!(ps.memo_len() + pt.memo_len(), 0);
        // The join left nothing behind outside the memo.
        assert_eq!(ps.memory_bytes(), fresh);
        // Operations rebuild lazily and return identical results.
        let again = engine.join(&ps, &pt, &spec).unwrap();
        assert_eq!(first.pairs, again.pairs);
        assert!(ps.memo_len() > 0);
    }

    #[test]
    fn config_mismatch_is_rejected() {
        // Un-mutated Knowledge clones share a generation, so two engines
        // over the same knowledge but different configs must be told
        // apart by the config stamp, not the generation.
        let (kn, s, _) = setup();
        let e1 = Engine::new(kn.clone(), SimConfig::default()).unwrap();
        let e2 = Engine::new(
            kn,
            SimConfig::default().with_measures(crate::config::MeasureSet::J),
        )
        .unwrap();
        let p1 = e1.prepare(&s).unwrap();
        assert!(matches!(
            e2.join_self(&p1, &JoinSpec::threshold(0.8)),
            Err(AuError::ConfigMismatch)
        ));
        assert!(matches!(
            e2.searcher(&p1, &JoinSpec::threshold(0.8)),
            Err(AuError::ConfigMismatch)
        ));
        // Same config, distinct engine instances: artifacts interchange.
        let e3 = Engine::new(e1.knowledge().clone(), SimConfig::default()).unwrap();
        assert!(e3.join_self(&p1, &JoinSpec::threshold(0.8)).is_ok());
    }

    #[test]
    fn stale_prepared_is_rejected() {
        let (kn, s, t) = setup();
        let mut engine = Engine::new(kn, SimConfig::default()).unwrap();
        let ps = engine.prepare(&s).unwrap();
        let pt = engine.prepare(&t).unwrap();
        let fresh = engine.corpus_from_lines(["a brand new record"]);
        let err = engine
            .join(&ps, &pt, &JoinSpec::threshold(0.8))
            .unwrap_err();
        assert!(matches!(err, AuError::StaleKnowledge { .. }));
        // Re-preparing against the new generation works again.
        let ps2 = engine.prepare(&s).unwrap();
        let pf = engine.prepare(&fresh).unwrap();
        assert!(engine.join(&ps2, &pf, &JoinSpec::threshold(0.8)).is_ok());
    }

    #[test]
    fn foreign_corpus_is_rejected() {
        let (kn, s, _) = setup();
        let engine = Engine::new(kn, SimConfig::default()).unwrap();
        let mut other = KnowledgeBuilder::new().build();
        let foreign = other.corpus_from_lines([
            "tokens interned elsewhere one two three four five six seven eight nine",
        ]);
        // The foreign vocabulary is larger than anything these few tokens
        // could legally reference... unless ids happen to be in range; use
        // a corpus that must exceed the engine's vocabulary.
        match engine.prepare(&foreign) {
            Err(AuError::UnknownToken { .. }) => {}
            Ok(_) => {
                // All foreign ids were in range (coincidence of small
                // vocabularies) — still prepared deterministically.
            }
            Err(e) => panic!("unexpected error {e}"),
        }
        drop(s);
    }

    #[test]
    fn sink_join_streams_the_batch_results() {
        let (kn, s, t) = setup();
        let engine = Engine::new(kn, SimConfig::default()).unwrap();
        let ps = engine.prepare(&s).unwrap();
        let pt = engine.prepare(&t).unwrap();
        let spec = JoinSpec::threshold(0.6).au_dp(2);
        let batch = engine.join(&ps, &pt, &spec).unwrap();
        let mut streamed = Vec::new();
        let stats = engine
            .join_sink(&ps, &pt, &spec, |a, b, sim| streamed.push((a, b, sim)))
            .unwrap();
        assert_eq!(streamed, batch.pairs);
        assert_eq!(stats.result_count, batch.pairs.len());
        assert_eq!(stats.candidates, batch.stats.candidates);
    }

    /// `n` four-word records over a 12-word pool, deterministic in
    /// `salt`: dense enough that most record pairs become candidates.
    fn pooled_corpus(kn: &mut Knowledge, n: usize, salt: usize) -> Corpus {
        const POOL: [&str; 12] = [
            "coffee", "shop", "latte", "espresso", "cafe", "helsinki", "tea", "cake", "north",
            "south", "house", "garden",
        ];
        let word = |i: usize, k: usize| POOL[(i * 7 + k * (i % 5 + 1) + salt) % POOL.len()];
        let lines: Vec<String> = (0..n)
            .map(|i| [0, 1, 2, 3].map(|k| word(i, k)).join(" "))
            .collect();
        kn.corpus_from_lines(lines.iter().map(String::as_str))
    }

    #[test]
    fn parallel_prepare_equals_serial_prepare() {
        // Past `MIN_PARALLEL_ITEMS` the record pass fans out and each
        // worker counts its own frequency table; the artifact must not
        // show it. (Rules and entities included: `setup`'s knowledge
        // knows half the pool's words.)
        let (mut kn, _, _) = setup();
        let c = pooled_corpus(&mut kn, 1200, 2);
        let engine = Engine::new(kn, SimConfig::default()).unwrap();
        let fanned = engine.prepare_with(c.clone(), true);
        let serial = engine.prepare_with(c, false);
        assert_eq!(fanned.segrecs, serial.segrecs);
        assert_eq!(fanned.tier0, serial.tier0);
        assert_eq!(fanned.df, serial.df);
        assert!(fanned.segrecs.iter().any(|sr| !sr.rule_posts.is_empty()));
        assert!(fanned.segrecs.iter().any(|sr| !sr.node_segs.is_empty()));
    }

    /// The words `merge_lines` draws from; the last two are in no base
    /// record, so an appended row can carry a token interned after the
    /// base was prepared.
    const MERGE_WORDS: [&str; 12] = [
        "coffee", "shop", "cafe", "latte", "espresso", "helsinki", "tea", "cake", "north", "south",
        "zanzibar", "quixotic",
    ];

    /// `base` prepared under an early state of the knowledge lineage, then
    /// `drop[i]` deciding row `i`'s fate and `appended` interned and
    /// segmented under a later state: the merged artifact must equal,
    /// field for field, a from-scratch prepare of the surviving records —
    /// and every operation over the two must agree down to the counters.
    fn assert_merge_equals_prepare(base: &[String], drop: &[bool], appended: &[String]) {
        let (mut kn, _, _) = setup();
        let cfg = SimConfig::default();
        let base_corpus = kn.corpus_from_lines(base.iter().map(String::as_str));
        let old = Engine::new(kn.clone(), cfg).unwrap();
        let base_p = old.prepare(&base_corpus).unwrap();
        let dropped: Vec<u32> = (0..base.len() as u32)
            .filter(|&r| drop[r as usize])
            .collect();
        let new_rows: Vec<(Arc<SegRecord>, &str)> = appended
            .iter()
            .map(|line| {
                let id = kn.add_record(line);
                let sr = segment_record(&kn, &cfg, &kn.record(id).tokens);
                (Arc::new(sr), line.as_str())
            })
            .collect();
        let engine = Engine::new(kn, cfg).unwrap();
        let merged = engine
            .merge_prepared(
                &base_p,
                &dropped,
                new_rows.iter().map(|(sr, raw)| (sr, *raw)),
            )
            .unwrap();

        let mut live = Corpus::new();
        for r in base_corpus.iter().filter(|r| !drop[r.id.idx()]) {
            live.push_tokens(r.tokens.clone(), r.raw.clone());
        }
        for (sr, raw) in &new_rows {
            live.push_tokens(sr.tokens.clone(), raw.to_string());
        }
        let fresh = engine.prepare_owned(live).unwrap();

        assert_eq!(merged.segrecs, fresh.segrecs);
        assert_eq!(merged.df, fresh.df);
        assert_eq!(merged.tier0, fresh.tier0);
        assert_eq!(merged.generation(), engine.knowledge().generation());
        assert_eq!(merged.memo_len(), 0);
        assert_eq!(merged.memory_bytes(), fresh.memory_bytes());
        let rows = |p: &Prepared| -> Vec<(u32, Vec<TokenId>, String)> {
            p.corpus()
                .iter()
                .map(|r| (r.id.0, r.tokens.clone(), r.raw.clone()))
                .collect()
        };
        assert_eq!(rows(&merged), rows(&fresh));
        // Carried rows are the base's own, not copies.
        let kept = (0..base.len()).filter(|&r| !drop[r]);
        for (row, from) in kept.enumerate() {
            assert!(Arc::ptr_eq(&merged.segrecs[row], &base_p.segrecs[from]));
        }

        for spec in [
            JoinSpec::threshold(0.5).au_dp(2),
            JoinSpec::threshold(0.8).u_filter(),
        ] {
            let (m, f) = (
                engine.join_self(&merged, &spec).unwrap(),
                engine.join_self(&fresh, &spec).unwrap(),
            );
            assert_eq!(pair_bits(&m.pairs), pair_bits(&f.pairs));
            assert_eq!(m.stats.candidates, f.stats.candidates);
            assert_eq!(m.stats.processed_pairs, f.stats.processed_pairs);
            assert_eq!(m.stats.compat_rejected, f.stats.compat_rejected);
            assert_eq!(m.stats.tiers, f.stats.tiers, "all seven buckets");
            assert_eq!(m.stats.tiers.decisions(), m.stats.candidates);
            let (sm, sf) = (
                engine.searcher(&merged, &spec).unwrap(),
                engine.searcher(&fresh, &spec).unwrap(),
            );
            for q in base.iter().chain(appended).take(6) {
                let (a, b) = (sm.query(q), sf.query(q));
                assert_eq!(hit_bits(&a), hit_bits(&b), "{q:?}");
                assert_eq!(
                    (a.candidates, a.processed, a.compat_rejected, a.tiers),
                    (b.candidates, b.processed, b.compat_rejected, b.tiers),
                    "{q:?}"
                );
            }
        }
    }

    /// `n` lines of 1–4 words off `MERGE_WORDS[..pool]`, deterministic in
    /// `salt`.
    fn merge_lines(n: usize, pool: usize, salt: usize) -> Vec<String> {
        (0..n)
            .map(|i| {
                (0..1 + (i + salt) % 4)
                    .map(|k| MERGE_WORDS[(i * 5 + k * (i % 3 + 1) + salt) % pool])
                    .collect::<Vec<_>>()
                    .join(" ")
            })
            .collect()
    }

    #[test]
    fn merge_prepared_equals_prepare_at_the_edges() {
        let mut base = merge_lines(24, 10, 1);
        // Keys only a dropped row carries must leave the frequency table.
        base[0] = "gizmo widget".into();
        let appended = merge_lines(7, 12, 3);
        assert!(appended.iter().any(|l| l.contains("zanzibar")));
        let (all, none) = (vec![true; 24], vec![false; 24]);
        let some: Vec<bool> = (0..24).map(|i| i % 3 == 0).collect();
        let most: Vec<bool> = (0..24).map(|i| i % 5 != 0).collect();
        for (drop, appended) in [
            (&all, &appended[..]),  // drop everything
            (&all, &[][..]),        // … and append nothing: an empty artifact
            (&none, &appended[..]), // drop nothing
            (&none, &[][..]),       // the base again, re-stamped
            (&some, &[][..]),       // tombstones only (subtracts)
            (&most, &appended[..]), // a window
            (&some, &appended[..]),
        ] {
            assert_merge_equals_prepare(&base, drop, appended);
        }
        assert_merge_equals_prepare(&[], &[], &appended); // empty base
        assert_merge_equals_prepare(&[], &[], &[]);
    }

    mod merge_props {
        use super::*;
        use proptest::prelude::*;

        fn lines(pool: usize, max: usize) -> impl Strategy<Value = Vec<String>> {
            let line =
                prop::collection::vec(prop::sample::select(MERGE_WORDS[..pool].to_vec()), 0..5)
                    .prop_map(|w| w.join(" "));
            prop::collection::vec(line, 0..max)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            #[test]
            fn merge_prepared_equals_prepare_owned(
                base in lines(10, 30),
                drop in prop::collection::vec(prop::bool::weighted(0.4), 30),
                appended in lines(12, 8),
            ) {
                assert_merge_equals_prepare(&base, &drop, &appended);
            }
        }
    }

    #[test]
    fn merge_prepared_rejects_what_it_cannot_merge() {
        let (mut kn, s, _) = setup();
        let cfg = SimConfig::default();
        let engine = Engine::new(kn.clone(), cfg).unwrap();
        let base = engine.prepare(&s).unwrap();
        let none = std::iter::empty::<(&Arc<SegRecord>, &str)>;
        assert!(engine.merge_prepared(&base, &[0, 3], none()).is_ok());
        for unsorted in [&[2, 1][..], &[1, 1]] {
            assert!(matches!(
                engine.merge_prepared(&base, unsorted, none()),
                Err(AuError::InvalidSpec {
                    field: "dropped_rows",
                    ..
                })
            ));
        }
        assert_eq!(
            engine.merge_prepared(&base, &[1, 4], none()).err(),
            Some(AuError::RecordOutOfBounds { id: 4, len: 4 })
        );
        let other = Engine::new(kn.clone(), SimConfig { q: 3, ..cfg }).unwrap();
        assert_eq!(
            other.merge_prepared(&base, &[], none()).err(),
            Some(AuError::ConfigMismatch)
        );
        // A row segmented under a later state of the lineage than the
        // merging engine's: its new word is outside that vocabulary.
        let id = kn.add_record("coffee zanzibar");
        let late = Arc::new(segment_record(&kn, &cfg, &kn.record(id).tokens));
        assert!(matches!(
            engine.merge_prepared(&base, &[], [(&late, "coffee zanzibar")]),
            Err(AuError::UnknownToken { .. })
        ));
        // … and a base prepared under that later state is not one this
        // engine's knowledge can have descended from.
        let later = Engine::new(kn, cfg).unwrap();
        let newer = later.prepare(&s).unwrap();
        assert!(matches!(
            engine.merge_prepared(&newer, &[0], none()),
            Err(AuError::StaleKnowledge { .. })
        ));
        assert!(later.merge_prepared(&base, &[0], none()).is_ok());
    }

    /// θ ∈ {0.7, 0.9} × U / AU-heuristic / AU-DP: what the inheritance
    /// tests warm a base under before merging it.
    fn inherit_specs() -> Vec<JoinSpec> {
        let at = |theta: f64| {
            let t = JoinSpec::threshold(theta);
            [t.u_filter(), t.au_heuristic(2), t.au_dp(2)]
        };
        [0.7, 0.9].into_iter().flat_map(at).collect()
    }

    /// The memo invariant, checked from outside: every resident signature
    /// set is the selection over *all* rows under the very order it is
    /// filed under, and every resident index transposes that selection.
    fn assert_memo_coherent(engine: &Engine, p: &Prepared) {
        let (orders, sigs, csrs) = {
            let m = p.memo();
            let orders: Vec<_> = (m.orders.iter())
                .map(|(k, r)| (*k, r.order.clone()))
                .collect();
            let sigs: Vec<_> = m.sigs.iter().map(|(k, v)| (*k, v.clone())).collect();
            let csrs: Vec<_> = m.csr.iter().map(|(k, v)| (*k, v.clone())).collect();
            (orders, sigs, csrs)
        };
        let select = |k: &SigKey| {
            let filed = orders.iter().find(|(key, _)| *key == k.order);
            let (_, order) = filed.unwrap_or_else(|| panic!("{k:?} outlived its order"));
            SelectedSignatures::select(&engine.kn, &engine.cfg, &p.segrecs, order, &k.spec())
        };
        for (k, sel) in &sigs {
            assert_eq!(**sel, select(k), "signatures of {k:?} under their order");
        }
        for (k, index) in &csrs {
            let want = CsrIndex::from_record_keys(&select(k).record_keys);
            assert_eq!(index.sorted_lists(), want.sorted_lists(), "index of {k:?}");
        }
    }

    fn pair_bits(pairs: &[(u32, u32, f64)]) -> Vec<(u32, u32, u64)> {
        pairs.iter().map(|&(a, b, s)| (a, b, s.to_bits())).collect()
    }

    fn hit_bits(o: &SearchOutcome) -> Vec<(u32, u64)> {
        o.matches.iter().map(|&(r, s)| (r, s.to_bits())).collect()
    }

    /// `base` searched under every [`inherit_specs`] spec, then merged:
    /// while the churn rule holds the merged memo is the base's order
    /// handed down and, per spec, exactly `SelectedSignatures::select(all
    /// rows, that order)` with only the appended rows signed; past it the
    /// memo is empty. Either way pairs, matches and bits are those of a
    /// fresh prepare, and after `clear_memo` so is the whole funnel.
    fn assert_inherited_equals_fresh(base: &[String], drop: &[bool], appended: &[String]) {
        let (mut kn, _, _) = setup();
        let cfg = SimConfig::default();
        let base_corpus = kn.corpus_from_lines(base.iter().map(String::as_str));
        let old = Engine::new(kn.clone(), cfg).unwrap();
        let base_p = old.prepare(&base_corpus).unwrap();
        let specs = inherit_specs();
        for spec in &specs {
            old.searcher(&base_p, spec).unwrap();
        }
        let dropped: Vec<u32> = (0..base.len() as u32)
            .filter(|&r| drop[r as usize])
            .collect();
        let tail = kn.corpus_from_lines(appended.iter().map(String::as_str));
        let engine = Engine::new(kn, cfg).unwrap();
        let new_rows: Vec<Arc<SegRecord>> = tail
            .iter()
            .map(|r| Arc::new(segment_record(&engine.kn, &cfg, &r.tokens)))
            .collect();
        let with_text = || new_rows.iter().zip(appended.iter().map(String::as_str));
        let merged = engine
            .merge_prepared(&base_p, &dropped, with_text())
            .unwrap();
        let fresh = engine.prepare_owned(merged.corpus().clone()).unwrap();

        let churn = dropped.len() + appended.len();
        if churn > base.len() {
            assert_eq!(merged.memo_len(), 0, "past the churn rule: rank afresh");
            assert_eq!(merged.records_signed(), 0);
        } else {
            assert_eq!(merged.memo_len(), 1 + specs.len());
            let signed = (appended.len() * specs.len()) as u64;
            assert_eq!(merged.records_signed(), signed, "only appended rows");
            let misses = merged.memo_misses();
            let order = engine.order_self(&merged);
            assert_eq!(merged.memo_misses(), misses, "found, not ranked");
            assert_eq!(order.age(), (base.len(), churn));
            // Exactly the merged table's keys: no key kept for a row that
            // left, none missing for a row that came.
            assert_eq!(order.memory_bytes(), merged.df.memory_bytes());
            assert_memo_coherent(&engine, &merged);
        }

        let queries: Vec<&String> = base.iter().chain(appended).take(8).collect();
        for spec in &specs {
            let (m, f) = (
                engine.join_self(&merged, spec).unwrap(),
                engine.join_self(&fresh, spec).unwrap(),
            );
            assert_eq!(pair_bits(&m.pairs), pair_bits(&f.pairs), "{spec:?}");
            let (sm, sf) = (
                engine.searcher(&merged, spec).unwrap(),
                engine.searcher(&fresh, spec).unwrap(),
            );
            for q in &queries {
                assert_eq!(hit_bits(&sm.query(q)), hit_bits(&sf.query(q)), "{q:?}");
            }
        }
        assert_memo_coherent(&engine, &merged);

        // The inherited order dies with the memo: a cleared artifact ranks
        // its own frequencies, and the whole funnel is the fresh one's.
        merged.clear_memo();
        for spec in &specs {
            let (m, f) = (
                engine.join_self(&merged, spec).unwrap().stats,
                engine.join_self(&fresh, spec).unwrap().stats,
            );
            assert_eq!(
                (m.candidates, m.processed_pairs, m.compat_rejected, m.tiers),
                (f.candidates, f.processed_pairs, f.compat_rejected, f.tiers),
            );
            let (sm, sf) = (
                engine.searcher(&merged, spec).unwrap(),
                engine.searcher(&fresh, spec).unwrap(),
            );
            for q in &queries {
                let (a, b) = (sm.query(q), sf.query(q));
                assert_eq!(
                    (a.candidates, a.processed, a.compat_rejected, a.tiers),
                    (b.candidates, b.processed, b.compat_rejected, b.tiers),
                    "{q:?}"
                );
            }
        }
    }

    #[test]
    fn inherited_memo_equals_fresh_selection_at_the_edges() {
        let mut base = merge_lines(24, 10, 1);
        // Keys whose last carrier is dropped must leave the order.
        base[0] = "gizmo widget".into();
        // "zanzibar" / "quixotic": keys first seen in an appended row.
        let appended = merge_lines(7, 12, 3);
        assert!(appended.iter().any(|l| l.contains("zanzibar")));
        let (all, none) = (vec![true; 24], vec![false; 24]);
        let first: Vec<bool> = (0..24).map(|i| i == 0).collect();
        let some: Vec<bool> = (0..24).map(|i| i % 3 == 0).collect();
        for (drop, appended) in [
            (&none, &appended[..]),  // drop nothing
            (&none, &[][..]),        // … and append nothing: the base again
            (&first, &appended[..]), // a key leaves, keys arrive
            (&some, &[][..]),        // append nothing
            (&some, &appended[..]),
            (&all, &[][..]),        // drop everything: churn = rows ranked
            (&all, &appended[..]),  // … and one more: past the rule
            (&all, &appended[..1]), // likewise
        ] {
            assert_inherited_equals_fresh(&base, drop, appended);
        }
        assert_inherited_equals_fresh(&[], &[], &[]);
        assert_inherited_equals_fresh(&[], &[], &appended);
    }

    #[test]
    fn an_order_is_inherited_until_churn_exceeds_the_rows_it_ranked() {
        let (mut kn, _, _) = setup();
        let cfg = SimConfig::default();
        let base = kn.corpus_from_lines(merge_lines(20, 10, 1).iter().map(String::as_str));
        let tail_lines = merge_lines(16, 12, 5);
        let tail = kn.corpus_from_lines(tail_lines.iter().map(String::as_str));
        let engine = Engine::new(kn, cfg).unwrap();
        let rows: Vec<Arc<SegRecord>> = tail
            .iter()
            .map(|r| Arc::new(segment_record(&engine.kn, &cfg, &r.tokens)))
            .collect();
        let spec = JoinSpec::threshold(0.7).au_dp(2);
        let mut current = engine.prepare(&base).unwrap();
        engine.searcher(&current, &spec).unwrap();
        // Each merge drops three rows and appends four: churn 7.
        let mut ages = Vec::new();
        for round in 0..4 {
            let new = (4 * round..4 * round + 4).map(|i| (&rows[i], tail_lines[i].as_str()));
            let merged = engine.merge_prepared(&current, &[0, 1, 2], new).unwrap();
            let inherited = merged.memo_len() > 0;
            // A merged memo needs no search of its own to be handed on.
            let order = engine.order_self(&merged);
            ages.push((inherited, order.age()));
            current = merged;
        }
        assert_eq!(
            ages,
            [
                (true, (20, 7)),
                (true, (20, 14)),
                (false, (23, 0)), // 21 > 20: empty memo, ranked from its own 23 rows
                (true, (23, 7)),
            ]
        );
    }

    /// The hazard an inherited order creates: were the order evicted alone
    /// and re-ranked, signatures selected under the old one would meet
    /// queries sorted under the new one and lose true pairs. Run merges
    /// under a memo bound that pushes the inherited order out every other
    /// round; after every step the memo is coherent and joins and queries
    /// return exactly the brute-force pairs.
    #[test]
    fn memo_eviction_never_pairs_a_stale_signature_with_a_reranked_order() {
        let (mut kn, _, _) = setup();
        let cfg = SimConfig::default();
        let base = kn.corpus_from_lines(merge_lines(30, 10, 1).iter().map(String::as_str));
        let partner = kn.corpus_from_lines(merge_lines(6, 10, 4).iter().map(String::as_str));
        let tail_lines = merge_lines(18, 12, 7);
        let tail = kn.corpus_from_lines(tail_lines.iter().map(String::as_str));
        let engine = Engine::new(kn, cfg).unwrap();
        let rows: Vec<Arc<SegRecord>> = tail
            .iter()
            .map(|r| Arc::new(segment_record(&engine.kn, &cfg, &r.tokens)))
            .collect();
        let theta = 0.7;
        let spec = JoinSpec::threshold(theta).au_dp(2);
        let partner = engine.prepare(&partner).unwrap();
        let mut current = engine.prepare(&base).unwrap();
        engine.searcher(&current, &spec).unwrap();
        for round in 0..6u32 {
            let new = (3 * round as usize..).take(3);
            let new = new.map(|i| (&rows[i], tail_lines[i].as_str()));
            let merged = engine
                .merge_prepared(&current, &[round, round + 5], new)
                .unwrap();
            assert!(merged.memo_len() > 0, "round {round}: inherited");
            assert_memo_coherent(&engine, &merged);
            let evict = round % 2 == 1;
            if evict {
                // Two entries at most, and an R×S join that needs both:
                // the self order's signatures go first, then the order.
                merged.set_memo_capacity(2);
                engine.join(&merged, &partner, &spec).unwrap();
                assert!(!merged.memo().orders.contains_key(&OrderKey::SelfOrder));
                assert_memo_coherent(&engine, &merged);
                merged.set_memo_capacity(0);
            }
            let searcher = engine.searcher(&merged, &spec).unwrap();
            assert_eq!(searcher.core.order.age().1 == 0, evict, "round {round}");
            assert_memo_coherent(&engine, &merged);

            let c = merged.corpus();
            let all = brute_force_join(&engine.kn, &cfg, c, c, theta);
            let upper: Vec<_> = all.iter().copied().filter(|&(a, b, _)| a < b).collect();
            let got = engine.join_self(&merged, &spec).unwrap();
            assert_eq!(pair_bits(&got.pairs), pair_bits(&upper), "round {round}");
            for rec in c.iter() {
                let mut got: Vec<u32> = searcher
                    .query(&rec.raw)
                    .matches
                    .iter()
                    .map(|m| m.0)
                    .collect();
                got.sort_unstable();
                let want = all.iter().filter(|p| p.0 == rec.id.0).map(|p| p.1);
                assert_eq!(
                    got,
                    want.collect::<Vec<_>>(),
                    "round {round}: {:?}",
                    rec.raw
                );
            }
            current = merged;
        }
    }

    /// And for real: readers build searchers over a merged artifact and
    /// query it while another thread clears the memo under them, so a
    /// reader may hold the inherited order while the memo already files
    /// selections under the re-ranked one. Every answer must be the brute
    /// force one, and whatever is resident afterwards coherent.
    #[test]
    fn memo_eviction_races_never_lose_a_pair() {
        let (mut kn, _, _) = setup();
        let cfg = SimConfig::default();
        let base = kn.corpus_from_lines(merge_lines(30, 10, 1).iter().map(String::as_str));
        let tail_lines = merge_lines(8, 12, 7);
        let tail = kn.corpus_from_lines(tail_lines.iter().map(String::as_str));
        let engine = Engine::new(kn, cfg).unwrap();
        let rows: Vec<Arc<SegRecord>> = tail
            .iter()
            .map(|r| Arc::new(segment_record(&engine.kn, &cfg, &r.tokens)))
            .collect();
        let theta = 0.7;
        let spec = JoinSpec::threshold(theta).au_dp(2);
        let base_p = engine.prepare(&base).unwrap();
        engine.searcher(&base_p, &spec).unwrap();
        for round in 0..12 {
            let new = rows.iter().zip(tail_lines.iter().map(String::as_str));
            let merged = engine.merge_prepared(&base_p, &[1, 4, 9], new).unwrap();
            let c = merged.corpus();
            let all = brute_force_join(&engine.kn, &cfg, c, c, theta);
            let (engine, merged, all) = (&engine, &merged, &all);
            std::thread::scope(|scope| {
                for reader in 0..3usize {
                    scope.spawn(move || {
                        for i in 0..12 {
                            let searcher = engine.searcher(merged, &spec).unwrap();
                            let rec =
                                &merged.corpus().records()[(reader * 11 + i * 5) % merged.len()];
                            let found = searcher.query(&rec.raw);
                            let mut got: Vec<u32> = found.matches.iter().map(|m| m.0).collect();
                            got.sort_unstable();
                            let want = all.iter().filter(|p| p.0 == rec.id.0).map(|p| p.1);
                            assert_eq!(
                                got,
                                want.collect::<Vec<_>>(),
                                "round {round}: {:?}",
                                rec.raw
                            );
                        }
                    });
                }
                scope.spawn(move || {
                    for _ in 0..6 {
                        std::thread::yield_now();
                        merged.clear_memo();
                    }
                });
            });
            assert_memo_coherent(engine, merged);
        }
    }

    /// The same hazard across threads, replayed in one: a caller that took
    /// the inherited order before the memo was cleared and re-ranked comes
    /// back with it. It must get what it asked for — the selection under
    /// *its* order — and must neither be served nor overwrite what is
    /// filed under the new one.
    #[test]
    fn a_stale_order_handle_is_served_but_never_filed() {
        let (mut kn, _, _) = setup();
        let cfg = SimConfig::default();
        // Frequencies that move: "north" is everywhere in the base and the
        // appended rows are all "tea".
        let base_lines: Vec<String> = (0..16)
            .map(|i| format!("north {} {}", MERGE_WORDS[i % 6], MERGE_WORDS[(i + 3) % 9]))
            .collect();
        let base = kn.corpus_from_lines(base_lines.iter().map(String::as_str));
        let tail_lines: Vec<String> = (0..10)
            .map(|i| format!("tea cake {}", MERGE_WORDS[i % 5]))
            .collect();
        let tail = kn.corpus_from_lines(tail_lines.iter().map(String::as_str));
        let engine = Engine::new(kn, cfg).unwrap();
        let rows: Vec<Arc<SegRecord>> = tail
            .iter()
            .map(|r| Arc::new(segment_record(&engine.kn, &cfg, &r.tokens)))
            .collect();
        let spec = JoinSpec::threshold(0.7).au_dp(2);
        let base_p = engine.prepare(&base).unwrap();
        engine.searcher(&base_p, &spec).unwrap();
        let new = rows.iter().zip(tail_lines.iter().map(String::as_str));
        let merged = engine.merge_prepared(&base_p, &[], new).unwrap();

        let key = OrderKey::SelfOrder;
        let sig_key = SigKey::new(key, &spec);
        let stale = engine.order_self(&merged);
        assert!(stale.age().1 > 0);
        merged.clear_memo();
        let ranked = engine.order_self(&merged);
        assert_eq!(ranked.age().1, 0);
        let filed = engine.signatures(&merged, key, &ranked, &spec);
        let select = |order: &PebbleOrder| {
            SelectedSignatures::select(&engine.kn, &cfg, &merged.segrecs, order, &spec)
        };
        assert_ne!(select(&stale), *filed, "the two orders select differently");

        let served = engine.signatures(&merged, key, &stale, &spec);
        assert_eq!(*served, select(&stale));
        let index = engine.csr(&merged, sig_key, &stale, &served);
        let want = CsrIndex::from_record_keys(&served.record_keys);
        assert_eq!(index.sorted_lists(), want.sorted_lists());
        // Nothing of the stale order's was filed…
        assert!(!merged.memo().csr.contains_key(&sig_key));
        assert!(Arc::ptr_eq(
            &engine.signatures(&merged, key, &ranked, &spec),
            &filed
        ));
        // … and with the new order's index filed, the stale caller is still
        // not served it.
        let filed_index = engine.csr(&merged, sig_key, &ranked, &filed);
        let again = engine.csr(&merged, sig_key, &stale, &served);
        assert!(!Arc::ptr_eq(&again, &filed_index));
        assert_eq!(again.sorted_lists(), want.sorted_lists());
        assert_memo_coherent(&engine, &merged);
    }

    mod inherit_props {
        use super::*;
        use proptest::prelude::*;

        fn lines(pool: usize, max: usize) -> impl Strategy<Value = Vec<String>> {
            let line =
                prop::collection::vec(prop::sample::select(MERGE_WORDS[..pool].to_vec()), 0..5)
                    .prop_map(|w| w.join(" "));
            prop::collection::vec(line, 0..max)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            #[test]
            fn inherited_memo_equals_fresh_selection(
                base in lines(10, 30),
                drop in prop::collection::vec(prop::bool::weighted(0.3), 30),
                appended in lines(12, 8),
            ) {
                assert_inherited_equals_fresh(&base, &drop, &appended);
            }
        }
    }

    #[test]
    fn query_signature_equals_the_indexed_records_signature() {
        // A query goes through the same record → signature function as
        // the indexed side: querying a record's own text derives exactly
        // the key set and level the index holds for it.
        let (kn, _, t) = setup();
        let engine = Engine::new(kn, SimConfig::default()).unwrap();
        let pt = engine.prepare(&t).unwrap();
        for spec in [
            JoinSpec::threshold(0.7).u_filter(),
            JoinSpec::threshold(0.8).au_heuristic(3),
            JoinSpec::threshold(0.6).au_dp(2),
        ] {
            let core = engine.search_core(&pt, &spec).unwrap();
            for r in t.iter() {
                let sr = core.session.segment(&engine.kn, &engine.cfg, &r.raw);
                let (choice, keys) = crate::join::record_signature(
                    &engine.kn,
                    &engine.cfg,
                    &core.order,
                    &spec,
                    &sr,
                    &mut Default::default(),
                );
                assert_eq!(keys, core.sel.record_keys.get(r.id.0), "{:?}", r.raw);
                assert_eq!(choice.level, core.sel.levels[r.id.idx()]);
            }
        }
    }

    #[test]
    fn chunk_boundaries_move_no_pair_and_no_tier_tally() {
        // The sink verifies in batches that share one corpus-level index;
        // a batch boundary — even one inside a probe record's run, which
        // splits the run's mass count in two — must move neither a pair,
        // a similarity bit nor a tier counter.
        let mut kn = KnowledgeBuilder::new().build();
        let (s, t) = (pooled_corpus(&mut kn, 90, 0), pooled_corpus(&mut kn, 90, 3));
        let engine = Engine::new(kn, SimConfig::default()).unwrap();
        let ps = engine.prepare(&s).unwrap();
        let pt = engine.prepare(&t).unwrap();
        for parallel in [false, true] {
            let spec = JoinSpec::threshold(0.7).au_dp(2).parallel(parallel);
            let whole = engine.join_full(&ps, &pt, false, &spec);
            // Enough candidates that the shared verification index is built.
            assert!(whole.stats.candidates >= 2048 && !whole.pairs.is_empty());
            assert!(whole.stats.tiers.mass_rejects > 0);
            for chunk in [1, 7, 100] {
                let mut pairs = Vec::new();
                let stats = engine.join_run(&ps, &pt, false, &spec, chunk, |a, b, sim| {
                    pairs.push((a, b, sim))
                });
                assert_eq!(pairs, whole.pairs, "chunk {chunk} parallel={parallel}");
                assert_eq!(stats.tiers, whole.stats.tiers, "chunk {chunk}");
            }
        }
    }

    /// A query is verified as one run of the transposed index; per-pair
    /// verification (what a scan does) of the *same* candidates must agree
    /// in rows, order, similarity bits and in every tier bucket. Covers
    /// queries with out-of-vocabulary words (overlay ids no posting table
    /// has seen), the empty query, an empty collection, and — the mass
    /// counters are shrunk under test — runs counted in several chunks.
    #[test]
    fn query_run_walk_equals_per_pair_verification_of_its_candidates() {
        let queries = [
            "coffee shop latte helsinki",
            "tea cake south garden",
            "lattte zanzibar qwertz",
            "espresso cafe house north coffee",
            "",
        ];
        for (n, theta) in [(500, 0.5), (500, 0.8), (0, 0.5)] {
            let (mut kn, _, _) = setup();
            let c = pooled_corpus(&mut kn, n, 5);
            let engine = Engine::new(kn, SimConfig::default()).unwrap();
            let pt = engine.prepare(&c).unwrap();
            let spec = JoinSpec::threshold(theta).au_dp(2).serial();
            let searcher = engine.searcher(&pt, &spec).unwrap();
            let core = &searcher.core;
            let verifier = Verifier::new(&engine.kn, &engine.cfg);
            let (mut most, mut seen) = (0usize, VerifyTiers::default());
            for q in queries {
                let sr = core.session.segment(&engine.kn, &engine.cfg, q);
                let walked = searcher.query(q);
                let mut scratch = core.session.checkout(pt.len());
                let (candidates, _) = core.probe_candidates(&engine, &pt, &sr, &mut scratch);
                core.session.check_in(scratch);
                let mut per_pair = VerifyScratch::default();
                let mut matches: Vec<(u32, f64)> = candidates
                    .iter()
                    .map(|&r| {
                        let sim = verifier.sim_at_least(
                            &sr,
                            &pt.segrecs[r as usize],
                            theta,
                            &mut per_pair,
                        );
                        (r, sim)
                    })
                    .filter(|&(_, sim)| sim >= theta - engine.cfg.eps)
                    .collect();
                matches.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
                let bits = |m: &[(u32, f64)]| -> Vec<(u32, u64)> {
                    m.iter().map(|&(r, s)| (r, s.to_bits())).collect()
                };
                assert_eq!(bits(&walked.matches), bits(&matches), "θ={theta} q={q:?}");
                assert_eq!(walked.tiers, per_pair.take_tally(), "θ={theta} q={q:?}");
                assert_eq!(walked.candidates, candidates.len() as u64);
                assert_eq!(walked.tiers.decisions(), walked.candidates);
                assert_eq!(walked.tiers.accepted, walked.matches.len() as u64);
                most = most.max(candidates.len() * sr.segments.len());
                seen.merge(&walked.tiers);
            }
            // 256 counters per chunk under test: the big runs were cut.
            assert!(n == 0 || most > 4 * 256, "largest run: {most} counters");
            assert!(
                n == 0 || (seen.accepted > 0 && seen.mass_rejects > 0),
                "{seen:?}"
            );
        }
    }

    #[test]
    fn searcher_handles_unknown_tokens_without_mut() {
        let (kn, _, t) = setup();
        let engine = Engine::new(kn, SimConfig::default()).unwrap();
        let pt = engine.prepare(&t).unwrap();
        let searcher = engine
            .searcher(&pt, &JoinSpec::threshold(0.6).au_dp(1))
            .unwrap();
        // "helsinky" is out of vocabulary; grams still match record 0.
        let out = searcher.query("espresso cafe helsinky");
        assert!(out.matches.iter().any(|&(rid, _)| rid == 0), "{out:?}");
        // Repeat with the same unknown token: overlay ids are stable.
        let again = searcher.query("espresso cafe helsinky");
        assert_eq!(out.matches, again.matches);
        // The engine's vocabulary was not touched.
        assert!(engine.knowledge().vocab.get("helsinky").is_none());
    }

    #[test]
    fn usim_upper_bound_dominates_usim() {
        let (kn, s, t) = setup();
        let engine = Engine::new(kn, SimConfig::default()).unwrap();
        let ps = engine.prepare(&s).unwrap();
        let pt = engine.prepare(&t).unwrap();
        for a in 0..s.len() as u32 {
            for b in 0..t.len() as u32 {
                let ub = engine.usim_upper_bound(&ps, a, &pt, b).unwrap();
                let sim = engine.usim(&ps, a, &pt, b).unwrap();
                assert!(ub + 1e-12 >= sim, "({a},{b}): bound {ub} < sim {sim}");
            }
        }
        assert!(matches!(
            engine.usim(&ps, 99, &pt, 0),
            Err(AuError::RecordOutOfBounds { id: 99, .. })
        ));
    }

    #[test]
    fn lazy_sharded_prepare_matches_full_prepare() {
        let (kn, s, _) = setup();
        let engine = Engine::new(kn, SimConfig::default()).unwrap();
        let ps = engine.prepare(&s).unwrap();
        let sp = engine
            .prepare_sharded(&s, &ShardSpec::auto().with_shards(2))
            .unwrap();
        let full: Vec<(u32, u32)> = (0..s.len() as u32)
            .map(|i| {
                let sr = ps.seg_record(i).unwrap();
                (sr.n_tokens() as u32, sr.min_partition)
            })
            .collect();
        assert_eq!(sp.tier0(), full.as_slice());
        let spec = JoinSpec::threshold(0.6);
        let mono = engine.join_self(&ps, &spec).unwrap();
        let lazy = engine.join_self_sharded(&sp, &spec).unwrap();
        assert_eq!(mono.pairs, lazy.pairs);
        assert!(sp.shard_builds() >= 1);
        assert!(sp.peak_memory_bytes() > 0);
        let rs = engine.join_sharded(&sp, &sp, &spec).unwrap();
        let mono_rs = engine.join(&ps, &ps, &spec).unwrap();
        assert_eq!(mono_rs.pairs, rs.pairs);
    }

    #[test]
    fn sharded_joins_hold_at_most_the_configured_shards() {
        // Equal-length records: every shard pair is compatible, so the
        // whole grid runs and the residency budget is actually reached.
        let mut kn = KnowledgeBuilder::new().build();
        let c = pooled_corpus(&mut kn, 42, 1);
        let engine = Engine::new(kn, SimConfig::default()).unwrap();
        let pc = engine.prepare(&c).unwrap();
        let spec = JoinSpec::threshold(0.7);
        let mono_self = engine.join_self(&pc, &spec).unwrap();
        let mono_rs = engine.join(&pc, &pc, &spec).unwrap();
        for cap in [2usize, 3, 5] {
            let sspec = ShardSpec::auto().with_shards(7).with_cache_capacity(cap);
            let sp = engine.prepare_sharded(&c, &sspec).unwrap();
            let lazy = engine.join_self_sharded(&sp, &spec).unwrap();
            assert_eq!(lazy.pairs, mono_self.pairs, "cap {cap}");
            assert_eq!(relock(&sp.counters).most_resident, cap, "self, cap {cap}");
            // R×S: the band is a full `cap` wide and T streams beside it.
            let sp = engine.prepare_sharded(&c, &sspec).unwrap();
            let lazy = engine.join_sharded(&sp, &sp, &spec).unwrap();
            assert_eq!(lazy.pairs, mono_rs.pairs, "cap {cap}");
            assert_eq!(
                relock(&sp.counters).most_resident,
                cap + 1,
                "R×S, cap {cap}"
            );
        }
    }

    #[test]
    fn join_with_same_prepared_is_cross_product_semantics() {
        let (kn, s, _) = setup();
        let engine = Engine::new(kn, SimConfig::default()).unwrap();
        let p = engine.prepare(&s).unwrap();
        let spec = JoinSpec::threshold(0.9).serial();
        let cross = engine.join(&p, &p, &spec).unwrap();
        // Every record matches itself at θ = 0.9.
        for a in 0..s.len() as u32 {
            assert!(cross.pairs.iter().any(|&(x, y, _)| x == a && y == a));
        }
        // Self-join reports each unordered pair once, without (a, a).
        let selfj = engine.join_self(&p, &spec).unwrap();
        assert!(selfj.pairs.iter().all(|&(a, b, _)| a < b));
    }
}
