//! The long-lived service: snapshot swap, delta mutations, compaction.

use crate::admission::{Admission, AdmissionStats, Permit};
use crate::error::ServeError;
use crate::snapshot::{DeltaRow, JoinWindowResponse, SearchResponse, Snapshot, TopkResponse};
use crate::storage::{FileStorage, Storage};
use crate::tombstone::TombstoneSet;
use crate::wal::{RetryPolicy, Wal, WalOp, WalStats};
use au_core::engine::{Engine, JoinSpec};
use au_core::knowledge::Knowledge;
use au_core::parallel::par_map;
use au_core::signature::FilterKind;
use au_core::SimConfig;
use au_text::record::Corpus;
use std::panic::{self, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Recover a poisoned mutex: every structure under these locks is valid
/// after any partial operation (the writer state is the knowledge
/// lineage, the id watermark and the log; what readers see lives in the
/// published snapshot, which is only ever replaced whole), so the service
/// keeps serving instead of propagating panics across requests.
fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Render an IO failure of the write-ahead log as the typed error.
fn wal_error(op: &'static str, e: &std::io::Error) -> ServeError {
    ServeError::Wal {
        op,
        detail: e.to_string(),
    }
}

/// The log-replay fold: runs the recovered operations forward and
/// reconstructs the exact base/delta/tombstone split a crashed service
/// had at its last acknowledged operation.
#[derive(Debug)]
struct Replay {
    /// Every record inserted since the last checkpoint, in log order
    /// (tokens interned through the service's knowledge lineage).
    corpus: Corpus,
    /// Global id of each record in `corpus`.
    ids: Vec<u64>,
    /// False once a compaction folded the record's tombstone away.
    alive: Vec<bool>,
    /// Records `0..base_upto` belong to the base segment (sealed by the
    /// last compaction); the rest are the pending delta.
    base_upto: usize,
    /// Tombstones set after the last compaction (they mask, not fold).
    tombstones: TombstoneSet,
    /// The id watermark: the next insert gets this id.
    next_id: u64,
}

impl Replay {
    fn run(kn: &mut Knowledge, ops: &[WalOp]) -> Self {
        let mut r = Self {
            corpus: Corpus::new(),
            ids: Vec::new(),
            alive: Vec::new(),
            base_upto: 0,
            tombstones: TombstoneSet::new(),
            next_id: 0,
        };
        for op in ops {
            match op {
                WalOp::Insert { id, text } => {
                    kn.push_line(&mut r.corpus, text);
                    r.ids.push(*id);
                    r.alive.push(true);
                    r.next_id = r.next_id.max(id + 1);
                }
                WalOp::Delete { id } => {
                    r.tombstones.insert(*id);
                }
                WalOp::Compact => {
                    for (i, alive) in r.alive.iter_mut().enumerate() {
                        if r.tombstones.contains(r.ids[i]) {
                            *alive = false;
                        }
                    }
                    r.tombstones.clear();
                    r.base_upto = r.ids.len();
                }
                WalOp::Checkpoint { next_id } => {
                    // A checkpoint rewrite starts the log over: what
                    // follows is the entire live state. The knowledge
                    // lineage keeps its vocabulary (append-only interning
                    // never changes an answer — similarity is a pure
                    // function of the token pair).
                    r.corpus = Corpus::new();
                    r.ids.clear();
                    r.alive.clear();
                    r.base_upto = 0;
                    r.tombstones.clear();
                    r.next_id = *next_id;
                }
            }
        }
        r
    }
}

/// Service configuration. `Default` gives a sensible interactive setup:
/// θ = 0.7 with the DP filter, memo capacity 64, compaction every 256
/// delta records, admission bound 1024.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Similarity configuration shared by every engine the service
    /// builds (base, delta, compacted bases).
    pub sim: SimConfig,
    /// Threshold θ that [`Service::search`] answers at.
    pub theta: f64,
    /// Signature filter for every query/join spec.
    pub filter: FilterKind,
    /// Memo capacity applied to each base `Prepared`
    /// ([`au_core::engine::Prepared::with_memo_capacity`]); bounds the
    /// artifact cache a threshold-sweeping client can grow. 0 =
    /// unbounded.
    pub memo_capacity: usize,
    /// Auto-compact once the delta segment reaches this many records
    /// (0 = compact only on [`Service::compact`] / the background
    /// [`crate::Compactor`]).
    ///
    /// The delta segment has no filter: a write appends one segmented
    /// row and touches nothing else, and a read verifies every delta row
    /// that passes the tier-0 bound. So the threshold is the bound on what
    /// a read pays for the delta — ≈ 1.7 µs per delta record, linear in
    /// this value — where an indexed delta made every *write* pay ≈ 130 µs
    /// per delta record to rebuild the index.
    ///
    /// The insert that reaches the threshold only starts the compaction:
    /// the merge and index build run on a thread of their own while
    /// writes go on, and the rows those writes add stay in the delta
    /// beside the new base. So the delta may overshoot the threshold by
    /// one build's writes, and a read pays the same ≈ 1.7 µs for each
    /// extra row until the next compaction folds it — up to twice the
    /// threshold: an insert that finds the delta there with the build
    /// still running waits for its swap.
    pub compact_threshold: usize,
    /// Max concurrently executing requests before
    /// [`ServeError::Overloaded`] (0 = unbounded).
    pub max_in_flight: usize,
    /// Floor of the top-k threshold descent.
    pub topk_floor: f64,
    /// Subtractive step of the top-k threshold descent.
    pub topk_step: f64,
    /// Retry-with-bounded-backoff policy for write-ahead-log appends
    /// (ignored by non-durable services built with [`Service::build`]).
    pub retry: RetryPolicy,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            sim: SimConfig::default(),
            theta: 0.7,
            filter: FilterKind::AuDp { tau: 2 },
            memo_capacity: 64,
            compact_threshold: 256,
            max_in_flight: 1024,
            topk_floor: 0.3,
            topk_step: 0.1,
            retry: RetryPolicy::default(),
        }
    }
}

impl ServeConfig {
    fn spec_at(&self, theta: f64) -> JoinSpec {
        JoinSpec::threshold(theta).filter(self.filter)
    }

    pub(crate) fn spec(&self) -> JoinSpec {
        self.spec_at(self.theta)
    }
}

/// Receipt of one accepted mutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mutation {
    /// Global id of the affected record.
    pub id: u64,
    /// Generation of the snapshot that first reflects the mutation. An
    /// insert that reaches [`ServeConfig::compact_threshold`] reports its
    /// own publication too: the compaction it starts lands later, under
    /// a larger generation.
    pub generation: u64,
}

/// Point-in-time service counters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeStats {
    /// Generation of the currently published snapshot.
    pub generation: u64,
    /// Live records in the current snapshot.
    pub live: usize,
    /// Records in the current delta segment.
    pub delta_len: usize,
    /// Tombstoned ids awaiting compaction.
    pub tombstones: usize,
    /// Queries answered (search + topk + join_window + batch items).
    pub queries: u64,
    /// Accepted inserts.
    pub inserts: u64,
    /// Accepted deletes.
    pub deletes: u64,
    /// Compactions performed.
    pub compactions: u64,
    /// Records segmented by this service so far: a base build from text
    /// (create, open) counts every record it prepares, an insert counts
    /// one, a delete none — and **a compaction segments nothing**: it
    /// merges rows that were segmented when they were created or
    /// inserted. Monotone; the deterministic statement of "stage 1 runs
    /// once per record, ever".
    pub records_prepared: u64,
    /// Records run through signature selection by base builds so far:
    /// every record of a base built from text (create, open) or ranked
    /// afresh, only the appended rows of a compaction that inherited its
    /// order. Monotone: "stage 3 runs once per record per ranking".
    pub records_signed: u64,
    /// Nanoseconds the most recent compaction held the writer lock: the
    /// `Compact` frame at its start plus the swap at its end (the
    /// "compaction pause" — what a writer can queue behind; reads never
    /// block on it). The merge and index build in between hold no lock
    /// ([`CompactionStats::merge_nanos`], [`CompactionStats::build_nanos`]).
    pub last_compact_nanos: u64,
    /// Shape of the most recent compaction (all zero before the first).
    pub last_compact: CompactionStats,
    /// True while a compaction is in flight: its `Compact` frame is
    /// logged and its new base not yet swapped in.
    pub compacting: bool,
    /// Admission counters.
    pub admission: AdmissionStats,
    /// True while the service is in degraded read-only mode.
    pub degraded: bool,
    /// Times the service *entered* degraded mode (a WAL failure that
    /// survived the whole retry budget).
    pub degraded_entries: u64,
    /// Writes rejected fast with [`ServeError::Degraded`] while in
    /// degraded mode.
    pub degraded_writes: u64,
    /// Write-ahead-log counters (`durable: false` and all-zero for
    /// non-durable services).
    pub wal: WalStats,
}

/// What the most recent compaction did, and where its time went.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactionStats {
    /// Base rows carried over as they were (shared, not re-segmented).
    pub carried: u64,
    /// Tombstoned base rows dropped.
    pub dropped: u64,
    /// Live delta rows appended.
    pub appended: u64,
    /// Delta rows inserted while the new base was built, carried into
    /// the swapped-in snapshot's delta (shared, not re-segmented).
    pub carried_rows: u64,
    /// Tombstones set while the new base was built, carried into the
    /// swapped-in snapshot (they mask; the next compaction folds them).
    pub carried_tombstones: u64,
    /// Nanoseconds assembling the merged artifact (`merge_prepared`),
    /// with no lock held.
    pub merge_nanos: u64,
    /// Nanoseconds making it searchable — the indexes, and only when
    /// `reranked` order and signatures — with no lock held.
    pub build_nanos: u64,
    /// Signatures selected: `appended` per inherited selection, or every
    /// live row after a re-rank.
    pub signed: u64,
    /// The new base ranked its pebble keys afresh instead of inheriting
    /// the previous base's order.
    pub reranked: bool,
    /// Rows dropped + appended since the new base's order was ranked.
    pub churn: u64,
    /// Rows that ranking counted; inherited while `churn ≤ ranked_over`.
    pub ranked_over: u64,
}

/// Mutable state owned by the single writer path (mutations and
/// compaction). Readers never touch this — they only clone the
/// published snapshot `Arc`. The delta rows and tombstones are *not*
/// duplicated here: the published snapshot is their one copy, and only
/// the holder of this lock replaces it.
#[derive(Debug)]
struct WriterState {
    /// The service's private knowledge lineage. Delta inserts intern
    /// into *this* vocabulary; the engines inside published snapshots
    /// each hold their own (cheap) clone, so no shared `Knowledge` is
    /// ever mutated mid-generation.
    kn: Knowledge,
    next_id: u64,
    /// The write-ahead log, when this service is durable. Every
    /// mutation commits here (append + sync) *before* it is applied in
    /// memory or acknowledged — the WAL offset is the commit point.
    wal: Option<Wal>,
    /// `Some` while a compaction is in flight — its `Compact` frame is
    /// logged, its swap has not landed — holding how long its start held
    /// this lock. At most one is in flight.
    building: Option<Duration>,
    /// The thread of the last threshold-started compaction, until the
    /// next start, [`Service::compact`], [`Service::save`] or drop joins
    /// it (a compaction `compact()` starts is joined by `compact()`).
    build: Option<JoinHandle<Result<u64, ServeError>>>,
}

impl WriterState {
    fn new(kn: Knowledge, next_id: u64, wal: Option<Wal>) -> Self {
        Self {
            kn,
            next_id,
            wal,
            building: None,
            build: None,
        }
    }
}

/// What only the write path knows and [`Service::stats`] reports, copied
/// here under the writer lock (by a write, or by a landing compaction)
/// so that `stats()` never waits for an fsync or a compaction.
#[derive(Debug, Clone, Copy, Default)]
struct WriteSide {
    wal: WalStats,
    compactions: u64,
    records_signed: u64,
    last_compact_nanos: u64,
    last_compact: CompactionStats,
    compacting: bool,
}

/// The state a compaction's build thread publishes into, shared with the
/// [`Service`] by `Arc`: the build re-takes the writer lock to land, so
/// only the writer-lock holder ever replaces the snapshot.
#[derive(Debug)]
struct Shared {
    current: RwLock<Arc<Snapshot>>,
    /// Watermark of the latest published generation, readable without
    /// the snapshot lock; strictly increases across publishes.
    published_gen: AtomicU64,
    writer: Mutex<WriterState>,
    /// Signalled, under the writer lock, when a compaction lands (or is
    /// abandoned); waited on with the writer lock by whoever must not
    /// start while one is in flight ([`Shared::settled`]).
    landed: Condvar,
    write_side: Mutex<WriteSide>,
    /// Test hook: the next build parks here, between its off-lock half
    /// and its landing, until the test releases it.
    #[cfg(test)]
    gate: Mutex<Option<(std::sync::mpsc::Sender<()>, std::sync::mpsc::Receiver<()>)>>,
}

/// A compaction's off-lock half: the merged base, made searchable.
struct Built {
    /// The new base, generation not yet minted (that happens at the swap).
    base: Snapshot,
    carried: usize,
    reranked: bool,
    merge: Duration,
    build: Duration,
}

impl Built {
    /// Merge the live rows of `prev`'s two segments into a new base
    /// ([`Snapshot::merge_live`]: nothing is segmented, and while the churn
    /// rule holds the order and the carried rows' signatures are inherited
    /// — only the appended rows are signed, only the indexes rebuilt).
    ///
    /// Everything runs on the calling (build) thread: the build has the
    /// core the writer is not on, and parallel workers beside it would
    /// each need an allocator arena of their own, on top of the one the
    /// build thread takes — ≈ +30 MiB of peak RSS on `serve_mixed`.
    fn new(cfg: &ServeConfig, prev: &Snapshot, engine: Arc<Engine>) -> Result<Self, ServeError> {
        let start = Instant::now();
        let (prepared, ids, carried) = prev.merge_live(&engine, |_| true)?;
        let merge = start.elapsed();
        // An inherited memo is the only thing a merge files.
        let reranked = prepared.memo_len() == 0;
        let base = Snapshot::of_base(cfg, cfg.spec().serial(), 0, ids, engine, prepared)?;
        Ok(Self {
            base,
            carried,
            reranked,
            merge,
            build: start.elapsed() - merge,
        })
    }
}

impl Shared {
    fn snapshot(&self) -> Arc<Snapshot> {
        self.current
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// The writer lock once no compaction is in flight, the last one's
    /// thread joined.
    fn settled(&self) -> MutexGuard<'_, WriterState> {
        // ordering: `building` is written only under the writer lock, and
        // a landing compaction notifies while holding it, so this wait
        // (which re-checks under the lock) cannot miss the landing.
        let mut w = self
            .landed
            .wait_while(relock(&self.writer), |w| w.building.is_some())
            .unwrap_or_else(|e| e.into_inner());
        // Landed: the thread has nothing left to do but return.
        if let Some(done) = w.build.take() {
            let _ = done.join();
        }
        w
    }

    /// A compaction's build thread: the merge and index build with no
    /// lock held, then the swap ([`Shared::land`]). A build that fails or
    /// panics still clears the in-flight mark, so nothing waits on it
    /// forever; the panic then goes on to whoever joins the thread.
    fn build(
        &self,
        cfg: ServeConfig,
        prev: Arc<Snapshot>,
        engine: Arc<Engine>,
    ) -> Result<u64, ServeError> {
        let built = panic::catch_unwind(AssertUnwindSafe(|| Built::new(&cfg, &prev, engine)));
        #[cfg(test)]
        self.park();
        match built {
            Ok(Ok(built)) => Ok(self.land(&prev, Some(built))),
            Ok(Err(e)) => {
                self.land(&prev, None);
                Err(e)
            }
            Err(panicked) => {
                self.land(&prev, None);
                panic::resume_unwind(panicked)
            }
        }
    }

    /// The swap, under the writer lock: the new base plus what arrived
    /// since `prev` was captured — the delta rows inserted meanwhile
    /// (renumbered, still sharing their segmented records) and the
    /// tombstones set meanwhile — published under a fresh generation.
    /// `None` (the build failed) only clears the in-flight mark. Returns
    /// the published generation.
    fn land(&self, prev: &Snapshot, built: Option<Built>) -> u64 {
        let mut w = relock(&self.writer);
        let start = Instant::now();
        let trigger_held = w.building.take().unwrap_or_default();
        // ordering: notified under the writer lock; see `settled`.
        self.landed.notify_all();
        let Some(built) = built else {
            relock(&self.write_side).compacting = false;
            return self.generation();
        };
        let cur = self.snapshot();
        // Only inserts append delta rows and only a compaction removes
        // them, so `prev`'s rows are a prefix of the current delta; and a
        // tombstone set since is not one the build folded.
        let arrived = &cur.delta[prev.delta.len()..];
        let delta: Vec<_> = arrived
            .iter()
            .enumerate()
            .map(|(pos, row)| Arc::new(row.renumbered(pos)))
            .collect();
        let mut tombstones = TombstoneSet::new();
        for id in cur.tombstones.iter() {
            if !prev.tombstones.contains(id) {
                tombstones.insert(id);
            }
        }
        let (carried_rows, carried_tombstones) = (delta.len() as u64, tombstones.len() as u64);
        let base = &built.base.base_search;
        let ((ranked_over, churn), signed) = (base.order().age(), base.prepared().records_signed());
        let shape = CompactionStats {
            carried: built.carried as u64,
            dropped: (prev.base_len() - built.carried) as u64,
            appended: (built.base.base_len() - built.carried) as u64,
            carried_rows,
            carried_tombstones,
            merge_nanos: built.merge.as_nanos() as u64,
            build_nanos: built.build.as_nanos() as u64,
            signed,
            reranked: built.reranked,
            churn: churn as u64,
            ranked_over: ranked_over as u64,
        };
        let generation = self.install(Snapshot {
            generation: w.kn.remint_generation(),
            // The newest knowledge: the build's own engine unless an
            // insert interned past it since.
            engine: if delta.is_empty() {
                Arc::clone(&built.base.engine)
            } else {
                Arc::clone(&cur.engine)
            },
            delta: Arc::new(delta),
            tombstones: Arc::new(tombstones),
            ..built.base
        });
        // Counted after the install: a `stats()` that sees this compaction
        // counted sees its snapshot too.
        let mut side = relock(&self.write_side);
        side.compactions += 1;
        side.records_signed += signed;
        side.last_compact_nanos = (trigger_held + start.elapsed()).as_nanos() as u64;
        side.last_compact = shape;
        side.compacting = false;
        generation
    }

    /// The single point where a snapshot becomes visible: one pointer
    /// swap under the write lock, then the generation watermark.
    fn install(&self, snap: Snapshot) -> u64 {
        let gen = snap.generation();
        let arc = Arc::new(snap);
        {
            let mut cur = self.current.write().unwrap_or_else(|e| e.into_inner());
            *cur = arc;
        }
        // ordering: Release pairs with the Acquire load in `generation`
        // — a reader that observes this watermark and then takes the
        // snapshot read lock sees a snapshot at least this new (the
        // write-lock release above happened-before this store, and the
        // reader's lock acquisition synchronizes with it).
        self.published_gen.store(gen, Ordering::Release);
        gen
    }

    fn generation(&self) -> u64 {
        // ordering: Acquire pairs with the Release store in `install` —
        // a caller that observes generation G here and then calls
        // `snapshot()` is guaranteed a snapshot of generation ≥ G (the
        // RwLock write that published G happened-before the store).
        self.published_gen.load(Ordering::Acquire)
    }

    /// Park at the test's gate, if one is set (once).
    #[cfg(test)]
    fn park(&self) {
        // ordering: the test sets the gate before the insert that starts
        // the build (the spawn orders the two); only the build takes it.
        let gate = relock(&self.gate).take();
        if let Some((entered, release)) = gate {
            let _ = entered.send(());
            let _ = release.recv();
        }
    }
}

/// Prepare a base segment over `corpus` — stage 1 over every record: a
/// service created from text or recovered from its log has nothing
/// segmented to carry — and publish it. This is where the O(|knowledge|)
/// steps of the service live: the vocabulary is sealed first, so the base
/// engine's knowledge copy — and every per-insert copy until the next base
/// build — shares all of it.
fn base_snapshot(
    kn: &mut Knowledge,
    cfg: &ServeConfig,
    corpus: Corpus,
    ids: Vec<u64>,
    generation: u64,
) -> Result<Snapshot, ServeError> {
    kn.vocab.seal();
    let engine = Arc::new(Engine::new(kn.clone(), cfg.sim)?);
    let prepared = engine.prepare_owned(corpus)?;
    Snapshot::of_base(cfg, cfg.spec(), generation, ids, engine, prepared)
}

/// A concurrent serving session over one evolving corpus.
///
/// ```
/// use au_core::KnowledgeBuilder;
/// use au_serve::{ServeConfig, Service};
///
/// let kn = KnowledgeBuilder::new().build();
/// let svc = Service::build(
///     kn,
///     ["coffee shop downtown", "tea house uptown"],
///     ServeConfig::default(),
/// )
/// .unwrap();
/// let hits = svc.search("coffee shop downtown").unwrap();
/// assert_eq!(hits.matches[0].0, 0);
/// let ins = svc.insert_record("espresso bar downtown").unwrap();
/// assert!(ins.generation > hits.generation);
/// ```
#[derive(Debug)]
pub struct Service {
    cfg: ServeConfig,
    shared: Arc<Shared>,
    admission: Admission,
    queries: AtomicU64,
    inserts: AtomicU64,
    deletes: AtomicU64,
    records_prepared: AtomicU64,
    /// Sticky degraded flag: set (under the writer lock) when a WAL
    /// commit exhausts its retries, cleared only by a successful
    /// [`Service::heal`]. Readers ignore it; writers fail fast on it.
    degraded: AtomicBool,
    degraded_entries: AtomicU64,
    degraded_writes: AtomicU64,
}

impl Service {
    /// Build a non-durable (purely in-memory) service over an initial
    /// corpus. The records get global ids `0..n` in input order. For a
    /// service that survives restarts see [`Service::create`] /
    /// [`Service::open`].
    pub fn build<'a>(
        mut kn: Knowledge,
        lines: impl IntoIterator<Item = &'a str>,
        cfg: ServeConfig,
    ) -> Result<Self, ServeError> {
        let corpus = kn.corpus_from_lines(lines);
        let n = corpus.len() as u64;
        let generation = kn.generation();
        let snapshot = base_snapshot(&mut kn, &cfg, corpus, (0..n).collect(), generation)?;
        Ok(Self::from_parts(
            cfg,
            snapshot,
            WriterState::new(kn, n, None),
            false,
        ))
    }

    /// Create a durable service over `storage`, which must hold no
    /// prior log. The initial corpus is written to the log as one
    /// atomically-acknowledged batch before the service is returned.
    pub fn create_with<'a>(
        kn: Knowledge,
        lines: impl IntoIterator<Item = &'a str>,
        cfg: ServeConfig,
        storage: Box<dyn Storage>,
    ) -> Result<Self, ServeError> {
        let seed: Vec<&str> = lines.into_iter().collect();
        Self::open_inner(kn, cfg, storage, Some(&seed), true)
    }

    /// Open a durable service by replaying the log in `storage`,
    /// tolerating a torn tail (truncated at the first bad checksum —
    /// a partially written operation is never applied). The recovered
    /// snapshot serves exactly the acknowledged-mutation prefix.
    pub fn open_with(
        kn: Knowledge,
        cfg: ServeConfig,
        storage: Box<dyn Storage>,
    ) -> Result<Self, ServeError> {
        Self::open_inner(kn, cfg, storage, None, false)
    }

    /// [`Service::create_with`] over a file-backed log at
    /// `dir/wal.log`.
    pub fn create<'a>(
        kn: Knowledge,
        lines: impl IntoIterator<Item = &'a str>,
        cfg: ServeConfig,
        dir: impl AsRef<Path>,
    ) -> Result<Self, ServeError> {
        let storage =
            FileStorage::open(dir.as_ref().join("wal.log")).map_err(|e| wal_error("open", &e))?;
        Self::create_with(kn, lines, cfg, Box::new(storage))
    }

    /// [`Service::open_with`] over the file-backed log at `dir/wal.log`.
    pub fn open(
        kn: Knowledge,
        cfg: ServeConfig,
        dir: impl AsRef<Path>,
    ) -> Result<Self, ServeError> {
        let storage =
            FileStorage::open(dir.as_ref().join("wal.log")).map_err(|e| wal_error("open", &e))?;
        Self::open_with(kn, cfg, Box::new(storage))
    }

    /// Open the log at `dir/wal.log` if it holds any acknowledged
    /// operations, otherwise create a fresh durable service seeded with
    /// `lines` — the "just point me at a directory" constructor the
    /// `auserve` REPL uses.
    pub fn open_or_seed<'a>(
        kn: Knowledge,
        lines: impl IntoIterator<Item = &'a str>,
        cfg: ServeConfig,
        dir: impl AsRef<Path>,
    ) -> Result<Self, ServeError> {
        let storage =
            FileStorage::open(dir.as_ref().join("wal.log")).map_err(|e| wal_error("open", &e))?;
        let seed: Vec<&str> = lines.into_iter().collect();
        Self::open_inner(kn, cfg, Box::new(storage), Some(&seed), false)
    }

    /// The one durable constructor everything above funnels into:
    /// open the WAL, replay (or seed), assemble base + delta segments,
    /// publish the recovered snapshot.
    fn open_inner(
        mut kn: Knowledge,
        cfg: ServeConfig,
        storage: Box<dyn Storage>,
        seed: Option<&[&str]>,
        require_fresh: bool,
    ) -> Result<Self, ServeError> {
        let (mut wal, ops) = Wal::open(storage, cfg.retry).map_err(|e| wal_error("open", &e))?;
        if require_fresh && !ops.is_empty() {
            return Err(ServeError::Wal {
                op: "create",
                detail: format!("log already holds {} operations", ops.len()),
            });
        }
        let degraded = wal.tail_unrepaired();

        if ops.is_empty() {
            // Fresh log: seed it (possibly with zero records) as one
            // atomically-acknowledged batch.
            let lines = seed.unwrap_or(&[]);
            let frames: Vec<WalOp> = lines
                .iter()
                .enumerate()
                .map(|(i, l)| WalOp::Insert {
                    id: i as u64,
                    text: (*l).to_string(),
                })
                .collect();
            wal.append_ops(&frames)
                .map_err(|e| wal_error("create", &e))?;
            let corpus = kn.corpus_from_lines(lines.iter().copied());
            let n = corpus.len() as u64;
            let generation = kn.generation();
            let snapshot = base_snapshot(&mut kn, &cfg, corpus, (0..n).collect(), generation)?;
            return Ok(Self::from_parts(
                cfg,
                snapshot,
                WriterState::new(kn, n, Some(wal)),
                degraded,
            ));
        }

        // Replay. The log contains only operations that were valid when
        // acknowledged, so the fold needs no validation — it replays the
        // exact base/delta/tombstone split a crashed service had.
        let replay = Replay::run(&mut kn, &ops);
        let generation = kn.remint_generation();
        let mut base_corpus = Corpus::new();
        let mut base_ids = Vec::new();
        let mut delta = Vec::new();
        for (i, rec) in replay.corpus.into_records().into_iter().enumerate() {
            if i >= replay.base_upto {
                delta.push((replay.ids[i], rec));
            } else if replay.alive[i] {
                base_corpus.push_tokens(rec.tokens, rec.raw);
                base_ids.push(replay.ids[i]);
            }
        }
        let base = base_snapshot(&mut kn, &cfg, base_corpus, base_ids, generation)?;
        // The pending delta, segmented row by row exactly as the inserts
        // that logged it did, and the tombstones set since the last
        // compaction. The base engine's knowledge already holds every
        // replayed token, so it is the snapshot's newest engine too.
        let rows = delta
            .into_iter()
            .enumerate()
            .map(|(pos, (id, rec))| Arc::new(DeltaRow::new(&kn, &cfg.sim, id, pos, rec)))
            .collect();
        let snapshot = Snapshot {
            delta: Arc::new(rows),
            tombstones: Arc::new(replay.tombstones),
            ..base
        };
        Ok(Self::from_parts(
            cfg,
            snapshot,
            WriterState::new(kn, replay.next_id, Some(wal)),
            degraded,
        ))
    }

    /// Assemble the service value around an already-published snapshot.
    fn from_parts(
        cfg: ServeConfig,
        snapshot: Snapshot,
        writer: WriterState,
        degraded: bool,
    ) -> Self {
        let prepared = (snapshot.base_len() + snapshot.delta_len()) as u64;
        let signed = snapshot.base_search.prepared().records_signed();
        let wal = writer.wal.as_ref().map(Wal::stats).unwrap_or_default();
        let shared = Shared {
            published_gen: AtomicU64::new(snapshot.generation()),
            current: RwLock::new(Arc::new(snapshot)),
            writer: Mutex::new(writer),
            landed: Condvar::new(),
            write_side: Mutex::new(WriteSide {
                wal,
                records_signed: signed,
                ..WriteSide::default()
            }),
            #[cfg(test)]
            gate: Mutex::default(),
        };
        Self {
            cfg,
            shared: Arc::new(shared),
            admission: Admission::new(cfg.max_in_flight),
            queries: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            deletes: AtomicU64::new(0),
            records_prepared: AtomicU64::new(prepared),
            degraded: AtomicBool::new(degraded),
            degraded_entries: AtomicU64::new(u64::from(degraded)),
            degraded_writes: AtomicU64::new(0),
        }
    }

    /// The currently published snapshot (cheap: one `Arc` clone under a
    /// read lock held only for the clone).
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.shared.snapshot()
    }

    /// Generation of the latest published snapshot, without touching
    /// the snapshot lock.
    pub fn generation(&self) -> u64 {
        self.shared.generation()
    }

    /// The service configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    // -- read path ----------------------------------------------------------

    /// θ-search at the service threshold over the live corpus.
    pub fn search(&self, text: &str) -> Result<SearchResponse, ServeError> {
        let _permit = self.admit()?;
        let snap = self.snapshot();
        Ok(self.stamped(snap.search(text)))
    }

    /// Many θ-searches fanned over the `au_core::parallel` worker pool
    /// (one admission slot for the whole batch; every response carries
    /// the same snapshot's generation).
    pub fn search_batch(&self, texts: &[&str]) -> Result<Vec<SearchResponse>, ServeError> {
        let _permit = self.admit()?;
        let snap = self.snapshot();
        let out = par_map(texts, true, |t| snap.search(t));
        // ordering: Relaxed — statistics counter only.
        self.queries.fetch_add(out.len() as u64, Ordering::Relaxed);
        Ok(out)
    }

    /// Top-k search by threshold descent: answer at the service θ, then
    /// retry at lowered thresholds until `k` matches are found or the
    /// configured floor is reached.
    pub fn topk(&self, text: &str, k: usize) -> Result<TopkResponse, ServeError> {
        let _permit = self.admit()?;
        let snap = self.snapshot();
        let step = self.cfg.topk_step.max(1e-3);
        let floor = self.cfg.topk_floor.max(0.0);
        let mut theta = self.cfg.theta;
        let mut resp = snap.search(text);
        while resp.matches.len() < k && theta > floor + 1e-12 {
            theta = (theta - step).max(floor);
            resp = snap.search_spec(text, &self.cfg.spec_at(theta))?;
        }
        let mut matches = resp.matches;
        matches.truncate(k);
        Ok(TopkResponse {
            generation: resp.generation,
            matches,
            theta,
        })
    }

    /// Self-join over the live records with global ids in `lo..hi`, at
    /// the service threshold.
    pub fn join_window(&self, lo: u64, hi: u64) -> Result<JoinWindowResponse, ServeError> {
        let _permit = self.admit()?;
        let snap = self.snapshot();
        let out = snap.join_window(lo, hi, &self.cfg.spec())?;
        Ok(out)
    }

    fn admit(&self) -> Result<Permit<'_>, ServeError> {
        let p = self.admission.try_acquire()?;
        // ordering: Relaxed — statistics counter only.
        self.queries.fetch_add(1, Ordering::Relaxed);
        Ok(p)
    }

    fn stamped(&self, resp: SearchResponse) -> SearchResponse {
        debug_assert!(resp.generation <= self.generation());
        resp
    }

    // -- write path ---------------------------------------------------------

    /// Insert one record; returns its global id and the generation that
    /// first serves it. Starts a compaction when the delta segment
    /// reaches [`ServeConfig::compact_threshold`] and none is in flight —
    /// it logs the `Compact` frame and returns, the merge and index build
    /// run on a thread of their own. An insert that finds the delta at
    /// twice the threshold with a build still in flight waits for its
    /// swap first, so a slow build cannot grow what every read scans
    /// without bound.
    pub fn insert_record(&self, text: &str) -> Result<Mutation, ServeError> {
        let full = 2 * self.cfg.compact_threshold;
        // ordering: the predicate reads `building` and the published
        // delta under the writer lock, and only a holder of that lock
        // changes either; a landing notifies while holding it.
        let mut w = self
            .shared
            .landed
            .wait_while(self.writer(), |w| {
                w.building.is_some() && full > 0 && self.snapshot().delta_len() >= full
            })
            .unwrap_or_else(|e| e.into_inner());
        self.check_writable()?;
        // The id is not consumed until the WAL accepts the frame: a
        // durable log never has id gaps, so a recovered service mints
        // the same ids a crashed one would have.
        let id = w.next_id;
        let op = |wal: &mut Wal| {
            wal.append_op(&WalOp::Insert {
                id,
                text: text.to_string(),
            })
        };
        if let Err(e) = self.logged(&mut w, op) {
            return Err(self.enter_degraded("insert", &e));
        }
        // Commit point passed: apply in memory and acknowledge. Nothing
        // below can fail — the configuration was validated when the
        // service was constructed — so an operation the log holds is
        // always published.
        w.next_id = id + 1;
        let prev = self.snapshot();
        // Tokenize through the writer lineage (push_line re-mints the
        // knowledge generation through the shared process-wide mint, see
        // `Knowledge::remint_generation`) and segment this one record;
        // the published snapshot is its predecessor plus that row.
        let mut line = Corpus::new();
        let rid = w.kn.push_line(&mut line, text);
        let record = line.get(rid).clone();
        let mut rows = Vec::with_capacity(prev.delta.len() + 1);
        rows.extend(prev.delta.iter().cloned());
        let row = DeltaRow::new(&w.kn, &self.cfg.sim, id, rows.len(), record);
        rows.push(Arc::new(row));
        // ordering: Relaxed — statistics counter only; incremented under
        // the writer lock, and readers of `stats()` are promised no
        // consistent cut across counters.
        self.records_prepared.fetch_add(1, Ordering::Relaxed);
        let delta_len = rows.len();
        let generation = self.shared.install(Snapshot {
            generation: w.kn.generation(),
            engine: Arc::new(prev.engine.with_knowledge(w.kn.clone())),
            delta: Arc::new(rows),
            ..Snapshot::clone(&prev)
        });
        // ordering: Relaxed — statistics counter only.
        self.inserts.fetch_add(1, Ordering::Relaxed);
        let threshold = self.cfg.compact_threshold;
        if threshold > 0 && delta_len >= threshold && w.building.is_none() {
            // The previous build landed (none is in flight), so its thread
            // has nothing left to do but return. Joined before the next is
            // spawned, it has handed its allocator arena back for the next
            // one to take, instead of that one opening another.
            if let Some(done) = w.build.take() {
                let _ = done.join();
            }
            // The insert is already durable and acknowledged; a failure
            // of the *compaction's* WAL frame must not retract it. The
            // service degrades (flag set inside) and the receipt stands.
            w.build = self.start_compaction(&mut w).ok();
        }
        Ok(Mutation { id, generation })
    }

    /// Delete record `id`; returns the generation that first hides it.
    /// Unknown ids and double deletes are typed errors.
    pub fn delete_record(&self, id: u64) -> Result<Mutation, ServeError> {
        let mut w = self.writer();
        self.check_writable()?;
        if id >= w.next_id {
            return Err(ServeError::UnknownId { id });
        }
        // An id below next_id that is tombstoned — or in neither segment:
        // deleted and then folded away by a compaction — is gone already.
        let prev = self.snapshot();
        if prev.tombstones.contains(id) || !prev.contains_id(id) {
            return Err(ServeError::AlreadyDeleted { id });
        }
        // Validation passed — commit to the log before applying, so the
        // log never holds a delete that was not acknowledged.
        if let Err(e) = self.logged(&mut w, |wal| wal.append_op(&WalOp::Delete { id })) {
            return Err(self.enter_degraded("delete", &e));
        }
        // Deletes change no vocabulary and touch no segment, but they do
        // change what a reader may see — publish the predecessor with one
        // more tombstone under a fresh generation from the same shared
        // mint as every other engine artifact.
        let mut tombstones = TombstoneSet::clone(&prev.tombstones);
        tombstones.insert(id);
        let generation = self.shared.install(Snapshot {
            generation: w.kn.remint_generation(),
            tombstones: Arc::new(tombstones),
            ..Snapshot::clone(&prev)
        });
        // ordering: Relaxed — statistics counter only.
        self.deletes.fetch_add(1, Ordering::Relaxed);
        Ok(Mutation { id, generation })
    }

    /// Fold the delta segment and tombstones into a fresh monolithic
    /// base and publish it, once any compaction already in flight has
    /// landed. No-op (returning the current generation) when there is
    /// nothing to fold. The merge and index build hold no lock — writes go
    /// on and are carried into the new snapshot — and this call returns
    /// when its own swap has landed. Readers are never blocked: the new
    /// base lands as one `Arc` swap.
    pub fn compact(&self) -> Result<u64, ServeError> {
        let mut w = self.shared.settled();
        self.check_writable()?;
        if self.snapshot().is_compact() {
            return Ok(self.generation());
        }
        let build = self.start_compaction(&mut w)?;
        drop(w);
        build
            .join()
            .unwrap_or_else(|panicked| panic::resume_unwind(panicked))
    }

    /// Checkpoint the log: fold any pending delta/tombstones (waiting for
    /// a compaction in flight first), then atomically rewrite the log as
    /// one checkpoint + the live records — replaying the rewritten log is
    /// a single base build instead of the whole mutation history. Returns
    /// the checkpointed generation. No-op (beyond the fold) for
    /// non-durable services.
    pub fn save(&self) -> Result<u64, ServeError> {
        self.compact()?;
        let mut w = self.shared.settled();
        self.check_writable()?;
        let snap = self.snapshot();
        if w.wal.is_some() {
            let mut ops = Vec::with_capacity(snap.live_len() + 2);
            ops.push(WalOp::Checkpoint { next_id: w.next_id });
            for (gid, rec) in snap.live_records() {
                ops.push(WalOp::Insert {
                    id: gid,
                    text: rec.raw.clone(),
                });
            }
            // Seal the checkpointed records into the base segment on
            // replay: the published split, unless a write landed between
            // the fold and this rewrite (the answers are the same).
            ops.push(WalOp::Compact);
            // `replace` is atomic: on failure the previous log is intact
            // and the service is *not* degraded — appends still work.
            self.logged(&mut w, |wal| wal.rewrite(&ops))
                .map_err(|e| wal_error("save", &e))?;
        }
        Ok(snap.generation())
    }

    /// Try to leave degraded read-only mode: repair and sync the log.
    /// On success writes are accepted again; on failure the service
    /// stays degraded and the typed error says why.
    pub fn heal(&self) -> Result<(), ServeError> {
        let mut w = self.writer();
        // ordering: Relaxed — the flag is only mutated under the writer
        // lock held here; the load/store pair cannot race another writer.
        if !self.degraded.load(Ordering::Relaxed) {
            return Ok(());
        }
        self.logged(&mut w, Wal::probe)
            .map_err(|e| wal_error("heal", &e))?;
        // ordering: Relaxed — see above.
        self.degraded.store(false, Ordering::Relaxed);
        Ok(())
    }

    /// True while the service is in degraded read-only mode.
    pub fn is_degraded(&self) -> bool {
        // ordering: Relaxed — point-in-time hint; writers re-check under
        // the writer lock via `check_writable`.
        self.degraded.load(Ordering::Relaxed)
    }

    /// Fail fast (typed) when the service is degraded. Called with the
    /// writer lock held, so the flag cannot flip mid-mutation.
    fn check_writable(&self) -> Result<(), ServeError> {
        // ordering: Relaxed — mutations only happen under the writer
        // lock, which orders this load against `enter_degraded`/`heal`.
        if self.degraded.load(Ordering::Relaxed) {
            // ordering: Relaxed — statistics counter only.
            self.degraded_writes.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::Degraded);
        }
        Ok(())
    }

    /// Flip into degraded read-only mode after a WAL commit exhausted
    /// its retry budget. Called with the writer lock held.
    fn enter_degraded(&self, op: &'static str, e: &std::io::Error) -> ServeError {
        // ordering: Relaxed — mutated under the writer lock only.
        self.degraded.store(true, Ordering::Relaxed);
        // ordering: Relaxed — statistics counter only.
        self.degraded_entries.fetch_add(1, Ordering::Relaxed);
        wal_error(op, e)
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> ServeStats {
        // The write side first: a landing compaction installs its snapshot
        // before it counts itself, so counters that include it come with
        // a snapshot that does too.
        let side = *relock(&self.shared.write_side);
        let snap = self.snapshot();
        ServeStats {
            generation: snap.generation(),
            live: snap.live_len(),
            delta_len: snap.delta_len(),
            tombstones: snap.tombstone_len(),
            // ordering: Relaxed — independent statistics counters; no
            // consistent cut across them is promised.
            queries: self.queries.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed), // ordering: Relaxed — see above
            deletes: self.deletes.load(Ordering::Relaxed), // ordering: Relaxed — see above
            compactions: side.compactions,
            // ordering: Relaxed — see above
            records_prepared: self.records_prepared.load(Ordering::Relaxed),
            records_signed: side.records_signed,
            last_compact_nanos: side.last_compact_nanos,
            last_compact: side.last_compact,
            compacting: side.compacting,
            admission: self.admission.stats(),
            // ordering: Relaxed — see above (independent counters).
            degraded: self.degraded.load(Ordering::Relaxed),
            // ordering: Relaxed — see above
            degraded_entries: self.degraded_entries.load(Ordering::Relaxed),
            // ordering: Relaxed — see above
            degraded_writes: self.degraded_writes.load(Ordering::Relaxed),
            wal: side.wal,
        }
    }

    // -- publication --------------------------------------------------------

    fn writer(&self) -> MutexGuard<'_, WriterState> {
        relock(&self.shared.writer)
    }

    /// Start a compaction, under the writer lock with none in flight: log
    /// the `Compact` frame, seal the vocabulary and capture the published
    /// snapshot — on replay the frame folds the same tombstones and seals
    /// the same records the merge does — then hand the merge and index
    /// build to a thread of their own and return it. The thread re-takes
    /// the lock only to land ([`Shared::land`]). Record ids survive
    /// compaction — only rows are renumbered.
    fn start_compaction(
        &self,
        w: &mut WriterState,
    ) -> Result<JoinHandle<Result<u64, ServeError>>, ServeError> {
        let start = Instant::now();
        if let Err(e) = self.logged(w, |wal| wal.append_op(&WalOp::Compact)) {
            return Err(self.enter_degraded("compact", &e));
        }
        let prev = self.snapshot();
        w.kn.remint_generation();
        // Token ids and segmentations stay valid: the writer lineage's
        // vocabulary only ever appends.
        w.kn.vocab.seal();
        let engine = Arc::new(prev.engine.with_knowledge(w.kn.clone()));
        let (shared, cfg) = (Arc::clone(&self.shared), self.cfg);
        let build = std::thread::spawn(move || shared.build(cfg, prev, engine));
        w.building = Some(start.elapsed());
        relock(&self.shared.write_side).compacting = true;
        Ok(build)
    }

    /// Run one operation on the log, if this service has one, and leave a
    /// copy of the log's counters where [`Service::stats`] finds it.
    fn logged(
        &self,
        w: &mut WriterState,
        op: impl FnOnce(&mut Wal) -> std::io::Result<()>,
    ) -> std::io::Result<()> {
        w.wal.as_mut().map_or(Ok(()), |wal| {
            let done = op(wal);
            relock(&self.shared.write_side).wal = wal.stats();
            done
        })
    }
}

impl Drop for Service {
    /// Join a threshold-started compaction still in flight: it lands (in
    /// memory only — it writes no frame) and no thread outlives the
    /// service.
    fn drop(&mut self) {
        let build = self.writer().build.take();
        if let Some(build) = build {
            let _ = build.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use au_core::search::SearchOutcome;
    use au_core::segment::SegRecord;
    use au_core::usim::VerifyTiers;
    use au_core::KnowledgeBuilder;

    const LINES: [&str; 6] = [
        "coffee shop downtown main street",
        "coffee shop uptown main avenue",
        "tea house downtown main street",
        "espresso bar main street",
        "bakery and coffee main street",
        "tea house uptown",
    ];

    fn cfg() -> ServeConfig {
        ServeConfig {
            theta: 0.4,
            compact_threshold: 0,
            ..ServeConfig::default()
        }
    }

    fn svc(cfg: ServeConfig) -> Service {
        Service::build(KnowledgeBuilder::new().build(), LINES, cfg).unwrap()
    }

    /// Monolithic reference: clone the snapshot's knowledge, rebuild the
    /// live corpus from scratch, and search with the one-shot borrowing
    /// searcher. Delta-served answers must match this byte for byte.
    fn reference_search(snap: &Snapshot, cfg: &ServeConfig, text: &str) -> Vec<(u64, f64)> {
        let kn = snap.knowledge().clone();
        let engine = Engine::new(kn, cfg.sim).unwrap();
        let mut corpus = Corpus::new();
        let mut gids = Vec::new();
        for (gid, rec) in snap.live_records() {
            corpus.push_tokens(rec.tokens.clone(), rec.raw.clone());
            gids.push(gid);
        }
        let prepared = engine.prepare_owned(corpus).unwrap();
        let searcher = engine.searcher(&prepared, &cfg.spec()).unwrap();
        searcher
            .query(text)
            .matches
            .iter()
            .map(|&(row, sim)| (gids[row as usize], sim))
            .collect()
    }

    #[test]
    fn search_hits_base_and_delta() {
        let s = svc(cfg());
        let g0 = s.generation();
        let base = s.search("coffee shop downtown main street").unwrap();
        assert_eq!(base.generation, g0);
        assert_eq!(base.matches[0], (0, 1.0), "exact text is its own best hit");

        let ins = s.insert_record("coffee shop downtown main plaza").unwrap();
        assert_eq!(ins.id, LINES.len() as u64);
        assert!(ins.generation > g0, "insert must publish a new generation");
        let after = s.search("coffee shop downtown main plaza").unwrap();
        assert_eq!(after.generation, ins.generation);
        assert_eq!(after.matches[0], (ins.id, 1.0), "delta record is served");
        assert!(
            after.matches.iter().any(|&(id, _)| id == 0),
            "base records still served alongside the delta"
        );
    }

    #[test]
    fn delta_results_match_monolithic_rebuild() {
        let s = svc(cfg());
        s.insert_record("coffee house downtown main street")
            .unwrap();
        s.insert_record("juice bar uptown plaza").unwrap();
        s.delete_record(1).unwrap();
        s.delete_record(3).unwrap();
        let snap = s.snapshot();
        for q in [
            "coffee shop downtown",
            "tea house",
            "espresso bar main street",
            "juice bar uptown plaza",
            "completely unrelated query tokens",
        ] {
            let served: Vec<(u64, f64)> = s.search(q).unwrap().matches;
            assert_eq!(
                served,
                reference_search(&snap, s.config(), q),
                "served ≠ monolithic for {q:?}"
            );
        }
    }

    /// Records whose tokens the base vocabulary has never seen travel
    /// through the cheap-clone vocabulary (tail ids on the writer lineage,
    /// copied into each insert's engine) — and must be found by exact
    /// text, through grams (a typo) and through the knowledge sources,
    /// live, compacted and recovered alike.
    #[test]
    fn new_words_are_served_through_the_cheap_clone_vocabulary() {
        use crate::storage::MemStorage;
        fn kn() -> Knowledge {
            let mut b = KnowledgeBuilder::new();
            b.synonym("coffee shop", "cafe", 1.0);
            b.taxonomy_path(&["food", "coffee", "latte"]);
            b.taxonomy_path(&["food", "coffee", "espresso"]);
            b.build()
        }
        let mem = MemStorage::new();
        let s = Service::create_with(kn(), LINES, cfg(), Box::new(mem.clone())).unwrap();
        let base_vocab = s.snapshot().knowledge().vocab.len();
        let inserted = [
            "zanzibar latte kiosk wharf",
            "cafe quixotic mezzanine",
            // repeats tokens an earlier insert of the same delta introduced
            "wharf kiosk quixotic annex",
        ];
        let ids: Vec<u64> = inserted
            .iter()
            .map(|t| s.insert_record(t).unwrap().id)
            .collect();
        let snap = s.snapshot();
        assert_eq!(
            snap.knowledge().vocab.len(),
            base_vocab + 6,
            "zanzibar kiosk wharf quixotic mezzanine annex — each interned once"
        );
        assert_eq!(
            snap.base_search.engine().knowledge().vocab.len(),
            base_vocab,
            "the base engine's copy never sees the delta's words"
        );

        let queries = [
            // exact text
            (inserted[0], Some(ids[0])),
            (inserted[1], Some(ids[1])),
            (inserted[2], Some(ids[2])),
            // one-character typo in a new word: the gram path
            ("zanzibar latte kiosk wharv", Some(ids[0])),
            ("cafe quixotik mezzanine", Some(ids[1])),
            // a synonym / taxonomy neighbour of a known token beside new ones
            ("coffee shop quixotic mezzanine", Some(ids[1])),
            ("zanzibar espresso kiosk wharf", Some(ids[0])),
            // base traffic and words nobody has
            ("coffee shop downtown main street", Some(0)),
            ("xylophone zeppelin", None),
        ];
        let bits = |m: Vec<(u64, f64)>| -> Vec<(u64, u64)> {
            m.into_iter().map(|(id, sim)| (id, sim.to_bits())).collect()
        };
        let check = |svc: &Service, stage: &str| {
            let snap = svc.snapshot();
            for (q, best) in queries {
                let served = svc.search(q).unwrap().matches;
                assert_eq!(
                    served.first().map(|m| m.0),
                    best,
                    "{stage}: best hit for {q:?}"
                );
                assert_eq!(
                    bits(served),
                    bits(reference_search(&snap, svc.config(), q)),
                    "{stage}: served ≠ monolithic for {q:?}"
                );
            }
        };
        check(&s, "delta");
        s.compact().unwrap();
        check(&s, "compacted");
        s.insert_record("annex mezzanine zanzibar").unwrap();
        check(&s, "compacted + delta");
        drop(s);
        let reopened =
            Service::open_with(kn(), cfg(), Box::new(MemStorage::with_bytes(mem.bytes()))).unwrap();
        check(&reopened, "reopened");
    }

    /// A read segments its query once, under the newest knowledge, and
    /// hands the same record to the base probe and the delta scan. One
    /// query text holds every kind of word that could tell the two
    /// vocabularies apart — a word inserted after the base was built
    /// ("zanzibar"), a word neither segment has, twice ("qwertz"), and a
    /// word unknown until a later insert makes it known ("plaza") — and
    /// the live answer must stay the monolithic rebuild's, bit for bit,
    /// before that insert, after it, and across a compaction.
    #[test]
    fn one_segmentation_answers_base_and_delta_as_a_rebuild_would() {
        let s = svc(cfg());
        let zanzibar = s
            .insert_record("zanzibar coffee shop main street")
            .unwrap()
            .id;
        let queries = [
            "zanzibar coffee shop qwertz main qwertz plaza",
            "qwertz coffee shop downtown main street",
            "tea house uptown plaza",
            "uptown plaza",
        ];
        let bits = |m: Vec<(u64, f64)>| -> Vec<(u64, u64)> {
            m.into_iter().map(|(id, sim)| (id, sim.to_bits())).collect()
        };
        let check = |stage: &str| -> Vec<Vec<(u64, u64)>> {
            let snap = s.snapshot();
            let served = |q: &str| bits(s.search(q).unwrap().matches);
            queries
                .iter()
                .map(|q| {
                    let live = served(q);
                    let rebuilt = bits(reference_search(&snap, s.config(), q));
                    assert_eq!(live, rebuilt, "{stage}: served ≠ monolithic for {q:?}");
                    // The same overlay id again: a repeated read is stable.
                    assert_eq!(served(q), live, "{stage}: repeated read of {q:?}");
                    live
                })
                .collect()
        };
        let before = check("plaza unknown");
        assert!(
            before[0].iter().any(|&(id, _)| id == zanzibar),
            "the delta row sharing the inserted word is served: {before:?}"
        );
        assert!(before[3].is_empty(), "nobody is close to uptown plaza yet");
        // The overlay minted an id for "plaza"; this insert interns it.
        let plaza = s.insert_record("tea house uptown plaza").unwrap().id;
        let after = check("plaza known");
        assert_eq!(after[2].first().map(|m| m.0), Some(plaza));
        assert!(after[3].iter().any(|&(id, _)| id == plaza));
        s.compact().unwrap();
        assert_eq!(check("compacted"), after, "compaction moved an answer");
        s.insert_record("qwertz plaza kiosk").unwrap();
        check("compacted + delta");
    }

    /// Every base this test publishes after the first is *merged*
    /// (compaction) while `Service::open` rebuilds the same state with
    /// `prepare_owned`, and a monolithic rebuild prepares the live records
    /// from scratch: the three must give the same *answers*, bit for bit,
    /// at every stage — across cycles that delete base and delta rows, a
    /// compaction that only folds tombstones, and one that drops every
    /// base row. The funnel counters are those of the base's pebble order:
    /// a compaction that inherited its order answers with the funnel of a
    /// rebuild *under that same order*; one that re-ranked (and a base no
    /// compaction has touched) with the funnel of the fresh rebuild and of
    /// the recovered service.
    #[test]
    fn merged_bases_answer_as_prepared_and_recovered_ones() {
        use crate::storage::MemStorage;
        fn kn() -> Knowledge {
            let mut b = KnowledgeBuilder::new();
            b.synonym("coffee shop", "cafe", 1.0);
            b.taxonomy_path(&["food", "coffee", "latte"]);
            b.taxonomy_path(&["food", "coffee", "espresso"]);
            b.build()
        }
        let queries = [
            "coffee shop downtown main street",
            "cafe uptown main avenue",
            "tea house uptown",
            "espresso bar main street",
            "latte kiosk zanzibar wharf",
            "nothing like any record",
        ];
        let mem = MemStorage::new();
        let s = Service::create_with(kn(), LINES, cfg(), Box::new(mem.clone())).unwrap();
        type Funnel = (Vec<(u64, u64)>, u64, u64, VerifyTiers);
        let funnel = |m: &[(u64, f64)], candidates, processed, tiers| -> Funnel {
            let bits = m.iter().map(|&(id, sim)| (id, sim.to_bits())).collect();
            (bits, candidates, processed, tiers)
        };
        let served = |svc: &Service, q: &str| {
            let r = svc.search(q).unwrap();
            (
                funnel(&r.matches, r.candidates, r.processed, r.tiers),
                r.masked,
            )
        };
        let check = |stage: &str| {
            let snap = s.snapshot();
            let recovered =
                Service::open_with(kn(), cfg(), Box::new(MemStorage::with_bytes(mem.bytes())))
                    .unwrap();
            // Until the first `Compact` frame a replayed log is all delta;
            // from then on recovery reproduces the live base/delta split.
            let same_split = recovered.snapshot().base_len() == snap.base_len();
            assert_eq!(same_split, s.stats().compactions > 0, "{stage}");
            // Recovery and the rebuild below rank afresh; so did the live
            // base unless its last compaction inherited.
            let ranked = snap.base_search.order().age().1 == 0;
            assert_eq!(
                ranked,
                s.stats().compactions == 0 || s.stats().last_compact.reranked
            );
            // The monolithic rebuild, searched whole.
            let engine = Engine::new(snap.knowledge().clone(), s.config().sim).unwrap();
            let mut corpus = Corpus::new();
            let mut gids = Vec::new();
            for (gid, rec) in snap.live_records() {
                corpus.push_tokens(rec.tokens.clone(), rec.raw.clone());
                gids.push(gid);
            }
            let rebuilt = engine.prepare_owned(corpus).unwrap();
            let searcher = engine.searcher(&rebuilt, &s.config().spec()).unwrap();
            // The live base's rows under the live base's order, signed from
            // scratch: an empty merge hands the order down, a memo bound of
            // one entry evicts the signatures carried with it (an order
            // outlives what was selected under it, never the reverse).
            let none = std::iter::empty::<(&Arc<SegRecord>, &str)>();
            let base = snap.base_search.prepared();
            let seeded = engine.merge_prepared(base, &[], none).unwrap();
            seeded.set_memo_capacity(1);
            assert_eq!((seeded.memo_len(), seeded.records_signed()), (1, 0));
            seeded.set_memo_capacity(0);
            let same_order = engine.searcher(&seeded, &s.config().spec()).unwrap();
            assert_eq!(seeded.records_signed(), base.len() as u64, "{stage}");
            for q in queries {
                let (live, masked) = served(&s, q);
                let (again, again_masked) = served(&recovered, q);
                assert_eq!(live.0, again.0, "{stage}: recovered matches of {q:?}");
                if same_split {
                    assert_eq!(masked, again_masked, "{stage}: {q:?}");
                }
                if same_split && ranked {
                    assert_eq!(live, again, "{stage}: recovered funnel of {q:?}");
                }
                let whole = |out: SearchOutcome| {
                    let ids: Vec<(u64, f64)> = out
                        .matches
                        .iter()
                        .map(|&(row, sim)| (gids[row as usize], sim))
                        .collect();
                    funnel(&ids, out.candidates, out.processed, out.tiers)
                };
                let mono = whole(searcher.query(q));
                assert_eq!(live.0, mono.0, "{stage}: matches of {q:?}");
                if snap.is_compact() {
                    // One segment each: the whole funnel must agree with
                    // the rebuild under the same order …
                    assert_eq!(live, whole(same_order.query(q)), "{stage}: funnel of {q:?}");
                    if ranked {
                        // … which, freshly ranked, is the monolithic one.
                        assert_eq!(live, mono, "{stage}: fresh funnel of {q:?}");
                    }
                }
            }
        };
        check("created");
        let mut next_base = 0u64;
        // Six rows ranked; each cycle drops one and appends two.
        for (cycle, reranked) in [false, false, true].into_iter().enumerate() {
            let a = s
                .insert_record("coffee shop downtown main plaza")
                .unwrap()
                .id;
            s.insert_record("latte kiosk zanzibar wharf").unwrap();
            s.insert_record(&format!("tea house uptown annex {cycle}"))
                .unwrap();
            // One row of the base (created or merged in) and one of the delta.
            s.delete_record(next_base).unwrap();
            s.delete_record(a).unwrap();
            next_base += 2;
            check(&format!("cycle {cycle}: delta + tombstones"));
            s.compact().unwrap();
            let shape = s.stats().last_compact;
            assert_eq!((shape.dropped, shape.appended), (1, 2), "cycle {cycle}");
            assert_eq!(shape.reranked, reranked, "cycle {cycle}: {shape:?}");
            let signed = if reranked { s.stats().live as u64 } else { 2 };
            assert_eq!(shape.signed, signed, "cycle {cycle}");
            check(&format!("cycle {cycle}: compacted"));
        }
        // Tombstones only: nothing to append, nothing to sign.
        s.delete_record(next_base + 1).unwrap();
        s.compact().unwrap();
        let shape = s.stats().last_compact;
        assert_eq!((shape.dropped, shape.appended), (1, 0));
        assert_eq!((shape.reranked, shape.signed, shape.churn), (false, 0, 1));
        check("tombstones-only compaction");
        // Every base row goes; the new base is the delta alone.
        let base_ids: Vec<u64> = s.snapshot().base_ids.to_vec();
        s.insert_record("espresso bar main street").unwrap();
        s.insert_record("cafe uptown main avenue").unwrap();
        for id in &base_ids {
            s.delete_record(*id).unwrap();
        }
        check("every base row tombstoned");
        s.compact().unwrap();
        let shape = s.stats().last_compact;
        assert_eq!(
            (shape.carried, shape.dropped, shape.appended),
            (0, base_ids.len() as u64, 2)
        );
        assert_eq!(
            (shape.reranked, shape.signed, shape.ranked_over),
            (true, 2, 2)
        );
        assert_eq!(s.stats().live, 2);
        check("compaction that dropped every base row");
        s.insert_record("tea house downtown main street").unwrap();
        check("and a delta over it");
    }

    /// The `serve_mixed` operation mix — read, write, read, write …, the
    /// writes cycling insert, insert, insert, delete-the-oldest — through
    /// 40 threshold-triggered compactions, most of which inherit their
    /// order: at each one the live base must return the fresh rebuild's
    /// matches, and its filter must stay about as selective — candidates
    /// per query within 2 % of a fresh ranking's over the same queries.
    /// A compaction lands off the writer's thread, so the writes keep
    /// going while it builds and the snapshot it lands in may already
    /// hold carried rows: it is seen by the `compactions` counter, and
    /// only its base is compared.
    #[test]
    fn forty_inherited_compactions_keep_the_filter_as_selective() {
        // 48 words of skewed popularity, four to a record.
        const SYL: [&str; 8] = ["ka", "to", "mi", "ren", "su", "lo", "vin", "da"];
        let word = |w: usize| format!("{}{}{}", SYL[w % 8], SYL[(w / 8 + w) % 8], SYL[w / 6]);
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let mut line = move || -> String {
            let words = (0..4).map(|_| word((next() % 48).min(next() % 48)));
            words.collect::<Vec<_>>().join(" ")
        };
        let seed: Vec<String> = (0..400).map(|_| line()).collect();
        let queries: Vec<String> = (0..60).map(|_| line()).collect();
        let cfg = ServeConfig {
            theta: 0.7,
            compact_threshold: 16,
            ..ServeConfig::default()
        };
        let kn = KnowledgeBuilder::new().build();
        let s = Service::build(kn, seed.iter().map(String::as_str), cfg).unwrap();
        let (mut writes, mut oldest, mut inherited) = (0usize, 0u64, 0u64);
        let (mut seen, mut checked) = (0u64, 0u64);
        while checked < 40 {
            s.search(&queries[writes % queries.len()]).unwrap();
            if writes % 4 == 3 {
                s.delete_record(oldest).unwrap();
                oldest += 1;
            } else {
                s.insert_record(&line()).unwrap();
            }
            writes += 1;
            let stats = s.stats();
            if stats.compactions == seen {
                continue;
            }
            // Just landed: the base is one fresh segment, comparable to a
            // rebuild of it (what `stats` counted, the snapshot holds).
            (seen, checked) = (stats.compactions, checked + 1);
            let snap = s.snapshot();
            inherited += u64::from(!stats.last_compact.reranked);
            let engine = Engine::new(snap.knowledge().clone(), cfg.sim).unwrap();
            let base = snap.base_search.prepared();
            let rebuilt = engine.prepare_owned(base.corpus().clone()).unwrap();
            let fresh = engine.searcher(&rebuilt, &cfg.spec()).unwrap();
            let (mut live_candidates, mut fresh_candidates) = (0u64, 0u64);
            for q in &queries {
                let (live, want) = (snap.base_search.query(q), fresh.query(q));
                assert_eq!(live.matches, want.matches, "{q:?}");
                live_candidates += live.candidates;
                fresh_candidates += want.candidates;
            }
            let drift = live_candidates as f64 / fresh_candidates as f64 - 1.0;
            let shape = s.stats().last_compact;
            assert!(
                drift.abs() <= 0.02,
                "{live_candidates} vs {fresh_candidates}: {shape:?}"
            );
        }
        assert!(
            inherited >= 36,
            "the churn rule re-ranks rarely: {inherited} of 40"
        );
        let stats = s.stats();
        assert!(stats.records_signed < stats.records_prepared + 3 * stats.live as u64);
    }

    /// A log storage whose `sync` parks (once armed) until the test lets
    /// it go: the deterministic stand-in for a slow fsync.
    #[derive(Debug)]
    struct ParkingStorage {
        inner: crate::storage::MemStorage,
        armed: Arc<AtomicBool>,
        entered: std::sync::mpsc::Sender<()>,
        release: std::sync::mpsc::Receiver<()>,
    }

    impl Storage for ParkingStorage {
        fn append(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.inner.append(buf)
        }
        fn sync(&mut self) -> std::io::Result<()> {
            // ordering: SeqCst — a test switch flipped once, before the
            // only writer thread is spawned; the spawn orders it.
            if self.armed.load(Ordering::SeqCst) {
                self.entered.send(()).expect("test is listening");
                self.release.recv().expect("test releases the sync");
            }
            self.inner.sync()
        }
        fn len(&self) -> std::io::Result<u64> {
            self.inner.len()
        }
        fn read_all(&mut self) -> std::io::Result<Vec<u8>> {
            self.inner.read_all()
        }
        fn truncate(&mut self, len: u64) -> std::io::Result<()> {
            self.inner.truncate(len)
        }
        fn replace(&mut self, bytes: &[u8]) -> std::io::Result<()> {
            self.inner.replace(bytes)
        }
    }

    /// `stats()` must not wait for the writer: with an insert parked
    /// inside its fsync — writer lock held — a monitoring thread still
    /// gets its counters (the last published ones), and a reader its
    /// answer.
    #[test]
    fn stats_returns_while_a_write_is_parked_in_sync() {
        use std::sync::mpsc;
        use std::time::Duration;
        let (entered_tx, entered) = mpsc::channel();
        let (release, release_rx) = mpsc::channel();
        let armed = Arc::new(AtomicBool::new(false));
        let storage = ParkingStorage {
            inner: crate::storage::MemStorage::new(),
            armed: armed.clone(),
            entered: entered_tx,
            release: release_rx,
        };
        let kn = KnowledgeBuilder::new().build();
        let s = Service::create_with(kn, LINES, cfg(), Box::new(storage)).unwrap();
        let before = s.stats();
        assert!(before.wal.durable);
        assert_eq!(before.wal.frames, LINES.len() as u64);
        // ordering: SeqCst — see `ParkingStorage::sync`.
        armed.store(true, Ordering::SeqCst);
        let s = &s;
        std::thread::scope(|scope| {
            let writer = scope.spawn(|| s.insert_record("espresso bar uptown"));
            entered
                .recv_timeout(Duration::from_secs(60))
                .expect("the insert reaches its sync");
            // The insert now sits inside `sync` with the writer lock held.
            let (stats_tx, stats_rx) = mpsc::channel();
            scope.spawn(move || {
                let seen = (s.stats(), s.search("tea house uptown"));
                stats_tx.send(seen).expect("the test is waiting");
            });
            let during = stats_rx.recv_timeout(Duration::from_secs(10));
            release.send(()).expect("the parked sync is listening");
            let receipt = writer.join().expect("writer thread").unwrap();
            let (during, read) = during.expect("stats() waited for the writer");
            assert_eq!(during.wal, before.wal, "the last published log counters");
            assert_eq!(during.inserts, before.inserts);
            assert_eq!(during.generation, before.generation);
            assert_eq!(read.unwrap().generation, before.generation);
            let after = s.stats();
            assert_eq!(after.wal.frames, before.wal.frames + 1);
            assert!(after.wal.bytes > before.wal.bytes);
            assert_eq!(after.generation, receipt.generation);
        });
    }

    /// The insert that reaches the threshold returns once its `Compact`
    /// frame is logged; the merge and index build run with no lock held —
    /// parked here at the test's gate — while inserts and deletes land.
    /// The swap carries them into the new snapshot (rows renumbered, not
    /// re-segmented; tombstones still masking), and the answers equal a
    /// fresh prepare's before, during and after it, and a recovered
    /// service's, whose replay folds at the same frame.
    #[test]
    fn a_parked_build_carries_the_writes_that_land_meanwhile() {
        use crate::storage::MemStorage;
        use std::sync::mpsc;
        use std::time::Duration;
        let live_cfg = ServeConfig {
            compact_threshold: 3,
            ..cfg()
        };
        let mem = MemStorage::new();
        let kn = KnowledgeBuilder::new().build();
        let s = Service::create_with(kn, LINES, live_cfg, Box::new(mem.clone())).unwrap();
        let (entered_tx, entered) = mpsc::channel();
        let (release, release_rx) = mpsc::channel();
        *relock(&s.shared.gate) = Some((entered_tx, release_rx));
        let queries = [
            "coffee shop downtown main plaza",
            "tea house uptown annex",
            "bakery and tea main street",
            "juice bar uptown plaza",
            "espresso bar main street",
            "coffee shop downtown main street",
        ];
        let check = |svc: &Service, stage: &str| {
            let snap = svc.snapshot();
            for q in queries {
                let served = svc.search(q).unwrap();
                assert_eq!(served.generation, snap.generation(), "{stage}");
                let want = reference_search(&snap, svc.config(), q);
                assert_eq!(
                    served.matches, want,
                    "{stage}: served ≠ fresh prepare for {q:?}"
                );
            }
        };
        check(&s, "before");
        s.insert_record("coffee shop downtown main plaza").unwrap();
        s.delete_record(1).unwrap();
        s.insert_record("tea house uptown annex").unwrap();
        let trigger = s.insert_record("espresso bar uptown plaza").unwrap();
        assert_eq!(
            trigger.generation,
            s.generation(),
            "the insert's own publication"
        );
        entered
            .recv_timeout(Duration::from_secs(60))
            .expect("the build reaches the gate with no lock held");
        let during = s.stats();
        assert!(during.compacting);
        assert_eq!((during.compactions, during.delta_len), (0, 3));
        // Writes land while the build is parked: two inserts, and deletes
        // of a base row it carries, a row it appends and a row that
        // arrived after it started.
        let late = s.insert_record("bakery and tea main street").unwrap().id;
        s.insert_record("juice bar uptown plaza").unwrap();
        s.delete_record(0).unwrap();
        s.delete_record(trigger.id).unwrap();
        s.delete_record(late).unwrap();
        assert_eq!(
            s.delete_record(1),
            Err(ServeError::AlreadyDeleted { id: 1 })
        );
        let during = s.stats();
        assert!(
            during.compacting,
            "one build in flight, none started beside it"
        );
        assert_eq!((during.delta_len, during.tombstones), (5, 4));
        check(&s, "during");
        let swapped_from = s.generation();
        release.send(()).expect("the parked build is listening");
        drop(s.shared.settled());
        let after = s.stats();
        assert!(!after.compacting);
        assert_eq!(after.compactions, 1);
        assert!(after.generation > swapped_from);
        let shape = after.last_compact;
        assert_eq!((shape.dropped, shape.appended), (1, 3), "{shape:?}");
        assert_eq!((shape.carried_rows, shape.carried_tombstones), (2, 3));
        assert_eq!((after.delta_len, after.tombstones), (2, 3));
        assert_eq!(after.live, during.live);
        assert!(after.last_compact_nanos > 0);
        check(&s, "after");
        // Replay folds at the `Compact` frame: the same split.
        let reopened = Service::open_with(
            KnowledgeBuilder::new().build(),
            cfg(),
            Box::new(MemStorage::with_bytes(mem.bytes())),
        )
        .unwrap();
        let (live, again) = (s.snapshot(), reopened.snapshot());
        assert_eq!(again.base_ids, live.base_ids);
        assert_eq!(again.tombstone_len(), live.tombstone_len());
        for q in queries {
            assert_eq!(
                reopened.search(q).unwrap().matches,
                s.search(q).unwrap().matches
            );
        }
        // The next compaction folds what was carried.
        s.compact().unwrap();
        assert!(s.snapshot().is_compact());
        assert_eq!(s.stats().last_compact.appended, 1);
        check(&s, "carried rows folded");
    }

    /// A build parked off-lock lets the delta grow to twice the threshold,
    /// no further: the insert that finds it there waits for the swap, and
    /// then starts the next compaction over the rows the swap carried.
    #[test]
    fn an_insert_at_twice_the_threshold_waits_for_the_swap() {
        use std::sync::mpsc;
        use std::time::Duration;
        let s = svc(ServeConfig {
            compact_threshold: 2,
            ..cfg()
        });
        let (entered_tx, entered) = mpsc::channel();
        let (release, release_rx) = mpsc::channel();
        *relock(&s.shared.gate) = Some((entered_tx, release_rx));
        s.insert_record("first extra record").unwrap();
        s.insert_record("second extra record").unwrap();
        entered
            .recv_timeout(Duration::from_secs(60))
            .expect("the build parks");
        s.insert_record("third extra record").unwrap();
        s.insert_record("fourth extra record").unwrap();
        assert_eq!(s.stats().delta_len, 4);
        // A second gate, for the compaction the waiting insert starts.
        let (entered_tx, entered) = mpsc::channel();
        let (release_next, release_rx) = mpsc::channel();
        *relock(&s.shared.gate) = Some((entered_tx, release_rx));
        let s = &s;
        std::thread::scope(|scope| {
            let (done_tx, done) = mpsc::channel();
            scope.spawn(move || {
                let receipt = s.insert_record("fifth extra record");
                done_tx.send(receipt).expect("the test is waiting");
            });
            assert!(
                done.recv_timeout(Duration::from_millis(100)).is_err(),
                "the insert waits while the build is parked"
            );
            release.send(()).expect("the parked build is listening");
            let receipt = done
                .recv_timeout(Duration::from_secs(60))
                .expect("it lands");
            assert!(s.snapshot().is_live(receipt.unwrap().id));
        });
        entered
            .recv_timeout(Duration::from_secs(60))
            .expect("the waiting insert started the next compaction");
        let stats = s.stats();
        assert_eq!((stats.compactions, stats.delta_len), (1, 3));
        assert!(stats.compacting);
        assert_eq!(stats.last_compact.carried_rows, 2);
        release_next
            .send(())
            .expect("the parked build is listening");
        drop(s.shared.settled());
        assert_eq!((s.stats().compactions, s.stats().delta_len), (2, 0));
    }

    /// The write-ahead log of a service built at the commit before
    /// compaction became a merge (three seed records, insert, delete 1,
    /// compact, insert, delete 0): the format did not change, so it opens,
    /// replays to the same split and serves what that service served.
    #[test]
    fn a_log_written_before_merge_compaction_still_opens() {
        use crate::storage::MemStorage;
        #[rustfmt::skip]
        const PARENT_LOG: [u8; 220] = [
            0x41, 0x55, 0x57, 0x41, 0x4c, 0x30, 0x30, 0x31, 0x1d, 0x00, 0x00, 0x00, 0x0c, 0xfb, 0x62, 0xe8,
            0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x63, 0x6f, 0x66, 0x66, 0x65, 0x65, 0x20,
            0x73, 0x68, 0x6f, 0x70, 0x20, 0x64, 0x6f, 0x77, 0x6e, 0x74, 0x6f, 0x77, 0x6e, 0x19, 0x00, 0x00,
            0x00, 0x78, 0xe0, 0x36, 0xb9, 0x01, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x74, 0x65,
            0x61, 0x20, 0x68, 0x6f, 0x75, 0x73, 0x65, 0x20, 0x75, 0x70, 0x74, 0x6f, 0x77, 0x6e, 0x15, 0x00,
            0x00, 0x00, 0xa4, 0x70, 0xee, 0x11, 0x01, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x65,
            0x73, 0x70, 0x72, 0x65, 0x73, 0x73, 0x6f, 0x20, 0x62, 0x61, 0x72, 0x1b, 0x00, 0x00, 0x00, 0x6a,
            0x01, 0x54, 0xbd, 0x01, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x63, 0x6f, 0x66, 0x66,
            0x65, 0x65, 0x20, 0x73, 0x68, 0x6f, 0x70, 0x20, 0x75, 0x70, 0x74, 0x6f, 0x77, 0x6e, 0x09, 0x00,
            0x00, 0x00, 0xb6, 0x3c, 0x55, 0x04, 0x02, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01,
            0x00, 0x00, 0x00, 0x37, 0xbe, 0x0b, 0x4b, 0x03, 0x1b, 0x00, 0x00, 0x00, 0x3d, 0x6a, 0xcc, 0x88,
            0x01, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x74, 0x65, 0x61, 0x20, 0x68, 0x6f, 0x75,
            0x73, 0x65, 0x20, 0x64, 0x6f, 0x77, 0x6e, 0x74, 0x6f, 0x77, 0x6e, 0x09, 0x00, 0x00, 0x00, 0x28,
            0x3c, 0xff, 0xc8, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        ];
        let kn = KnowledgeBuilder::new().build();
        let storage = MemStorage::with_bytes(PARENT_LOG.to_vec());
        let s = Service::open_with(kn, cfg(), Box::new(storage)).unwrap();
        let stats = s.stats();
        assert_eq!(stats.wal.replayed_frames, 8);
        assert_eq!((stats.live, stats.delta_len, stats.tombstones), (3, 1, 1));
        assert_eq!(s.snapshot().base_ids.to_vec(), [0, 2, 3]);
        let bits = |q: &str| -> Vec<(u64, u64)> {
            let found = s.search(q).unwrap().matches;
            found.iter().map(|&(id, sim)| (id, sim.to_bits())).collect()
        };
        // What the service that wrote the log answered before it stopped.
        assert_eq!(
            bits("coffee shop downtown"),
            [(3, 0.809_523_809_523_809_4_f64.to_bits())]
        );
        assert_eq!(bits("tea house downtown"), [(4, 1.0f64.to_bits())]);
        // And the log keeps growing in the same format.
        s.compact().unwrap();
        assert_eq!(s.stats().wal.frames, 9);
        assert_eq!(bits("tea house downtown"), [(4, 1.0f64.to_bits())]);
    }

    #[test]
    fn delete_masks_and_errors_are_typed() {
        let s = svc(cfg());
        let del = s.delete_record(0).unwrap();
        let out = s.search("coffee shop downtown main street").unwrap();
        assert_eq!(out.generation, del.generation);
        assert!(
            out.matches.iter().all(|&(id, _)| id != 0),
            "tombstoned id must never be served"
        );
        assert!(out.masked > 0, "the suppressed hit is counted");
        assert!(!s.snapshot().is_live(0));

        assert_eq!(
            s.delete_record(0),
            Err(ServeError::AlreadyDeleted { id: 0 }),
            "double delete"
        );
        assert_eq!(
            s.delete_record(999),
            Err(ServeError::UnknownId { id: 999 }),
            "never-minted id"
        );
    }

    #[test]
    fn compaction_folds_but_preserves_answers_and_ids() {
        let s = svc(cfg());
        s.insert_record("coffee house downtown main street")
            .unwrap();
        s.delete_record(2).unwrap();
        let queries = ["coffee shop downtown", "tea house uptown", "main street"];
        let before: Vec<_> = queries
            .iter()
            .map(|q| s.search(q).unwrap().matches)
            .collect();
        let pre_gen = s.generation();

        let gen = s.compact().unwrap();
        assert!(gen > pre_gen, "compaction publishes a new generation");
        let snap = s.snapshot();
        assert_eq!(snap.delta_len(), 0, "delta folded away");
        assert_eq!(snap.tombstone_len(), 0, "tombstones folded away");
        assert_eq!(snap.live_len(), LINES.len(), "6 base + 1 insert - 1 delete");

        for (q, want) in queries.iter().zip(&before) {
            assert_eq!(
                &s.search(q).unwrap().matches,
                want,
                "compaction changed the answer for {q:?}"
            );
        }
        assert_eq!(
            s.delete_record(2),
            Err(ServeError::AlreadyDeleted { id: 2 }),
            "id compacted away stays deleted"
        );
        assert_eq!(s.compact().unwrap(), gen, "empty compaction is a no-op");
        assert_eq!(s.stats().compactions, 1);
    }

    #[test]
    fn auto_compaction_triggers_at_threshold() {
        let s = svc(ServeConfig {
            compact_threshold: 2,
            ..cfg()
        });
        s.insert_record("first extra record").unwrap();
        assert_eq!(s.stats().compactions, 0);
        assert_eq!(s.snapshot().delta_len(), 1);
        let m = s.insert_record("second extra record").unwrap();
        // The receipt is the insert's own publication; the compaction it
        // started lands off the writer's thread, later.
        let after_insert = s.stats();
        assert!(after_insert.compacting || after_insert.compactions == 1);
        drop(s.shared.settled());
        assert_eq!(s.stats().compactions, 1, "threshold reached");
        assert!(!s.stats().compacting);
        assert_eq!(s.snapshot().delta_len(), 0);
        assert!(
            s.generation() > m.generation,
            "the compaction lands under a later generation than the receipt's"
        );
        assert!(s.snapshot().is_live(m.id));
    }

    #[test]
    fn topk_descends_below_service_theta() {
        let s = svc(ServeConfig {
            theta: 0.95,
            topk_floor: 0.2,
            topk_step: 0.15,
            ..cfg()
        });
        let top = s.topk("coffee shop downtown main street", 3).unwrap();
        assert_eq!(top.matches.len(), 3, "descent finds k matches");
        assert!(top.theta < 0.95, "needed to descend below the service θ");
        assert_eq!(top.matches[0], (0, 1.0));
        assert!(
            top.matches.windows(2).all(|w| w[0].1 >= w[1].1),
            "best first"
        );
    }

    #[test]
    fn join_window_over_live_records() {
        let s = svc(cfg());
        s.insert_record("coffee shop downtown main street").unwrap();
        let all = s.join_window(0, u64::MAX).unwrap();
        assert!(
            all.pairs.contains(&(0, 6, 1.0)),
            "base record 0 and its delta duplicate must join at 1.0"
        );
        assert!(
            all.pairs
                .windows(2)
                .all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)),
            "pairs sorted by (s, t)"
        );
        s.delete_record(0).unwrap();
        let masked = s.join_window(0, u64::MAX).unwrap();
        assert!(
            masked.pairs.iter().all(|&(a, b, _)| a != 0 && b != 0),
            "tombstoned id out of the join"
        );
        let window = s.join_window(0, 3).unwrap();
        assert!(
            window.pairs.iter().all(|&(a, b, _)| a < 3 && b < 3),
            "window bounds respected"
        );
    }

    #[test]
    fn search_batch_serves_one_generation() {
        let s = svc(cfg());
        let queries = ["coffee shop", "tea house", "espresso bar"];
        let out = s.search_batch(&queries).unwrap();
        assert_eq!(out.len(), 3);
        let gen = out[0].generation;
        assert!(out.iter().all(|r| r.generation == gen));
        assert_eq!(s.stats().queries, 4, "one admission + three batch items");
    }

    #[test]
    fn overload_sheds_cleanly() {
        let s = svc(ServeConfig {
            max_in_flight: 0,
            ..cfg()
        });
        assert!(s.search("coffee").is_ok(), "0 = unbounded");
        assert_eq!(s.stats().admission.overloads, 0);
    }
}
