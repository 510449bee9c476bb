//! Compaction: its triggers (the insert that reaches the threshold and
//! `compact()`), the merge and index build with no lock held, and the
//! swap that carries what arrived meanwhile.

use crate::config::{CompactionStats, ServeConfig, ServeStats};
use crate::error::ServeError;
use crate::service::Service;
use crate::snapshot::{Batch, Snapshot};
use crate::wal::WalOp;
use crate::write::{relock, WriterState};
use au_core::engine::Engine;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The compaction protocol's state, under the writer lock and touched
/// only by this module: at most one build is in flight, and the previous
/// build's thread is joined before the next is spawned — by the next
/// start, by `compact()`, by `save()` and on drop.
#[derive(Debug, Default)]
pub(crate) struct Builds {
    /// `Some` while a compaction is in flight — its `Compact` frame is
    /// logged, its swap has not landed — holding how long its start held
    /// the writer lock.
    in_flight: Option<Duration>,
    /// The thread of the last threshold-started compaction, until the
    /// next start, `compact()`, `save()` or drop joins it (a compaction
    /// `compact()` starts is joined by `compact()`).
    thread: Option<JoinHandle<Result<u64, ServeError>>>,
}

impl Builds {
    /// Join the last build's thread. Called with none in flight, so it has
    /// landed and has nothing left to do but return.
    fn join_landed(&mut self) {
        if let Some(done) = self.thread.take() {
            let _ = done.join();
        }
    }
}

/// The service state a compaction's build thread publishes into, shared
/// with the [`crate::Service`] by `Arc`: the build re-takes the writer
/// lock to land, so only the writer-lock holder ever replaces the
/// snapshot.
#[derive(Debug)]
pub(crate) struct Shared {
    pub(crate) cfg: ServeConfig,
    current: RwLock<Arc<Snapshot>>,
    /// Watermark of the latest published generation, readable without
    /// the snapshot lock; strictly increases across publishes.
    published_gen: AtomicU64,
    pub(crate) writer: Mutex<WriterState>,
    /// Signalled, under the writer lock, when a compaction lands (or is
    /// abandoned); waited on with the writer lock by whoever must not
    /// go on while one is in flight.
    landed: Condvar,
    /// The counters only the write path knows (`stats()` fills in the
    /// rest), written under the writer lock so that `stats()` never waits
    /// for an fsync or a compaction. A publication is counted after it is
    /// installed: a `stats()` that sees it counted sees its snapshot too.
    pub(crate) write_side: Mutex<ServeStats>,
    /// Test hook: the next build parks here, between its off-lock half
    /// and its landing, until the test releases it.
    #[cfg(test)]
    pub(crate) gate: Mutex<Option<(std::sync::mpsc::Sender<()>, std::sync::mpsc::Receiver<()>)>>,
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
        let base = Snapshot::of_base(cfg.spec().serial(), 0, ids, engine, prepared)?;
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
    pub(crate) fn new(
        cfg: ServeConfig,
        snapshot: Snapshot,
        writer: WriterState,
        side: ServeStats,
    ) -> Self {
        Self {
            cfg,
            published_gen: AtomicU64::new(snapshot.generation()),
            current: RwLock::new(Arc::new(snapshot)),
            writer: Mutex::new(writer),
            landed: Condvar::new(),
            write_side: Mutex::new(side),
            #[cfg(test)]
            gate: Mutex::default(),
        }
    }

    pub(crate) fn snapshot(&self) -> Arc<Snapshot> {
        self.current
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// The single point where a snapshot becomes visible: one pointer
    /// swap under the write lock, then the generation watermark.
    pub(crate) fn install(&self, snap: Snapshot) -> u64 {
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

    pub(crate) fn generation(&self) -> u64 {
        // ordering: Acquire pairs with the Release store in `install` —
        // a caller that observes generation G here and then calls
        // `snapshot()` is guaranteed a snapshot of generation ≥ G (the
        // RwLock write that published G happened-before the store).
        self.published_gen.load(Ordering::Acquire)
    }

    /// The writer lock once `ready` holds of the writer state.
    fn writer_when(&self, ready: impl Fn(&WriterState) -> bool) -> MutexGuard<'_, WriterState> {
        // ordering: `in_flight` and the published delta change only under
        // the writer lock, and a landing compaction notifies while holding
        // it, so this wait (which re-checks under the lock) cannot miss the
        // landing.
        let w = relock(&self.writer);
        self.landed
            .wait_while(w, |w| !ready(w))
            .unwrap_or_else(|e| e.into_inner())
    }

    /// The writer lock once no compaction is in flight, the last one's
    /// thread joined.
    pub(crate) fn settled(&self) -> MutexGuard<'_, WriterState> {
        let mut w = self.writer_when(|w| w.builds.in_flight.is_none());
        w.builds.join_landed();
        w
    }

    /// The writer lock for an insert: one that finds the delta at twice
    /// the threshold with a build still in flight waits for its swap
    /// first, so a slow build cannot grow what every read scans without
    /// bound.
    pub(crate) fn room_for_insert(&self) -> MutexGuard<'_, WriterState> {
        let full = 2 * self.cfg.compact_threshold;
        self.writer_when(|w| {
            w.builds.in_flight.is_none() || full == 0 || self.snapshot().delta_len() < full
        })
    }

    /// The trigger, after an insert published: start a compaction when
    /// the delta has reached the threshold and none is in flight.
    pub(crate) fn compact_if_due(self: &Arc<Self>, w: &mut WriterState) {
        let threshold = self.cfg.compact_threshold;
        if threshold > 0 && self.snapshot().delta_len() >= threshold && w.builds.in_flight.is_none()
        {
            // Joined before the next is spawned, the last build's thread
            // has handed its allocator arena back for the next one to
            // take, instead of that one opening another.
            w.builds.join_landed();
            // The insert is already durable and acknowledged; a failure
            // of the *compaction's* WAL frame must not retract it. The
            // service degrades (flag set inside) and the receipt stands.
            w.builds.thread = self.start(w).ok();
        }
    }

    /// Start a compaction, under the writer lock with none in flight: log
    /// the `Compact` frame, seal the vocabulary and capture the published
    /// snapshot — on replay the frame folds the same tombstones and seals
    /// the same records the merge does — then hand the merge and index
    /// build to a thread of their own and return it. The thread re-takes
    /// the lock only to land ([`Shared::land`]). Record ids survive
    /// compaction — only rows are renumbered.
    fn start(
        self: &Arc<Self>,
        w: &mut WriterState,
    ) -> Result<JoinHandle<Result<u64, ServeError>>, ServeError> {
        let start = Instant::now();
        self.commit(w, "compact", &WalOp::Compact)?;
        let prev = self.snapshot();
        w.kn.remint_generation();
        // Token ids and segmentations stay valid: the writer lineage's
        // vocabulary only ever appends.
        w.kn.vocab.seal();
        let engine = Arc::new(prev.engine.with_knowledge(w.kn.clone()));
        let shared = Arc::clone(self);
        let build = std::thread::spawn(move || shared.build(prev, engine));
        w.builds.in_flight = Some(start.elapsed());
        relock(&self.write_side).compacting = true;
        Ok(build)
    }

    /// A compaction's build thread: the merge and index build with no
    /// lock held, then the swap ([`Shared::land`]). A build that fails or
    /// panics still clears the in-flight mark, so nothing waits on it
    /// forever; the panic then goes on to whoever joins the thread.
    fn build(&self, prev: Arc<Snapshot>, engine: Arc<Engine>) -> Result<u64, ServeError> {
        let built = panic::catch_unwind(AssertUnwindSafe(|| Built::new(&self.cfg, &prev, engine)));
        #[cfg(test)]
        tests::park(self);
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

    /// The swap, under the writer lock: the new base plus the batch that
    /// arrived since `prev` was captured ([`Batch::since`]; a tombstone
    /// set since is not one the build folded), published under a fresh
    /// generation. `None` (the build failed) only clears the in-flight
    /// mark. Returns the published generation.
    fn land(&self, prev: &Snapshot, built: Option<Built>) -> u64 {
        let mut w = relock(&self.writer);
        let start = Instant::now();
        let trigger_held = w.builds.in_flight.take().unwrap_or_default();
        // ordering: notified under the writer lock; see `writer_when`.
        self.landed.notify_all();
        let Some(built) = built else {
            relock(&self.write_side).compacting = false;
            return self.generation();
        };
        let cur = self.snapshot();
        let carry = Batch::since(prev, &cur);
        let base = &built.base.base_search;
        let ((ranked_over, churn), signed) = (base.order().age(), base.prepared().records_signed());
        let shape = CompactionStats {
            carried: built.carried as u64,
            dropped: (prev.base_len() - built.carried) as u64,
            appended: (built.base.base_len() - built.carried) as u64,
            carried_rows: carry.rows.len() as u64,
            carried_tombstones: carry.tombstones.len() as u64,
            merge_nanos: built.merge.as_nanos() as u64,
            build_nanos: built.build.as_nanos() as u64,
            signed,
            reranked: built.reranked,
            churn: churn as u64,
            ranked_over: ranked_over as u64,
        };
        // The newest knowledge: the build's own engine unless an insert
        // interned past it since.
        let newest = if carry.rows.is_empty() {
            &built.base
        } else {
            &cur
        };
        let engine = Arc::clone(&newest.engine);
        let generation = self.install(Snapshot {
            generation: w.kn.remint_generation(),
            engine,
            ..carry.over(built.base)
        });
        // Counted after the install (see `write_side`).
        let mut side = relock(&self.write_side);
        side.compactions += 1;
        side.records_signed += signed;
        side.last_compact_nanos = (trigger_held + start.elapsed()).as_nanos() as u64;
        side.last_compact = shape;
        side.compacting = false;
        generation
    }
}

impl Service {
    /// Fold the delta segment and tombstones into a fresh monolithic
    /// base and publish it, once any compaction already in flight has
    /// landed. No-op (returning the current generation) when there is
    /// nothing to fold. The merge and index build hold no lock — writes go
    /// on and are carried into the new snapshot — and this call returns
    /// when its own swap has landed. Readers are never blocked: the new
    /// base lands as one `Arc` swap.
    pub fn compact(&self) -> Result<u64, ServeError> {
        let shared = &self.shared;
        let mut w = shared.settled();
        shared.check_writable()?;
        if shared.snapshot().is_compact() {
            return Ok(shared.generation());
        }
        let build = shared.start(&mut w)?;
        drop(w);
        build
            .join()
            .unwrap_or_else(|panicked| panic::resume_unwind(panicked))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::tests::{cfg, reference_search, svc, LINES};
    use crate::Service;
    use au_core::KnowledgeBuilder;

    /// Park at the test's gate, if one is set (once).
    pub(super) fn park(shared: &Shared) {
        // ordering: the test sets the gate before the insert that starts
        // the build (the spawn orders the two); only the build takes it.
        let gate = relock(&shared.gate).take();
        if let Some((entered, release)) = gate {
            let _ = entered.send(());
            let _ = release.recv();
        }
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
}
