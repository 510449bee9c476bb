//! The write path: every mutation commits to the write-ahead log first,
//! then is applied in memory and published; checkpoints and healing.

use crate::compaction::{Builds, Shared};
use crate::config::Mutation;
use crate::error::ServeError;
use crate::service::Service;
use crate::snapshot::{DeltaRow, Snapshot};
use crate::tombstone::TombstoneSet;
use crate::wal::{Wal, WalOp};
use au_core::knowledge::Knowledge;
use au_text::record::Corpus;
use std::sync::{Arc, Mutex, MutexGuard};

/// Recover a poisoned mutex: every structure under these locks is valid
/// after any partial operation (the writer state is the knowledge
/// lineage, the id watermark and the log; what readers see lives in the
/// published snapshot, which is only ever replaced whole), so the service
/// keeps serving instead of propagating panics across requests.
pub(crate) fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Render an IO failure of the write-ahead log as the typed error.
pub(crate) fn wal_error(op: &'static str, e: &std::io::Error) -> ServeError {
    ServeError::Wal {
        op,
        detail: e.to_string(),
    }
}

/// Mutable state owned by the single writer path (mutations and
/// compaction). Readers never touch this — they only clone the
/// published snapshot `Arc`. The delta rows and tombstones are *not*
/// duplicated here: the published snapshot is their one copy, and only
/// the holder of this lock replaces it.
#[derive(Debug)]
pub(crate) struct WriterState {
    /// The service's private knowledge lineage. Delta inserts intern
    /// into *this* vocabulary; the engines inside published snapshots
    /// each hold their own (cheap) clone, so no shared `Knowledge` is
    /// ever mutated mid-generation.
    pub(crate) kn: Knowledge,
    pub(crate) next_id: u64,
    /// The write-ahead log, when this service is durable. Every
    /// mutation commits here (append + sync) *before* it is applied in
    /// memory or acknowledged — the WAL offset is the commit point.
    pub(crate) wal: Option<Wal>,
    /// The compaction in flight, if any; only `compaction` reads it.
    pub(crate) builds: Builds,
}

impl WriterState {
    pub(crate) fn new(kn: Knowledge, next_id: u64, wal: Option<Wal>) -> Self {
        Self {
            kn,
            next_id,
            wal,
            builds: Builds::default(),
        }
    }
}

impl Service {
    /// Insert one record; returns its global id and the generation that
    /// first serves it. Starts a compaction when the delta segment
    /// reaches [`crate::ServeConfig::compact_threshold`] and none is in
    /// flight — it logs the `Compact` frame and returns, the merge and
    /// index build run on a thread of their own. An insert that finds the
    /// delta at twice the threshold with a build still in flight waits
    /// for its swap first, so a slow build cannot grow what every read
    /// scans without bound.
    pub fn insert_record(&self, text: &str) -> Result<Mutation, ServeError> {
        let shared = &self.shared;
        let mut w = shared.room_for_insert();
        shared.check_writable()?;
        // The id is not consumed until the WAL accepts the frame: a
        // durable log never has id gaps, so a recovered service mints
        // the same ids a crashed one would have.
        let id = w.next_id;
        let op = WalOp::Insert {
            id,
            text: text.to_string(),
        };
        shared.commit(&mut w, "insert", &op)?;
        // Commit point passed: apply in memory and acknowledge. Nothing
        // below can fail — the configuration was validated when the
        // service was constructed — so an operation the log holds is
        // always published.
        w.next_id = id + 1;
        let prev = shared.snapshot();
        // Tokenize through the writer lineage (push_line re-mints the
        // knowledge generation through the shared process-wide mint, see
        // `Knowledge::remint_generation`) and segment this one record;
        // the published snapshot is its predecessor plus that row.
        let mut line = Corpus::new();
        let rid = w.kn.push_line(&mut line, text);
        let record = line.get(rid).clone();
        let mut rows = Vec::with_capacity(prev.delta.len() + 1);
        rows.extend(prev.delta.iter().cloned());
        let row = DeltaRow::new(&w.kn, &shared.cfg.sim, id, rows.len(), record);
        rows.push(Arc::new(row));
        let generation = shared.install(Snapshot {
            generation: w.kn.generation(),
            engine: Arc::new(prev.engine.with_knowledge(w.kn.clone())),
            delta: Arc::new(rows),
            ..Snapshot::clone(&prev)
        });
        {
            let mut side = relock(&shared.write_side);
            side.records_prepared += 1;
            side.inserts += 1;
        }
        shared.compact_if_due(&mut w);
        Ok(Mutation { id, generation })
    }

    /// Delete record `id`; returns the generation that first hides it.
    /// Unknown ids and double deletes are typed errors.
    pub fn delete_record(&self, id: u64) -> Result<Mutation, ServeError> {
        let shared = &self.shared;
        let mut w = relock(&shared.writer);
        shared.check_writable()?;
        if id >= w.next_id {
            return Err(ServeError::UnknownId { id });
        }
        // An id below next_id that is tombstoned — or in neither segment:
        // deleted and then folded away by a compaction — is gone already.
        let prev = shared.snapshot();
        if prev.tombstones.contains(id) || !prev.contains_id(id) {
            return Err(ServeError::AlreadyDeleted { id });
        }
        // Validation passed — commit to the log before applying, so the
        // log never holds a delete that was not acknowledged.
        shared.commit(&mut w, "delete", &WalOp::Delete { id })?;
        // Deletes change no vocabulary and touch no segment, but they do
        // change what a reader may see — publish the predecessor with one
        // more tombstone under a fresh generation from the same shared
        // mint as every other engine artifact.
        let mut tombstones = TombstoneSet::clone(&prev.tombstones);
        tombstones.insert(id);
        let generation = shared.install(Snapshot {
            generation: w.kn.remint_generation(),
            tombstones: Arc::new(tombstones),
            ..Snapshot::clone(&prev)
        });
        relock(&shared.write_side).deletes += 1;
        Ok(Mutation { id, generation })
    }

    /// Checkpoint the log: fold any pending delta/tombstones (waiting for
    /// a compaction in flight first), then atomically rewrite the log as
    /// one checkpoint + the live records — replaying the rewritten log is
    /// a single base build instead of the whole mutation history. Returns
    /// the checkpointed generation. No-op (beyond the fold) for
    /// non-durable services.
    pub fn save(&self) -> Result<u64, ServeError> {
        self.compact()?;
        let shared = &self.shared;
        let mut w = shared.settled();
        shared.check_writable()?;
        let snap = shared.snapshot();
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
            shared
                .logged(&mut w, |wal| wal.rewrite(&ops))
                .map_err(|e| wal_error("save", &e))?;
        }
        Ok(snap.generation())
    }

    /// Try to leave degraded read-only mode: repair and sync the log.
    /// On success writes are accepted again; on failure the service
    /// stays degraded and the typed error says why.
    pub fn heal(&self) -> Result<(), ServeError> {
        let shared = &self.shared;
        let mut w = relock(&shared.writer);
        if !self.is_degraded() {
            return Ok(());
        }
        shared
            .logged(&mut w, Wal::probe)
            .map_err(|e| wal_error("heal", &e))?;
        relock(&shared.write_side).degraded = false;
        Ok(())
    }

    /// True while the service is in degraded read-only mode.
    pub fn is_degraded(&self) -> bool {
        relock(&self.shared.write_side).degraded
    }
}

impl Shared {
    /// Fail fast (typed) when the service is degraded. Called with the
    /// writer lock held, so the flag cannot flip mid-mutation.
    pub(crate) fn check_writable(&self) -> Result<(), ServeError> {
        let mut side = relock(&self.write_side);
        if side.degraded {
            side.degraded_writes += 1;
            return Err(ServeError::Degraded);
        }
        Ok(())
    }

    /// Append `op` to the log, if this service has one. A failure that
    /// survived the whole retry budget flips the service into degraded
    /// read-only mode.
    pub(crate) fn commit(
        &self,
        w: &mut WriterState,
        name: &'static str,
        op: &WalOp,
    ) -> Result<(), ServeError> {
        self.logged(w, |wal| wal.append_op(op)).map_err(|e| {
            let mut side = relock(&self.write_side);
            side.degraded = true;
            side.degraded_entries += 1;
            wal_error(name, &e)
        })
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
            relock(&self.write_side).wal = wal.stats();
            done
        })
    }
}
