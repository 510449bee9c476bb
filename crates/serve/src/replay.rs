//! Log replay: the recovered operations run forward to the exact
//! base/delta/tombstone split a crashed service had at its last
//! acknowledged operation.

use crate::config::ServeConfig;
use crate::error::ServeError;
use crate::snapshot::{Batch, DeltaRow, Snapshot};
use crate::wal::WalOp;
use au_core::knowledge::Knowledge;
use au_text::record::{Corpus, Record};
use std::sync::Arc;

/// Replay `ops` (a recovered log) and publish what they leave: the rows
/// the last `Compact` frame sealed, prepared as the base, and the batch
/// that arrived since, as the delta and tombstones. Returns the snapshot
/// and the id watermark (the next insert gets it). The log holds only
/// operations that were valid when acknowledged, so the fold validates
/// nothing.
pub(crate) fn recover(
    kn: &mut Knowledge,
    cfg: &ServeConfig,
    ops: &[WalOp],
) -> Result<(Snapshot, u64), ServeError> {
    // Rows are (global id, record), tokens interned through the service's
    // knowledge lineage, not yet segmented.
    let (mut base, mut pending, mut next_id) = (Vec::<(u64, Record)>::new(), Batch::new(), 0);
    for op in ops {
        match op {
            WalOp::Insert { id, text } => {
                let mut line = Corpus::new();
                kn.push_line(&mut line, text);
                pending.rows.push((*id, line.into_records().remove(0)));
                next_id = next_id.max(id + 1);
            }
            WalOp::Delete { id } => {
                pending.tombstones.insert(*id);
            }
            WalOp::Compact => {
                // The fold the live compaction made at this frame: what
                // the batch tombstoned leaves, its live rows join the base.
                let Batch { rows, tombstones } = std::mem::replace(&mut pending, Batch::new());
                base.retain(|(id, _)| !tombstones.contains(*id));
                base.extend(rows.into_iter().filter(|(id, _)| !tombstones.contains(*id)));
            }
            WalOp::Checkpoint { next_id: watermark } => {
                // A checkpoint rewrite starts the log over: what follows
                // is the entire live state. The knowledge lineage keeps
                // its vocabulary (append-only interning never changes an
                // answer — similarity is a pure function of the token pair).
                (base, pending, next_id) = (Vec::new(), Batch::new(), *watermark);
            }
        }
    }
    let generation = kn.remint_generation();
    let (ids, records): (_, Vec<Record>) = base.into_iter().unzip();
    let mut corpus = Corpus::new();
    for rec in records {
        corpus.push_tokens(rec.tokens, rec.raw);
    }
    let base = Snapshot::prepare_base(kn, cfg, corpus, ids, generation)?;
    // The pending rows, segmented one by one exactly as the inserts that
    // logged them did. The base engine's knowledge already holds every
    // replayed token, so it is the snapshot's newest engine too.
    let rows = pending.rows.into_iter().enumerate();
    let rows = rows.map(|(pos, (id, rec))| Arc::new(DeltaRow::new(kn, &cfg.sim, id, pos, rec)));
    let tombstones = pending.tombstones;
    let batch = Batch {
        rows: rows.collect(),
        tombstones,
    };
    Ok((batch.over(base), next_id))
}

#[cfg(test)]
mod tests {
    use crate::service::tests::{cfg, LINES};
    use crate::storage::MemStorage;
    use crate::write::relock;
    use crate::{ServeConfig, Service};
    use au_core::KnowledgeBuilder;

    /// Replay rebuilds the split the live service settled at — base,
    /// delta and tombstone counts, the live ids and the next id to mint —
    /// through inserts, deletes of base and of delta rows, a compaction
    /// the threshold started, an explicit one and a checkpoint. Until the
    /// first `Compact` frame the replayed log is all delta (the seed is
    /// logged as inserts); its live ids and watermark agree all the same.
    #[test]
    fn replay_reproduces_the_settled_split() {
        let mem = MemStorage::new();
        let live_cfg = ServeConfig {
            compact_threshold: 4,
            ..cfg()
        };
        let kn = KnowledgeBuilder::new().build();
        let s = Service::create_with(kn, LINES, live_cfg, Box::new(mem.clone())).unwrap();
        let shape = |svc: &Service| {
            let snap = svc.snapshot();
            let split = (snap.base_len(), snap.delta_len(), snap.tombstone_len());
            let ids: Vec<u64> = snap.live_records().iter().map(|&(id, _)| id).collect();
            (split, ids, relock(&svc.shared.writer).next_id)
        };
        let check = |stage: &str| {
            drop(s.shared.settled());
            let log = Box::new(MemStorage::with_bytes(mem.bytes()));
            let reopened = Service::open_with(KnowledgeBuilder::new().build(), cfg(), log).unwrap();
            let (live, again) = (shape(&s), shape(&reopened));
            if s.stats().compactions == 0 {
                let (base, delta, tombstones) = live.0;
                assert_eq!(again.0, (0, base + delta, tombstones), "{stage}");
                assert_eq!((&again.1, again.2), (&live.1, live.2), "{stage}");
            } else {
                assert_eq!(again, live, "{stage}");
            }
        };
        let insert = |text: &str| s.insert_record(text).unwrap().id;
        check("created");
        let first = insert("coffee shop downtown main plaza");
        insert("tea house uptown annex");
        check("inserts");
        s.delete_record(1).unwrap();
        s.delete_record(first).unwrap();
        check("a base row and a delta row deleted");
        insert("espresso bar uptown plaza");
        insert("juice bar main street");
        check("compaction started by the threshold");
        assert_eq!(s.stats().compactions, 1);
        assert_eq!(s.snapshot().delta_len(), 0);
        let late = insert("bakery and tea main street");
        s.delete_record(0).unwrap();
        s.delete_record(late).unwrap();
        check("deletes over a compacted base");
        insert("cafe uptown main avenue");
        s.compact().unwrap();
        check("explicit compaction");
        s.delete_record(2).unwrap();
        let newest = insert("tea house downtown annex");
        s.delete_record(newest).unwrap();
        check("the newest id deleted");
        s.save().unwrap();
        check("saved");
        insert("coffee shop uptown plaza");
        s.delete_record(3).unwrap();
        check("writes after the checkpoint");
        assert_eq!(s.stats().compactions, 3);
    }
}
