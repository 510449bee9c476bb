//! Immutable serving snapshots: base segment + append-only delta rows +
//! tombstones.

use crate::error::ServeError;
use crate::service::ServeConfig;
use crate::tombstone::TombstoneSet;
use au_core::engine::{Engine, JoinSpec, Prepared, QuerySession, SnapshotSearcher};
use au_core::search::SearchOutcome;
use au_core::segment::{segment_record, SegRecord};
use au_core::usim::VerifyTiers;
use au_core::{Knowledge, SimConfig};
use au_text::record::{Record, RecordId};
use std::sync::Arc;

/// One record of the delta segment: everything a read needs of it,
/// produced **once**, by the writer, when the record is inserted (or
/// replayed). Rows are immutable and shared by `Arc` between every
/// snapshot published until the next compaction, which hands `seg` itself
/// to the new base ([`Engine::merge_prepared`]): a record is segmented by
/// the insert that logged it and never again.
#[derive(Debug)]
pub(crate) struct DeltaRow {
    /// Global record id.
    pub(crate) id: u64,
    /// Tokens and raw text (`record.id` is the row's delta position).
    pub(crate) record: Record,
    /// The segmented record, carrying the tier-0 integers the scan screens
    /// on (`n_tokens`, `min_partition`); a compaction shares it with the base.
    pub(crate) seg: Arc<SegRecord>,
}

impl DeltaRow {
    /// Segment `record` under `kn` — the service's writer lineage, whose
    /// vocabulary already holds the record's tokens — as delta row
    /// `position`.
    pub(crate) fn new(
        kn: &Knowledge,
        cfg: &SimConfig,
        id: u64,
        position: usize,
        mut record: Record,
    ) -> Self {
        record.id = RecordId(position as u32);
        let seg = Arc::new(segment_record(kn, cfg, &record.tokens));
        Self { id, record, seg }
    }
}

/// One immutable published state of the service: everything a query
/// needs, reachable from a single `Arc`. Queries that hold the `Arc`
/// keep the whole state alive; publishing a new snapshot never blocks
/// them.
///
/// Every part is itself shared, so a write publishes only what it
/// changed: an insert's snapshot is its predecessor's row pointers plus
/// one row and an engine over the grown vocabulary; a delete's differs in
/// the tombstone set alone. (`Clone` is that sharing — a handful of
/// reference-count bumps.)
///
/// The delta segment has **no filter**: no pebble order, signatures or
/// inverted index exist for it, so nothing is rebuilt when a row is
/// appended. A read answers it by scanning ([`Engine::scan`]) — every row
/// passing the tier-0 bound is verified by the same verifier the base
/// segment's candidates end in.
///
/// Global record ids are ascending within the base (`base_ids`) and
/// within the delta, and every delta id is greater than every base id
/// (ids are minted monotonically and compaction preserves them), so the
/// two segments concatenate in global-id order.
#[derive(Debug, Clone)]
pub struct Snapshot {
    pub(crate) generation: u64,
    pub(crate) base_ids: Arc<Vec<u64>>,
    pub(crate) base_search: Arc<SnapshotSearcher>,
    /// The service's validated θ-spec (the base searcher's own).
    pub(crate) spec: JoinSpec,
    /// Engine over the newest knowledge of the lineage: the base engine
    /// until an insert interns past it, then a cheap clone per insert.
    pub(crate) engine: Arc<Engine>,
    /// Out-of-vocabulary overlay every read segments its query under, and
    /// the delta scans' scratch pool; lives as long as the base segment it
    /// was created with.
    pub(crate) session: Arc<QuerySession>,
    pub(crate) delta: Arc<Vec<Arc<DeltaRow>>>,
    pub(crate) tombstones: Arc<TombstoneSet>,
}

/// A θ-search answered by one snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchResponse {
    /// Generation of the snapshot that answered (exactly one per
    /// response — the stale-read guard the stress tests assert on).
    pub generation: u64,
    /// `(global id, USIM)` of every live record with similarity ≥ θ,
    /// sorted by descending similarity (ties by ascending id) — the same
    /// contract as [`au_core::search::SearchOutcome::matches`].
    pub matches: Vec<(u64, f64)>,
    /// Candidates that reached verification, summed over both segments
    /// (in the delta: every row that passed the tier-0 bound).
    pub candidates: u64,
    /// Posting entries touched (the base segment's; the delta has no
    /// postings to read).
    pub processed: u64,
    /// Matches suppressed because their id was tombstoned.
    pub masked: u64,
    /// Which verification tier decided each candidate, summed over both
    /// segments (`tiers.decisions() == candidates`; tombstoned matches
    /// were verified and count as accepted).
    pub tiers: VerifyTiers,
}

/// A top-k search answered by threshold descent over one snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct TopkResponse {
    /// Generation of the snapshot that answered.
    pub generation: u64,
    /// Up to `k` best `(global id, USIM)` matches, best first.
    pub matches: Vec<(u64, f64)>,
    /// The threshold the final (answering) descent step ran at.
    pub theta: f64,
}

/// A self-join over a window of live records.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinWindowResponse {
    /// Generation of the snapshot that answered.
    pub generation: u64,
    /// `(s, t, USIM)` pairs over global ids, `s < t`, sorted by `(s, t)`.
    pub pairs: Vec<(u64, u64, f64)>,
}

impl Snapshot {
    /// `prepared` (prepared or merged by `engine`) made searchable at the
    /// service spec: a base segment with no delta and no tombstones.
    pub(crate) fn of_base(
        cfg: &ServeConfig,
        generation: u64,
        base_ids: Vec<u64>,
        engine: Arc<Engine>,
        prepared: Prepared,
    ) -> Result<Self, ServeError> {
        let prepared = Arc::new(prepared.with_memo_capacity(cfg.memo_capacity));
        let spec = cfg.spec();
        let base_search = Engine::snapshot_searcher(engine.clone(), prepared, &spec)?;
        Ok(Self {
            generation,
            base_ids: Arc::new(base_ids),
            engine,
            base_search: Arc::new(base_search),
            spec,
            session: Arc::default(),
            delta: Arc::default(),
            tombstones: Arc::default(),
        })
    }

    /// The knowledge generation this snapshot was published under.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Records in the base segment (tombstoned ones included).
    pub fn base_len(&self) -> usize {
        self.base_ids.len()
    }

    /// Records in the delta segment.
    pub fn delta_len(&self) -> usize {
        self.delta.len()
    }

    /// Currently tombstoned ids.
    pub fn tombstone_len(&self) -> usize {
        self.tombstones.len()
    }

    /// Live (visible) records: base + delta minus tombstones.
    pub fn live_len(&self) -> usize {
        self.base_len() + self.delta_len() - self.tombstone_len()
    }

    /// True when there is nothing for a compaction to fold.
    pub(crate) fn is_compact(&self) -> bool {
        self.delta.is_empty() && self.tombstones.is_empty()
    }

    /// True when `id` exists in this snapshot and is not tombstoned.
    pub fn is_live(&self, id: u64) -> bool {
        !self.tombstones.contains(id) && self.contains_id(id)
    }

    /// True when `id` exists in this snapshot, live or tombstoned.
    pub(crate) fn contains_id(&self, id: u64) -> bool {
        self.base_ids.binary_search(&id).is_ok()
            || self.delta.binary_search_by_key(&id, |r| r.id).is_ok()
    }

    /// The newest knowledge of this snapshot's lineage: the vocabulary
    /// every live record's token ids resolve under. Cloning it (cheap —
    /// see [`Knowledge`]) gives a reference rebuild the exact vocabulary
    /// the served corpus was interned under — the equivalence tests use
    /// this for the byte-identical monolithic comparison.
    pub fn knowledge(&self) -> &Knowledge {
        self.engine.knowledge()
    }

    /// Every live record in ascending global-id order, with its id.
    /// This is the corpus a monolithic rebuild would prepare — the
    /// compactor and the byte-identical equivalence checks both walk it.
    pub fn live_records(&self) -> Vec<(u64, &Record)> {
        let base = self.base_search.prepared().corpus().records();
        let base = self.base_ids.iter().copied().zip(base);
        let delta = self.delta.iter().map(|r| (r.id, &r.record));
        let mut out = Vec::with_capacity(self.live_len());
        out.extend(
            base.chain(delta)
                .filter(|&(gid, _)| !self.tombstones.contains(gid)),
        );
        out
    }

    /// θ-search at the service threshold: segment the query once, probe
    /// the base segment through its prebuilt searcher, scan the delta
    /// rows, map row numbers to global ids, mask tombstones, and merge
    /// under the global ordering contract.
    pub fn search(&self, text: &str) -> SearchResponse {
        self.answer(&self.base_search, text, &self.spec)
    }

    /// Like [`Snapshot::search`], but at an arbitrary spec (the top-k
    /// descent path): a one-shot base searcher over the same artifacts,
    /// and the same delta scan at the spec's θ. Selection artifacts come
    /// from the shared `Prepared` memo, so repeated thresholds stay warm —
    /// and the service's memo capacity bound keeps a hostile threshold
    /// stream from growing it without limit.
    pub(crate) fn search_spec(
        &self,
        text: &str,
        spec: &JoinSpec,
    ) -> Result<SearchResponse, ServeError> {
        let base = Engine::snapshot_searcher(
            self.base_search.engine().clone(),
            self.base_search.prepared().clone(),
            spec,
        )?;
        Ok(self.answer(&base, text, spec))
    }

    /// Both segments' answers to one query, merged. The query is tokenized
    /// and segmented **once**, under the newest knowledge (an inserted
    /// word the base vocabulary never saw has a real id there, which the
    /// delta rows carrying it share); the base probe takes the same record
    /// — interners only append, so such a word is in no base record and
    /// the base answer is what its own vocabulary would have given. The
    /// delta's answer verifies every row the tier-0 bound admits.
    fn answer(&self, base: &SnapshotSearcher, text: &str, spec: &JoinSpec) -> SearchResponse {
        let (kn, cfg) = (self.engine.knowledge(), self.engine.config());
        let query = self.session.segment(kn, cfg, text);
        let delta = (!self.delta.is_empty()).then(|| {
            let rows: Vec<&SegRecord> = self.delta.iter().map(|r| &*r.seg).collect();
            self.engine.scan(&self.session, &rows, &query, spec)
        });
        self.merge(base.query_record(&query), delta)
    }

    fn merge(&self, base: SearchOutcome, delta: Option<SearchOutcome>) -> SearchResponse {
        let mut matches: Vec<(u64, f64)> =
            Vec::with_capacity(base.matches.len() + delta.as_ref().map_or(0, |d| d.matches.len()));
        let mut masked = 0u64;
        let mut push = |gid: u64, sim: f64| {
            if self.tombstones.contains(gid) {
                masked += 1;
            } else {
                matches.push((gid, sim));
            }
        };
        for &(row, sim) in &base.matches {
            push(self.base_ids[row as usize], sim);
        }
        let (mut candidates, mut processed) = (base.candidates, base.processed);
        let mut tiers = base.tiers;
        if let Some(out) = &delta {
            for &(row, sim) in &out.matches {
                push(self.delta[row as usize].id, sim);
            }
            candidates += out.candidates;
            processed += out.processed;
            tiers.merge(&out.tiers);
        }
        // Each segment arrives sorted; re-establish the global contract
        // across segments: descending similarity, ties ascending id.
        matches.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        SearchResponse {
            generation: self.generation,
            matches,
            candidates,
            processed,
            masked,
            tiers,
        }
    }

    /// The live records whose global id passes `keep`, as a [`Prepared`]
    /// of `engine` (this snapshot's knowledge lineage, at or after its
    /// newest state) with their ids by row and the number of base rows
    /// among them — merged from the rows both segments already hold, so
    /// nothing is tokenized or segmented.
    pub(crate) fn merge_live(
        &self,
        engine: &Engine,
        keep: impl Fn(u64) -> bool,
    ) -> Result<(Prepared, Vec<u64>, usize), ServeError> {
        let stays = |id: u64| keep(id) && !self.tombstones.contains(id);
        let (mut ids, mut dropped) = (Vec::with_capacity(self.live_len()), Vec::new());
        for (row, &id) in self.base_ids.iter().enumerate() {
            if stays(id) {
                ids.push(id);
            } else {
                dropped.push(row as u32);
            }
        }
        let carried = ids.len();
        let appended = || self.delta.iter().filter(|r| stays(r.id));
        ids.extend(appended().map(|r| r.id));
        let prepared = engine.merge_prepared(
            self.base_search.prepared(),
            &dropped,
            appended().map(|r| (&r.seg, r.record.raw.as_str())),
        )?;
        Ok((prepared, ids, carried))
    }

    /// Self-join over the live records with global ids in `lo..hi`: merge
    /// the window ([`Snapshot::merge_live`]), join, and map back to global
    /// ids.
    pub(crate) fn join_window(
        &self,
        lo: u64,
        hi: u64,
        spec: &JoinSpec,
    ) -> Result<JoinWindowResponse, ServeError> {
        let (prepared, gids, _) = self.merge_live(&self.engine, |id| (lo..hi).contains(&id))?;
        let res = self.engine.join_self(&prepared, spec)?;
        let pairs = res
            .pairs
            .iter()
            .map(|&(a, b, sim)| (gids[a as usize], gids[b as usize], sim))
            .collect();
        Ok(JoinWindowResponse {
            generation: self.generation,
            pairs,
        })
    }
}
