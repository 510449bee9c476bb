//! Immutable serving snapshots: base segment + append-only delta rows +
//! tombstones.

use crate::config::ServeConfig;
use crate::error::ServeError;
use crate::tombstone::TombstoneSet;
use au_core::engine::{Engine, JoinSpec, Prepared, Searcher};
use au_core::search::SearchOutcome;
use au_core::segment::{segment_record, SegRecord};
use au_core::usim::{Verifier, VerifyScratch, VerifyTiers};
use au_core::{Knowledge, SimConfig};
use au_text::record::{Corpus, Record, RecordId};
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

    /// This row as delta row `position` of another snapshot: the same
    /// segmented record, shared, not re-segmented.
    pub(crate) fn renumbered(&self, position: usize) -> Self {
        let mut record = self.record.clone();
        record.id = RecordId(position as u32);
        Self {
            id: self.id,
            record,
            seg: Arc::clone(&self.seg),
        }
    }
}

/// What arrived since generation `g`: the delta rows inserted after it,
/// in log order, and the tombstones set after it. A compaction's swap
/// carries the batch that arrived while it built ([`Batch::since`]); log
/// replay folds the pending batch into the base at each `Compact` frame,
/// with rows not yet segmented.
#[derive(Debug)]
pub(crate) struct Batch<R> {
    pub(crate) rows: Vec<R>,
    pub(crate) tombstones: TombstoneSet,
}

impl<R> Batch<R> {
    pub(crate) fn new() -> Self {
        Self {
            rows: Vec::new(),
            tombstones: TombstoneSet::new(),
        }
    }
}

impl Batch<Arc<DeltaRow>> {
    /// What `cur` holds that `prev` — an earlier snapshot with no
    /// compaction landed since — did not: its later rows, renumbered from
    /// 0 and still sharing their segmented records, and its later
    /// tombstones. Only inserts append delta rows and only a compaction
    /// removes them, so `prev`'s rows are a prefix of `cur`'s.
    pub(crate) fn since(prev: &Snapshot, cur: &Snapshot) -> Self {
        let mut batch = Self::new();
        for (pos, row) in cur.delta[prev.delta.len()..].iter().enumerate() {
            batch.rows.push(Arc::new(row.renumbered(pos)));
        }
        for id in cur.tombstones.iter() {
            if !prev.tombstones.contains(id) {
                batch.tombstones.insert(id);
            }
        }
        batch
    }

    /// `base` with this batch as its delta and tombstones.
    pub(crate) fn over(self, base: Snapshot) -> Snapshot {
        Snapshot {
            delta: Arc::new(self.rows),
            tombstones: Arc::new(self.tombstones),
            ..base
        }
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
/// segment's candidates end in, and an empty row or query matches
/// nothing, as in the base, so a compaction moves no answer.
///
/// Global record ids are ascending within the base (`base_ids`) and
/// within the delta, and every delta id is greater than every base id
/// (ids are minted monotonically and compaction preserves them), so the
/// two segments concatenate in global-id order.
#[derive(Debug, Clone)]
pub struct Snapshot {
    pub(crate) generation: u64,
    pub(crate) base_ids: Arc<Vec<u64>>,
    /// The base segment's searcher at the service θ. Reads use its spec
    /// (serial for a base a compaction built, a flag no query reads) and
    /// its session: the out-of-vocabulary overlay every read segments its
    /// query under, and the scratch pool of the base probe and the delta
    /// scan alike.
    pub(crate) base_search: Arc<Searcher<'static>>,
    /// Engine over the newest knowledge of the lineage: the base engine
    /// until an insert interns past it, then a cheap clone per insert.
    pub(crate) engine: Arc<Engine>,
    pub(crate) delta: Arc<Vec<Arc<DeltaRow>>>,
    pub(crate) tombstones: Arc<TombstoneSet>,
}

/// A θ-search answered by one snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchResponse {
    /// Generation of the snapshot that answered (exactly one per
    /// response — the stale-read guard the stress tests assert on).
    pub generation: u64,
    /// `(global id, sim)` of every live record with similarity ≥ θ,
    /// sorted by descending `sim` (ties by ascending id) — the same
    /// contract as [`au_core::search::SearchOutcome::matches`]: `sim` is
    /// the verifier's accepted value, a lower bound that stops once θ is
    /// reached; [`crate::Service::topk`] ranks by the full value.
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
    /// Up to `k` best `(global id, USIM)` matches, best first, scored
    /// with the full Algorithm 1 value.
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

/// The global order of matches: descending similarity, ties ascending id.
fn ranking(a: &(u64, f64), b: &(u64, f64)) -> std::cmp::Ordering {
    b.1.total_cmp(&a.1).then(a.0.cmp(&b.0))
}

impl Snapshot {
    /// Prepare a base segment over `corpus` — stage 1 over every record: a
    /// service created from text or recovered from its log has nothing
    /// segmented to carry. This is where the O(|knowledge|) steps of the
    /// service live: the vocabulary is sealed first, so the base engine's
    /// knowledge copy — and every per-insert copy until the next base
    /// build — shares all of it.
    pub(crate) fn prepare_base(
        kn: &mut Knowledge,
        cfg: &ServeConfig,
        corpus: Corpus,
        ids: Vec<u64>,
        generation: u64,
    ) -> Result<Self, ServeError> {
        kn.vocab.seal();
        let engine = Arc::new(Engine::new(kn.clone(), cfg.sim)?);
        let prepared = engine.prepare_owned(corpus)?;
        Self::of_base(cfg.spec(), generation, ids, engine, prepared)
    }

    /// `prepared` (prepared or merged by `engine`) made searchable at
    /// `spec` — the service spec, serial or not (a query reads the same
    /// artifacts either way): a base segment with no delta and no
    /// tombstones.
    pub(crate) fn of_base(
        spec: JoinSpec,
        generation: u64,
        base_ids: Vec<u64>,
        engine: Arc<Engine>,
        prepared: Prepared,
    ) -> Result<Self, ServeError> {
        let base_search = Engine::snapshot_searcher(engine.clone(), Arc::new(prepared), &spec)?;
        Ok(Self {
            generation,
            base_ids: Arc::new(base_ids),
            engine,
            base_search: Arc::new(base_search),
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
        self.answer(&self.base_search, &self.segment(text))
    }

    /// The candidates the base segment's signature probe keeps for `text`
    /// ([`Searcher::filter_candidates`]), whatever plan its search
    /// takes: how selective the filter is under the base's pebble order,
    /// which a compaction may have inherited. The delta has no filter.
    pub fn filter_candidates(&self, text: &str) -> u64 {
        self.base_search.filter_candidates(text)
    }

    /// Top-k search by threshold descent ([`au_core::topk::descent`] from
    /// the service θ) until `k` matches are found or the floor is reached.
    /// A lower θ probes through a one-shot base searcher over the same
    /// artifacts, from the shared `Prepared` memo — warm, and bounded by
    /// the schedule's at most 8 θ values. The final round's matches are
    /// re-scored with the full Algorithm 1 value before ranking: the
    /// search accepts a match at a lower bound that stops once θ is
    /// reached.
    pub(crate) fn topk(
        &self,
        cfg: &ServeConfig,
        text: &str,
        k: usize,
    ) -> Result<TopkResponse, ServeError> {
        let query = self.segment(text);
        let mut theta = cfg.theta;
        let mut resp = self.answer(&self.base_search, &query);
        let mut lower = au_core::topk::descent(theta).skip(1);
        while let Some(next) = lower.next().filter(|_| resp.matches.len() < k) {
            theta = next;
            let base = self.base_search.with_spec(&cfg.spec_at(theta))?;
            resp = self.answer(&base, &query);
        }
        let verifier = Verifier::new(self.engine.knowledge(), self.engine.config());
        let mut scratch = VerifyScratch::default();
        let mut matches: Vec<(u64, f64)> = resp
            .matches
            .iter()
            .filter_map(|&(id, _)| {
                let sim = verifier.sim(&query, self.seg_record(id)?, &mut scratch);
                Some((id, sim))
            })
            .collect();
        matches.sort_unstable_by(ranking);
        matches.truncate(k);
        Ok(TopkResponse {
            generation: self.generation,
            matches,
            theta,
        })
    }

    /// The query tokenized and segmented **once**, under the newest
    /// knowledge (an inserted word the base vocabulary never saw has a
    /// real id there, which the delta rows carrying it share); the base
    /// probe takes the same record — interners only append, so such a
    /// word is in no base record and the base answer is what its own
    /// vocabulary would have given.
    fn segment(&self, text: &str) -> SegRecord {
        let (kn, cfg) = (self.engine.knowledge(), self.engine.config());
        self.base_search.session().segment(kn, cfg, text)
    }

    /// The segmented record of global id `id`, base or delta.
    fn seg_record(&self, id: u64) -> Option<&SegRecord> {
        match self.base_ids.binary_search(&id) {
            Ok(row) => Some(&self.base_search.prepared().seg_records()[row]),
            Err(_) => {
                let pos = self.delta.binary_search_by_key(&id, |r| r.id).ok()?;
                Some(&self.delta[pos].seg)
            }
        }
    }

    /// Both segments' answers to one query at `base`'s θ, merged. The
    /// delta's answer verifies every row the tier-0 bound admits.
    fn answer(&self, base: &Searcher, query: &SegRecord) -> SearchResponse {
        let delta = (!self.delta.is_empty()).then(|| {
            let rows: Vec<&SegRecord> = self.delta.iter().map(|r| &*r.seg).collect();
            // `base`'s spec passed the same validation when that searcher
            // was built, so the scan never refuses it.
            let scanned = self.engine.scan(base.session(), &rows, query, base.spec());
            scanned.unwrap_or_default()
        });
        self.merge(base.query_record(query), delta)
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
        // across segments.
        matches.sort_unstable_by(ranking);
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

#[cfg(test)]
mod tests {
    use crate::config::ServeConfig;
    use crate::service::tests::LINES;
    use crate::Service;
    use au_core::topk::descent;
    use au_core::KnowledgeBuilder;

    /// No client chooses a θ: a base is searched at the service θ and at
    /// the top-k descent's fixed steps below it, so its memo holds the self
    /// order plus a signature set and an index per θ of that descent — at
    /// most 17 entries, from θ = 1.0 — with no capacity bound to enforce
    /// it. Top-k at every k and θ-searches across threshold-started
    /// compactions (each base inheriting its parent's signatures) reach
    /// that bound and never pass it.
    #[test]
    fn a_base_memo_holds_at_most_the_descents_artifacts() {
        for theta in [0.3, 0.4, 0.7, 1.0] {
            let bound = 1 + 2 * descent(theta).count();
            let cfg = ServeConfig {
                theta,
                compact_threshold: 4,
                ..ServeConfig::default()
            };
            let s = Service::build(KnowledgeBuilder::new().build(), LINES, cfg).unwrap();
            let mut most = 0;
            for round in 0..12 {
                let line = format!("coffee shop annex {round}");
                let id = s.insert_record(&line).unwrap().id;
                if round % 3 == 2 {
                    s.delete_record(id).unwrap();
                }
                for k in [1, 2, 5, 50, 1000] {
                    s.topk(LINES[round % LINES.len()], k).unwrap();
                }
                s.search("tea house uptown").unwrap();
                let len = s.snapshot().base_search.prepared().memo_len();
                assert!(len <= bound, "θ {theta}, round {round}: {len} > {bound}");
                most = most.max(len);
            }
            assert!(s.stats().compactions > 0, "θ {theta}");
            assert_eq!(most, bound, "θ {theta}: k = 1000 walks the whole descent");
        }
        assert_eq!(1 + 2 * descent(1.0).count(), 17);
    }
}
