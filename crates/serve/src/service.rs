//! The public service: its constructors, the read path and `stats`. Its
//! write methods live in `write.rs`, `compact` in `compaction.rs`.

use crate::admission::{Admission, Permit};
use crate::compaction::Shared;
use crate::config::{ServeConfig, ServeStats};
use crate::error::ServeError;
use crate::replay;
use crate::snapshot::{JoinWindowResponse, SearchResponse, Snapshot, TopkResponse};
use crate::storage::{FileStorage, Storage};
use crate::wal::{Wal, WalOp};
use crate::write::{relock, wal_error, WriterState};
use au_core::knowledge::Knowledge;
use au_core::parallel::par_map;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The file-backed log at `dir/wal.log`.
fn file_log(dir: &Path) -> Result<Box<dyn Storage>, ServeError> {
    let storage = FileStorage::open(dir.join("wal.log")).map_err(|e| wal_error("open", &e))?;
    Ok(Box::new(storage))
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
    pub(crate) shared: Arc<Shared>,
    admission: Admission,
    queries: AtomicU64,
}

impl Service {
    /// Build a non-durable (purely in-memory) service over an initial
    /// corpus. The records get global ids `0..n` in input order. For a
    /// service that survives restarts see [`Service::create`] /
    /// [`Service::open`].
    ///
    /// Every constructor validates the service spec first
    /// ([`JoinSpec::validate_threshold`]: θ ∈ (0, 1]), before it reads
    /// or writes the log.
    ///
    /// [`JoinSpec::validate_threshold`]: au_core::engine::JoinSpec::validate_threshold
    pub fn build<'a>(
        kn: Knowledge,
        lines: impl IntoIterator<Item = &'a str>,
        cfg: ServeConfig,
    ) -> Result<Self, ServeError> {
        cfg.spec().validate_threshold()?;
        Self::seeded(kn, cfg, lines, None, false)
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
        Self::create_with(kn, lines, cfg, file_log(dir.as_ref())?)
    }

    /// [`Service::open_with`] over the file-backed log at `dir/wal.log`.
    pub fn open(
        kn: Knowledge,
        cfg: ServeConfig,
        dir: impl AsRef<Path>,
    ) -> Result<Self, ServeError> {
        Self::open_with(kn, cfg, file_log(dir.as_ref())?)
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
        let seed: Vec<&str> = lines.into_iter().collect();
        Self::open_inner(kn, cfg, file_log(dir.as_ref())?, Some(&seed), false)
    }

    /// The one durable constructor everything above funnels into:
    /// open the WAL, replay (or seed), publish the recovered snapshot.
    fn open_inner(
        mut kn: Knowledge,
        cfg: ServeConfig,
        storage: Box<dyn Storage>,
        seed: Option<&[&str]>,
        require_fresh: bool,
    ) -> Result<Self, ServeError> {
        cfg.spec().validate_threshold()?;
        let (mut wal, ops) = Wal::open(storage, cfg.retry).map_err(|e| wal_error("open", &e))?;
        if require_fresh && !ops.is_empty() {
            return Err(ServeError::Wal {
                op: "create",
                detail: format!("log already holds {} operations", ops.len()),
            });
        }
        let degraded = wal.tail_unrepaired();
        if !ops.is_empty() {
            let (snapshot, next_id) = replay::recover(&mut kn, &cfg, &ops)?;
            let writer = WriterState::new(kn, next_id, Some(wal));
            return Ok(Self::from_parts(cfg, snapshot, writer, degraded));
        }
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
        Self::seeded(kn, cfg, lines.iter().copied(), Some(wal), degraded)
    }

    /// A service over `lines` as its base, with global ids `0..n`.
    fn seeded<'a>(
        mut kn: Knowledge,
        cfg: ServeConfig,
        lines: impl IntoIterator<Item = &'a str>,
        wal: Option<Wal>,
        degraded: bool,
    ) -> Result<Self, ServeError> {
        let corpus = kn.corpus_from_lines(lines);
        let n = corpus.len() as u64;
        let generation = kn.generation();
        let snapshot = Snapshot::prepare_base(&mut kn, &cfg, corpus, (0..n).collect(), generation)?;
        let writer = WriterState::new(kn, n, wal);
        Ok(Self::from_parts(cfg, snapshot, writer, degraded))
    }

    /// Assemble the service value around an already-published snapshot.
    fn from_parts(
        cfg: ServeConfig,
        snapshot: Snapshot,
        writer: WriterState,
        degraded: bool,
    ) -> Self {
        let side = ServeStats {
            wal: writer.wal.as_ref().map(Wal::stats).unwrap_or_default(),
            records_prepared: (snapshot.base_len() + snapshot.delta_len()) as u64,
            records_signed: snapshot.base_search.prepared().records_signed(),
            degraded,
            degraded_entries: u64::from(degraded),
            ..ServeStats::default()
        };
        Self {
            shared: Arc::new(Shared::new(cfg, snapshot, writer, side)),
            admission: Admission::new(cfg.max_in_flight),
            queries: AtomicU64::new(0),
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
        &self.shared.cfg
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
    /// retry at thresholds lowered by [`JoinSpec::topk`]'s step (0.1)
    /// until `k` matches are found or its floor (0.3) is reached, and
    /// rank the matches by their full similarity.
    ///
    /// [`JoinSpec::topk`]: au_core::engine::JoinSpec::topk
    pub fn topk(&self, text: &str, k: usize) -> Result<TopkResponse, ServeError> {
        let _permit = self.admit()?;
        self.snapshot().topk(self.config(), text, k)
    }

    /// Self-join over the live records with global ids in `lo..hi`, at
    /// the service threshold.
    pub fn join_window(&self, lo: u64, hi: u64) -> Result<JoinWindowResponse, ServeError> {
        let _permit = self.admit()?;
        self.snapshot().join_window(lo, hi, &self.config().spec())
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
            // ordering: Relaxed — statistics counter only.
            queries: self.queries.load(Ordering::Relaxed),
            admission: self.admission.stats(),
            ..side
        }
    }
}

impl Drop for Service {
    /// Join a threshold-started compaction still in flight: it lands (in
    /// memory only — it writes no frame) and no thread outlives the
    /// service.
    fn drop(&mut self) {
        drop(self.shared.settled());
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::storage::Storage;
    use au_core::engine::Engine;
    use au_core::search::SearchOutcome;
    use au_core::segment::SegRecord;
    use au_core::usim::VerifyTiers;
    use au_core::KnowledgeBuilder;
    use au_text::record::Corpus;
    use std::sync::atomic::AtomicBool;

    pub(crate) const LINES: [&str; 6] = [
        "coffee shop downtown main street",
        "coffee shop uptown main avenue",
        "tea house downtown main street",
        "espresso bar main street",
        "bakery and coffee main street",
        "tea house uptown",
    ];

    pub(crate) fn cfg() -> ServeConfig {
        ServeConfig {
            theta: 0.4,
            compact_threshold: 0,
            ..ServeConfig::default()
        }
    }

    pub(crate) fn svc(cfg: ServeConfig) -> Service {
        Service::build(KnowledgeBuilder::new().build(), LINES, cfg).unwrap()
    }

    /// Monolithic reference: clone the snapshot's knowledge, rebuild the
    /// live corpus from scratch, and search with the one-shot borrowing
    /// searcher. Delta-served answers must match this byte for byte.
    pub(crate) fn reference_search(
        snap: &Snapshot,
        cfg: &ServeConfig,
        text: &str,
    ) -> Vec<(u64, f64)> {
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

    /// A service at θ = 0 would answer pairs sharing no key from its
    /// delta scan and lose them at the next compaction, so every
    /// constructor refuses it — a durable one before it logs a frame.
    #[test]
    fn a_service_at_theta_zero_is_refused_before_its_log_is_touched() {
        use crate::storage::MemStorage;
        let zero = ServeConfig {
            theta: 0.0,
            ..cfg()
        };
        let refused = |r: Result<Service, ServeError>| {
            matches!(
                r,
                Err(ServeError::Engine(au_core::AuError::InvalidSpec {
                    field: "theta",
                    ..
                }))
            )
        };
        let kn = || KnowledgeBuilder::new().build();
        assert!(refused(Service::build(kn(), LINES, zero)));
        let log = MemStorage::new();
        let created = Service::create_with(kn(), LINES, zero, Box::new(log.clone()));
        assert!(refused(created));
        assert!(log.bytes().is_empty(), "a refused create logged frames");
        assert!(refused(Service::open_with(
            kn(),
            zero,
            Box::new(log.clone())
        )));
        let dir = std::env::temp_dir().join(format!("au_serve_theta0_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        assert!(refused(Service::create(kn(), LINES, zero, &dir)));
        let logged = std::fs::metadata(dir.join("wal.log")).map_or(0, |m| m.len());
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(logged, 0, "a refused create wrote its log");
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
            // The live base's rows under the live base's order: an empty
            // merge hands the order down with the signatures selected under
            // it (au-core's merge tests hold carried signatures equal to
            // fresh ones: `assert_memo_coherent` after every merge).
            let none = std::iter::empty::<(&Arc<SegRecord>, &str)>();
            let base = snap.base_search.prepared();
            let seeded = engine.merge_prepared(base, &[], none).unwrap();
            let same_order = engine.searcher(&seeded, &s.config().spec()).unwrap();
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

    /// An empty record gets one rule in the delta's scan and the base's
    /// probe — it matches nothing — so compaction, which moves it from
    /// one to the other, changes no answer.
    #[test]
    fn an_empty_record_answers_alike_before_and_after_compaction() {
        let s = svc(ServeConfig {
            theta: 0.5,
            ..cfg()
        });
        s.insert_record("").unwrap();
        let queries = ["", "tea house uptown"];
        let before: Vec<_> = queries
            .iter()
            .map(|q| s.search(q).unwrap().matches)
            .collect();
        s.compact().unwrap();
        assert_eq!(
            s.snapshot().delta_len(),
            0,
            "the empty record moved to the base"
        );
        for (q, want) in queries.iter().zip(&before) {
            assert_eq!(&s.search(q).unwrap().matches, want, "q={q:?}");
            assert_eq!(reference_search(&s.snapshot(), s.config(), q), *want);
        }
    }

    #[test]
    fn topk_descends_below_service_theta() {
        let s = svc(ServeConfig {
            theta: 0.95,
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

    /// Top-k ranks by the full similarity, not by the lower bound the
    /// θ-search accepted a match at: "apple cake" is 0.8 from "cake" (the
    /// synonym), but the search stops once it reaches θ = 0.5, below
    /// "food" (0.667, the taxonomy) — in the base and in the delta alike.
    #[test]
    fn topk_ranks_by_the_full_similarity() {
        let knowledge = || {
            let mut kb = KnowledgeBuilder::new();
            kb.synonym("apple cake", "cake", 0.8);
            kb.taxonomy_path(&["root", "food", "cake", "apple cake"]);
            kb.build()
        };
        let cfg = ServeConfig {
            theta: 0.5,
            compact_threshold: 0,
            ..ServeConfig::default()
        };
        let base = Service::build(knowledge(), ["apple cake", "food"], cfg).unwrap();
        let delta = Service::build(knowledge(), ["food"], cfg).unwrap();
        let inserted = delta.insert_record("apple cake").unwrap().id;
        for (s, apple_cake) in [(&base, 0), (&delta, inserted)] {
            let top = s.topk("cake", 1).unwrap();
            assert_eq!(top.matches.len(), 1);
            assert_eq!(top.matches[0].0, apple_cake, "{:?}", top.matches);
            assert!((top.matches[0].1 - 0.8).abs() < 1e-9, "{:?}", top.matches);
            let both = s.topk("cake", 2).unwrap().matches;
            assert_eq!(both[0].0, apple_cake);
            assert!((both[1].1 - 2.0 / 3.0).abs() < 1e-9, "{both:?}");
        }
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
