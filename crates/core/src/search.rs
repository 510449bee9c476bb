//! Similarity *search*: one query string against a pre-indexed collection.
//!
//! Joins (Algorithms 3/6) amortise signature selection and index
//! construction over both collections; many applications instead hold one
//! collection fixed (a product catalogue, a gazetteer, a keyword
//! dictionary) and look up strings one at a time.
//! [`crate::engine::Engine::searcher`] builds the indexed side once —
//! segmentation, global frequency order, signature key sets, inverted
//! index — and answers queries with the same
//! filter-and-verification guarantee as the join: every record with
//! `USIM(query, record) ≥ θ` is returned (Lemmas 1 and 2 are symmetric in
//! the two strings, so a fresh query signature selected under the same
//! `θ`/`τ` against the index's global order preserves completeness).
//!
//! The global order here is computed from the indexed collection only.
//! Query pebbles unseen in the collection get frequency 0 and sort first;
//! that only changes the *heuristic* quality of the order, not
//! correctness, which merely requires both sides to sort keys by one
//! consistent total order — `(frequency, key)` is one.

use crate::config::SimConfig;
use crate::engine::{relock, Engine, JoinSpec, Prepared};
use crate::index::{tier0_compatible, CompatBound, CsrIndex, OverlapCounter, ProbeStats};
use crate::join::{record_signature, SelectedSignatures, SignatureScratch};
use crate::knowledge::Knowledge;
use crate::pebble::PebbleOrder;
use crate::segment::{segment_record_with, SegRecord};
use crate::usim::{GramPostingsIndex, RunScratch, Verifier, VerifyTiers};
use au_text::{ScratchVocab, TokenId};
use std::sync::{Arc, Mutex};

/// One query's outcome with filtering statistics.
#[derive(Debug, Clone, Default)]
pub struct SearchOutcome {
    /// `(record id, USIM)` of every record with similarity ≥ θ, sorted by
    /// descending similarity (ties by ascending id).
    pub matches: Vec<(u32, f64)>,
    /// Candidates that reached verification (≥ τ pebble overlaps; for a
    /// filterless [`crate::engine::Engine::scan`], every row that passed
    /// the tier-0 bound).
    pub candidates: u64,
    /// Posting entries touched while counting overlaps (0 for a scan).
    pub processed: u64,
    /// Records rejected by the tier-0 compatibility bound before
    /// verification ([`crate::index::ProbeStats::compat_rejected`]).
    pub compat_rejected: u64,
    /// Which cascade stage decided each candidate — the join's
    /// [`crate::join::JoinStats::tiers`] for one probe record
    /// (`tiers.decisions() == candidates`, whatever the thread count).
    pub tiers: VerifyTiers,
}

/// Everything one query evaluation mutates: the probe's overlap counter,
/// the signature pass's buffers and the verifier's scratch. Pooled per
/// session, so a query checks one out, runs with no lock held, and returns
/// it — buffers grown by one query serve the next.
#[derive(Debug)]
pub(crate) struct QueryScratch {
    counter: OverlapCounter,
    signature: SignatureScratch,
    run: RunScratch,
}

/// The mutable per-session state every query path shares: the pool of
/// per-query scratches and the out-of-vocabulary overlay. An indexed
/// search session owns one inside its `SearchCore`; a filterless
/// [`Engine::scan`] borrows one from its caller, who keeps it for as long
/// as overlay ids should stay stable (one knowledge lineage): a repeated
/// unknown word keeps one identity for the session's lifetime.
#[derive(Debug, Default)]
pub struct QuerySession {
    pool: Mutex<Vec<QueryScratch>>,
    overlay: Mutex<ScratchVocab>,
}

impl QuerySession {
    /// Tokenize and segment a raw query string under `kn`; words `kn`'s
    /// vocabulary does not hold get this session's overlay ids.
    pub fn segment(&self, kn: &Knowledge, cfg: &SimConfig, text: &str) -> SegRecord {
        let toks = au_text::tokenize::tokenize(text, &kn.tokenize);
        // The overlay lock covers interning + a tiny per-query snapshot
        // only; segmentation (the expensive part) runs outside it, so
        // concurrent queries don't serialize.
        let (ids, snap) = {
            let mut overlay = relock(&self.overlay);
            let ids: Vec<TokenId> = toks.iter().map(|t| overlay.intern(&kn.vocab, t)).collect();
            let snap = overlay.snapshot(&ids);
            (ids, snap)
        };
        segment_record_with(kn, cfg, &ids, &|span| snap.join(&kn.vocab, span))
    }

    /// Segment pre-tokenized ids (vocabulary ids, or overlay ids this
    /// session minted earlier).
    fn segment_tokens(&self, kn: &Knowledge, cfg: &SimConfig, tokens: &[TokenId]) -> SegRecord {
        let snap = relock(&self.overlay).snapshot(tokens);
        segment_record_with(kn, cfg, tokens, &|span| snap.join(&kn.vocab, span))
    }

    /// Check a scratch out of the pool (a new one when every pooled one is
    /// in use), its overlap counter sized for `n_indexed` records. A
    /// session serves one indexed collection — or scans, which never probe
    /// (`n_indexed = 0`) — so pooled counters always fit.
    pub(crate) fn checkout(&self, n_indexed: usize) -> QueryScratch {
        relock(&self.pool).pop().unwrap_or_else(|| QueryScratch {
            counter: OverlapCounter::new(n_indexed),
            signature: SignatureScratch::default(),
            run: RunScratch::default(),
        })
    }

    /// Return a scratch to the pool.
    pub(crate) fn check_in(&self, scratch: QueryScratch) {
        relock(&self.pool).push(scratch);
    }

    /// Scratches resting in the pool (at most one per concurrent query).
    #[cfg(test)]
    pub(crate) fn pooled(&self) -> usize {
        relock(&self.pool).len()
    }
}

/// The engine-independent guts of a search session: the selected
/// artifacts of one collection under one spec, plus the session's
/// scratch pool and OOV overlay. Shared by the borrowing [`Searcher`] and
/// the `Arc`-owning [`SnapshotSearcher`] so both answer queries through
/// one code path. Built by `Engine::search_core`.
#[derive(Debug)]
pub(crate) struct SearchCore {
    /// The (validated, threshold-mode) spec queries are answered under.
    pub(crate) spec: JoinSpec,
    pub(crate) order: Arc<PebbleOrder>,
    pub(crate) sel: Arc<SelectedSignatures>,
    pub(crate) index: Arc<CsrIndex>,
    /// A query is one probe run, verified in one walk of this.
    pub(crate) transposed: Arc<GramPostingsIndex>,
    pub(crate) session: QuerySession,
}

impl SearchCore {
    /// The filter half of an indexed query: the same record → signature
    /// pass the indexed side went through ([`record_signature`]), then the
    /// CSR overlap probe. Returns the candidate rows, ascending.
    pub(crate) fn probe_candidates(
        &self,
        engine: &Engine,
        prepared: &Prepared,
        sr: &SegRecord,
        scratch: &mut QueryScratch,
    ) -> (Vec<u32>, ProbeStats) {
        let (kn, cfg) = (engine.knowledge(), engine.config());
        let (choice, distinct) =
            record_signature(kn, cfg, &self.order, &self.spec, sr, &mut scratch.signature);
        // Count distinct-key overlaps between the query signature and every
        // indexed record via the CSR probe; keep records reaching `min(τ,
        // query level, record level)` — the demand both sides can
        // guarantee. The epoch-stamped counter travels with the pooled
        // scratch (its whole point is O(1) reuse), so per-query work is
        // proportional to the postings touched, never to the collection.
        let mut out = Vec::new();
        let stats = scratch.counter.probe(
            &self.index,
            &distinct,
            choice.level,
            self.spec.filter.tau(),
            &self.sel.levels,
            None,
            &CompatBound {
                tier0: &prepared.tier0,
                probe_tier0: (sr.n_tokens() as u32, sr.min_partition),
                min_sim: self.spec.theta - cfg.eps,
            },
            &mut out,
        );
        (out, stats)
    }

    /// One segmented query against the prepared collection. A query *is* a
    /// probe run — one probe record, its candidates — so it is verified as
    /// the join verifies a run: one walk of the collection's transposed
    /// posting index counts every candidate's shared pebble mass
    /// ([`Verifier::verify_run_at_least`], byte-identical to per-pair
    /// calls, tallies included). Serially, on the caller's thread, over one
    /// pooled scratch — the walk costs less than starting threads for it,
    /// and no lock is held while the query probes or verifies, so
    /// concurrent queries never wait on each other.
    fn query_record(&self, engine: &Engine, prepared: &Prepared, sr: &SegRecord) -> SearchOutcome {
        let mut scratch = self.session.checkout(self.index.record_count());
        let (candidates, probe_stats) = self.probe_candidates(engine, prepared, sr, &mut scratch);
        let run: Vec<(u32, u32)> = candidates.iter().map(|&row| (0, row)).collect();
        let mut accepted = Vec::new();
        Verifier::new(engine.knowledge(), engine.config()).verify_run_at_least(
            sr,
            prepared.seg_records(),
            &run,
            &self.transposed,
            self.spec.theta,
            &mut scratch.run,
            &mut accepted,
        );
        let tiers = scratch.run.take_tally();
        self.session.check_in(scratch);
        SearchOutcome {
            matches: ranked(accepted.iter().map(|&(_, row, sim)| (row, sim)).collect()),
            candidates: candidates.len() as u64,
            processed: probe_stats.processed,
            compat_rejected: probe_stats.compat_rejected,
            tiers,
        }
    }

    /// Query with a raw string, segmented under this session's overlay.
    fn query(&self, engine: &Engine, prepared: &Prepared, text: &str) -> SearchOutcome {
        let sr = self
            .session
            .segment(engine.knowledge(), engine.config(), text);
        self.query_record(engine, prepared, &sr)
    }

    /// Query with pre-tokenized ids.
    fn query_tokens(
        &self,
        engine: &Engine,
        prepared: &Prepared,
        tokens: &[TokenId],
    ) -> SearchOutcome {
        let sr = self
            .session
            .segment_tokens(engine.knowledge(), engine.config(), tokens);
        self.query_record(engine, prepared, &sr)
    }
}

/// One segmented query against `rows` with no filter at all: every row
/// whose tier-0 bound can still reach θ is a candidate, decided per pair
/// ([`Verifier::sim_at_least`]) by the verification the indexed path ends
/// in. Similarity is a pure function of the pair, so `matches` equal an
/// indexed query's over the same records bit for bit (the index only ever
/// *removes* non-matches); the price is verification work linear in
/// `rows.len()`, which is why this serves small append-only segments and
/// nothing else — serially, over one pooled scratch of `session`.
pub(crate) fn run_scan(
    engine: &Engine,
    session: &QuerySession,
    rows: &[&SegRecord],
    sr: &SegRecord,
    theta: f64,
) -> SearchOutcome {
    let min_sim = theta - engine.config().eps;
    let probe_tier0 = (sr.n_tokens() as u32, sr.min_partition);
    let verifier = Verifier::new(engine.knowledge(), engine.config());
    let mut scratch = session.checkout(0);
    let (mut candidates, mut matches) = (0u64, Vec::new());
    for (i, row) in rows.iter().enumerate() {
        if tier0_compatible(
            probe_tier0,
            (row.n_tokens() as u32, row.min_partition),
            min_sim,
        ) {
            candidates += 1;
            let sim = verifier.sim_at_least(sr, row, theta, &mut scratch.run.verify);
            if sim >= min_sim {
                matches.push((i as u32, sim));
            }
        }
    }
    let tiers = scratch.run.take_tally();
    session.check_in(scratch);
    SearchOutcome {
        matches: ranked(matches),
        candidates,
        processed: 0,
        compat_rejected: rows.len() as u64 - candidates,
        tiers,
    }
}

/// Accepted `(row, similarity)` pairs under the global contract:
/// descending similarity, ties by ascending row.
fn ranked(mut matches: Vec<(u32, f64)>) -> Vec<(u32, f64)> {
    matches.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    matches
}

/// An online similarity-search session bound to one [`Engine`] and one
/// [`Prepared`] collection (see [`Engine::searcher`]).
///
/// Queries take `&self`: out-of-vocabulary tokens go to a
/// searcher-private [`ScratchVocab`] overlay whose ids are stable for the
/// searcher's lifetime, so repeated unknown tokens keep one identity
/// without ever mutating the shared knowledge context.
#[derive(Debug)]
pub struct Searcher<'e> {
    pub(crate) engine: &'e Engine,
    pub(crate) prepared: &'e Prepared,
    pub(crate) core: SearchCore,
}

impl Searcher<'_> {
    /// Number of indexed records.
    pub fn len(&self) -> usize {
        self.prepared.len()
    }

    /// True when the collection holds no records.
    pub fn is_empty(&self) -> bool {
        self.prepared.is_empty()
    }

    /// The threshold θ this searcher answers at.
    pub fn theta(&self) -> f64 {
        self.core.spec.theta
    }

    /// Mean signature length of the indexed records.
    pub fn avg_sig_len(&self) -> f64 {
        self.core.sel.record_keys.avg_sig_len()
    }

    /// Query with a raw string: every indexed record with
    /// `USIM(query, record) ≥ θ`, sorted by descending similarity.
    pub fn query(&self, text: &str) -> SearchOutcome {
        self.core.query(self.engine, self.prepared, text)
    }

    /// Query with pre-tokenized ids (vocabulary ids, or overlay ids this
    /// searcher minted earlier).
    pub fn query_tokens(&self, tokens: &[TokenId]) -> SearchOutcome {
        self.core.query_tokens(self.engine, self.prepared, tokens)
    }
}

/// A `'static`, `Arc`-owning [`Searcher`]: same artifacts, same query
/// path, but the engine and prepared collection are held by reference
/// count instead of borrow, so the session can live inside an
/// atomically-swapped service snapshot (`au-serve`) and be shared across
/// worker threads for as long as the snapshot is referenced. Create with
/// [`Engine::snapshot_searcher`].
#[derive(Debug)]
pub struct SnapshotSearcher {
    pub(crate) engine: Arc<Engine>,
    pub(crate) prepared: Arc<Prepared>,
    pub(crate) core: SearchCore,
}

impl SnapshotSearcher {
    /// Number of indexed records.
    pub fn len(&self) -> usize {
        self.prepared.len()
    }

    /// True when the collection holds no records.
    pub fn is_empty(&self) -> bool {
        self.prepared.is_empty()
    }

    /// The threshold θ this searcher answers at.
    pub fn theta(&self) -> f64 {
        self.core.spec.theta
    }

    /// Knowledge generation of the indexed collection.
    pub fn generation(&self) -> u64 {
        self.prepared.generation()
    }

    /// The indexed collection.
    pub fn prepared(&self) -> &Arc<Prepared> {
        &self.prepared
    }

    /// The owning engine.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// The global order the collection is indexed — and every query
    /// signed — under; carries its age ([`PebbleOrder::age`]).
    pub fn order(&self) -> &PebbleOrder {
        &self.core.order
    }

    /// Query with a raw string: every indexed record with
    /// `USIM(query, record) ≥ θ`, sorted by descending similarity.
    pub fn query(&self, text: &str) -> SearchOutcome {
        self.core.query(&self.engine, &self.prepared, text)
    }

    /// Query with pre-tokenized ids (vocabulary ids, or overlay ids this
    /// searcher minted earlier).
    pub fn query_tokens(&self, tokens: &[TokenId]) -> SearchOutcome {
        self.core.query_tokens(&self.engine, &self.prepared, tokens)
    }

    /// Query with a record the caller segmented ([`QuerySession::segment`])
    /// under this engine's configuration and under its knowledge or a
    /// *later* state of the same lineage — what lets a serving layer
    /// segment a query once for this collection and for rows appended
    /// since. Interning only appends: a word the indexed vocabulary never
    /// saw is in no indexed record whichever id it carries, so matches,
    /// order and similarity bits equal [`SnapshotSearcher::query`]'s on
    /// the query's text.
    pub fn query_record(&self, query: &SegRecord) -> SearchOutcome {
        self.core.query_record(&self.engine, &self.prepared, query)
    }
}

#[cfg(test)]
mod tests {
    use crate::config::SimConfig;
    use crate::engine::{Engine, JoinSpec, QuerySession};
    use crate::join::brute_force_join;
    use crate::knowledge::{Knowledge, KnowledgeBuilder};
    use crate::segment::{segment_record, SegRecord};
    use crate::signature::FilterKind;
    use au_text::record::{Corpus, RecordId};
    use proptest::prelude::*;

    fn setup() -> (Knowledge, Corpus) {
        let mut b = KnowledgeBuilder::new();
        b.synonym("coffee shop", "cafe", 1.0);
        b.taxonomy_path(&["wikipedia", "food", "coffee", "coffee drinks", "latte"]);
        b.taxonomy_path(&["wikipedia", "food", "coffee", "coffee drinks", "espresso"]);
        let mut kn = b.build();
        let t = kn.corpus_from_lines([
            "espresso cafe helsinki",
            "tea cake",
            "latte south",
            "different thing",
            "coffee shop latte helsingki",
        ]);
        (kn, t)
    }

    #[test]
    fn query_finds_figure1_record() {
        let (kn, t) = setup();
        let cfg = SimConfig::default();
        let engine = Engine::new(kn, cfg).expect("valid config");
        let pt = engine.prepare(&t).expect("prepare");
        let searcher = engine
            .searcher(&pt, &JoinSpec::threshold(0.7).au_dp(2))
            .expect("searcher");
        let out = searcher.query("coffee shop latte Helsingki");
        assert!(
            out.matches.iter().any(|&(rid, _)| rid == 0),
            "expected record 0, got {:?}",
            out.matches
        );
        // The identical record 4 must score ~1 and rank first.
        assert_eq!(out.matches[0].0, 4);
        assert!(out.matches[0].1 > 0.999);
        assert!(out.candidates >= out.matches.len() as u64);
    }

    #[test]
    fn search_agrees_with_brute_force() {
        let (mut kn, t) = setup();
        let cfg = SimConfig::default();
        let queries = [
            "espresso cafe helsinki",
            "cake and tea",
            "coffee shop corner",
            "unrelated words entirely",
        ];
        let s = kn.corpus_from_lines(queries);
        let engine = Engine::new(kn.clone(), cfg).expect("valid config");
        let pt = engine.prepare(&t).expect("prepare");
        for theta in [0.5, 0.7, 0.9] {
            for filter in [
                FilterKind::UFilter,
                FilterKind::AuHeuristic { tau: 2 },
                FilterKind::AuDp { tau: 2 },
            ] {
                let searcher = engine
                    .searcher(&pt, &JoinSpec::threshold(theta).filter(filter))
                    .expect("searcher");
                let oracle = brute_force_join(&kn, &cfg, &s, &t, theta);
                for (qi, _) in queries.iter().enumerate() {
                    let out = searcher.query_tokens(&s.get(au_text::RecordId(qi as u32)).tokens);
                    let mut got: Vec<u32> = out.matches.iter().map(|&(r, _)| r).collect();
                    got.sort_unstable();
                    let want: Vec<u32> = oracle
                        .iter()
                        .filter(|&&(a, _, _)| a == qi as u32)
                        .map(|&(_, b, _)| b)
                        .collect();
                    assert_eq!(got, want, "θ={theta} {} q={qi}", filter.label());
                }
            }
        }
    }

    #[test]
    fn search_matches_join_results() {
        let (mut kn, t) = setup();
        let cfg = SimConfig::default();
        let queries = ["espresso cafe helsinki", "latte north", "tea cake shop"];
        let s = kn.corpus_from_lines(queries);
        let engine = Engine::new(kn, cfg).expect("valid config");
        let ps = engine.prepare(&s).expect("prepare S");
        let pt = engine.prepare(&t).expect("prepare T");
        let spec = JoinSpec::threshold(0.6).au_dp(2);
        let joined = engine.join(&ps, &pt, &spec).expect("join");
        let searcher = engine.searcher(&pt, &spec).expect("searcher");
        for qi in 0..queries.len() as u32 {
            let out = searcher.query_tokens(&s.get(au_text::RecordId(qi)).tokens);
            let mut got: Vec<u32> = out.matches.iter().map(|&(r, _)| r).collect();
            got.sort_unstable();
            let want: Vec<u32> = joined
                .pairs
                .iter()
                .filter(|&&(a, _, _)| a == qi)
                .map(|&(_, b, _)| b)
                .collect();
            assert_eq!(got, want, "q={qi}");
        }
    }

    /// `Engine::scan` against `Searcher::query` over the same records:
    /// identical `matches` (rows, order, similarity bits); the scan's
    /// `candidates` are exactly the rows the tier-0 bound admits, a
    /// superset of what the index lets through.
    fn assert_scan_equals_index(lines: &[String], queries: &[String]) {
        let mut kn = scan_knowledge();
        let t = kn.corpus_from_lines(lines.iter().map(String::as_str));
        let cfg = SimConfig::default();
        // The queries are interned on a *clone*: the engine's vocabulary
        // never sees them (so their unknown words take the overlay path),
        // while the test can still segment them for the tier-0 count.
        let mut kn_q = kn.clone();
        let qc = kn_q.corpus_from_lines(queries.iter().map(String::as_str));
        let engine = Engine::new(kn, cfg).expect("valid config");
        let pt = engine.prepare(&t).expect("prepare");
        let rows: Vec<&SegRecord> = pt.seg_records().iter().map(|r| &**r).collect();
        for theta in [0.5, 0.7, 0.9] {
            for parallel in [false, true] {
                let spec = JoinSpec::threshold(theta).au_dp(2).parallel(parallel);
                let searcher = engine.searcher(&pt, &spec).expect("searcher");
                let session = QuerySession::default();
                for (qi, q) in queries.iter().enumerate() {
                    let indexed = searcher.query(q);
                    let segmented = session.segment(engine.knowledge(), engine.config(), q);
                    let scanned = engine.scan(&session, &rows, &segmented, &spec);
                    let bits = |m: &[(u32, f64)]| -> Vec<(u32, u64)> {
                        m.iter().map(|&(r, s)| (r, s.to_bits())).collect()
                    };
                    assert_eq!(
                        bits(&scanned.matches),
                        bits(&indexed.matches),
                        "θ={theta} parallel={parallel} q={q:?}"
                    );
                    let sq = segment_record(&kn_q, &cfg, &qc.get(RecordId(qi as u32)).tokens);
                    let admitted = rows
                        .iter()
                        .filter(|r| {
                            let n = sq.n_tokens().min(r.n_tokens()) as f64;
                            n / sq.min_partition.max(r.min_partition) as f64 >= theta - cfg.eps
                        })
                        .count() as u64;
                    assert_eq!(scanned.candidates, admitted, "θ={theta} q={q:?}");
                    assert_eq!(scanned.compat_rejected, rows.len() as u64 - admitted);
                    assert_eq!(scanned.processed, 0, "a scan reads no postings");
                    assert!(indexed.candidates <= scanned.candidates);
                    // Each path tallies exactly its own candidates — per
                    // query, nothing carried over in the pooled scratch.
                    for out in [&indexed, &scanned] {
                        assert_eq!(out.tiers.decisions(), out.candidates);
                        assert_eq!(out.tiers.accepted, out.matches.len() as u64);
                    }
                }
            }
        }
    }

    /// The knowledge and word pool of `tests/property_based.rs`, plus two
    /// query-only words no record ever contains.
    fn scan_knowledge() -> Knowledge {
        let mut kb = KnowledgeBuilder::new();
        kb.synonym("coffee shop", "cafe", 1.0);
        kb.synonym("tea house", "tearoom", 0.9);
        kb.taxonomy_path(&["root", "drinks", "coffee", "latte"]);
        kb.taxonomy_path(&["root", "drinks", "coffee", "espresso"]);
        kb.taxonomy_path(&["root", "food", "cake", "apple cake"]);
        kb.build()
    }

    const WORDS: [&str; 15] = [
        "coffee",
        "shop",
        "cafe",
        "latte",
        "espresso",
        "helsinki",
        "helsingki",
        "cake",
        "apple",
        "tea",
        "house",
        "bar",
        "corner",
        "grande",
        "small",
    ];

    fn text_strategy(words: Vec<&'static str>, max: usize) -> impl Strategy<Value = String> {
        prop::collection::vec(prop::sample::select(words), 1..=max).prop_map(|v| v.join(" "))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn scan_equals_indexed_search(
            lines in prop::collection::vec(text_strategy(WORDS.to_vec(), 6), 1..40),
            queries in prop::collection::vec(
                text_strategy([&WORDS[..], &["lattte", "zanzibar"]].concat(), 6),
                1..6,
            ),
        ) {
            assert_scan_equals_index(&lines, &queries);
        }
    }

    /// The same equivalence past [`crate::parallel::MIN_PARALLEL_ITEMS`]
    /// candidates, where `parallel(true)` really fans out.
    #[test]
    fn scan_equals_indexed_search_when_verification_fans_out() {
        let mut x = 0x9e37_79b9_u32;
        let mut word = || {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            WORDS[(x >> 16) as usize % WORDS.len()]
        };
        let lines: Vec<String> = (0..600)
            .map(|i| (0..3 + i % 3).map(|_| word()).collect::<Vec<_>>().join(" "))
            .collect();
        let queries = [
            "coffee shop latte helsinki".to_string(),
            "tea house zanzibar".to_string(),
        ];
        assert_scan_equals_index(&lines, &queries);
    }

    /// The pooled scratch is the only shared mutable state on the read
    /// path: eight threads querying one `SnapshotSearcher` — known words,
    /// unknown ones, the empty query — get the serial answers (matches,
    /// bits, candidates, tiers), and every query checked out one scratch
    /// and returned it, so at most eight rest in the pool afterwards.
    #[test]
    fn eight_threads_share_one_searcher_and_at_most_eight_scratches() {
        use std::sync::Arc;
        let mut x = 0x2545_f491_u32;
        let mut word = || {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            WORDS[(x >> 16) as usize % WORDS.len()]
        };
        let lines: Vec<String> = (0..400)
            .map(|i| (0..3 + i % 3).map(|_| word()).collect::<Vec<_>>().join(" "))
            .collect();
        let mut queries: Vec<String> = lines.iter().step_by(9).cloned().collect();
        queries.extend([
            "tea house zanzibar".into(),
            "lattte lattte".into(),
            "".into(),
        ]);
        let mut kn = scan_knowledge();
        let t = kn.corpus_from_lines(lines.iter().map(String::as_str));
        let engine = Arc::new(Engine::new(kn, SimConfig::default()).expect("valid config"));
        let pt = Arc::new(engine.prepare(&t).expect("prepare"));
        let spec = JoinSpec::threshold(0.6).au_dp(2);
        let searcher = Engine::snapshot_searcher(engine, pt, &spec).expect("searcher");
        let answer = |q: &String| {
            let out = searcher.query(q);
            let bits: Vec<(u32, u64)> =
                out.matches.iter().map(|&(r, s)| (r, s.to_bits())).collect();
            (bits, out.candidates, out.processed, out.tiers)
        };
        let serial: Vec<_> = queries.iter().map(answer).collect();
        assert!(serial.iter().any(|a| !a.0.is_empty()));
        assert_eq!(
            searcher.core.session.pooled(),
            1,
            "serial queries reuse one"
        );
        let start = std::sync::Barrier::new(8);
        std::thread::scope(|scope| {
            for worker in 0..8 {
                let (queries, serial, answer, start) = (&queries, &serial, &answer, &start);
                scope.spawn(move || {
                    start.wait();
                    for round in 0..4 {
                        for i in 0..queries.len() {
                            // Each thread walks the list from its own start.
                            let i = (i + worker * 7 + round) % queries.len();
                            assert_eq!(answer(&queries[i]), serial[i], "{:?}", queries[i]);
                        }
                    }
                });
            }
        });
        let pooled = searcher.core.session.pooled();
        assert!((1..=8).contains(&pooled), "{pooled} pooled scratches");
    }

    #[test]
    fn unknown_tokens_still_match_by_grams() {
        let (kn, t) = setup();
        let cfg = SimConfig::default();
        let engine = Engine::new(kn, cfg).expect("valid config");
        let pt = engine.prepare(&t).expect("prepare");
        let searcher = engine
            .searcher(&pt, &JoinSpec::threshold(0.6).au_dp(1))
            .expect("searcher");
        // "helsinky" is not in the vocabulary yet; it should still match
        // "helsinki" (and hence record 0) through shared grams... at the
        // record level the single-token query compares against 3-token
        // records, so use a full-length query.
        let out = searcher.query("espresso cafe helsinky");
        assert!(
            out.matches.iter().any(|&(rid, _)| rid == 0),
            "got {:?}",
            out.matches
        );
    }

    #[test]
    fn empty_query_matches_nothing() {
        let (kn, t) = setup();
        let cfg = SimConfig::default();
        let engine = Engine::new(kn, cfg).expect("valid config");
        let pt = engine.prepare(&t).expect("prepare");
        let searcher = engine
            .searcher(&pt, &JoinSpec::threshold(0.7).au_dp(2))
            .expect("searcher");
        let out = searcher.query("");
        assert!(out.matches.is_empty());
        assert_eq!(out.candidates, 0);
    }

    #[test]
    fn empty_index() {
        let (kn, _) = setup();
        let cfg = SimConfig::default();
        let empty = Corpus::new();
        let engine = Engine::new(kn, cfg).expect("valid config");
        let pe = engine.prepare(&empty).expect("prepare empty");
        let searcher = engine
            .searcher(&pe, &JoinSpec::threshold(0.8).u_filter())
            .expect("searcher");
        let out = searcher.query("espresso cafe");
        assert!(out.matches.is_empty());
    }

    #[test]
    fn results_sorted_by_similarity() {
        let (kn, t) = setup();
        let cfg = SimConfig::default();
        let engine = Engine::new(kn, cfg).expect("valid config");
        let pt = engine.prepare(&t).expect("prepare");
        let searcher = engine
            .searcher(&pt, &JoinSpec::threshold(0.3).au_dp(1))
            .expect("searcher");
        let out = searcher.query("espresso cafe helsinki");
        assert!(!out.matches.is_empty());
        for w in out.matches.windows(2) {
            assert!(w[0].1 >= w[1].1 - 1e-12);
        }
    }
}
