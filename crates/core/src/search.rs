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
//! The signature filter pays only when it is selective. Every query pays
//! for a walk of the collection's transposed posting index, so before
//! anything is probed it prices that walk against the records its tier-0
//! window admits, and when the window is the cheaper run it skips the
//! signature and the probe and verifies the whole window
//! ([`QueryPlan`]). The window is complete as well, so the answer is the
//! same either way.
//!
//! The global order here is computed from the indexed collection only.
//! Query pebbles unseen in the collection get frequency 0 and sort first;
//! that only changes the *heuristic* quality of the order, not
//! correctness, which merely requires both sides to sort keys by one
//! consistent total order — `(frequency, key)` is one. Such a key's rank
//! is [`crate::pebble::UNSEEN_RANK`]: it reads no posting list but stays
//! among the probe's keys, so the τ-skip counts it as it would a key the
//! index lacks.

use crate::config::SimConfig;
use crate::engine::{relock, Engine};
use crate::error::AuError;
use crate::index::{CompatBound, CsrIndex, OverlapCounter, ProbeStats, Tier0Window};
use crate::join::{record_signature, SelectedSignatures, SignatureScratch};
use crate::knowledge::Knowledge;
use crate::pebble::PebbleOrder;
use crate::prepared::{OrderKey, Prepared, SigKey};
use crate::segment::{segment_record_with, SegRecord};
use crate::spec::JoinSpec;
use crate::usim::verify::chunk_partners;
use crate::usim::{GramPostingsIndex, RunKeys, RunScratch, Verifier, VerifyTiers};
use au_text::{ScratchVocab, TokenId};
use std::sync::{Arc, Mutex};

/// One query's outcome with filtering statistics. What the counters
/// count depends on the [`QueryPlan`] that answered it; `matches` do not.
#[derive(Debug, Clone, Default)]
pub struct SearchOutcome {
    /// `(record id, sim)` of every record with similarity ≥ θ, sorted by
    /// descending `sim` (ties by ascending id). `sim` is the value the
    /// verifier accepted the record at: a lower bound on Algorithm 1's
    /// similarity that stops once θ is reached.
    /// [`crate::engine::Engine::usim`] and top-k give the full value.
    /// The same rows and bits under either plan.
    pub matches: Vec<(u32, f64)>,
    /// Records that reached verification: under [`QueryPlan::Probe`] the
    /// candidates (≥ τ pebble overlaps and the tier-0 bound); under
    /// [`QueryPlan::Window`] — and for a filterless
    /// [`crate::engine::Engine::scan`] — every non-empty record the tier-0
    /// bound admits, for a non-empty query.
    pub candidates: u64,
    /// Posting entries the CSR probe read (`Tτ`); 0 under
    /// [`QueryPlan::Window`], which does not probe, and for a scan.
    pub processed: u64,
    /// Posting entries the mass walk of the transposed index read, summed
    /// over its counter chunks (0 without candidates, and for a scan): a
    /// key's list counts once per chunk, though the walk reads it once per
    /// probe segment carrying the key (83,087 list reads per query for
    /// 53,977 `walked` on the `search_online` benchmark's queries, 1.54 ×).
    /// Under [`QueryPlan::Window`] it is the walk the query was priced
    /// with. Like `processed`, a pure function of the query and the index.
    /// A join reports the same count summed over its probe records
    /// ([`crate::join::JoinStats::walked`]), whatever the thread count —
    /// every probe record's run is walked whole on one worker.
    pub walked: u64,
    /// Records the tier-0 bound kept from verification: under
    /// [`QueryPlan::Probe`] the ones the probe touched and refused
    /// ([`crate::index::ProbeStats::compat_rejected`]); under
    /// [`QueryPlan::Window`], as for a scan, every record outside the
    /// window, empty ones included.
    pub compat_rejected: u64,
    /// Which cascade stage decided each candidate — the join's
    /// [`crate::join::JoinStats::tiers`] for one probe record
    /// (`tiers.decisions() == candidates` under either plan, whatever the
    /// thread count).
    pub tiers: VerifyTiers,
    /// The plan that answered the query.
    pub plan: QueryPlan,
}

/// How a query finds the records it verifies, chosen per query before
/// anything is probed. Both are complete — the signature filter and the
/// tier-0 bound each keep every record that can reach θ, and the mass walk
/// is the same — so both return the same matches, bit for bit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum QueryPlan {
    /// Select the query's signature, probe the CSR index, and walk the
    /// candidates the probe keeps.
    #[default]
    Probe,
    /// Walk every non-empty record the tier-0 window admits, in id order:
    /// no signature and no probe. Taken when the window's mass bound costs
    /// no more than the walk the query pays either way — `C · segments(S)
    /// ≤ W`, `C` the records the window admits and `W` the postings the
    /// walk reads — and the window is walked in one counter chunk.
    Window,
}

/// How many non-empty records of a collection carry each `(|T|, MP(T))`:
/// the size of a query's tier-0 window without a pass over the records.
#[derive(Debug, Default)]
struct Tier0Histogram {
    cells: Vec<((u32, u32), u64)>,
}

impl Tier0Histogram {
    fn build(tier0: &[(u32, u32)]) -> Self {
        let mut sorted: Vec<(u32, u32)> = tier0.iter().copied().filter(|t| t.0 > 0).collect();
        sorted.sort_unstable();
        let mut cells: Vec<((u32, u32), u64)> = Vec::new();
        for t in sorted {
            match cells.last_mut() {
                Some((cell, count)) if *cell == t => *count += 1,
                _ => cells.push((t, 1)),
            }
        }
        Self { cells }
    }

    /// The records `window` admits.
    fn admitted(&self, window: Tier0Window) -> u64 {
        (self.cells.iter())
            .filter(|&&(t, _)| window.admits(t))
            .map(|&(_, count)| count)
            .sum()
    }
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
    /// The query's run: `(0, record)` per record it verifies.
    pairs: Vec<(u32, u32)>,
}

/// The mutable per-session state every query path shares: the pool of
/// per-query scratches and the out-of-vocabulary overlay. A [`Searcher`]
/// owns one; a filterless [`Engine::scan`] borrows one from its caller
/// (`au-serve` lends its base searcher's, so one pool serves both), who
/// keeps it for as long as overlay ids should stay stable (one knowledge
/// lineage): a repeated unknown word keeps one identity for the session's
/// lifetime.
#[derive(Debug, Default)]
pub struct QuerySession {
    pool: Mutex<Vec<QueryScratch>>,
    overlay: Mutex<ScratchVocab>,
}

impl QuerySession {
    /// Tokenize and segment a raw query string under `kn`; words `kn`'s
    /// vocabulary does not hold get this session's overlay ids.
    pub fn segment(&self, kn: &Knowledge, cfg: &SimConfig, text: &str) -> SegRecord {
        let toks = au_text::tokenize::tokenize(text, &Default::default());
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
    /// in use), its overlap counter sized for at least `n_indexed`
    /// records. A scan asks for 0 — it never probes — and may leave its
    /// scratch in the pool of a searcher over many records, so a pooled
    /// counter too small for the asking side is replaced.
    pub(crate) fn checkout(&self, n_indexed: usize) -> QueryScratch {
        let mut scratch = relock(&self.pool).pop().unwrap_or_else(|| QueryScratch {
            counter: OverlapCounter::new(n_indexed),
            signature: SignatureScratch::default(),
            run: RunScratch::default(),
            pairs: Vec::new(),
        });
        scratch.counter.fit(n_indexed);
        scratch
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

/// What a query's two plans cost, known before either runs: the
/// records its tier-0 window admits and, when there are any, the postings
/// its mass walk reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct QueryPrice {
    /// `C`: non-empty records the window admits.
    pub window: u64,
    /// `W`: Σ of the list lengths of the query's distinct surface keys,
    /// grams and rules in the transposed index (0 when `window` is 0:
    /// nothing to walk).
    pub walk: u64,
}

impl QueryPrice {
    /// The window plan when its mass bound — one counter per admitted
    /// record and query segment — costs no more than the walk both plans
    /// pay, and the window is walked in one counter chunk.
    fn plan(self, n_segments: usize) -> QueryPlan {
        let fits = self.window <= chunk_partners(n_segments) as u64;
        if fits && self.window * n_segments as u64 <= self.walk {
            QueryPlan::Window
        } else {
            QueryPlan::Probe
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Signature selections and CSR probes this thread's queries made.
    pub(crate) static PROBES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// The engine or the collection a [`Searcher`] reads: borrowed
/// ([`Engine::searcher`]) or held by reference count
/// ([`Engine::snapshot_searcher`]).
#[derive(Debug)]
enum Held<'e, T> {
    Borrowed(&'e T),
    Shared(Arc<T>),
}

impl<T> Clone for Held<'_, T> {
    fn clone(&self) -> Self {
        match self {
            Held::Borrowed(t) => Held::Borrowed(t),
            Held::Shared(t) => Held::Shared(Arc::clone(t)),
        }
    }
}

impl<T> std::ops::Deref for Held<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        match self {
            Held::Borrowed(t) => t,
            Held::Shared(t) => t,
        }
    }
}

/// An online similarity-search session over one [`Prepared`] collection
/// under one spec: the collection's selected artifacts (order,
/// signatures, CSR index, transposed index), its `(|T|, MP(T))` counts,
/// and a [`QuerySession`] — the pool of per-query scratches and the
/// out-of-vocabulary overlay. Every query, whatever it arrives as, is
/// answered by [`Searcher::query_record`].
///
/// The engine and the collection are borrowed ([`Engine::searcher`]) or
/// held by `Arc` ([`Engine::snapshot_searcher`]): a `Searcher<'static>`
/// can live inside an atomically-swapped service snapshot (`au-serve`)
/// and be shared across worker threads for as long as the snapshot is
/// referenced.
///
/// Queries take `&self`: out-of-vocabulary tokens go to the session's
/// [`ScratchVocab`] overlay, whose ids are stable for the searcher's
/// lifetime, so repeated unknown tokens keep one identity without ever
/// mutating the shared knowledge context.
#[derive(Debug)]
pub struct Searcher<'e> {
    engine: Held<'e, Engine>,
    prepared: Held<'e, Prepared>,
    /// The (validated, threshold-mode) spec queries are answered under.
    spec: JoinSpec,
    order: Arc<PebbleOrder>,
    pub(crate) sel: Arc<SelectedSignatures>,
    index: Arc<CsrIndex>,
    /// A query is one probe run, verified in one walk of this.
    transposed: Arc<GramPostingsIndex>,
    /// The collection's `(|T|, MP(T))` counts, which price a query's
    /// window plan.
    histogram: Tier0Histogram,
    session: QuerySession,
    /// A plan every query takes, whatever its prices (tests only).
    #[cfg(test)]
    pub(crate) forced: Option<QueryPlan>,
}

impl Engine {
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
        Searcher::build(Held::Borrowed(self), Held::Borrowed(c), spec)
    }

    /// [`Engine::searcher`] with the engine and collection held by `Arc`,
    /// for long-lived services: the searcher is `'static`. Artifact
    /// selection is identical (and served from the same [`Prepared`]
    /// memo, so building a second searcher against a warm collection is
    /// cheap).
    pub fn snapshot_searcher(
        engine: Arc<Engine>,
        prepared: Arc<Prepared>,
        spec: &JoinSpec,
    ) -> Result<Searcher<'static>, AuError> {
        Searcher::build(Held::Shared(engine), Held::Shared(prepared), spec)
    }

    /// Filterless search over already-segmented `rows`: every row the
    /// query's tier-0 window admits ([`Tier0Window`]) is verified per pair
    /// ([`Verifier::sim_at_least`]) — the window plan, reported as
    /// [`QueryPlan::Window`], counted pair by pair — and no row when either
    /// side is empty (an empty record has no key, so the probe never
    /// admits one) — no
    /// order, signature or index to build or rebuild when a row is
    /// appended, and completeness is trivial. `matches` carry row indices
    /// into `rows` and equal, bit for bit, what [`Searcher::query`]
    /// returns over the same records. Cost is verification work linear in
    /// `rows.len()`, serially on the caller's thread — the trade a small
    /// append-only segment (`au-serve`'s delta) wants, and nothing larger
    /// does.
    ///
    /// Only the spec's θ is read (there is no signature to select), but
    /// the spec is validated as every operation's is: a top-k spec or a θ
    /// outside (ε, 1] (ε = [`SimConfig::eps`](crate::SimConfig::eps)) is
    /// [`AuError::InvalidSpec`], so a scan answers exactly the specs an
    /// indexed search answers, and never keeps a row sharing nothing with
    /// the query. `query`
    /// ([`QuerySession::segment`]) and each
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
    ) -> Result<SearchOutcome, AuError> {
        spec.validate_threshold(self.cfg.eps)?;
        let theta = spec.theta();
        let min_sim = theta - self.cfg.eps;
        let window = Tier0Window::new(query.tier0(), min_sim);
        let verifier = Verifier::new(&self.kn, &self.cfg);
        let mut scratch = session.checkout(0);
        let (mut candidates, mut matches) = (0u64, Vec::new());
        for (i, row) in rows.iter().enumerate() {
            if window.admits(row.tier0()) {
                candidates += 1;
                let sim = verifier.sim_at_least(query, row, theta, &mut scratch.run.verify);
                if sim >= min_sim {
                    matches.push((i as u32, sim));
                }
            }
        }
        let tiers = scratch.run.take_tally();
        session.check_in(scratch);
        Ok(SearchOutcome {
            matches: ranked(matches),
            candidates,
            processed: 0,
            walked: 0,
            compat_rejected: rows.len() as u64 - candidates,
            tiers,
            plan: QueryPlan::Window,
        })
    }
}

/// Accepted `(row, similarity)` pairs under the global contract:
/// descending similarity, ties by ascending row.
fn ranked(mut matches: Vec<(u32, f64)>) -> Vec<(u32, f64)> {
    matches.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    matches
}

impl<'e> Searcher<'e> {
    /// The one constructor body: the collection's artifacts under `spec`,
    /// from its memo, and a fresh session.
    fn build(
        engine: Held<'e, Engine>,
        prepared: Held<'e, Prepared>,
        spec: &JoinSpec,
    ) -> Result<Self, AuError> {
        engine.check(&prepared)?;
        spec.validate_threshold(engine.cfg.eps)?;
        let order = engine.order_self(&prepared);
        let sel = engine.signatures(&prepared, OrderKey::SelfOrder, &order, spec);
        let index = engine.csr(&prepared, SigKey::new(OrderKey::SelfOrder, spec), &sel);
        Ok(Searcher {
            spec: *spec,
            order,
            sel,
            index,
            // Forced: its build belongs to making the collection
            // searchable, not to a first query.
            transposed: prepared.transposed(spec.parallel),
            histogram: Tier0Histogram::build(&prepared.tier0),
            session: QuerySession::default(),
            #[cfg(test)]
            forced: None,
            engine,
            prepared,
        })
    }

    /// A searcher over the same engine and collection, held the same way,
    /// at another spec — what a top-k descent probes its lower θ with.
    pub fn with_spec(&self, spec: &JoinSpec) -> Result<Searcher<'e>, AuError> {
        Self::build(self.engine.clone(), self.prepared.clone(), spec)
    }

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
        self.spec.theta
    }

    /// The (validated, threshold-mode) spec this searcher answers under.
    pub fn spec(&self) -> &JoinSpec {
        &self.spec
    }

    /// Mean signature length of the indexed records.
    pub fn avg_sig_len(&self) -> f64 {
        self.sel.record_keys.avg_sig_len()
    }

    /// Knowledge generation of the indexed collection.
    pub fn generation(&self) -> u64 {
        self.prepared.generation()
    }

    /// The indexed collection.
    pub fn prepared(&self) -> &Prepared {
        &self.prepared
    }

    /// The engine the collection was prepared by.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The session — scratch pool and out-of-vocabulary overlay — this
    /// searcher's queries run on; a caller may segment queries under it
    /// ([`QuerySession::segment`]) and lend it to [`Engine::scan`].
    pub fn session(&self) -> &QuerySession {
        &self.session
    }

    /// The global order the collection is indexed — and every query
    /// signed — under; carries its age ([`PebbleOrder::age`]).
    pub fn order(&self) -> &PebbleOrder {
        &self.order
    }

    /// Query with a raw string, segmented under this searcher's overlay:
    /// every indexed record with `USIM(query, record) ≥ θ`, sorted by
    /// descending similarity.
    pub fn query(&self, text: &str) -> SearchOutcome {
        let (kn, cfg) = (self.engine.knowledge(), self.engine.config());
        self.query_record(&self.session.segment(kn, cfg, text))
    }

    /// Query with pre-tokenized ids (vocabulary ids, or overlay ids this
    /// searcher minted earlier).
    pub fn query_tokens(&self, tokens: &[TokenId]) -> SearchOutcome {
        let (kn, cfg) = (self.engine.knowledge(), self.engine.config());
        self.query_record(&self.session.segment_tokens(kn, cfg, tokens))
    }

    /// The candidates the signature probe keeps for `text` — what
    /// [`SearchOutcome::candidates`] counts under [`QueryPlan::Probe`] —
    /// whatever plan [`Searcher::query`] would take: how selective the
    /// filter is under this collection's (perhaps inherited) order, which
    /// the tier-0 window does not decide.
    pub fn filter_candidates(&self, text: &str) -> u64 {
        let (kn, cfg) = (self.engine.knowledge(), self.engine.config());
        let sr = self.session.segment(kn, cfg, text);
        let mut scratch = self.session.checkout(self.index.record_count());
        let (candidates, _) = self.probe_candidates(&sr, &mut scratch);
        self.session.check_in(scratch);
        candidates.len() as u64
    }

    /// Query with a record the caller segmented ([`QuerySession::segment`])
    /// under this engine's configuration and under its knowledge or a
    /// *later* state of the same lineage — what lets a serving layer
    /// segment a query once for this collection and for rows appended
    /// since. Interning only appends: a word the indexed vocabulary never
    /// saw is in no indexed record whichever id it carries, so matches,
    /// order and similarity bits equal [`Searcher::query`]'s on the
    /// query's text.
    ///
    /// A query *is* a probe run — one probe record, the records it
    /// verifies — so it is verified as the join verifies a run: one walk
    /// of the collection's transposed posting index counts the shared
    /// pebble mass of every record of the run
    /// ([`Verifier::verify_run_at_least`], byte-identical to per-pair
    /// calls, tallies included). Which records make the run is decided
    /// first, from prices alone ([`QueryPlan`]): the whole tier-0 window,
    /// or the candidates of a signature probe. Serially, on the caller's
    /// thread, over one pooled scratch — the walk costs less than starting
    /// threads for it, and no lock is held while the query probes or
    /// verifies, so concurrent queries never wait on each other.
    pub fn query_record(&self, sr: &SegRecord) -> SearchOutcome {
        let (engine, prepared) = (&*self.engine, &*self.prepared);
        let mut scratch = self.session.checkout(self.index.record_count());
        let window = Tier0Window::new(sr.tier0(), self.spec.theta - engine.config().eps);
        let (price, keys) = self.price(window, sr, &mut scratch.run);
        let plan = price.plan(sr.n_segments());
        #[cfg(test)]
        let plan = self.forced.unwrap_or(plan);
        scratch.pairs.clear();
        let probe_stats = match plan {
            QueryPlan::Window => {
                let admitted = prepared.tier0.iter().map(|&t| window.admits(t));
                let rows = (0..).zip(admitted).filter(|&(_, a)| a);
                scratch.pairs.extend(rows.map(|(row, _)| (0, row)));
                debug_assert_eq!(scratch.pairs.len() as u64, price.window);
                ProbeStats {
                    processed: 0,
                    compat_rejected: (prepared.len() - scratch.pairs.len()) as u64,
                }
            }
            QueryPlan::Probe => {
                let (candidates, stats) = self.probe_candidates(sr, &mut scratch);
                scratch.pairs.extend(candidates.iter().map(|&row| (0, row)));
                stats
            }
        };
        // Every record of either run is in the window, so a non-empty run
        // has its keys resolved.
        debug_assert!(keys.is_some() || scratch.pairs.is_empty());
        let mut accepted = Vec::new();
        let walked = keys.map_or(0, |keys| {
            Verifier::new(engine.knowledge(), engine.config()).verify_run_at_least(
                keys,
                &scratch.pairs,
                self.spec.theta,
                &mut scratch.run,
                &mut accepted,
            )
        });
        let tiers = scratch.run.take_tally();
        let candidates = scratch.pairs.len() as u64;
        self.session.check_in(scratch);
        SearchOutcome {
            matches: ranked(accepted.iter().map(|&(_, row, sim)| (row, sim)).collect()),
            candidates,
            processed: probe_stats.processed,
            walked,
            compat_rejected: probe_stats.compat_rejected,
            tiers,
            plan,
        }
    }

    /// The filter half of a probe-plan query: the same record → signature
    /// pass the indexed side went through ([`record_signature`]), then the
    /// CSR overlap probe. Returns the candidate rows, ascending.
    pub(crate) fn probe_candidates(
        &self,
        sr: &SegRecord,
        scratch: &mut QueryScratch,
    ) -> (Vec<u32>, ProbeStats) {
        #[cfg(test)]
        PROBES.with(|p| p.set(p.get() + 1));
        let (kn, cfg) = (self.engine.knowledge(), self.engine.config());
        let (choice, distinct) =
            record_signature(kn, cfg, &self.order, &self.spec, sr, &mut scratch.signature);
        // Count distinct-key overlaps between the query signature and every
        // indexed record via the CSR probe; keep records reaching `min(τ,
        // query level, record level)` — the demand both sides can
        // guarantee. The counter travels with the pooled scratch and each
        // probe zeroes only the counts it raised, so per-query work is
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
                tier0: &self.prepared.tier0,
                probe_tier0: sr.tier0(),
                min_sim: self.spec.theta - cfg.eps,
            },
            &mut out,
        );
        (out, stats)
    }

    /// Price a query's two plans ([`QueryPrice`]), with the query's keys
    /// resolved against the collection when the window admits a record:
    /// what either plan's walk then reads.
    pub(crate) fn price<'a>(
        &'a self,
        window: Tier0Window,
        sr: &'a SegRecord,
        run: &mut RunScratch,
    ) -> (QueryPrice, Option<RunKeys<'a>>) {
        let window = self.histogram.admitted(window);
        // Nothing to walk when the window admits no record.
        let side = self.prepared.run_side(&self.transposed);
        let keys = (window > 0).then(|| run.resolve(sr, side));
        let walk = keys.as_ref().map_or(0, RunKeys::walk);
        (QueryPrice { window, walk }, keys)
    }
}

#[cfg(test)]
mod tests {
    use crate::config::SimConfig;
    use crate::engine::{Engine, JoinSpec, QuerySession};
    use crate::error::AuError;
    use crate::knowledge::{Knowledge, KnowledgeBuilder};
    use crate::oracle::brute_force_join;
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
    /// `candidates` are exactly the non-empty rows the tier-0 bound admits
    /// for a non-empty query, a superset of what the index lets through.
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
                    let scanned = engine.scan(&session, &rows, &segmented, &spec).unwrap();
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
                            let n = sq.n_tokens().min(r.n_tokens());
                            let bound = n as f64 / sq.min_partition.max(r.min_partition) as f64;
                            n > 0 && bound >= theta - cfg.eps
                        })
                        .count() as u64;
                    assert_eq!(scanned.candidates, admitted, "θ={theta} q={q:?}");
                    assert_eq!(scanned.compat_rejected, rows.len() as u64 - admitted);
                    assert_eq!(scanned.processed, 0, "a scan reads no postings");
                    assert_eq!(scanned.walked, 0, "a scan walks no postings");
                    if indexed.candidates == 0 {
                        assert_eq!(indexed.walked, 0, "no candidates, no walk");
                    }
                    assert_eq!(searcher.query(q).walked, indexed.walked, "walked repeats");
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

    /// Empty records get the probe's rule in the scan too: neither the
    /// empty query nor a non-empty one matches an empty row, so the scan
    /// agrees with the index on a corpus that holds `""`.
    #[test]
    fn scan_equals_indexed_search_with_empty_records() {
        let lines: Vec<String> = ["", "coffee shop latte", "cafe latte", "", "tea"]
            .map(String::from)
            .into();
        let queries = ["".to_string(), "coffee shop latte".to_string()];
        assert_scan_equals_index(&lines, &queries);
    }

    /// At θ ≤ ε the acceptance threshold θ − ε is ≤ 0: a scan would keep
    /// rows sharing nothing with the query at similarity 0, rows no
    /// searcher ever admits. So both refuse such a θ (every other entry
    /// point: `engine::tests::every_entry_point_rejects_theta_zero`), and
    /// just above ε the two paths agree again.
    #[test]
    fn a_threshold_within_eps_is_refused_and_scan_agrees_with_the_index_above_it() {
        let mut kn = KnowledgeBuilder::new().build();
        let rows = kn.corpus_from_lines(["ab cd", "ef gh"]);
        let engine = Engine::new(kn, SimConfig::default()).expect("valid config");
        let pt = engine.prepare(&rows).expect("prepare");
        let recs: Vec<&SegRecord> = pt.seg_records().iter().map(|r| &**r).collect();
        let session = QuerySession::default();
        let query = session.segment(engine.knowledge(), engine.config(), "qq");
        let eps = engine.config().eps;
        let refused =
            |r: Result<(), AuError>| matches!(r, Err(AuError::InvalidSpec { field: "theta", .. }));
        for theta in [1e-12, eps] {
            let spec = JoinSpec::threshold(theta);
            let scan = engine.scan(&session, &recs, &query, &spec);
            assert!(refused(scan.map(drop)), "θ={theta}: scan");
            assert!(refused(engine.searcher(&pt, &spec).map(drop)), "θ={theta}");
        }
        let spec = JoinSpec::threshold(2.0 * eps);
        let scanned = engine.scan(&session, &recs, &query, &spec).expect("θ > ε");
        let indexed = engine.searcher(&pt, &spec).expect("θ > ε").query("qq");
        assert_eq!(scanned.matches, indexed.matches);
        assert!(
            scanned.matches.is_empty(),
            "nothing shares a key with the query"
        );
    }

    /// The pooled scratch is the only shared mutable state on the read
    /// path: eight threads querying one `Arc`-held `Searcher` — known words,
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
        assert_eq!(searcher.session.pooled(), 1, "serial queries reuse one");
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
        let pooled = searcher.session.pooled();
        assert!((1..=8).contains(&pooled), "{pooled} pooled scratches");
    }

    /// Both plans, forced, over one pooled collection that holds empty
    /// records, a pair related only by a synonym rule ("car" /
    /// "automobile", no shared gram) and one only by the taxonomy
    /// ("latte" / "espresso"): each gives the oracle's brute-force
    /// `(id, sim bits)`, so the two agree, and each tallies exactly its
    /// own candidates, the probe plan's being what `filter_candidates`
    /// reports; an `Arc`-held searcher gives the borrowed one's outcome,
    /// field for field. A query that takes the window plan by its prices
    /// selects no signature and probes nothing, and walks the postings it
    /// was priced with.
    #[test]
    fn both_plans_answer_as_the_oracle_and_the_window_plan_never_probes() {
        use super::{QueryPlan, PROBES};
        use crate::engine::tests::pooled_corpus;
        use crate::index::Tier0Window;
        use crate::usim::RunScratch;
        use std::sync::Arc;
        let mut kb = KnowledgeBuilder::new();
        kb.synonym("car", "automobile", 0.9);
        kb.synonym("coffee shop", "cafe", 1.0);
        kb.taxonomy_path(&["root", "drinks", "coffee", "latte"]);
        kb.taxonomy_path(&["root", "drinks", "coffee", "espresso"]);
        let mut kn = kb.build();
        let pooled = pooled_corpus(&mut kn, 160, 1);
        let mut lines: Vec<String> = pooled.iter().map(|r| r.raw.clone()).collect();
        for (i, extra) in [
            "",
            "car",
            "latte",
            "",
            "automobile",
            "espresso",
            "car latte",
        ]
        .into_iter()
        .enumerate()
        {
            lines.insert(i * 23, extra.to_string());
        }
        let t = kn.corpus_from_lines(lines.iter().map(String::as_str));
        let mut queries: Vec<String> = lines.iter().step_by(11).cloned().collect();
        queries.extend(
            [
                "",
                "automobile",
                "espresso",
                "automobile espresso",
                "zanzibar",
            ]
            .map(String::from),
        );
        let s = kn.corpus_from_lines(queries.iter().map(String::as_str));
        let cfg = SimConfig::default();
        let engine = Arc::new(Engine::new(kn.clone(), cfg).expect("valid config"));
        let pt = Arc::new(engine.prepare(&t).expect("prepare"));
        let bits = |m: &mut Vec<(u32, f64)>| -> Vec<(u32, u64)> {
            m.sort_by_key(|&(r, _)| r);
            m.iter().map(|&(r, s)| (r, s.to_bits())).collect()
        };
        let (mut natural_windows, mut rule_or_node_only) = (0, 0);
        for theta in [0.3, 0.5, 0.8, 0.95] {
            let oracle = brute_force_join(&kn, &cfg, &s, &t, theta);
            let spec = JoinSpec::threshold(theta).au_dp(2);
            let mut searcher = engine.searcher(&pt, &spec).expect("searcher");
            let mut held = Engine::snapshot_searcher(engine.clone(), pt.clone(), &spec).unwrap();
            for (qi, q) in queries.iter().enumerate() {
                // The oracle pairs two empty records at 1; a search never
                // matches an empty row (it carries no key to probe).
                let want: Vec<(u32, u64)> = (oracle.iter())
                    .filter(|&&(a, b, _)| a == qi as u32 && !lines[b as usize].is_empty())
                    .map(|&(_, b, sim)| (b, sim.to_bits()))
                    .collect();
                let mut answers = Vec::new();
                for forced in [QueryPlan::Probe, QueryPlan::Window] {
                    (searcher.forced, held.forced) = (Some(forced), Some(forced));
                    let mut out = searcher.query(q);
                    assert_eq!(answer(&held.query(q)), answer(&out), "θ={theta} {q:?}");
                    assert_eq!(out.plan, forced);
                    assert_eq!(
                        out.tiers.decisions(),
                        out.candidates,
                        "θ={theta} {q:?} {forced:?}"
                    );
                    assert_eq!(bits(&mut out.matches), want, "θ={theta} {q:?} {forced:?}");
                    answers.push(out);
                }
                // The window holds every probe candidate, which the filter
                // reports whatever plan runs.
                assert!(answers[0].candidates <= answers[1].candidates);
                assert_eq!(searcher.filter_candidates(q), answers[0].candidates);
                let row =
                    |line: &str| lines.iter().position(|l| l == line).expect("planted") as u32;
                let partner = match q.as_str() {
                    "automobile" => Some(row("car")),
                    "espresso" => Some(row("latte")),
                    _ => None,
                };
                rule_or_node_only +=
                    usize::from(partner.is_some_and(|p| want.iter().any(|w| w.0 == p)));

                searcher.forced = None;
                let probes = PROBES.with(|p| p.get());
                let out = searcher.query(q);
                let probed = PROBES.with(|p| p.get()) - probes;
                let sr = searcher.session.segment(engine.knowledge(), &cfg, q);
                let window = Tier0Window::new(sr.tier0(), theta - cfg.eps);
                let mut run = RunScratch::default();
                let (price, _) = searcher.price(window, &sr, &mut run);
                assert_eq!(price.plan(sr.n_segments()), out.plan, "θ={theta} {q:?}");
                match out.plan {
                    QueryPlan::Window => {
                        assert_eq!(probed, 0, "θ={theta} {q:?}: a window-plan query probed");
                        assert_eq!((out.candidates, out.walked), (price.window, price.walk));
                        natural_windows += usize::from(out.candidates > 0);
                    }
                    QueryPlan::Probe => assert_eq!(probed, 1),
                }
            }
        }
        assert!(natural_windows > 0, "no query chose a non-empty window");
        assert!(
            rule_or_node_only >= 4,
            "rule-only and node-only matches: {rule_or_node_only}"
        );
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

    /// `(row, similarity bits)` of each match.
    fn bits(m: &[(u32, f64)]) -> Vec<(u32, u64)> {
        m.iter().map(|&(r, s)| (r, s.to_bits())).collect()
    }

    /// Everything a query reports, similarity bits included.
    fn answer(o: &super::SearchOutcome) -> impl PartialEq + std::fmt::Debug {
        let counts = (o.candidates, o.processed, o.walked, o.compat_rejected);
        (bits(&o.matches), counts, o.tiers, o.plan)
    }

    /// 300 generated records over [`WORDS`], seeded by `x`.
    fn generated_lines(mut x: u32) -> Vec<String> {
        let mut word = || {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            WORDS[(x >> 16) as usize % WORDS.len()]
        };
        (0..300)
            .map(|i| (0..2 + i % 4).map(|_| word()).collect::<Vec<_>>().join(" "))
            .collect()
    }

    /// One session's pool serves a searcher's probe and the scans its
    /// caller lends the session to (`au-serve`'s delta): a scratch
    /// [`Engine::scan`] checked out first, its counter sized for 0
    /// records, is the one a probe-plan query over 300 records checks out
    /// next, and the answer is a fresh session's.
    #[test]
    fn a_scan_scratch_in_the_pool_serves_a_probe_plan_query() {
        use super::QueryPlan;
        let lines = generated_lines(0x6a09_e667);
        let mut kn = scan_knowledge();
        let t = kn.corpus_from_lines(lines.iter().map(String::as_str));
        let engine = Engine::new(kn, SimConfig::default()).expect("valid config");
        let pt = engine.prepare(&t).expect("prepare");
        let spec = JoinSpec::threshold(0.6).au_dp(2);
        let q = "coffee shop latte helsinki";
        let mut fresh = engine.searcher(&pt, &spec).expect("searcher");
        fresh.forced = Some(QueryPlan::Probe);
        let want = fresh.query(q);
        assert!(want.candidates > 0 && !want.matches.is_empty());

        let mut searcher = engine.searcher(&pt, &spec).expect("searcher");
        searcher.forced = Some(QueryPlan::Probe);
        let rows: Vec<&SegRecord> = pt.seg_records().iter().map(|r| &**r).collect();
        let query = searcher
            .session
            .segment(engine.knowledge(), engine.config(), q);
        let scanned = engine.scan(&searcher.session, &rows, &query, &spec);
        assert_eq!(bits(&scanned.expect("scan").matches), bits(&want.matches));
        assert_eq!(searcher.session.pooled(), 1, "the scan's scratch rests");
        assert_eq!(answer(&searcher.query(q)), answer(&want));
        assert_eq!(searcher.session.pooled(), 1, "the query took the scan's");
    }

    /// A probe-plan query mixing words the collection never saw with
    /// known ones: its unseen grams take `UNSEEN_RANK` and read no list,
    /// yet stay among the probe's `m` keys, so the τ-skip — and with it
    /// `compat_rejected` — is that of the `PebbleKey` probe it replaced,
    /// whose counts are pinned here (dropping the unseen ranks from the
    /// probe reads 38 rejections, not 44).
    #[test]
    fn a_probe_plan_query_with_unknown_words_has_a_pinned_funnel() {
        use super::QueryPlan;
        let lines = generated_lines(0x51ed_2701);
        let mut kn = scan_knowledge();
        let t = kn.corpus_from_lines(lines.iter().map(String::as_str));
        let engine = Engine::new(kn, SimConfig::default()).expect("valid config");
        let pt = engine.prepare(&t).expect("prepare");
        let mut searcher = engine
            .searcher(&pt, &JoinSpec::threshold(0.6).au_dp(3))
            .expect("searcher");
        searcher.forced = Some(QueryPlan::Probe);
        let out = searcher.query("zanzibar coffee qwertz latte");
        assert_eq!(out.plan, QueryPlan::Probe);
        assert_eq!(
            (out.candidates, out.processed, out.compat_rejected),
            (95, 640, 44)
        );
        assert_eq!(out.tiers.decisions(), out.candidates);
    }
}
