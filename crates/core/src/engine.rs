//! The unified session API: one engine, one prepared artifact.
//!
//! The paper's whole point is that threshold joins, top-k joins and online
//! search all run on the *same* USIM signatures and U-/AU-Filters, so the
//! public surface is one pipeline with one options type ([`JoinSpec`],
//! `spec.rs`) and one prepared artifact ([`Prepared`], `prepared.rs`, with
//! its memo of orders, signatures and CSR indexes keyed by
//! `(order, θ, filter)`). Each operation lives beside the stage module it
//! drives:
//!
//! ```text
//! Engine (Knowledge + SimConfig, validated once)             engine.rs
//!   ├─ prepare / merge_prepared → Prepared  (stage 1)        engine.rs
//!   ├─ join / join_self / join_sink  (threshold, streaming)  engine.rs
//!   ├─ join_sharded / join_self_sharded (plans its shards)  shard.rs
//!   ├─ topk / topk_self              (threshold descent)     topk.rs
//!   ├─ searcher(..).query(..) / scan (online search, no &mut) search.rs
//!   ├─ filter_counts / calibrate     (Eq. 15–17)             estimate.rs
//!   └─ suggest_tau                   (Algorithm 7)           suggest.rs
//! ```
//!
//! Stages 2–3 and the CSR fetch are `candidate_pass` here; every join —
//! monolithic (`join_run`) or a shard-pair task of a sharded one — runs
//! stages 4–5 as one pass per probe record (`verify_pass`: each record's
//! candidates are verified on the worker that probed them, so no
//! candidate list exists), and [`Engine::calibrate`] times that same
//! pass; `count_run`, behind [`Engine::filter_counts`] and
//! [`Engine::suggest_tau`], only counts the candidates. Pebble lists are
//! never resident: a record's pebbles exist only inside the pass that
//! selects its signature ([`crate::join::record_signature`]). Output
//! bytes are pinned by `tests/determinism_pin.rs`; completeness is
//! checked against [`crate::oracle`] throughout the test suites.
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
use crate::estimate::FilterCounts;
use crate::index::tier0_upper_bound;
use crate::join::{
    CandidatePass, CompatCtx, JoinResult, JoinStats, PassTotals, ProbeFloor, RunTotals,
};
use crate::knowledge::Knowledge;
use crate::pebble::DocFreqs;
pub use crate::prepared::Prepared;
use crate::prepared::{OrderKey, SigKey};
pub use crate::search::{QuerySession, Searcher, SnapshotSearcher};
use crate::segment::{segment_record, SegRecord};
pub use crate::spec::JoinSpec;
use crate::usim::{usim_approx_seg, RunSide, Verifier};
use au_text::record::Corpus;
use au_text::TokenId;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

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
/// rebuild would produce byte-for-byte, and the searcher overlay is a
/// lookup-or-append interner. A panic on another thread while holding
/// one of these locks therefore cannot leave state a later reader must
/// not observe — at worst an entry is missing and gets rebuilt — so the
/// poison flag is cleared and the guard handed out. This keeps
/// `unwrap`/`expect` out of the public engine paths (the `P` lint): a
/// long-lived service survives a stray panic in one request instead of
/// unwinding every later caller.
pub(crate) fn relock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Probe records per block of the streaming sink paths — bounds the
/// materialized result memory to one block's accepted pairs while each
/// block stays long enough for the parallel pass to balance.
const SINK_BLOCK: usize = 512;

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
    pub(crate) kn: Knowledge,
    pub(crate) cfg: SimConfig,
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
    /// [`Engine::suggest_tau`] and result rendering need the records), so
    /// `prepare(&c)` costs one deep corpus clone that this variant avoids.
    pub fn prepare_owned(&self, corpus: Corpus) -> Result<Prepared, AuError> {
        self.check_tokens(&corpus)?;
        Ok(self.prepare_trusted(corpus))
    }

    /// Every token of `corpus` must be an id of this engine's vocabulary.
    pub(crate) fn check_tokens(&self, corpus: &Corpus) -> Result<(), AuError> {
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
    /// vocabulary ([`Engine::prepare_owned`] and the sharded joins' plan
    /// check; Bernoulli samples of an already-prepared corpus and shards
    /// of an already-checked one need no re-check).
    pub(crate) fn prepare_trusted(&self, corpus: Corpus) -> Prepared {
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
        // A pass of its own: row headers allocated back to back keep a warm
        // join ≈ 2–6 % and a query ≈ 10 % cheaper than interleaved ones
        // (DESIGN.md).
        let segrecs = segrecs.into_iter().map(Arc::new).collect();
        let df = df
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        Prepared::new(self.kn.generation(), self.cfg, corpus, segrecs, df, start)
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
    /// trusted ([`PebbleOrder::age`](crate::pebble::PebbleOrder::age)): that order, and per signature
    /// set `base` holds under it the carried rows' signatures copied and
    /// only the appended rows selected — bit for bit
    /// [`SelectedSignatures::select`](crate::join::SelectedSignatures::select) over all merged rows under that
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
            self.check_ids(sr.tokens())?;
            df.count_record(&self.kn, sr, &mut keys);
            corpus.push_tokens(sr.tokens().to_vec(), raw.to_string());
            segrecs.push(sr.clone());
        }
        let merged = Prepared::new(self.kn.generation(), self.cfg, corpus, segrecs, df, start);
        self.inherit_memo(base, dropped_rows, &merged);
        Ok(merged)
    }

    /// Artifact guard: the knowledge generation must match
    /// ([`AuError::StaleKnowledge`]) and so must the configuration —
    /// generations are shared by un-mutated [`Knowledge`] clones, so two
    /// engines over the same knowledge but different [`SimConfig`]s would
    /// otherwise accept each other's (config-dependent) artifacts.
    pub(crate) fn check_stamp(&self, gen: u64, cfg: &SimConfig) -> Result<(), AuError> {
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

    pub(crate) fn check(&self, p: &Prepared) -> Result<(), AuError> {
        self.check_stamp(p.gen, &p.cfg)
    }

    // -- pipeline stages ----------------------------------------------------

    /// Stages 2–3 on prepared state, plus the indexed side's CSR index:
    /// stage 4 ready to run with any consumer. The returned stats carry
    /// the signature time, the index fetch as filter time and the mean
    /// signature lengths; the pass adds its funnel and the rest.
    pub(crate) fn candidate_pass<'a>(
        &self,
        s: &'a Prepared,
        t: &'a Prepared,
        self_join: bool,
        spec: &JoinSpec,
    ) -> (CandidatePass<'a>, JoinStats) {
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
        let index = self.csr(t, SigKey::new(key_t, spec), &sel_t);
        let stats = JoinStats {
            sig_time,
            filter_time: filter_start.elapsed(),
            avg_sig_len_s: sel_s.record_keys.avg_sig_len(),
            avg_sig_len_t: sel_t.record_keys.avg_sig_len(),
            ..JoinStats::default()
        };
        let pass = CandidatePass {
            s: sel_s,
            indexed: sel_t,
            index,
            floor: self_join.then_some(ProbeFloor::Own),
            tau: spec.filter.tau(),
            ctx: CompatCtx {
                tier0_s: &s.tier0,
                tier0_t: &t.tier0,
                min_sim: spec.theta - self.cfg.eps,
            },
        };
        (pass, stats)
    }

    /// Stages 2–4 with the count consumer: the serial R×S funnel `T′τ` /
    /// `V′τ` of the Bernoulli estimator (Eq. 17), and no candidate list.
    pub(crate) fn count_run(&self, s: &Prepared, t: &Prepared, spec: &JoinSpec) -> FilterCounts {
        let (pass, _) = self.candidate_pass(s, t, false, spec);
        let (_, totals) = pass.count(spec.parallel);
        FilterCounts {
            processed: totals.probe.processed,
            candidates: totals.candidates,
        }
    }

    /// Stages 2–5 on prepared state, with accepted pairs handed to `sink`
    /// ([`Engine::verify_pass`]), walking `t`'s memoized transposed
    /// posting index ([`Prepared::transposed`]) — fetched once, and not
    /// at all when no probe can hit (an empty probe side or CSR index).
    pub(crate) fn join_run(
        &self,
        s: &Prepared,
        t: &Prepared,
        self_join: bool,
        spec: &JoinSpec,
        block: usize,
        sink: impl FnMut(u32, u32, f64),
    ) -> JoinStats {
        let (pass, mut stats) = self.candidate_pass(s, t, self_join, spec);
        if pass.is_empty() {
            return stats;
        }
        let start = Instant::now();
        let index = t.transposed(spec.parallel);
        stats.verify_time += start.elapsed();
        let side = t.run_side(&index);
        self.verify_pass(&pass, &s.segrecs, side, spec, block, &mut stats, sink);
        stats
    }

    /// Stages 4–5 of `pass` — its probe side's records `s` against `side`
    /// — as the verify consumer over blocks of at most `block` probe
    /// records, so at most one block's results and no candidate list are
    /// ever materialized; accepted pairs go to `sink` in `(s, t)` order.
    /// Adds the pass's probe / verify time split, funnel, tier buckets,
    /// walked postings and results to `stats`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn verify_pass(
        &self,
        pass: &CandidatePass<'_>,
        s: &[Arc<SegRecord>],
        side: RunSide<'_>,
        spec: &JoinSpec,
        block: usize,
        stats: &mut JoinStats,
        mut sink: impl FnMut(u32, u32, f64),
    ) {
        let start = Instant::now();
        let verifier = Verifier::new(&self.kn, &self.cfg);
        let verified = Mutex::new(RunTotals::default());
        let mut totals = PassTotals::default();
        let n = pass.s.len();
        for lo in (0..n).step_by(block.max(1)) {
            let hi = lo.saturating_add(block).min(n);
            let (accepted, run) = pass.verify(
                lo as u32..hi as u32,
                spec.parallel,
                &verifier,
                s,
                side,
                spec.theta,
                &verified,
            );
            totals.merge(&run);
            for (a, b, sim) in accepted.into_iter().flatten() {
                stats.result_count += 1;
                sink(a, b, sim);
            }
        }
        let (probing, verifying) = totals.split(start.elapsed());
        stats.filter_time += probing;
        stats.verify_time += verifying;
        stats.processed_pairs += totals.probe.processed;
        stats.candidates += totals.candidates;
        stats.compat_rejected += totals.probe.compat_rejected;
        let verified = *relock(&verified);
        stats.tiers.merge(&verified.tiers);
        stats.walked += verified.walked;
        debug_assert_eq!(stats.tiers.decisions(), stats.candidates);
    }

    /// [`Engine::join_run`] materializing the whole result: the whole
    /// probe side is one block.
    pub(crate) fn join_full(
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
        spec.validate_threshold(self.cfg.eps)?;
        Ok(self.join_full(s, t, false, spec))
    }

    /// Threshold self-join (pairs reported with `s < t`).
    pub fn join_self(&self, c: &Prepared, spec: &JoinSpec) -> Result<JoinResult, AuError> {
        self.check(c)?;
        spec.validate_threshold(self.cfg.eps)?;
        Ok(self.join_full(c, c, true, spec))
    }

    /// Streaming threshold R×S join: accepted pairs are emitted to `sink`
    /// in deterministic `(s, t)` order as each block of probe records is
    /// probed and verified, instead of materializing one `Vec` of results.
    /// Returns the run's statistics only.
    pub fn join_sink(
        &self,
        s: &Prepared,
        t: &Prepared,
        spec: &JoinSpec,
        sink: impl FnMut(u32, u32, f64),
    ) -> Result<JoinStats, AuError> {
        self.check(s)?;
        self.check(t)?;
        spec.validate_threshold(self.cfg.eps)?;
        Ok(self.join_run(s, t, false, spec, SINK_BLOCK, sink))
    }

    /// Streaming threshold self-join (see [`Engine::join_sink`]).
    pub fn join_self_sink(
        &self,
        c: &Prepared,
        spec: &JoinSpec,
        sink: impl FnMut(u32, u32, f64),
    ) -> Result<JoinStats, AuError> {
        self.check(c)?;
        spec.validate_threshold(self.cfg.eps)?;
        Ok(self.join_run(c, c, true, spec, SINK_BLOCK, sink))
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

    /// The tier-0 record-level bound
    /// `USIM ≤ min(|S|,|T|) / max(MP(S),MP(T))` from the cached integers
    /// ([`crate::index`]'s in-probe compatibility formula) — O(1), no
    /// segment-pair work; useful as a cheap pre-screen.
    pub fn usim_upper_bound(
        &self,
        s: &Prepared,
        a: u32,
        t: &Prepared,
        b: u32,
    ) -> Result<f64, AuError> {
        self.check(s)?;
        self.check(t)?;
        let tier0 = |p: &Prepared, id: u32| {
            let len = p.len();
            p.tier0
                .get(id as usize)
                .copied()
                .ok_or(AuError::RecordOutOfBounds { id, len })
        };
        let ((ns, mps), (nt, mpt)) = (tier0(s, a)?, tier0(t, b)?);
        Ok(tier0_upper_bound(ns, mps, nt, mpt))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::knowledge::KnowledgeBuilder;
    use crate::oracle::brute_force_join;
    use crate::prepared::tests::assert_memo_coherent;
    use crate::search::SearchOutcome;
    use crate::segment::segment_stats;
    use crate::shard::{ShardSpec, ShardStats};
    use crate::usim::{Verifier, VerifyScratch, VerifyTiers};

    pub(crate) fn setup() -> (Knowledge, Corpus, Corpus) {
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
        // One order, a signature set per side, the indexed side's CSR and
        // its transposed index, which stage 5 walks — and no per-order
        // pebble list beside them.
        let misses_after_first = ps.memo_misses() + pt.memo_misses();
        assert_eq!(misses_after_first, 5);
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
    }

    /// θ = 0 would admit pairs sharing no key, which no probe finds, so
    /// every threshold entry point refuses it — the filterless scan too,
    /// which would otherwise answer with rows the indexed search never
    /// admits.
    /// θ = 0, and any θ ≤ ε: the acceptance threshold θ − ε is ≤ 0, so
    /// pairs sharing no key would qualify — a typed error at every
    /// threshold entry point, and the smallest θ past ε is a threshold
    /// like any other.
    #[test]
    fn every_entry_point_rejects_theta_zero() {
        use crate::estimate::CostModel;
        use crate::suggest::SuggestConfig;
        let (kn, s, t) = setup();
        let engine = Engine::new(kn, SimConfig::default()).unwrap();
        let (ps, pt) = (engine.prepare(&s).unwrap(), engine.prepare(&t).unwrap());
        let eps = engine.config().eps;
        let is_theta =
            |r: Result<(), AuError>| matches!(r, Err(AuError::InvalidSpec { field: "theta", .. }));
        let shards = ShardSpec::auto().with_shards(2);
        let session = QuerySession::default();
        let query = session.segment(engine.knowledge(), engine.config(), "cafe latte");
        let rows: Vec<&SegRecord> = pt.seg_records().iter().map(|r| &**r).collect();
        let model = CostModel {
            c_f: 5e-8,
            c_v: 5e-6,
        };
        for theta in [0.0, f64::MIN_POSITIVE, 1e-12, eps] {
            let zero = JoinSpec::threshold(theta);
            let filter = zero.filter_kind();
            let entry_points = [
                is_theta(engine.join(&ps, &pt, &zero).map(drop)),
                is_theta(engine.join_self(&ps, &zero).map(drop)),
                is_theta(engine.join_sink(&ps, &pt, &zero, |_, _, _| {}).map(drop)),
                is_theta(engine.join_self_sink(&ps, &zero, |_, _, _| {}).map(drop)),
                is_theta(engine.join_sharded(&s, &s, &shards, &zero).map(drop)),
                is_theta(engine.join_self_sharded(&s, &shards, &zero).map(drop)),
                is_theta(engine.filter_counts(&ps, &pt, theta, filter).map(drop)),
                is_theta(engine.calibrate(&ps, &pt, theta, filter).map(drop)),
                is_theta(
                    engine
                        .suggest_tau(&ps, &pt, theta, &model, &SuggestConfig::default())
                        .map(drop),
                ),
                is_theta(engine.searcher(&pt, &zero).map(drop)),
                is_theta(
                    Engine::snapshot_searcher(
                        Arc::new(
                            Engine::new(engine.knowledge().clone(), SimConfig::default()).unwrap(),
                        ),
                        Arc::new(engine.prepare(&t).unwrap()),
                        &zero,
                    )
                    .map(drop),
                ),
                is_theta(engine.scan(&session, &rows, &query, &zero).map(drop)),
            ];
            for (i, rejected) in entry_points.into_iter().enumerate() {
                assert!(rejected, "entry point {i} accepted θ = {theta}");
            }
        }
        let tiny = JoinSpec::threshold(eps.next_up());
        assert!(engine.scan(&session, &rows, &query, &tiny).is_ok());
        assert!(engine.join(&ps, &pt, &tiny).is_ok());
    }

    #[test]
    fn clear_memo_reclaims_artifacts_and_rebuilds_lazily() {
        let (kn, s, t) = setup();
        let engine = Engine::new(kn, SimConfig::default()).unwrap();
        let mut ps = engine.prepare(&s).unwrap();
        let mut pt = engine.prepare(&t).unwrap();
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
    pub(crate) fn pooled_corpus(kn: &mut Knowledge, n: usize, salt: usize) -> Corpus {
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
        assert!(fanned
            .segrecs
            .iter()
            .any(|sr| !sr.rule_postings().is_empty()));
        assert!(fanned.segrecs.iter().any(|sr| !sr.node_segs().is_empty()));
    }

    /// The words `merge_lines` draws from; the last two are in no base
    /// record, so an appended row can carry a token interned after the
    /// base was prepared.
    pub(crate) const MERGE_WORDS: [&str; 12] = [
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
            live.push_tokens(sr.tokens().to_vec(), raw.to_string());
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
            assert_eq!(m.stats.tiers, f.stats.tiers, "all four buckets");
            assert_eq!(m.stats.tiers.decisions(), m.stats.candidates);
            let (sm, sf) = (
                engine.searcher(&merged, &spec).unwrap(),
                engine.searcher(&fresh, &spec).unwrap(),
            );
            for q in base.iter().chain(appended).take(6) {
                let (a, b) = (sm.query(q), sf.query(q));
                assert_eq!(hit_bits(&a), hit_bits(&b), "{q:?}");
                assert_eq!(
                    (
                        a.candidates,
                        a.processed,
                        a.walked,
                        a.compat_rejected,
                        a.tiers
                    ),
                    (
                        b.candidates,
                        b.processed,
                        b.walked,
                        b.compat_rejected,
                        b.tiers
                    ),
                    "{q:?}"
                );
            }
        }
    }

    /// `n` lines of 1–4 words off `MERGE_WORDS[..pool]`, deterministic in
    /// `salt`.
    pub(crate) fn merge_lines(n: usize, pool: usize, salt: usize) -> Vec<String> {
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

    pub(crate) fn pair_bits(pairs: &[(u32, u32, f64)]) -> Vec<(u32, u32, u64)> {
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
        let mut merged = engine
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
                    (
                        a.candidates,
                        a.processed,
                        a.walked,
                        a.compat_rejected,
                        a.tiers
                    ),
                    (
                        b.candidates,
                        b.processed,
                        b.walked,
                        b.compat_rejected,
                        b.tiers
                    ),
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

    /// And for real: readers build searchers over a merged artifact at the
    /// same time, so concurrent builds race to file one selection under
    /// the inherited order. Every answer must be the brute force one, and
    /// whatever is resident afterwards coherent.
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
            });
            assert_memo_coherent(engine, merged);
        }
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
            let searcher = engine.searcher(&pt, &spec).unwrap();
            let core = &searcher.core;
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
    fn block_boundaries_move_no_pair_and_no_tier_tally() {
        // The sink probes and verifies in blocks of probe records that
        // share one corpus-level index; a block boundary must move neither
        // a pair, a similarity bit, a funnel counter nor a tier counter.
        let mut kn = KnowledgeBuilder::new().build();
        let (s, t) = (pooled_corpus(&mut kn, 90, 0), pooled_corpus(&mut kn, 90, 3));
        let engine = Engine::new(kn, SimConfig::default()).unwrap();
        let ps = engine.prepare(&s).unwrap();
        let pt = engine.prepare(&t).unwrap();
        let funnel = |st: &JoinStats| (st.candidates, st.processed_pairs, st.compat_rejected);
        for parallel in [false, true] {
            let spec = JoinSpec::threshold(0.7).au_dp(2).parallel(parallel);
            let whole = engine.join_full(&ps, &pt, false, &spec);
            // Enough candidates that the shared verification index is built.
            assert!(whole.stats.candidates >= 2048 && !whole.pairs.is_empty());
            assert!(whole.stats.tiers.mass_rejects > 0);
            for block in [1, 7, 100] {
                let mut pairs = Vec::new();
                let stats = engine.join_run(&ps, &pt, false, &spec, block, |a, b, sim| {
                    pairs.push((a, b, sim))
                });
                assert_eq!(pairs, whole.pairs, "block {block} parallel={parallel}");
                assert_eq!(stats.tiers, whole.stats.tiers, "block {block}");
                assert_eq!(funnel(&stats), funnel(&whole.stats), "block {block}");
            }
        }
    }

    /// A query is verified as one run of the transposed index; per-pair
    /// verification (what a scan does) of the *same* run — the one the
    /// query's plan chose: the probe's candidates, or every record of the
    /// tier-0 window — must agree in rows, order, similarity bits and in
    /// every tier bucket. Each query runs under its own plan and under
    /// each plan forced. Covers queries with out-of-vocabulary words
    /// (overlay ids no posting table has seen), the empty query, an empty
    /// collection, and — the mass counters are shrunk under test — runs
    /// counted in several chunks.
    #[test]
    fn query_run_walk_equals_per_pair_verification_of_its_candidates() {
        use crate::index::Tier0Window;
        use crate::search::QueryPlan;
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
            let mut searcher = engine.searcher(&pt, &spec).unwrap();
            let verifier = Verifier::new(&engine.kn, &engine.cfg);
            let (mut most, mut seen) = (0usize, VerifyTiers::default());
            for forced in [None, Some(QueryPlan::Probe), Some(QueryPlan::Window)] {
                searcher.core.forced = forced;
                let core = &searcher.core;
                for q in queries {
                    let sr = core.session.segment(&engine.kn, &engine.cfg, q);
                    let walked = searcher.query(q);
                    assert!(forced.is_none_or(|p| p == walked.plan), "{forced:?}");
                    let run: Vec<u32> = match walked.plan {
                        QueryPlan::Probe => {
                            let mut scratch = core.session.checkout(pt.len());
                            let (candidates, _) =
                                core.probe_candidates(&engine, &pt, &sr, &mut scratch);
                            core.session.check_in(scratch);
                            candidates
                        }
                        QueryPlan::Window => {
                            let window = Tier0Window::new(sr.tier0(), theta - engine.cfg.eps);
                            (0..pt.len() as u32)
                                .filter(|&r| window.admits(pt.tier0[r as usize]))
                                .collect()
                        }
                    };
                    let mut per_pair = VerifyScratch::default();
                    let mut matches: Vec<(u32, f64)> = run
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
                    let at = format!("θ={theta} q={q:?} {:?}", walked.plan);
                    assert_eq!(bits(&walked.matches), bits(&matches), "{at}");
                    assert_eq!(walked.tiers, per_pair.take_tally(), "{at}");
                    assert_eq!(walked.candidates, run.len() as u64, "{at}");
                    assert_eq!(walked.tiers.decisions(), walked.candidates);
                    assert_eq!(walked.tiers.accepted, walked.matches.len() as u64);
                    most = most.max(run.len() * sr.n_segments());
                    seen.merge(&walked.tiers);
                }
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
        let shards = ShardSpec::auto().with_shards(2);
        // The plan's lean pass computes the tier-0 integers a full prepare
        // caches.
        let lean: Vec<(u32, u32)> = (s.iter())
            .map(|r| segment_stats(&engine.kn, &engine.cfg, &r.tokens))
            .collect();
        assert_eq!(lean, ps.tier0);
        let plan = engine.plan_shards(&s, &shards).unwrap();
        assert_eq!(plan.shard_count(), 2);
        assert_eq!(plan.record_count(), s.len());
        let spec = JoinSpec::threshold(0.6);
        let mono = engine.join_self(&ps, &spec).unwrap();
        let lazy = engine.join_self_sharded(&s, &shards, &spec).unwrap();
        assert_eq!(mono.pairs, lazy.pairs);
        assert_eq!(lazy.stats.shard.shards, 2);
        assert!(lazy.stats.shard.builds >= 1);
        assert!(lazy.stats.shard.peak_bytes > 0);
        assert_eq!(mono.stats.shard, ShardStats::default());
        let rs = engine.join_sharded(&s, &s, &shards, &spec).unwrap();
        let mono_rs = engine.join(&ps, &ps, &spec).unwrap();
        assert_eq!(mono_rs.pairs, rs.pairs);
        assert_eq!(rs.stats.shard.shards, 4);
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
            let lazy = engine.join_self_sharded(&c, &sspec, &spec).unwrap();
            assert_eq!(lazy.pairs, mono_self.pairs, "cap {cap}");
            assert_eq!(lazy.stats.shard.most_resident, cap, "self, cap {cap}");
            // R×S: the band is a full `cap` wide and T streams beside it.
            let lazy = engine.join_sharded(&c, &c, &sspec, &spec).unwrap();
            assert_eq!(lazy.pairs, mono_rs.pairs, "cap {cap}");
            let resident = lazy.stats.shard.most_resident;
            assert_eq!(resident, cap + 1, "R×S, cap {cap}");
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
