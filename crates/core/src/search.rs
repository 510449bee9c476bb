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
use crate::engine::{relock, JoinSpec};
use crate::index::{tier0_compatible, CompatBound, CsrIndex, OverlapCounter, ProbeStats};
use crate::join::{record_signature, SignatureScratch};
use crate::knowledge::Knowledge;
use crate::pebble::PebbleOrder;
use crate::segment::SegRecord;
use crate::usim::{GramPostingsIndex, RunScratch, Verifier, VerifyTiers};
use std::sync::Mutex;

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

/// What the verification half of a query needs, indexed or scanned.
#[derive(Debug, Clone, Copy)]
pub(crate) struct VerifyEnv<'a> {
    pub kn: &'a Knowledge,
    pub cfg: &'a SimConfig,
    pub theta: f64,
    pub parallel: bool,
    pub pool: &'a Mutex<Vec<RunScratch>>,
}

/// Everything one indexed query evaluation needs, borrowed from the
/// session that owns the artifacts ([`crate::engine::Searcher`]).
#[derive(Debug)]
pub(crate) struct QueryEnv<'a> {
    pub kn: &'a Knowledge,
    pub cfg: &'a SimConfig,
    pub spec: &'a JoinSpec,
    pub segrecs: &'a [SegRecord],
    pub order: &'a PebbleOrder,
    pub levels: &'a [u32],
    pub index: &'a CsrIndex,
    pub transposed: &'a GramPostingsIndex,
    pub counter: &'a Mutex<OverlapCounter>,
    pub pool: &'a Mutex<Vec<RunScratch>>,
    /// Per-record tier-0 integers `(|S|, MP(S))` of the indexed
    /// collection, for the in-probe compatibility bound.
    pub tier0: &'a [(u32, u32)],
}

/// The filter half of an indexed query: the same record → signature pass
/// the indexed side went through ([`record_signature`]), then the CSR
/// overlap probe. Returns the candidate rows, ascending.
pub(crate) fn probe_candidates(env: &QueryEnv<'_>, sr: &SegRecord) -> (Vec<u32>, ProbeStats) {
    let (choice, distinct) = record_signature(
        env.kn,
        env.cfg,
        env.order,
        env.spec,
        sr,
        &mut SignatureScratch::default(),
    );
    // Count distinct-key overlaps between the query signature and every
    // indexed record via the CSR probe; keep records reaching `min(τ,
    // query level, record level)` — the demand both sides can guarantee.
    // The epoch-stamped counter is shared across queries (its whole point
    // is O(1) reuse), so per-query work is proportional to the postings
    // touched, never to the collection size.
    let mut ctr = relock(env.counter);
    let mut out = Vec::new();
    let stats = ctr.probe(
        env.index,
        &distinct,
        choice.level,
        env.spec.filter.tau(),
        env.levels,
        None,
        &CompatBound {
            tier0: env.tier0,
            probe_tier0: (sr.n_tokens() as u32, sr.min_partition),
            min_sim: env.spec.theta - env.cfg.eps,
        },
        &mut out,
    );
    (out, stats)
}

/// One query against a prepared collection. A query *is* a probe run — one
/// probe record, its candidates — so it is verified as the join verifies a
/// run: one walk of the collection's transposed posting index counts every
/// candidate's shared pebble mass ([`Verifier::verify_run_at_least`],
/// byte-identical to per-pair calls, tallies included). Serially, on the
/// caller's thread, over a pooled scratch: the walk costs less than
/// starting threads for it.
pub(crate) fn run_query(env: &QueryEnv<'_>, sr: &SegRecord) -> SearchOutcome {
    let (candidates, probe_stats) = probe_candidates(env, sr);
    let run: Vec<(u32, u32)> = candidates.iter().map(|&row| (0, row)).collect();
    let mut accepted = Vec::new();
    let mut scratch = relock(env.pool).pop().unwrap_or_default();
    Verifier::new(env.kn, env.cfg).verify_run_at_least(
        sr,
        env.segrecs,
        &run,
        env.transposed,
        env.spec.theta,
        &mut scratch,
        &mut accepted,
    );
    let tiers = scratch.take_tally();
    relock(env.pool).push(scratch);
    SearchOutcome {
        matches: ranked(accepted.iter().map(|&(_, row, sim)| (row, sim)).collect()),
        candidates: candidates.len() as u64,
        processed: probe_stats.processed,
        compat_rejected: probe_stats.compat_rejected,
        tiers,
    }
}

/// One query against `rows` with no filter at all: every row whose tier-0
/// bound can still reach θ is a candidate, and [`verify_rows`] — the
/// per-pair form of the verification the indexed path ends in — decides
/// it. Similarity is a pure function of the pair, so `matches` equal
/// [`run_query`]'s over the same records bit for bit (the index only ever
/// *removes* non-matches); the price is verification work linear in
/// `rows.len()`, which is why this serves small append-only segments and
/// nothing else.
pub(crate) fn run_scan(env: &VerifyEnv<'_>, rows: &[&SegRecord], sr: &SegRecord) -> SearchOutcome {
    let probe_tier0 = (sr.n_tokens() as u32, sr.min_partition);
    let candidates: Vec<u32> = (0..rows.len() as u32)
        .filter(|&i| {
            let row = rows[i as usize];
            let tier0 = (row.n_tokens() as u32, row.min_partition);
            tier0_compatible(probe_tier0, tier0, env.theta - env.cfg.eps)
        })
        .collect();
    let (matches, tiers) = verify_rows(env, sr, &candidates, |i| rows[i as usize]);
    SearchOutcome {
        matches,
        candidates: candidates.len() as u64,
        processed: 0,
        compat_rejected: (rows.len() - candidates.len()) as u64,
        tiers,
    }
}

/// Accepted `(row, similarity)` pairs under the global contract:
/// descending similarity, ties by ascending row.
fn ranked(mut matches: Vec<(u32, f64)>) -> Vec<(u32, f64)> {
    matches.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    matches
}

/// Verification of loose rows no corpus-level index covers: the *query*
/// is the probe record of every candidate, so one probe-grouped run of the
/// joins' cascade engine covers the whole list and the probe-side posting
/// view is built once per worker fragment. Scratches come from the
/// session's pool — buffers grown by one query serve the next (workers
/// check them out in `init` and return them, tally taken, in `drain`), and
/// the pool lock is never held during verification. Returns the [`ranked`]
/// matches and the tier tally; deterministic whatever the thread count.
pub(crate) fn verify_rows<'r>(
    env: &VerifyEnv<'_>,
    sr: &SegRecord,
    candidates: &[u32],
    rec: impl Fn(u32) -> &'r SegRecord + Sync,
) -> (Vec<(u32, f64)>, VerifyTiers) {
    let VerifyEnv {
        kn,
        cfg,
        theta,
        parallel,
        pool,
    } = *env;
    let engine = Verifier::new(kn, cfg);
    let tally = Mutex::new(VerifyTiers::default());
    let matches: Vec<(u32, f64)> = crate::parallel::par_filter_map_runs_scratch(
        candidates,
        parallel,
        |_| 0,
        || relock(pool).pop().unwrap_or_default(),
        |rs: &mut RunScratch, _| engine.begin_probe(sr, &mut rs.verify),
        |rs, &rid| {
            let sim = engine.probed_sim_at_least(sr, rec(rid), theta, &mut rs.verify);
            (sim >= theta - cfg.eps).then_some((rid, sim))
        },
        |rs| {
            relock(&tally).merge(&rs.take_tally());
            relock(pool).push(std::mem::take(rs));
        },
    );
    let tiers = *relock(&tally);
    (ranked(matches), tiers)
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
        let rows: Vec<&SegRecord> = pt.seg_records().iter().collect();
        for theta in [0.5, 0.7, 0.9] {
            for parallel in [false, true] {
                let spec = JoinSpec::threshold(theta).au_dp(2).parallel(parallel);
                let searcher = engine.searcher(&pt, &spec).expect("searcher");
                let session = QuerySession::default();
                for (qi, q) in queries.iter().enumerate() {
                    let indexed = searcher.query(q);
                    let scanned = engine.scan(&session, &rows, q, &spec);
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
