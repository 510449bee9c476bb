//! Production-verifier-vs-reference equivalence under a pinned
//! `AU_THREADS` override: a join's fused pass — each probe record's run
//! verified on the worker that probed it, walking a transposed posting
//! index built on the pinned workers — must equal
//! `au_core::oracle::verify_candidates_reference` over the filter
//! oracle's candidate set, serial and parallel.
//!
//! `au_core::parallel::available_threads` reads `AU_THREADS` once per
//! process, so this check lives in its own integration-test binary: the
//! single test below sets the variable before any parallel code runs,
//! guaranteeing the override is what the work-stealing layer sees. On
//! multi-core hosts this exercises true 3-worker scheduling of whole
//! probe runs, one heavy run among them; on single-core CI it still pins
//! the worker count deterministically. The same pin cuts the transposed posting
//! index's gram table into ranges built on three workers
//! (`GramPostingsIndex::build`); queries verified through it must equal a
//! per-pair scan that never touches it.

#[path = "common/runs.rs"]
mod runs;

use au_join::core::engine::QuerySession;
use au_join::core::oracle::{candidate_definition, verify_candidates_reference, FilterSide};
use au_join::core::segment::SegRecord;
use au_join::core::signature::FilterKind;
use au_join::datagen::{DatasetProfile, LabeledDataset};
use au_join::prelude::*;
use runs::verify_runs;

fn bits(pairs: &[(u32, u32, f64)]) -> Vec<(u32, u32, u64)> {
    (pairs.iter())
        .map(|&(a, b, sim)| (a, b, sim.to_bits()))
        .collect()
}

/// The R×S join of `s` and `t` at θ, serial and parallel, against the
/// reference over the filter oracle's candidates: identical pairs and
/// similarity bits, identical tier buckets partitioning the candidates.
/// Returns the oracle's candidates.
fn join_matches_reference(
    kn: &Knowledge,
    s: &Corpus,
    t: &Corpus,
    theta: f64,
    filter: FilterKind,
) -> Vec<(u32, u32)> {
    let cfg = SimConfig::default();
    let engine = Engine::new(kn.clone(), cfg).expect("engine");
    let ps = engine.prepare(s).expect("prepare S");
    let pt = engine.prepare(t).expect("prepare T");
    let (sp, tp) = (ps.seg_records(), pt.seg_records());
    let spec = JoinSpec::threshold(theta).filter(filter);
    let (fs, ft) = FilterSide::pair(kn, &cfg, sp, Some(tp), &spec);
    let cands = candidate_definition(&fs, ft.as_ref(), filter.tau(), theta - cfg.eps).candidates;
    let reference = verify_candidates_reference(kn, &cfg, sp, tp, &cands, theta, true);
    let serial = engine.join(&ps, &pt, &spec.serial()).expect("join");
    let parallel = engine.join(&ps, &pt, &spec).expect("join");
    assert_eq!(bits(&serial.pairs), bits(&parallel.pairs), "θ={theta}");
    assert_eq!(bits(&parallel.pairs), bits(&reference), "θ={theta}");
    // Tier counters are pure per-candidate functions — all four
    // buckets identical under any worker count.
    assert_eq!(serial.stats.tiers, parallel.stats.tiers, "θ={theta}");
    assert_eq!(serial.stats.tiers.decisions(), cands.len() as u64);
    cands
}

#[test]
fn grouped_verify_is_byte_identical_with_pinned_workers() {
    // Before any call into au-core: pin the worker count.
    std::env::set_var("AU_THREADS", "3");
    assert_eq!(au_join::core::parallel::available_threads(), 3);

    let mut profile = DatasetProfile::med_like(0.05);
    profile.taxonomy_nodes = 250;
    profile.synonym_rules = 120;
    let ds = LabeledDataset::generate(&profile, 220, 220, 60, 17);
    let cfg = SimConfig::default();
    for theta in [0.6, 0.9] {
        join_matches_reference(&ds.kn, &ds.s, &ds.t, theta, FilterKind::UFilter);
    }

    // A join dominated by one probe record: 300 records of pseudo-random
    // five-letter words against 300 more plus 200 copies of S record 0,
    // so record 0's run is far longer than a worker's fair share of the
    // candidates (`len / (threads × 8)`, where a run-cutting planner
    // would split it), and there are enough probe records for the pass
    // to fan out: the run stays whole on one worker, and the output is
    // still the serial and reference one.
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut line = || {
        let mut word = || -> String {
            (0..5)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    (b'a' + (state >> 33) as u8 % 26) as char
                })
                .collect()
        };
        (0..4).map(|_| word()).collect::<Vec<_>>().join(" ")
    };
    let s_lines: Vec<String> = (0..300).map(|_| line()).collect();
    let t_lines: Vec<String> = (0..300)
        .map(|_| line())
        .chain((0..200).map(|_| s_lines[0].clone()))
        .collect();
    let mut kn = KnowledgeBuilder::new().build();
    let s = kn.corpus_from_lines(s_lines.iter().map(String::as_str));
    let t = kn.corpus_from_lines(t_lines.iter().map(String::as_str));
    let cands = join_matches_reference(&kn, &s, &t, 0.9, FilterKind::UFilter);
    let run = cands.iter().filter(|&&(a, _)| a == 0).count();
    assert!(
        run > cands.len() / (3 * 8),
        "the run exceeds a share: {run} of {}",
        cands.len()
    );
    assert!(s.len() >= au_join::core::parallel::MIN_PARALLEL_ITEMS);

    // The same shape as an arbitrary list, through the run API: record 0
    // against every T record, beside one candidate per other record.
    let heavy = LabeledDataset::generate(&profile, 400, 400, 80, 23);
    let engine = Engine::new(heavy.kn.clone(), cfg).expect("engine");
    let ps = engine.prepare(&heavy.s).expect("prepare S");
    let pt = engine.prepare(&heavy.t).expect("prepare T");
    let (sp, tp) = (ps.seg_records(), pt.seg_records());
    let n_t = tp.len() as u32;
    let cands: Vec<(u32, u32)> = (0..n_t)
        .map(|b| (0, b))
        .chain((1..sp.len() as u32).map(|a| (a, a % n_t)))
        .collect();
    let theta = 0.6;
    let (listed, tiers) = verify_runs(&heavy.kn, &cfg, sp, tp, &cands, theta);
    let reference = verify_candidates_reference(&heavy.kn, &cfg, sp, tp, &cands, theta, true);
    assert_eq!(bits(&listed), bits(&reference));
    assert!(
        listed.iter().any(|&(a, _, _)| a == 0),
        "the heavy run accepts"
    );
    assert_eq!(tiers.decisions(), cands.len() as u64);

    // Past 512 records per range the index's gram table is built in
    // ranges (three here) and concatenated: every query through it must
    // answer as the filterless per-pair scan does, tiers accounted.
    let big = LabeledDataset::generate(&profile, 1600, 1600, 300, 19);
    let engine = Engine::new(big.kn.clone(), cfg).expect("engine");
    let pt = engine.prepare(&big.t).expect("prepare T");
    let rows: Vec<&SegRecord> = pt.seg_records().iter().map(|r| &**r).collect();
    let spec = JoinSpec::threshold(0.8).au_dp(2);
    let searcher = engine.searcher(&pt, &spec).expect("searcher");
    let session = QuerySession::default();
    let mut matched = 0usize;
    for r in big.s.records().iter().step_by(40) {
        let walked = searcher.query(&r.raw);
        let segmented = session.segment(engine.knowledge(), engine.config(), &r.raw);
        let scanned = engine
            .scan(&session, &rows, &segmented, &spec)
            .expect("scan");
        let bits = |m: &[(u32, f64)]| -> Vec<(u32, u64)> {
            m.iter().map(|&(row, sim)| (row, sim.to_bits())).collect()
        };
        assert_eq!(bits(&walked.matches), bits(&scanned.matches), "{:?}", r.raw);
        assert_eq!(walked.tiers.decisions(), walked.candidates);
        assert_eq!(walked.tiers.accepted, scanned.tiers.accepted);
        matched += walked.matches.len();
    }
    assert!(matched > 0, "no query matched anything");
}
