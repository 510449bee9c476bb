//! The `search_online` workload and the search stages of the traced run.

use crate::common::{
    alternate, dataset, overhead_pct, same_matches, spec, time_left, Checks, Ctx, Timed, ONCE,
};
use crate::report::Metrics;
use crate::spec::THETA;
use crate::stats::{ratio, SplitMix};
use au_core::{Engine, Prepared, Searcher};
use au_datagen::LabeledDataset;
use au_text::record::Corpus;
use std::time::Instant;

/// The query set: the raw text of `count` S records spread evenly over the
/// corpus (a fifth of them have a planted partner in T, as a fifth of all
/// records do), each paired with the record's number for the oracle.
fn queries(s: &Corpus, count: usize) -> Vec<(u32, &str)> {
    s.records()
        .iter()
        .step_by((s.len() / count.max(1)).max(1))
        .take(count)
        .map(|r| (r.id.0, r.raw.as_str()))
        .collect()
}

/// What query rounds yield besides latencies: the paper's counters.
#[derive(Default)]
struct Rounds {
    timed: Timed,
    candidates: u64,
    postings: u64,
}

/// Whole rounds over the query set, one `Searcher::query` per span, added
/// to `out`.
fn query_rounds(
    ctx: &Ctx,
    searcher: &Searcher,
    queries: &[(u32, &str)],
    seconds: f64,
    checks: &mut Checks,
    out: &mut Rounds,
) {
    let started = Instant::now();
    loop {
        for (_, text) in queries {
            ctx.tracer.next_op();
            let (outcome, secs) = ctx.tracer.span("core.query", || searcher.query(text));
            checks.attempted += 1;
            out.timed.op_ms.push(secs * 1e3);
            out.candidates += outcome.candidates;
            out.postings += outcome.processed;
        }
        if !time_left(started, seconds) {
            break;
        }
    }
    out.timed.ops = out.timed.op_ms.len();
    out.timed.wall_s += started.elapsed().as_secs_f64();
}

/// For a seeded sample of the queries, `matches` must equal a brute-force
/// `Engine::usim` scan of the whole collection, in the searcher's order
/// (descending similarity, ties by ascending id).
fn scan_oracle(
    ctx: &Ctx,
    engine: &Engine,
    searcher: &Searcher,
    s: &Corpus,
    pt: &Prepared,
    queries: &[(u32, &str)],
    checks: &mut Checks,
) {
    let Some(ps) = checks.op("prepare", engine.prepare(s)) else {
        return;
    };
    let accept = THETA - engine.config().eps;
    for i in SplitMix::new(ctx.seed ^ 0x5ca9).sample(queries.len(), ctx.sizes.oracle_queries) {
        let (record, text) = queries[i];
        let mut brute: Vec<(u32, f64)> = Vec::new();
        for b in 0..pt.len() as u32 {
            match engine.usim(&ps, record, pt, b) {
                Ok(sim) if sim >= accept => brute.push((b, sim)),
                Ok(_) => {}
                Err(e) => {
                    checks.check(&format!("usim({record}, {b}): {e}"), false);
                    return;
                }
            }
        }
        brute.sort_by(|x, y| y.1.total_cmp(&x.1).then(x.0.cmp(&y.0)));
        checks.check(
            &format!("query of S record {record} differs from a brute-force scan"),
            same_matches(&searcher.query(text).matches, &brute),
        );
    }
}

/// One part of the untraced run. Set-up is dataset + engine + prepare +
/// searcher build; the build is also the part's ingest sample (the library
/// has no cheaper way to make new records searchable).
pub fn timed(ctx: &Ctx, checks: &mut Checks) -> Timed {
    let started = Instant::now();
    let ds = dataset(ctx.sizes.n, ctx.seed);
    let engine = checks.op(
        "Engine::new",
        Engine::new(ds.kn.clone(), ctx.sizes.sim_config()),
    );
    let build_started = Instant::now();
    let built = engine.as_ref().and_then(|engine| {
        let pt = checks.op("prepare", engine.prepare(&ds.t))?;
        checks.op("searcher", engine.searcher(&pt, &spec()).map(drop))?;
        Some(pt)
    });
    let build_ms = build_started.elapsed().as_secs_f64() * 1e3;
    let setup_s = started.elapsed().as_secs_f64();
    let (Some(engine), Some(pt)) = (engine, built) else {
        return Timed::default();
    };
    // The artifacts are memoized in `pt`, so this second build is cheap.
    let Some(searcher) = checks.op("searcher", engine.searcher(&pt, &spec())) else {
        return Timed::default();
    };
    let queries = queries(&ds.s, ctx.sizes.search_queries);
    let mut rounds = Rounds::default();
    query_rounds(ctx, &searcher, &queries, ctx.seconds, checks, &mut rounds);
    scan_oracle(ctx, &engine, &searcher, &ds.s, &pt, &queries, checks);
    Timed {
        setup_s,
        ingest_ms: vec![build_ms],
        ..rounds.timed
    }
}

/// The search stages on the first `search_n` records of T: cold searcher
/// build, then a round of queries with a span each. When the workload is
/// `search_online` (`native`), rounds run with spans dropped and kept in
/// turn, and the two medians give `trace.overhead_pct`.
pub fn profile(ctx: &Ctx, ds: &LabeledDataset, native: bool, checks: &mut Checks, m: &mut Metrics) {
    let (t, _) = ds.t.filter(|r| r.id.idx() < ctx.sizes.search_n);
    let Some(engine) = checks.op(
        "Engine::new",
        Engine::new(ds.kn.clone(), ctx.sizes.sim_config()),
    ) else {
        return;
    };
    ctx.tracer.next_op();
    let (pt, _) = ctx.tracer.span("core.prepare", || engine.prepare(&t));
    let Some(pt) = checks.op("prepare", pt) else {
        return;
    };
    let (searcher, build_s) = ctx
        .tracer
        .span("core.searcher.build", || engine.searcher(&pt, &spec()));
    let Some(searcher) = checks.op("searcher", searcher) else {
        return;
    };
    m.set("core.searcher_build_s", build_s);

    let queries = queries(&ds.s, ctx.sizes.search_queries);
    let (mut dropped, mut traced) = (Rounds::default(), Rounds::default());
    if native {
        alternate(&ctx.tracer, ctx.sizes.traced_iterations, |kept| {
            let out = if kept { &mut traced } else { &mut dropped };
            query_rounds(ctx, &searcher, &queries, ONCE, checks, out);
        });
        m.set(
            "trace.overhead_pct",
            overhead_pct(&dropped.timed.op_ms, &traced.timed.op_ms),
        );
    } else {
        query_rounds(ctx, &searcher, &queries, ONCE, checks, &mut traced);
    }
    let n = traced.timed.ops as f64;
    m.set(
        "core.search_candidates_per_query",
        ratio(traced.candidates as f64, n),
    );
    m.set(
        "core.search_postings_per_query",
        ratio(traced.postings as f64, n),
    );
    m.set(
        "core.search_us_per_candidate",
        ratio(
            traced.timed.op_ms.iter().sum::<f64>() * 1e3,
            traced.candidates as f64,
        ),
    );
}
