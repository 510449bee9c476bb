//! The batch-join workloads (`join_dense`, `join_sparse`) and the join
//! stages of the traced run.

use crate::common::{alternate, dataset, overhead_pct, spec, time_left, Checks, Ctx, Timed, ONCE};
use crate::report::Metrics;
use crate::spec::{TAU, THETA};
use crate::stats::{ratio, SplitMix};
use au_core::signature::FilterKind;
use au_core::{Engine, Prepared};
use au_datagen::LabeledDataset;
use au_text::record::Corpus;
use std::time::Instant;

type Pairs = Vec<(u32, u32, f64)>;

fn same_pairs(a: &Pairs, b: &Pairs) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| (x.0, x.1, x.2.to_bits()) == (y.0, y.1, y.2.to_bits()))
}

/// What cold repetitions add up to; the last one stays for the oracle.
#[derive(Default)]
struct ColdReps {
    timed: Timed,
    /// The last repetition's prepared sides and result.
    last: Option<(Prepared, Prepared, Pairs)>,
}

/// Cold repetitions: each prepares both sides afresh (so no memoized
/// order, signature or index survives) and joins them. The pair list must
/// be the same bytes every time.
fn cold_reps(
    ctx: &Ctx,
    engine: &Engine,
    s: &Corpus,
    t: &Corpus,
    seconds: f64,
    checks: &mut Checks,
) -> ColdReps {
    let ColdReps {
        mut timed,
        mut last,
    } = ColdReps::default();
    let started = Instant::now();
    loop {
        ctx.tracer.next_op();
        let (done, rep_s) = ctx.tracer.span("join.rep", || {
            let (ps, a) = ctx.tracer.span("core.prepare", || engine.prepare(s));
            let (pt, b) = ctx.tracer.span("core.prepare", || engine.prepare(t));
            let (ps, pt) = (checks.op("prepare", ps)?, checks.op("prepare", pt)?);
            let (joined, _) = ctx
                .tracer
                .span("core.join", || engine.join(&ps, &pt, &spec()));
            Some((ps, pt, checks.op("join", joined)?.pairs, [a, b]))
        });
        let Some((ps, pt, pairs, prepares)) = done else {
            break;
        };
        timed.op_ms.push(rep_s * 1e3);
        timed.ingest_ms.extend(prepares.map(|p| p * 1e3));
        timed.ops += 1;
        if let Some((_, _, first)) = &last {
            checks.check(
                "join pairs differ between repetitions",
                same_pairs(first, &pairs),
            );
        }
        last = Some((ps, pt, pairs));
        if !time_left(started, seconds) {
            break;
        }
    }
    timed.wall_s = started.elapsed().as_secs_f64();
    ColdReps { timed, last }
}

/// On a seeded `grid × grid` sub-grid (the same record numbers on both
/// sides, so planted pairs fall inside), the pairs `Engine::usim` accepts
/// must be exactly the join's pairs restricted to the grid.
fn grid_oracle(
    ctx: &Ctx,
    engine: &Engine,
    ps: &Prepared,
    pt: &Prepared,
    pairs: &Pairs,
    checks: &mut Checks,
) {
    let ids =
        SplitMix::new(ctx.seed ^ 0x6a01).sample(ps.len().min(pt.len()), ctx.sizes.oracle_grid);
    let accept = THETA - engine.config().eps;
    let mut brute: Vec<(u32, u32)> = Vec::new();
    for &a in &ids {
        for &b in &ids {
            match engine.usim(ps, a as u32, pt, b as u32) {
                Ok(sim) if sim >= accept => brute.push((a as u32, b as u32)),
                Ok(_) => {}
                Err(e) => {
                    checks.check(&format!("usim({a}, {b}): {e}"), false);
                    return;
                }
            }
        }
    }
    let in_grid = |x: u32| ids.binary_search(&(x as usize)).is_ok();
    let joined: Vec<(u32, u32)> = pairs
        .iter()
        .filter(|p| in_grid(p.0) && in_grid(p.1))
        .map(|p| (p.0, p.1))
        .collect();
    checks.check(
        "join pairs differ from brute force on the sub-grid",
        brute == joined,
    );
}

/// One part of the untraced run: set-up (dataset + engine), cold
/// repetitions for `ctx.seconds`, then the oracle.
pub fn timed(ctx: &Ctx, checks: &mut Checks) -> Timed {
    let started = Instant::now();
    let ds = dataset(ctx.sizes.n, ctx.seed);
    let engine = checks.op(
        "Engine::new",
        Engine::new(ds.kn.clone(), ctx.sizes.sim_config()),
    );
    let setup_s = started.elapsed().as_secs_f64();
    let Some(engine) = engine else {
        return Timed::default();
    };
    if ctx.part == 0 {
        // One repetition that is not measured: the first one in a process
        // also pays for growing the heap.
        cold_reps(ctx, &engine, &ds.s, &ds.t, ONCE, checks);
    }
    let reps = cold_reps(ctx, &engine, &ds.s, &ds.t, ctx.seconds, checks);
    if let Some((ps, pt, pairs)) = &reps.last {
        grid_oracle(ctx, &engine, ps, pt, pairs, checks);
    }
    Timed {
        setup_s,
        ..reps.timed
    }
}

/// Seconds per call of `Engine::usim` over `pairs`.
fn usim_seconds(
    ctx: &Ctx,
    name: &'static str,
    engine: &Engine,
    ps: &Prepared,
    pt: &Prepared,
    pairs: &[(u32, u32)],
    checks: &mut Checks,
) -> f64 {
    let (errors, secs) = ctx.tracer.span(name, || {
        pairs
            .iter()
            .filter(|&&(a, b)| std::hint::black_box(engine.usim(ps, a, pt, b)).is_err())
            .count()
    });
    checks.check("Engine::usim returned an error", errors == 0);
    ratio(secs, pairs.len() as f64)
}

/// The join stages, one span each, on the first `join_n` records of both
/// sides: prepare → cold `filter_counts` (selects signatures and builds the
/// index) → warm `filter_counts` (probe only) → warm serial join (probe +
/// verify) → warm parallel join. When the workload is a join (`native`),
/// cold repetitions run first, with spans dropped and kept in turn, and
/// their medians give `trace.overhead_pct`.
pub fn profile(ctx: &Ctx, ds: &LabeledDataset, native: bool, checks: &mut Checks, m: &mut Metrics) {
    let n = ctx.sizes.join_n;
    let (s, _) = ds.s.filter(|r| r.id.idx() < n);
    let (t, _) = ds.t.filter(|r| r.id.idx() < n);
    let Some(engine) = checks.op(
        "Engine::new",
        Engine::new(ds.kn.clone(), ctx.sizes.sim_config()),
    ) else {
        return;
    };
    if native {
        let (mut dropped_ms, mut kept_ms) = (Vec::new(), Vec::new());
        alternate(&ctx.tracer, ctx.sizes.traced_iterations, |kept| {
            let rep = cold_reps(ctx, &engine, &s, &t, ONCE, checks);
            if kept { &mut kept_ms } else { &mut dropped_ms }.extend(rep.timed.op_ms);
        });
        m.set("trace.overhead_pct", overhead_pct(&dropped_ms, &kept_ms));
    }
    ctx.tracer.next_op();
    ctx.tracer.span("join.stages", || {
        let (ps, a) = ctx.tracer.span("core.prepare", || engine.prepare(&s));
        let (pt, b) = ctx.tracer.span("core.prepare", || engine.prepare(&t));
        let (Some(ps), Some(pt)) = (checks.op("prepare", ps), checks.op("prepare", pt)) else {
            return;
        };
        let records = (ps.len() + pt.len()) as f64;
        m.set("core.prepare_s", a + b);
        m.set("core.prepare_us_per_record", ratio((a + b) * 1e6, records));
        m.set(
            "core.prepared_bytes_per_record",
            ratio((ps.memory_bytes() + pt.memory_bytes()) as f64, records),
        );

        let filter = FilterKind::AuDp { tau: TAU };
        let (cold, cold_s) = ctx.tracer.span("core.filter_counts.cold", || {
            engine.filter_counts(&ps, &pt, THETA, filter)
        });
        let (warm, warm_s) = ctx.tracer.span("core.filter_counts.warm", || {
            engine.filter_counts(&ps, &pt, THETA, filter)
        });
        let (serial, serial_s) = ctx.tracer.span("core.join.serial", || {
            engine.join(&ps, &pt, &spec().serial())
        });
        let (parallel, parallel_s) = ctx
            .tracer
            .span("core.join.parallel", || engine.join(&ps, &pt, &spec()));
        let (Some(cold), Some(warm), Some(serial), Some(parallel)) = (
            checks.op("filter_counts", cold),
            checks.op("filter_counts", warm),
            checks.op("join", serial),
            checks.op("join", parallel),
        ) else {
            return;
        };
        checks.check(
            "cold and warm filter_counts differ",
            (cold.processed, cold.candidates) == (warm.processed, warm.candidates),
        );
        checks.check(
            "join and filter_counts count different candidates",
            serial.stats.candidates == warm.candidates
                && serial.stats.processed_pairs == warm.processed,
        );
        checks.check(
            "serial and parallel join differ",
            same_pairs(&serial.pairs, &parallel.pairs),
        );

        let sigindex_s = (cold_s - warm_s).max(0.0);
        let verify_s = (serial_s - warm_s).max(0.0);
        let (processed, candidates) = (warm.processed as f64, warm.candidates as f64);
        let results = serial.pairs.len() as f64;
        m.set("core.sigindex_s", sigindex_s);
        m.set(
            "core.sigindex_us_per_record",
            ratio(sigindex_s * 1e6, records),
        );
        m.set("core.probe_s", warm_s);
        m.set("core.probe_ns_per_posting", ratio(warm_s * 1e9, processed));
        m.set("core.verify_s", verify_s);
        m.set(
            "core.verify_ns_per_candidate",
            ratio(verify_s * 1e9, candidates),
        );
        m.set("core.postings_processed", processed);
        m.set("core.candidates", candidates);
        m.set("core.result_pairs", results);
        m.set("core.candidates_per_result", ratio(candidates, results));
        m.set(
            "core.candidate_share",
            ratio(candidates, ps.len() as f64 * pt.len() as f64),
        );
        m.set("core.parallel_speedup", ratio(serial_s, parallel_s));

        let mut rng = SplitMix::new(ctx.seed ^ 0x05e1);
        let random: Vec<(u32, u32)> = (0..ctx.sizes.usim_pairs)
            .map(|_| (rng.below(ps.len()) as u32, rng.below(pt.len()) as u32))
            .collect();
        let matching: Vec<(u32, u32)> = serial.pairs.iter().take(500).map(|p| (p.0, p.1)).collect();
        let per_call = usim_seconds(ctx, "core.usim.random", &engine, &ps, &pt, &random, checks);
        m.set("core.usim_ns_per_call.random", per_call * 1e9);
        let per_call = usim_seconds(ctx, "core.usim.match", &engine, &ps, &pt, &matching, checks);
        m.set("core.usim_ns_per_call.match", per_call * 1e9);
    });
}
