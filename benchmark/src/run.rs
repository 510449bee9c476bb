//! One run of one workload: the untraced run that yields the end-to-end
//! metrics, or the traced run that yields the per-layer ones.

use crate::common::{dataset, Checks, Ctx, Timed};
use crate::report::{Metrics, Report};
use crate::spec::{
    self, part_seed, MetricDef, END_TO_END, JOIN_DENSE, JOIN_SPARSE, PARTS, PER_LAYER,
    SEARCH_ONLINE, SERVE_MIXED,
};
use crate::stats::{median, percentile, ratio};
use crate::trace::{self, Tracer};
use crate::{joins, search, serve};
use std::io;
use std::path::{Path, PathBuf};

/// What the command line asks of one run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub smoke: bool,
    /// Where `result_<workload>.json` and `trace_<workload>.json` go.
    pub out_dir: PathBuf,
    /// Where write-ahead logs live during the run.
    pub work_dir: PathBuf,
}

/// Worker threads of the library's parallel sections: `min(nproc, 2)`,
/// fixed through `AU_THREADS` so hosts with more cores measure the same
/// program.
pub fn pin_threads() -> (usize, usize) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = nproc.min(2);
    std::env::set_var("AU_THREADS", threads.to_string());
    (threads, nproc)
}

/// `VmHWM` of this process, MiB.
fn peak_rss_mib() -> io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::other("no VmHWM line in /proc/self/status"))
}

/// The untraced run: [`PARTS`] parts, each on a dataset of its own, pooled.
fn end_to_end(
    ctx: &Ctx,
    workload: &spec::Workload,
    args: &RunArgs,
    checks: &mut Checks,
    m: &mut Metrics,
) -> Timed {
    let mut setups = Vec::new();
    let mut pooled = Timed::default();
    for part in 0..PARTS {
        let part_ctx = Ctx {
            seed: part_seed(args.seed, part),
            part,
            seconds: args.seconds / PARTS as f64,
            work_dir: ctx.work_dir.join(format!("part-{part}")),
            tracer: ctx.tracer.clone(),
            ..*ctx
        };
        let timed = match ctx.workload {
            SEARCH_ONLINE => search::timed(&part_ctx, checks),
            SERVE_MIXED => serve::timed(&part_ctx, checks),
            _ => joins::timed(&part_ctx, checks),
        };
        setups.push(timed.setup_s);
        pooled.absorb(timed);
    }
    m.set("setup_s", median(&setups));
    m.set("op_p50_ms", median(&pooled.op_ms));
    m.set(
        "op_tail_ms",
        percentile(&pooled.op_ms, workload.tail_percentile),
    );
    m.set("ingest_p50_ms", median(&pooled.ingest_ms));
    m.set("ops_per_s", ratio(pooled.ops as f64, pooled.wall_s));
    if let Some(rss) = checks.op("peak RSS", peak_rss_mib()) {
        m.set("peak_rss_mib", rss);
    }
    pooled
}

/// Every layer on the workload's dataset, the workload's own layers at
/// full size (see [`spec::Sizes`]).
fn per_layer(ctx: &Ctx, checks: &mut Checks, m: &mut Metrics) {
    ctx.tracer.set_recording(true);
    ctx.tracer.next_op();
    let (ds, datagen_s) = ctx
        .tracer
        .span("setup.datagen", || dataset(ctx.sizes.n, ctx.seed));
    m.set("setup.datagen_s", datagen_s);
    let mut kn = ds.kn.clone();
    let lines: Vec<&str> = ds.s.records().iter().map(|r| r.raw.as_str()).collect();
    ctx.tracer.next_op();
    let (corpus, tokenize_s) = ctx.tracer.span("text.tokenize", || {
        kn.corpus_from_lines(lines.iter().copied())
    });
    checks.check(
        "tokenizing S again gives another corpus",
        corpus.len() == ds.s.len(),
    );
    m.set(
        "text.tokenize_us_per_record",
        ratio(tokenize_s * 1e6, corpus.len() as f64),
    );

    joins::profile(
        ctx,
        &ds,
        matches!(ctx.workload, JOIN_DENSE | JOIN_SPARSE),
        checks,
        m,
    );
    search::profile(ctx, &ds, ctx.workload == SEARCH_ONLINE, checks, m);
    serve::profile(ctx, &ds, ctx.workload == SERVE_MIXED, checks, m);
}

fn json_string_list(items: impl Iterator<Item = String>) -> String {
    format!("{{{}}}", items.collect::<Vec<_>>().join(", "))
}

/// `result_<workload>.json`: the result line's content plus what is needed
/// to read it — seed, sizes, threads, sample counts, flush policy.
fn result_file(
    ctx: &Ctx,
    args: &RunArgs,
    threads: (usize, usize),
    report: &Report,
    samples: &[(&str, usize)],
) -> String {
    let s = &ctx.sizes;
    let sizes = [
        ("n", s.n),
        ("q", s.q),
        ("join_n", s.join_n),
        ("search_n", s.search_n),
        ("search_queries", s.search_queries),
        ("serve_base", s.serve_base),
        ("serve_threshold", s.serve_threshold),
    ];
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"traced\": {}, \"smoke\": {},\n \
         \"AU_THREADS\": {}, \"nproc\": {}, \"loop\": \"closed, 1 client\",\n \
         \"flush_policy\": \"the service's own: every acknowledged write is appended and fsynced (sync_data) first\",\n \
         \"sizes\": {},\n \"samples\": {},\n \"attempted\": {}, \"failed_ops\": {}, \"correct\": {},\n \"metrics\": {}}}\n",
        report.workload,
        args.seed,
        args.seconds,
        args.traced,
        args.smoke,
        threads.0,
        threads.1,
        json_string_list(sizes.iter().map(|(k, v)| format!("\"{k}\": {v}"))),
        json_string_list(samples.iter().map(|(k, v)| format!("\"{k}\": {v}"))),
        report.attempted,
        report.failed,
        report.failed == 0,
        report.metrics_json(),
    )
}

fn write_file(dir: &Path, name: &str, text: &str) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join(name), text)
}

/// Run the workload and return its report; `Err` is a usage error (an
/// unknown workload). Everything that goes wrong inside the run is counted
/// in `failed` instead.
pub fn run(args: &RunArgs, threads: (usize, usize)) -> Result<Report, String> {
    let workload = spec::find(&args.workload)
        .ok_or_else(|| format!("unknown workload `{}`", args.workload))?;
    let ctx = Ctx {
        workload: workload.name,
        seed: part_seed(args.seed, 0),
        part: 0,
        seconds: args.seconds,
        sizes: workload.sizes(args.smoke),
        work_dir: args
            .work_dir
            .join(format!("{}-{}", workload.name, std::process::id())),
        tracer: Tracer::default(),
    };
    let mut checks = Checks::default();
    let mut m = Metrics::default();
    let mut samples = Vec::new();
    let declared: &[MetricDef] = if args.traced {
        per_layer(&ctx, &mut checks, &mut m);
        &PER_LAYER
    } else {
        let pooled = end_to_end(&ctx, workload, args, &mut checks, &mut m);
        samples = vec![
            ("setup_s", PARTS),
            ("op_p50_ms", pooled.op_ms.len()),
            ("op_tail_ms", pooled.op_ms.len()),
            ("ingest_p50_ms", pooled.ingest_ms.len()),
            ("ops_per_s", pooled.ops),
        ];
        &END_TO_END
    };
    let spans = ctx.tracer.spans();
    if args.traced {
        let (_, coverage) = trace::summarize(&spans);
        m.set("trace.self_time_coverage", coverage);
        m.set("trace.spans", spans.len() as f64);
        checks.check(
            "self times do not add up to the traced spans",
            (coverage - 1.0).abs() <= 0.05,
        );
    }
    if ctx.work_dir.exists() {
        checks.op("remove work dir", std::fs::remove_dir_all(&ctx.work_dir));
    }

    let metrics = declared
        .iter()
        .map(|def| {
            let value = m.get(def.name).filter(|v| v.is_finite());
            checks.check(
                &format!("metric {} was not measured", def.name),
                value.is_some(),
            );
            (*def, value.unwrap_or(0.0))
        })
        .collect();
    let mut report = Report {
        workload: workload.name,
        attempted: checks.attempted,
        failed: checks.failed,
        metrics,
    };
    let result = result_file(&ctx, args, threads, &report, &samples);
    let mut written = write_file(
        &args.out_dir,
        &format!("result_{}.json", workload.name),
        &result,
    );
    if args.traced && written.is_ok() {
        let text = trace::to_json(workload.name, args.seed, &spans, &report.metrics_json());
        written = write_file(
            &args.out_dir,
            &format!("trace_{}.json", workload.name),
            &text,
        );
    }
    if let Err(e) = written {
        eprintln!("failed: writing to {}: {e}", args.out_dir.display());
        report.attempted += 1;
        report.failed += 1;
    }
    Ok(report)
}
