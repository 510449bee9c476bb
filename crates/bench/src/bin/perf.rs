//! Machine-readable perf run: writes `BENCH_<name>.json` artifacts — the
//! `med` / `wiki` join funnels, `fig_shard`, and `repro`, the paper's
//! count claims with their `holds`.
//!
//! ```text
//! AU_SCALE=0.1 cargo run --release -p au-bench --bin perf [-- <out_dir>]
//! ```
//!
//! `<out_dir>` (default `.`) is created, parents included, before the
//! run starts. `AU_SCALE` sizes the datasets (default 1.0; anything but a
//! positive number panics). Every field written is a count or a run parameter, so
//! two runs write byte-identical files; `bench_gate` diffs them against
//! `tools/perf_baseline/`. Time a stage with the repo benchmark's traced
//! runs instead (`benchmark/README.md`).

use au_bench::perf::{out_dir, repro, run_all, write_report, SEED};

fn main() {
    let dir = out_dir(std::env::args().nth(1));
    let scale = au_bench::scale_from_env(1.0);
    eprintln!("perf: AU_SCALE={scale} seed={SEED}");
    let (workloads, shard) = run_all(scale);
    for w in &workloads {
        for r in &w.rows {
            println!(
                "{:<24} candidates={:<10} postings={:<10} pairs={:<8} f1={:.3}",
                r.id, r.candidates, r.processed_pairs, r.result_pairs, r.prf.f
            );
        }
    }
    for r in workloads.iter().filter_map(|w| w.search.as_ref()) {
        println!(
            "{:<24} candidates={:<10} pairs={:<8} queries={} window={} postings={} walked={}",
            r.id,
            r.candidates,
            r.result_pairs,
            r.queries,
            r.window_plan_queries,
            r.processed_pairs,
            r.walked_postings
        );
    }
    shard.print();
    let claims = repro::run(scale);
    for c in &claims {
        println!("{:<24} holds={}", c.id, c.holds);
    }
    let docs = workloads
        .iter()
        .map(|w| (w.name.as_str(), w.to_value()))
        .chain([(shard.name.as_str(), shard.to_value())])
        .chain([("repro", repro::to_value(scale, &claims))]);
    for (name, doc) in docs {
        let p = write_report(&dir, name, &doc).expect("write BENCH_*.json");
        eprintln!("wrote {}", p.display());
    }
}
