//! Runs every experiment in sequence and prints the full evaluation.
//!
//! `AU_SCALE` scales every dataset (default 1.0). The reproduction
//! targets are the tables' shapes, not their numbers (DESIGN.md
//! "Substitutions (data)").
use std::time::Instant;

fn main() {
    let scale = au_bench::scale_from_env(1.0);
    println!("# AU-Join full evaluation (scale = {scale})\n");
    #[allow(clippy::type_complexity)]
    let experiments: Vec<(&str, fn(f64) -> String)> = vec![
        ("Table 8", au_bench::experiments::table8::run),
        ("Table 9", au_bench::experiments::table9::run),
        ("Figure 3", au_bench::experiments::fig3::run),
        ("Figure 4", au_bench::experiments::fig4::run),
        ("Figure 5", au_bench::experiments::fig5::run),
        ("Figure 6", au_bench::experiments::fig6::run),
        ("Figure 7", au_bench::experiments::fig7::run),
        ("Table 10", au_bench::experiments::table10::run),
        ("Table 11", au_bench::experiments::table11::run),
        ("Table 12", au_bench::experiments::table12::run),
        ("Figure 8", au_bench::experiments::fig8::run),
        ("Table 13", au_bench::experiments::table13::run),
        ("Table 14", au_bench::experiments::table14::run),
    ];
    let total = Instant::now();
    for (name, run) in experiments {
        let start = Instant::now();
        run(scale);
        eprintln!(
            "[{name}] finished in {:.1}s\n",
            start.elapsed().as_secs_f64()
        );
    }
    eprintln!(
        "all experiments done in {:.1}s",
        total.elapsed().as_secs_f64()
    );
}
