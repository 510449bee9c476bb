//! The command line.
//!
//! ```text
//! au-benchmark --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//!              [--smoke] [--out DIR] [--work-dir DIR]
//! au-benchmark --check-repeat [--seed N] [--seconds S] [--smoke]
//! au-benchmark --emit-benchmark-json
//! ```

use crate::report::{metric_value, number_after};
use crate::run::{pin_threads, run, RunArgs};
use crate::spec::{self, Better, END_TO_END, RUN_SECONDS, WORKLOADS};
use std::path::PathBuf;
use std::process::Command;

const USAGE: &str =
    "usage: au-benchmark --workload <join_dense|join_sparse|search_online|serve_mixed|all> \
[--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR] [--work-dir DIR]\n       \
au-benchmark --check-repeat [--seed N] [--seconds S] [--smoke]\n       \
au-benchmark --emit-benchmark-json";

#[derive(Debug)]
enum Mode {
    Run,
    CheckRepeat,
    EmitBenchmarkJson,
}

#[derive(Debug)]
struct Args {
    mode: Mode,
    run: RunArgs,
}

/// The build directory the executable sits in (`<target>/release/…`), so
/// by default the harness writes nowhere git would see.
fn build_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.parent()?.to_path_buf()))
        .unwrap_or_else(|| PathBuf::from("target"))
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut mode = Mode::Run;
    let mut run = RunArgs {
        workload: String::new(),
        seed: 71,
        seconds: RUN_SECONDS as f64,
        traced: false,
        smoke: false,
        out_dir: build_dir().join("benchmark-out"),
        work_dir: build_dir().join("benchmark-tmp"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => run.workload = value()?.clone(),
            "--seed" => run.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                run.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&run.seconds) {
                    return Err("--seconds must be between 0 and 3600".into());
                }
            }
            "--trace" => {
                run.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--out" => run.out_dir = PathBuf::from(value()?),
            "--work-dir" => run.work_dir = PathBuf::from(value()?),
            "--smoke" => run.smoke = true,
            "--check-repeat" => mode = Mode::CheckRepeat,
            "--emit-benchmark-json" => mode = Mode::EmitBenchmarkJson,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if matches!(mode, Mode::Run) && run.workload != "all" && spec::find(&run.workload).is_none() {
        return Err(format!(
            "--workload must name a workload or `all`, not `{}`",
            run.workload
        ));
    }
    Ok(Args { mode, run })
}

/// Run one workload in a process of its own (peak RSS and set-up time are
/// per process) and return the result line it printed last.
fn spawn(args: &RunArgs, workload: &str, seed: u64, echo: bool) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.traced { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out_dir)
        .arg("--work-dir")
        .arg(&args.work_dir);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("spawning {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if echo {
        print!("{stdout}");
    }
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    if !out.status.success() {
        return Err(format!("{workload} exited with {}", out.status));
    }
    stdout
        .lines()
        .last()
        .map(str::to_string)
        .ok_or_else(|| format!("{workload} printed nothing"))
}

fn failed_of(line: &str) -> f64 {
    number_after(line, "\"failed\": ").unwrap_or(f64::NAN)
}

/// Every workload twice with the same seed and once with the next one.
/// Prints, per end-to-end metric, both same-seed values, how far the
/// second is from the first and the bound; the other seed's values show
/// the bounds are not fitted to one corpus. `Ok(false)` when a difference
/// exceeds its bound or an operation failed.
fn check_repeat(args: &RunArgs) -> Result<bool, String> {
    let mut ok = true;
    println!("workload metric unit first second relative_difference bound verdict other_seed");
    for w in &WORKLOADS {
        let first = spawn(args, w.name, args.seed, false)?;
        let second = spawn(args, w.name, args.seed, false)?;
        let other = spawn(args, w.name, args.seed + 1, false)?;
        for line in [&first, &second, &other] {
            if failed_of(line) != 0.0 {
                println!("{} failed_ops {}", w.name, failed_of(line));
                ok = false;
            }
        }
        for def in &END_TO_END {
            let read = |line: &str| {
                metric_value(line, def.name).ok_or_else(|| format!("{}: no {}", w.name, def.name))
            };
            let (a, b, c) = (read(&first)?, read(&second)?, read(&other)?);
            let worse = match def.better {
                Better::Lower => (b - a) / a,
                Better::Higher => (a - b) / a,
            };
            let bound = def.bound.unwrap_or(0.0);
            let within = worse.abs() <= bound;
            ok &= within;
            println!(
                "{} {} {} {a} {b} {:+.4} {bound} {} {c}",
                w.name,
                def.name,
                def.unit,
                worse,
                if within { "ok" } else { "EXCEEDS" },
            );
        }
    }
    Ok(ok)
}

/// Entry point; returns the process's exit code.
pub fn main(argv: Vec<String>) -> i32 {
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return 2;
        }
    };
    let outcome = match args.mode {
        Mode::EmitBenchmarkJson => {
            print!("{}", spec::benchmark_json());
            Ok(true)
        }
        Mode::CheckRepeat => check_repeat(&args.run),
        Mode::Run if args.run.workload == "all" => WORKLOADS
            .iter()
            .try_for_each(|w| spawn(&args.run, w.name, args.run.seed, true).map(drop))
            .map(|()| true),
        Mode::Run => {
            let threads = pin_threads();
            run(&args.run, threads).map(|report| {
                println!(
                    "# workload {} seed {} AU_THREADS {} nproc {} closed loop, 1 client",
                    report.workload, args.run.seed, threads.0, threads.1
                );
                print!("{}", report.metric_lines());
                println!("attempted {} count", report.attempted);
                println!("failed_ops {} count", report.failed);
                println!("{}", report.result_line());
                true
            })
        }
    };
    match outcome {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("{e}");
            2
        }
    }
}
