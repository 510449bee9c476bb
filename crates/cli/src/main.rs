//! `aujoin` — unified string similarity joins from the command line.
//!
//! ```text
//! aujoin --s left.txt --t right.txt --theta 0.8 \
//!        [--rules rules.tsv] [--taxonomy tax.txt] \
//!        [--tau N | --tau auto] [--filter dp|heur|u] [--measures TJS]
//! aujoin --s catalogue.txt --topk 20   # the 20 most similar pairs
//! ```
//!
//! Input formats:
//! * record files — one string per line;
//! * rules — TSV `lhs<TAB>rhs<TAB>closeness` (closeness optional, default 1);
//! * taxonomy — one root-to-leaf path per line, labels separated by `>`
//!   (e.g. `food > coffee > coffee drinks > latte`).
//!
//! Output: TSV `s_line<TAB>t_line<TAB>similarity` on stdout, stats on
//! stderr. Omitting `--t` performs a self-join of `--s`.
//!
//! The CLI is a thin driver over the session API: one
//! [`Engine`], one [`Prepared`] artifact per input file, every operation
//! (join, top-k, τ suggestion, explanations) methods on that shared
//! state — each file is segmented and indexed exactly once per run.

use au_core::config::SimConfig;
use au_core::engine::{Engine, JoinSpec, Prepared};
use au_core::io::{load_rules, load_taxonomy};
use au_core::join::JoinResult;
use au_core::knowledge::KnowledgeBuilder;
use au_core::signature::FilterKind;
use au_core::suggest::SuggestConfig;
use au_core::usim::usim_explain_seg;
use std::process::ExitCode;

mod args;
use args::{Args, TauChoice};

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", args::USAGE);
            return ExitCode::FAILURE;
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    let mut kb = KnowledgeBuilder::new();
    if let Some(path) = &args.rules {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let n = load_rules(&mut kb, &text).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("loaded {n} synonym rules");
    }
    if let Some(path) = &args.taxonomy {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let n = load_taxonomy(&mut kb, &text).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("loaded {n} taxonomy paths ({} nodes)", kb.node_count());
    }
    let mut kn = kb.build();

    // Tokenize every input up front — the engine owns the knowledge
    // context immutably afterwards.
    let s_text = std::fs::read_to_string(&args.s).map_err(|e| format!("{}: {e}", args.s))?;
    let s_lines: Vec<String> = s_text.lines().map(str::to_string).collect();
    let s = kn.corpus_from_lines(s_lines.iter().map(|x| x.as_str()));
    let t_lines: Option<Vec<String>> = match &args.t {
        Some(t_path) => {
            let t_text = std::fs::read_to_string(t_path).map_err(|e| format!("{t_path}: {e}"))?;
            Some(t_text.lines().map(str::to_string).collect())
        }
        None => None,
    };
    let t = t_lines
        .as_ref()
        .map(|lines| kn.corpus_from_lines(lines.iter().map(|x| x.as_str())));

    let cfg = SimConfig::default()
        .with_measures(args.measures)
        .with_gram(args.gram);
    let engine = Engine::new(kn, cfg).map_err(|e| e.to_string())?;
    // prepare_owned: the corpora aren't used again, so skip the deep
    // clone `prepare(&c)` would make.
    let ps = engine.prepare_owned(s).map_err(|e| e.to_string())?;
    let pt = match t {
        Some(t) => Some(engine.prepare_owned(t).map_err(|e| e.to_string())?),
        None => None,
    };

    if let Some(k) = args.topk {
        return run_topk(args, &engine, &ps, pt.as_ref(), &s_lines, &t_lines, k);
    }

    let tau = resolve_tau(args, &engine, &ps, pt.as_ref())?;
    let spec = join_spec(args, tau);
    let res: JoinResult = match &pt {
        Some(pt) => {
            eprintln!(
                "joining {}×{} records (θ={}, τ={tau}, {})",
                ps.len(),
                pt.len(),
                args.theta,
                spec.filter_kind().label()
            );
            engine.join(&ps, pt, &spec).map_err(|e| e.to_string())?
        }
        None => {
            eprintln!(
                "self-joining {} records (θ={}, τ={tau}, {})",
                ps.len(),
                args.theta,
                spec.filter_kind().label()
            );
            engine.join_self(&ps, &spec).map_err(|e| e.to_string())?
        }
    };

    for &(a, b, sim) in &res.pairs {
        let left = &s_lines[a as usize];
        let right = match &t_lines {
            Some(t) => &t[b as usize],
            None => &s_lines[b as usize],
        };
        if args.explain {
            let why = explain_pair(&engine, &ps, pt.as_ref().unwrap_or(&ps), a, b)?;
            println!("{left}\t{right}\t{sim:.4}\t{why}");
        } else {
            println!("{left}\t{right}\t{sim:.4}");
        }
    }
    eprintln!(
        "{} pairs | {} candidates from {} processed | prepare {:.2?}, sig {:.2?}, filter {:.2?}, verify {:.2?}",
        res.pairs.len(),
        res.stats.candidates,
        res.stats.processed_pairs,
        std::time::Duration::from_secs_f64(
            ps.prepare_seconds() + pt.as_ref().map_or(0.0, |p| p.prepare_seconds())
        ),
        res.stats.sig_time,
        res.stats.filter_time,
        res.stats.verify_time,
    );
    Ok(())
}

/// Compact one-line explanation of a matched pair from the prepared
/// segmentations (no re-segmentation):
/// `s_seg↔t_seg (measure score); ...`.
fn explain_pair(
    engine: &Engine,
    s: &Prepared,
    t: &Prepared,
    a: u32,
    b: u32,
) -> Result<String, String> {
    let sa = s.seg_record(a).map_err(|e| e.to_string())?;
    let sb = t.seg_record(b).map_err(|e| e.to_string())?;
    let res = usim_explain_seg(engine.knowledge(), engine.config(), sa, sb);
    Ok(res
        .matches
        .iter()
        .map(|m| {
            format!(
                "{}↔{} ({} {:.2})",
                m.s_text,
                m.t_text,
                m.kind.letter(),
                m.score
            )
        })
        .collect::<Vec<_>>()
        .join("; "))
}

#[allow(clippy::too_many_arguments)]
fn run_topk(
    args: &Args,
    engine: &Engine,
    ps: &Prepared,
    pt: Option<&Prepared>,
    s_lines: &[String],
    t_lines: &Option<Vec<String>>,
    k: usize,
) -> Result<(), String> {
    let tau = match args.tau {
        TauChoice::Fixed(t) => t,
        TauChoice::Auto => 2, // the descent revisits several θ; keep τ modest
    };
    let mut spec = JoinSpec::topk(k).au_dp(tau);
    if args.filter == "heur" {
        spec = spec.au_heuristic(tau);
    } else if args.filter == "u" {
        spec = spec.u_filter();
    }
    let res = match pt {
        Some(pt) => {
            eprintln!("top-{k} join over {}×{} records", ps.len(), pt.len());
            engine.topk(ps, pt, &spec).map_err(|e| e.to_string())?
        }
        None => {
            eprintln!("top-{k} self-join over {} records", ps.len());
            engine.topk_self(ps, &spec).map_err(|e| e.to_string())?
        }
    };
    for &(a, b, sim) in &res.pairs {
        let left = &s_lines[a as usize];
        let right = match t_lines {
            Some(t) => &t[b as usize],
            None => &s_lines[b as usize],
        };
        println!("{left}\t{right}\t{sim:.4}");
    }
    eprintln!(
        "{} pairs | {} descent rounds, final θ = {:.2}",
        res.pairs.len(),
        res.rounds,
        res.final_theta
    );
    Ok(())
}

fn join_spec(args: &Args, tau: u32) -> JoinSpec {
    let spec = JoinSpec::threshold(args.theta);
    match args.filter.as_str() {
        "u" => spec.u_filter(),
        "heur" => spec.au_heuristic(tau),
        _ => spec.au_dp(tau),
    }
}

fn resolve_tau(
    args: &Args,
    engine: &Engine,
    ps: &Prepared,
    pt: Option<&Prepared>,
) -> Result<u32, String> {
    match args.tau {
        TauChoice::Fixed(tau) => Ok(tau),
        TauChoice::Auto => {
            let t_side = pt.unwrap_or(ps);
            let p = (500.0 / ps.len().max(1) as f64).clamp(0.01, 0.5);
            let model = engine
                .calibrate(ps, t_side, args.theta, FilterKind::AuHeuristic { tau: 2 })
                .map_err(|e| e.to_string())?;
            let sc = SuggestConfig {
                ps: p,
                pt: p,
                universe: vec![1, 2, 3, 4, 5],
                use_dp: args.filter == "dp",
                ..Default::default()
            };
            let pick = engine
                .suggest_tau(ps, t_side, args.theta, &model, &sc)
                .map_err(|e| e.to_string())?;
            eprintln!(
                "τ=auto picked {} after {} sampling iterations ({:.1?})",
                pick.tau, pick.iterations, pick.elapsed
            );
            Ok(pick.tau)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_self_join() {
        // Drive run() through temp files.
        let dir = std::env::temp_dir().join(format!("aujoin-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let s_path = dir.join("s.txt");
        std::fs::write(&s_path, "coffee shop latte\ncafe latte\nunrelated thing\n").unwrap();
        let rules_path = dir.join("rules.tsv");
        std::fs::write(&rules_path, "coffee shop\tcafe\t1.0\n").unwrap();
        let args = Args {
            s: s_path.to_str().unwrap().to_string(),
            t: None,
            rules: Some(rules_path.to_str().unwrap().to_string()),
            taxonomy: None,
            theta: 0.7,
            topk: None,
            tau: TauChoice::Fixed(1),
            filter: "dp".into(),
            measures: au_core::config::MeasureSet::TJS,
            gram: au_core::config::GramMeasure::Jaccard,
            explain: false,
        };
        run(&args).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn end_to_end_topk() {
        let dir = std::env::temp_dir().join(format!("aujoin-topk-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let s_path = dir.join("s.txt");
        std::fs::write(
            &s_path,
            "coffee shop latte\ncafe latte\nunrelated thing\nanother unrelated\n",
        )
        .unwrap();
        let rules_path = dir.join("rules.tsv");
        std::fs::write(&rules_path, "coffee shop\tcafe\t1.0\n").unwrap();
        let args = Args {
            s: s_path.to_str().unwrap().to_string(),
            t: None,
            rules: Some(rules_path.to_str().unwrap().to_string()),
            taxonomy: None,
            theta: 0.0,
            topk: Some(2),
            tau: TauChoice::Fixed(2),
            filter: "dp".into(),
            measures: au_core::config::MeasureSet::TJS,
            gram: au_core::config::GramMeasure::Jaccard,
            explain: false,
        };
        run(&args).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn end_to_end_rxs_join_with_explain_and_auto_tau() {
        let dir = std::env::temp_dir().join(format!("aujoin-rxs-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let s_path = dir.join("s.txt");
        std::fs::write(&s_path, "coffee shop latte\nsomething else\n").unwrap();
        let t_path = dir.join("t.txt");
        std::fs::write(&t_path, "cafe latte\nother words\n").unwrap();
        let rules_path = dir.join("rules.tsv");
        std::fs::write(&rules_path, "coffee shop\tcafe\t1.0\n").unwrap();
        let args = Args {
            s: s_path.to_str().unwrap().to_string(),
            t: Some(t_path.to_str().unwrap().to_string()),
            rules: Some(rules_path.to_str().unwrap().to_string()),
            taxonomy: None,
            theta: 0.6,
            topk: None,
            tau: TauChoice::Auto,
            filter: "heur".into(),
            measures: au_core::config::MeasureSet::TJS,
            gram: au_core::config::GramMeasure::Jaccard,
            explain: true,
        };
        run(&args).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
