//! Figure 4: total join time of the three proposed algorithms vs θ.
//!
//! Paper shape: AU-Filter (heuristics) and AU-Filter (DP) beat U-Filter
//! across thresholds; AU-DP is the overall winner, with the gap widest at
//! low θ (where candidates explode under a single-overlap filter).

use crate::experiments::sized;
use crate::harness::{fmt_secs, med_dataset, wiki_dataset, Table};
use au_core::config::SimConfig;
use au_core::engine::{Engine, JoinSpec, Prepared};
use au_core::signature::FilterKind;
use au_core::suggest::SuggestConfig;

/// Pick τ with Algorithm 7, then run the AU join with it — all on the
/// same prepared state (calibration, sampling and the join share one
/// preparation).
fn suggested_join(
    engine: &Engine,
    ps: &Prepared,
    pt: &Prepared,
    theta: f64,
    use_dp: bool,
) -> au_core::join::JoinResult {
    let model = engine
        .calibrate(ps, pt, theta, FilterKind::AuHeuristic { tau: 2 })
        .expect("calibrate");
    let sc = SuggestConfig {
        ps: 0.1,
        pt: 0.1,
        n_star: 5,
        max_iters: 25,
        universe: vec![1, 2, 3, 4, 5],
        use_dp,
        ..Default::default()
    };
    let pick = engine
        .suggest_tau(ps, pt, theta, &model, &sc)
        .expect("suggest");
    let spec = if use_dp {
        JoinSpec::threshold(theta).au_dp(pick.tau)
    } else {
        JoinSpec::threshold(theta).au_heuristic(pick.tau)
    };
    engine.join(ps, pt, &spec).expect("prepared join")
}

/// Run the experiment; returns the rendered tables.
pub fn run(scale: f64) -> String {
    let cfg = SimConfig::default();
    let mut out = String::new();
    for (name, ds) in [
        ("MED-like", med_dataset(sized(1200, scale), 41)),
        ("WIKI-like", wiki_dataset(sized(1200, scale), 42)),
    ] {
        let engine = Engine::new(ds.kn.clone(), cfg).expect("valid config");
        let ps = engine.prepare(&ds.s).expect("prepare S");
        let pt = engine.prepare(&ds.t).expect("prepare T");
        let mut table = Table::new(
            &format!("Figure 4 — join time vs θ ({name})"),
            &["θ", "U-Filter", "AU-heur", "AU-DP"],
        );
        for theta in [0.75, 0.80, 0.85, 0.90, 0.95] {
            let u = engine
                .join(&ps, &pt, &JoinSpec::threshold(theta).u_filter())
                .expect("prepared join");
            let h = suggested_join(&engine, &ps, &pt, theta, false);
            let d = suggested_join(&engine, &ps, &pt, theta, true);
            table.row(vec![
                format!("{theta:.2}"),
                fmt_secs(u.stats.total_time().as_secs_f64()),
                fmt_secs(h.stats.total_time().as_secs_f64()),
                fmt_secs(d.stats.total_time().as_secs_f64()),
            ]);
        }
        out.push_str(&table.emit());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_filters_same_results() {
        // Timing aside, the three algorithms must return identical pairs.
        let ds = med_dataset(200, 9);
        let engine = Engine::new(ds.kn.clone(), SimConfig::default()).expect("valid config");
        let ps = engine.prepare(&ds.s).expect("prepare S");
        let pt = engine.prepare(&ds.t).expect("prepare T");
        let theta = 0.8;
        let spec = JoinSpec::threshold(theta);
        let u = engine.join(&ps, &pt, &spec.u_filter()).expect("join");
        let h = engine.join(&ps, &pt, &spec.au_heuristic(3)).expect("join");
        let d = engine.join(&ps, &pt, &spec.au_dp(3)).expect("join");
        assert_eq!(u.pairs, h.pairs);
        assert_eq!(u.pairs, d.pairs);
        assert!(!u.pairs.is_empty(), "fixture should produce matches");
    }
}
