//! Figure 8: sampling probability vs suggestion iterations and time.
//!
//! Paper shape: smaller samples need *more* iterations to satisfy the
//! confidence stopping rule, so total suggestion time is non-monotone in
//! the sampling probability — an interior optimum exists.

use crate::experiments::sized;
use crate::harness::{fmt_secs, med_dataset, Table};
use au_core::config::SimConfig;
use au_core::engine::Engine;
use au_core::signature::FilterKind;
use au_core::suggest::SuggestConfig;

/// Run the experiment; returns the rendered table.
pub fn run(scale: f64) -> String {
    let cfg = SimConfig::default();
    let ds = med_dataset(sized(1500, scale), 131);
    let theta = 0.80;
    let engine = Engine::new(ds.kn.clone(), cfg).expect("valid config");
    let ps = engine.prepare(&ds.s).expect("prepare S");
    let pt = engine.prepare(&ds.t).expect("prepare T");
    let model = engine
        .calibrate(&ps, &pt, theta, FilterKind::AuHeuristic { tau: 2 })
        .expect("calibrate");
    let mut table = Table::new(
        "Figure 8 — suggestion iterations & time vs sampling probability (MED-like, θ=0.80)",
        &["p", "iterations", "suggest time", "picked τ"],
    );
    for p in [0.01, 0.02, 0.05, 0.10, 0.20, 0.40] {
        let sc = SuggestConfig {
            ps: p,
            pt: p,
            n_star: 10,
            max_iters: 400,
            universe: vec![1, 2, 3, 4],
            ..Default::default()
        };
        let pick = engine
            .suggest_tau(&ps, &pt, theta, &model, &sc)
            .expect("suggest");
        table.row(vec![
            format!("{p:.2}"),
            pick.iterations.to_string(),
            fmt_secs(pick.elapsed.as_secs_f64()),
            pick.tau.to_string(),
        ]);
    }
    table.emit()
}

#[cfg(test)]
mod tests {
    use super::*;
    use au_core::estimate::CostModel;

    #[test]
    fn smaller_samples_need_more_iterations() {
        let ds = med_dataset(400, 23);
        let engine = Engine::new(ds.kn.clone(), SimConfig::default()).expect("valid config");
        let ps = engine.prepare(&ds.s).expect("prepare S");
        let pt = engine.prepare(&ds.t).expect("prepare T");
        let model = CostModel {
            c_f: 5e-8,
            c_v: 2e-6,
        };
        let iters_at = |p: f64| {
            let sc = SuggestConfig {
                ps: p,
                pt: p,
                n_star: 10,
                max_iters: 300,
                universe: vec![1, 2, 3],
                ..Default::default()
            };
            engine
                .suggest_tau(&ps, &pt, 0.8, &model, &sc)
                .expect("suggest")
                .iterations
        };
        let small = iters_at(0.03);
        let large = iters_at(0.5);
        assert!(
            small >= large,
            "tiny samples ({small} iters) should need at least as many iterations as large ones ({large})"
        );
    }
}
