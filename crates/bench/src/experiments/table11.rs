//! Table 11: AU-Filter (heuristics) runtime with the suggested τ vs a
//! random τ vs the worst τ.
//!
//! Paper shape: the suggested parameter tracks the per-θ optimum; random
//! picks cost ~1.5× more on average and the worst pick 2–8× more.

use crate::experiments::sized;
use crate::harness::{fmt_secs, med_dataset, Table};
use au_core::config::SimConfig;
use au_core::engine::{Engine, JoinSpec};
use au_core::signature::FilterKind;
use au_core::suggest::SuggestConfig;

/// Run the experiment; returns the rendered table.
pub fn run(scale: f64) -> String {
    let cfg = SimConfig::default();
    let ds = med_dataset(sized(1000, scale), 111);
    let engine = Engine::new(ds.kn.clone(), cfg).expect("valid config");
    let ps = engine.prepare(&ds.s).expect("prepare S");
    let pt = engine.prepare(&ds.t).expect("prepare T");
    let universe = [1u32, 2, 3, 4, 5];
    let mut table = Table::new(
        "Table 11 — AU-heuristic time by τ-selection policy (MED-like)",
        &["θ", "suggested τ", "suggested", "random (mean)", "worst"],
    );
    for theta in [0.75, 0.80, 0.85, 0.90, 0.95] {
        // Measure every τ once.
        let times: Vec<f64> = universe
            .iter()
            .map(|&tau| {
                engine
                    .join(&ps, &pt, &JoinSpec::threshold(theta).au_heuristic(tau))
                    .expect("prepared join")
                    .stats
                    .total_time()
                    .as_secs_f64()
            })
            .collect();
        let model = engine
            .calibrate(&ps, &pt, theta, FilterKind::AuHeuristic { tau: 2 })
            .expect("calibrate");
        let sc = SuggestConfig {
            ps: 0.1,
            pt: 0.1,
            n_star: 5,
            max_iters: 25,
            universe: universe.to_vec(),
            ..Default::default()
        };
        let pick = engine
            .suggest_tau(&ps, &pt, theta, &model, &sc)
            .expect("suggest");
        let idx = universe.iter().position(|&t| t == pick.tau).unwrap();
        let mean: f64 = times.iter().sum::<f64>() / times.len() as f64;
        let worst = times.iter().copied().fold(0.0, f64::max);
        table.row(vec![
            format!("{theta:.2}"),
            pick.tau.to_string(),
            fmt_secs(times[idx]),
            fmt_secs(mean),
            fmt_secs(worst),
        ]);
    }
    table.emit()
}

#[cfg(test)]
mod tests {
    use super::*;
    use au_core::estimate::CostModel;

    #[test]
    fn suggested_not_worse_than_worst() {
        let ds = med_dataset(250, 17);
        let engine = Engine::new(ds.kn.clone(), SimConfig::default()).expect("valid config");
        let ps = engine.prepare(&ds.s).expect("prepare S");
        let pt = engine.prepare(&ds.t).expect("prepare T");
        let theta = 0.85;
        let universe = [1u32, 2, 3, 4];
        let costs: Vec<u64> = universe
            .iter()
            .map(|&tau| {
                let r = engine
                    .join(&ps, &pt, &JoinSpec::threshold(theta).au_heuristic(tau))
                    .expect("prepared join");
                // cost proxy: processed pairs + 20×candidates (stable,
                // unlike wall-clock on tiny data)
                r.stats.processed_pairs + 20 * r.stats.candidates
            })
            .collect();
        let model = CostModel {
            c_f: 1.0,
            c_v: 20.0,
        };
        let sc = SuggestConfig {
            ps: 0.3,
            pt: 0.3,
            n_star: 5,
            max_iters: 30,
            universe: universe.to_vec(),
            ..Default::default()
        };
        let pick = engine
            .suggest_tau(&ps, &pt, theta, &model, &sc)
            .expect("suggest");
        let idx = universe.iter().position(|&t| t == pick.tau).unwrap();
        let worst = *costs.iter().max().unwrap();
        let best = *costs.iter().min().unwrap();
        // Suggested τ should land in the better half of the cost range.
        let mid = best + (worst - best);
        assert!(
            costs[idx] <= mid,
            "suggested τ={} cost {} vs range [{best}, {worst}]",
            pick.tau,
            costs[idx]
        );
    }
}
