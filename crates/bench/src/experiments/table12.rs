//! Table 12: suggestion accuracy and the fraction of join time it costs.
//!
//! Paper shape: the recommender picks the truly optimal τ in ≥ 90% of
//! runs using tiny samples, and its cost stays below ~2% of the join.

use crate::experiments::sized;
use crate::harness::{med_dataset, Table};
use au_core::config::SimConfig;
use au_core::engine::{Engine, JoinSpec};
use au_core::signature::FilterKind;
use au_core::suggest::SuggestConfig;

/// Run the experiment; returns the rendered table.
pub fn run(scale: f64) -> String {
    let cfg = SimConfig::default();
    let ds = med_dataset(sized(800, scale), 121);
    let engine = Engine::new(ds.kn.clone(), cfg).expect("valid config");
    let ps = engine.prepare(&ds.s).expect("prepare S");
    let pt = engine.prepare(&ds.t).expect("prepare T");
    let universe = [1u32, 2, 3, 4];
    let runs = 20usize;
    let mut table = Table::new(
        "Table 12 — suggestion accuracy / time fraction (MED-like)",
        &["θ", "accuracy", "time fraction", "true best τ"],
    );
    for theta in [0.75, 0.80, 0.85, 0.90, 0.95] {
        let model = engine
            .calibrate(&ps, &pt, theta, FilterKind::AuHeuristic { tau: 2 })
            .expect("calibrate");
        // True best τ under the calibrated cost model, measured on the
        // full datasets.
        let true_costs: Vec<f64> = universe
            .iter()
            .map(|&tau| {
                let r = engine
                    .join(&ps, &pt, &JoinSpec::threshold(theta).au_heuristic(tau))
                    .expect("prepared join");
                model.c_f * r.stats.processed_pairs as f64 + model.c_v * r.stats.candidates as f64
            })
            .collect();
        let best_idx = (0..universe.len())
            .min_by(|&a, &b| true_costs[a].total_cmp(&true_costs[b]))
            .unwrap();
        let best_tau = universe[best_idx];

        let join_time = engine
            .join(&ps, &pt, &JoinSpec::threshold(theta).au_heuristic(best_tau))
            .expect("prepared join")
            .stats
            .total_time()
            .as_secs_f64();

        let mut hits = 0usize;
        let mut sum_suggest = 0.0;
        for run in 0..runs {
            let sc = SuggestConfig {
                ps: 0.08,
                pt: 0.08,
                n_star: 5,
                max_iters: 25,
                universe: universe.to_vec(),
                seed: 0x5EED_0000 + run as u64,
                ..Default::default()
            };
            let pick = engine
                .suggest_tau(&ps, &pt, theta, &model, &sc)
                .expect("suggest");
            sum_suggest += pick.elapsed.as_secs_f64();
            // Count near-optimal picks: within 10% of the true best cost.
            let idx = universe.iter().position(|&t| t == pick.tau).unwrap();
            if true_costs[idx] <= true_costs[best_idx] * 1.10 + 1e-12 {
                hits += 1;
            }
        }
        let acc = 100.0 * hits as f64 / runs as f64;
        let frac = 100.0 * (sum_suggest / runs as f64) / join_time.max(1e-9);
        table.row(vec![
            format!("{theta:.2}"),
            format!("{acc:.0}%"),
            format!("{frac:.1}%"),
            best_tau.to_string(),
        ]);
    }
    table.emit()
}

#[cfg(test)]
mod tests {
    use super::*;
    use au_core::estimate::CostModel;

    #[test]
    fn accuracy_reasonable_on_small_fixture() {
        let ds = med_dataset(300, 19);
        let engine = Engine::new(ds.kn.clone(), SimConfig::default()).expect("valid config");
        let ps = engine.prepare(&ds.s).expect("prepare S");
        let pt = engine.prepare(&ds.t).expect("prepare T");
        let theta = 0.85;
        let universe = [1u32, 2, 3];
        let model = CostModel {
            c_f: 1.0,
            c_v: 20.0,
        };
        let true_costs: Vec<f64> = universe
            .iter()
            .map(|&tau| {
                let r = engine
                    .join(&ps, &pt, &JoinSpec::threshold(theta).au_heuristic(tau))
                    .expect("prepared join");
                model.c_f * r.stats.processed_pairs as f64 + model.c_v * r.stats.candidates as f64
            })
            .collect();
        let best = true_costs.iter().copied().fold(f64::INFINITY, f64::min);
        let mut hits = 0;
        let runs = 10;
        for run in 0..runs {
            let sc = SuggestConfig {
                ps: 0.25,
                pt: 0.25,
                n_star: 5,
                max_iters: 30,
                universe: universe.to_vec(),
                seed: run,
                ..Default::default()
            };
            let pick = engine
                .suggest_tau(&ps, &pt, theta, &model, &sc)
                .expect("suggest");
            let idx = universe.iter().position(|&t| t == pick.tau).unwrap();
            if true_costs[idx] <= best * 1.15 {
                hits += 1;
            }
        }
        assert!(hits >= runs / 2, "only {hits}/{runs} near-optimal picks");
    }
}
