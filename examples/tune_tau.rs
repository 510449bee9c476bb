//! Choosing the overlap constraint τ with the sampling-based recommender
//! (Section 4 of the paper).
//!
//! The demo calibrates the cost model on a sample, runs Algorithm 7 at
//! several thresholds, and cross-checks the recommendation against
//! exhaustively measured per-τ filter costs. Everything — calibration,
//! sampling iterations, and the verification joins — runs on one engine
//! and one pair of prepared corpora: the full datasets are segmented
//! exactly once for the whole sweep.
//!
//! Run: `cargo run --release --example tune_tau`

use au_join::datagen::{DatasetProfile, LabeledDataset};
use au_join::prelude::*;

fn main() -> Result<(), AuError> {
    let profile = DatasetProfile::med_like(0.5);
    let ds = LabeledDataset::generate(&profile, 1000, 1000, 200, 7);
    let universe = vec![1u32, 2, 3, 4, 5];

    let engine = Engine::new(ds.kn, SimConfig::default())?;
    let ps = engine.prepare(&ds.s)?;
    let pt = engine.prepare(&ds.t)?;

    println!("θ      suggested  iters  est cost    measured best");
    for theta in [0.75, 0.85, 0.95] {
        // Calibrate c_f / c_v on the prepared state (no re-preparation).
        let model = engine.calibrate(&ps, &pt, theta, FilterKind::AuHeuristic { tau: 2 })?;

        // Algorithm 7.
        let sc = SuggestConfig {
            ps: 0.08,
            pt: 0.08,
            n_star: 8,
            max_iters: 60,
            universe: universe.clone(),
            ..Default::default()
        };
        let pick = engine.suggest_tau(&ps, &pt, theta, &model, &sc)?;

        // Exhaustive comparison: run the real join per τ on the same
        // prepared artifacts.
        let mut best = (0u32, f64::INFINITY);
        for &tau in &universe {
            let r = engine.join(&ps, &pt, &JoinSpec::threshold(theta).au_heuristic(tau))?;
            let t = r.stats.total_time().as_secs_f64();
            if t < best.1 {
                best = (tau, t);
            }
        }
        let est = pick
            .estimates
            .iter()
            .find(|&&(t, _)| t == pick.tau)
            .map(|&(_, c)| c)
            .unwrap_or(f64::NAN);
        println!(
            "{theta:.2}   τ={:<8} {:<6} {:<10.4} τ={} ({:.3}s)",
            pick.tau, pick.iterations, est, best.0, best.1
        );
    }
    println!("\n(suggestions use ~8% Bernoulli samples; the paper's Table 12 reports ≥90% accuracy at 0.003% of 3.5M records)");
    Ok(())
}
