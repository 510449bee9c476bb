//! Table 10: AU-Filter (DP) join time broken into suggestion, filtering
//! and verification, across dataset sizes.
//!
//! Paper shape: filtering and verification grow roughly linearly with
//! size; the suggestion overhead is flat (sample-sized) and quickly drops
//! below 1% of the total.

use crate::experiments::sized;
use crate::harness::{fmt_secs, med_dataset, Table};
use au_core::config::SimConfig;
use au_core::engine::{Engine, JoinSpec};
use au_core::signature::FilterKind;
use au_core::suggest::SuggestConfig;

/// Run the experiment; returns the rendered table.
pub fn run(scale: f64) -> String {
    let cfg = SimConfig::default();
    let theta = 0.90;
    let mut table = Table::new(
        "Table 10 — AU-DP time breakdown (MED-like, θ=0.90)",
        &["size", "suggest", "filter", "verify", "suggest %"],
    );
    for step in [1usize, 2, 3, 4, 5, 6] {
        let n = sized(400 * step, scale);
        let ds = med_dataset(n, 101);
        let engine = Engine::new(ds.kn.clone(), cfg).expect("valid config");
        let ps = engine.prepare(&ds.s).expect("prepare S");
        let pt = engine.prepare(&ds.t).expect("prepare T");
        let model = engine
            .calibrate(&ps, &pt, theta, FilterKind::AuDp { tau: 2 })
            .expect("calibrate");
        let sc = SuggestConfig {
            ps: (200.0 / n as f64).min(0.5),
            pt: (200.0 / n as f64).min(0.5),
            n_star: 5,
            max_iters: 20,
            universe: vec![1, 2, 3, 4, 5],
            use_dp: true,
            ..Default::default()
        };
        let pick = engine
            .suggest_tau(&ps, &pt, theta, &model, &sc)
            .expect("suggest");
        let res = engine
            .join(&ps, &pt, &JoinSpec::threshold(theta).au_dp(pick.tau))
            .expect("prepared join");
        let suggest_s = pick.elapsed.as_secs_f64();
        let filter_s = (res.stats.sig_time + res.stats.filter_time).as_secs_f64();
        let verify_s = res.stats.verify_time.as_secs_f64();
        let frac = 100.0 * suggest_s / (suggest_s + filter_s + verify_s);
        table.row(vec![
            n.to_string(),
            fmt_secs(suggest_s),
            fmt_secs(filter_s),
            fmt_secs(verify_s),
            format!("{frac:.1}%"),
        ]);
    }
    table.emit()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_parts_are_positive() {
        let ds = med_dataset(200, 13);
        let engine = Engine::new(ds.kn.clone(), SimConfig::default()).expect("valid config");
        let ps = engine.prepare(&ds.s).expect("prepare S");
        let pt = engine.prepare(&ds.t).expect("prepare T");
        let res = engine
            .join(&ps, &pt, &JoinSpec::threshold(0.9).au_dp(2))
            .expect("prepared join");
        assert!(res.stats.sig_time.as_nanos() > 0);
        assert!(res.stats.total_time() >= res.stats.verify_time);
        // Stage 1 was paid once, at prepare time.
        assert!(ps.prepare_seconds() > 0.0);
    }
}
