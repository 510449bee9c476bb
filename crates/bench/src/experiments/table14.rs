//! Table 14: join time vs existing methods, matched by feature group.
//!
//! Each baseline is compared against AU-Join restricted to the same
//! measure (K-Join vs Ours(T), AdaptJoin vs Ours(J), PKduck vs Ours(S))
//! plus Combination vs Ours(TJS). Paper shape: ours wins most cells, and
//! the gap is largest at low thresholds; at very high θ the baselines can
//! be slightly faster because they return (far) fewer results.

use crate::experiments::sized;
use crate::harness::{fmt_secs, med_dataset, wiki_dataset, Table};
use au_baselines::{adapt_join, combination_join, k_join, pkduck_join};
use au_baselines::{AdaptJoinConfig, PkduckConfig};
use au_core::config::{MeasureSet, SimConfig};
use au_core::engine::{Engine, JoinSpec, Prepared};

/// Run the experiment; returns the rendered tables.
pub fn run(scale: f64) -> String {
    let thetas = [0.75, 0.80, 0.85, 0.90, 0.95];
    let mut out = String::new();
    for (name, ds) in [
        ("MED-like", med_dataset(sized(800, scale), 151)),
        ("WIKI-like", wiki_dataset(sized(800, scale), 152)),
    ] {
        let mut table = Table::new(
            &format!("Table 14 — join time vs baselines ({name})"),
            &["method", "θ=0.75", "0.80", "0.85", "0.90", "0.95"],
        );
        // One engine + prepared pair per measure restriction, shared by
        // the whole θ sweep of its row.
        let sessions: Vec<(MeasureSet, Engine, Prepared, Prepared)> =
            [MeasureSet::T, MeasureSet::J, MeasureSet::S, MeasureSet::TJS]
                .into_iter()
                .map(|m| {
                    let cfg = SimConfig::default().with_measures(m);
                    let engine = Engine::new(ds.kn.clone(), cfg).expect("valid config");
                    let ps = engine.prepare(&ds.s).expect("prepare S");
                    let pt = engine.prepare(&ds.t).expect("prepare T");
                    (m, engine, ps, pt)
                })
                .collect();
        let ours = |m: MeasureSet, theta: f64| {
            let (_, engine, ps, pt) = sessions
                .iter()
                .find(|(sm, ..)| *sm == m)
                .expect("session for measure");
            engine
                .join(ps, pt, &JoinSpec::threshold(theta).au_dp(2))
                .expect("prepared join")
                .stats
                .total_time()
                .as_secs_f64()
        };
        let rows: Vec<(String, Vec<f64>)> = vec![
            (
                "K-Join".into(),
                thetas
                    .iter()
                    .map(|&th| k_join(&ds.kn, &ds.s, &ds.t, th).time.as_secs_f64())
                    .collect(),
            ),
            (
                "Ours (T)".into(),
                thetas.iter().map(|&th| ours(MeasureSet::T, th)).collect(),
            ),
            (
                "AdaptJoin".into(),
                thetas
                    .iter()
                    .map(|&th| {
                        adapt_join(&ds.s, &ds.t, th, &AdaptJoinConfig::default())
                            .time
                            .as_secs_f64()
                    })
                    .collect(),
            ),
            (
                "Ours (J)".into(),
                thetas.iter().map(|&th| ours(MeasureSet::J, th)).collect(),
            ),
            (
                "PKduck".into(),
                thetas
                    .iter()
                    .map(|&th| {
                        pkduck_join(&ds.kn, &ds.s, &ds.t, th, &PkduckConfig::default())
                            .time
                            .as_secs_f64()
                    })
                    .collect(),
            ),
            (
                "Ours (S)".into(),
                thetas.iter().map(|&th| ours(MeasureSet::S, th)).collect(),
            ),
            (
                "Combination".into(),
                thetas
                    .iter()
                    .map(|&th| {
                        combination_join(&ds.kn, &ds.s, &ds.t, th)
                            .time
                            .as_secs_f64()
                    })
                    .collect(),
            ),
            (
                "Ours (TJS)".into(),
                thetas.iter().map(|&th| ours(MeasureSet::TJS, th)).collect(),
            ),
        ];
        for (label, times) in rows {
            let mut cells = vec![label];
            cells.extend(times.iter().map(|&t| fmt_secs(t)));
            table.row(cells);
        }
        out.push_str(&table.emit());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_at_tiny_scale() {
        // Smoke-test the whole comparison matrix at a minimal size.
        let report = run(0.05);
        assert!(report.contains("K-Join"));
        assert!(report.contains("Ours (TJS)"));
        assert!(report.contains("MED-like"));
        assert!(report.contains("WIKI-like"));
    }
}
