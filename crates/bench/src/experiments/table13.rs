//! Table 13: effectiveness of the unified measure vs existing algorithms.
//!
//! Paper shape: every single-measure baseline has low recall; their union
//! ("Combination") improves but still misses mixed-relation pairs; the
//! unified measure dominates on F-measure.

use crate::experiments::sized;
use crate::harness::{med_dataset, score_pairs, wiki_dataset, Table};
use au_baselines::{adapt_join, combination_join, k_join, pkduck_join};
use au_baselines::{AdaptJoinConfig, PkduckConfig};
use au_core::config::SimConfig;
use au_core::engine::{Engine, JoinSpec};

/// Run the experiment; returns the rendered tables.
pub fn run(scale: f64) -> String {
    let mut out = String::new();
    for (name, ds) in [
        ("MED-like", med_dataset(sized(600, scale), 141)),
        ("WIKI-like", wiki_dataset(sized(600, scale), 142)),
    ] {
        let mut table = Table::new(
            &format!("Table 13 — effectiveness vs baselines ({name})"),
            &["method", "θ=0.70 P", "R", "F", "θ=0.75 P", "R", "F"],
        );
        let cfg = SimConfig::default();
        let engine = Engine::new(ds.kn.clone(), cfg).expect("valid config");
        let ps = engine.prepare(&ds.s).expect("prepare S");
        let pt = engine.prepare(&ds.t).expect("prepare T");
        type Runner<'a> = Box<dyn Fn(f64) -> Vec<(u32, u32)> + 'a>;
        let methods: Vec<(&str, Runner)> = vec![
            (
                "K-Join",
                Box::new(|theta| k_join(&ds.kn, &ds.s, &ds.t, theta).id_pairs()),
            ),
            (
                "AdaptJoin",
                Box::new(|theta| {
                    adapt_join(&ds.s, &ds.t, theta, &AdaptJoinConfig::default()).id_pairs()
                }),
            ),
            (
                "PKduck",
                Box::new(|theta| {
                    pkduck_join(&ds.kn, &ds.s, &ds.t, theta, &PkduckConfig::default()).id_pairs()
                }),
            ),
            (
                "Combination",
                Box::new(|theta| combination_join(&ds.kn, &ds.s, &ds.t, theta).id_pairs()),
            ),
            (
                "Ours (TJS)",
                Box::new(|theta| {
                    engine
                        .join(&ps, &pt, &JoinSpec::threshold(theta).au_dp(2))
                        .expect("prepared join")
                        .pairs
                        .iter()
                        .map(|&(a, b, _)| (a, b))
                        .collect()
                }),
            ),
        ];
        for (label, runner) in &methods {
            let mut cells = vec![label.to_string()];
            for theta in [0.70, 0.75] {
                let prf = score_pairs(&ds, &runner(theta));
                cells.push(format!("{:.2}", prf.p));
                cells.push(format!("{:.2}", prf.r));
                cells.push(format!("{:.2}", prf.f));
            }
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
    fn ours_beats_combination_on_recall() {
        let ds = med_dataset(200, 29);
        let theta = 0.7;
        let engine = Engine::new(ds.kn.clone(), SimConfig::default()).expect("valid config");
        let ps = engine.prepare(&ds.s).expect("prepare S");
        let pt = engine.prepare(&ds.t).expect("prepare T");
        let combo = score_pairs(
            &ds,
            &combination_join(&ds.kn, &ds.s, &ds.t, theta).id_pairs(),
        );
        let ours_pairs: Vec<(u32, u32)> = engine
            .join(&ps, &pt, &JoinSpec::threshold(theta).au_dp(2))
            .expect("prepared join")
            .pairs
            .iter()
            .map(|&(a, b, _)| (a, b))
            .collect();
        let ours = score_pairs(&ds, &ours_pairs);
        assert!(
            ours.r >= combo.r - 1e-9,
            "unified recall {} below combination {}",
            ours.r,
            combo.r
        );
        assert!(ours.r > 0.5, "unified recall low: {}", ours.r);
    }
}
