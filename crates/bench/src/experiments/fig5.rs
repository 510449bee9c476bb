//! Figure 5: filtering power of the three filters vs τ at θ = 0.85.
//!
//! Paper shape: U-Filter is flat (it ignores τ); the AU filters' signature
//! lengths grow with τ while their candidate counts fall well below
//! U-Filter's — the DP variant with the shortest signatures *and* fewest
//! candidates (50–60% pruned for the heuristic, 70–90% for DP).

use crate::experiments::sized;
use crate::harness::{med_dataset, wiki_dataset, Table};
use au_core::config::SimConfig;
use au_core::engine::{Engine, JoinSpec};
use au_core::signature::FilterKind;

/// Run the experiment; returns the rendered tables.
pub fn run(scale: f64) -> String {
    let theta = 0.85;
    let mut out = String::new();
    for (name, ds) in [
        ("MED-like", med_dataset(sized(1200, scale), 51)),
        ("WIKI-like", wiki_dataset(sized(1200, scale), 52)),
    ] {
        let engine = Engine::new(ds.kn.clone(), SimConfig::default()).expect("valid config");
        let ps = engine.prepare(&ds.s).expect("prepare S");
        let pt = engine.prepare(&ds.t).expect("prepare T");
        let mut sig = Table::new(
            &format!("Figure 5 — avg signature length, θ=0.85 ({name})"),
            &["τ", "U-Filter", "AU-heur", "AU-DP"],
        );
        let mut cand = Table::new(
            &format!("Figure 5 — candidates, θ=0.85 ({name})"),
            &["τ", "U-Filter", "AU-heur", "AU-DP"],
        );
        for tau in [1u32, 2, 4, 6, 8] {
            let mut s_cells = vec![tau.to_string()];
            let mut c_cells = vec![tau.to_string()];
            for filter in [
                FilterKind::UFilter,
                FilterKind::AuHeuristic { tau },
                FilterKind::AuDp { tau },
            ] {
                let spec = JoinSpec::threshold(theta).filter(filter).serial();
                let o = engine
                    .filter_outcome(&ps, Some(&pt), &spec)
                    .expect("filter run");
                s_cells.push(format!("{:.1}", o.avg_sig_len_s));
                c_cells.push(o.candidates.len().to_string());
            }
            sig.row(s_cells);
            cand.row(c_cells);
        }
        out.push_str(&sig.emit());
        out.push_str(&cand.emit());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dp_prunes_at_least_as_well_as_heuristic() {
        let ds = med_dataset(300, 15);
        let engine = Engine::new(ds.kn.clone(), SimConfig::default()).unwrap();
        let ps = engine.prepare(&ds.s).unwrap();
        let pt = engine.prepare(&ds.t).unwrap();
        for tau in [2u32, 4] {
            let run = |filter| {
                let spec = JoinSpec::threshold(0.85).filter(filter).serial();
                engine.filter_outcome(&ps, Some(&pt), &spec).unwrap()
            };
            let h = run(FilterKind::AuHeuristic { tau });
            let d = run(FilterKind::AuDp { tau });
            // DP signatures are no longer than the heuristic's (±1 pebble
            // boundary convention, hence the small slack).
            assert!(
                d.avg_sig_len_s <= h.avg_sig_len_s + 1.0,
                "τ={tau}: DP sig {} vs heuristic {}",
                d.avg_sig_len_s,
                h.avg_sig_len_s
            );
            assert!(
                d.candidates.len() <= h.candidates.len() + (h.candidates.len() / 10).max(4),
                "τ={tau}: DP candidates {} vs heuristic {}",
                d.candidates.len(),
                h.candidates.len()
            );
        }
    }
}
