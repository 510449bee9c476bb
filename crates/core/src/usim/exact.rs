//! Exact unified similarity (Definition 3) by exhaustive enumeration.
//!
//! Theorem 1 shows `USIM` is NP-hard, so the exact value is computed by
//! enumerating every independent set of the conflict graph and scoring it
//! with [`get_sim`]. The enumeration honours `SimConfig::exact_budget`;
//! exceeding it returns `None` (callers fall back to the approximation).
//! This is the "exponential-time exact algorithm" used as ground truth in
//! Table 9 of the paper.

use crate::config::SimConfig;
use crate::knowledge::Knowledge;
use crate::segment::{segment_record, SegRecord};
use crate::usim::eval::get_sim;
use crate::usim::graph::build_graph;
use au_matching::exact_mis::for_each_independent_set;
use au_text::record::RecordId;

/// Exact USIM over pre-segmented records; `None` when the enumeration
/// budget is exhausted.
pub fn usim_exact_seg(
    kn: &Knowledge,
    cfg: &SimConfig,
    s: &SegRecord,
    t: &SegRecord,
) -> Option<f64> {
    let g = build_graph(kn, cfg, s, t);
    let mut best = 0.0f64;
    let complete = for_each_independent_set(&g.graph, cfg.exact_budget, |set| {
        let v = get_sim(s, t, &g, set);
        if v > best {
            best = v;
        }
    });
    complete.then_some(best)
}

/// Exact USIM of two records of the knowledge's built-in corpus.
pub fn usim_exact(kn: &Knowledge, s: RecordId, t: RecordId, cfg: &SimConfig) -> Option<f64> {
    let srec = segment_record(kn, cfg, &kn.record(s).tokens);
    let trec = segment_record(kn, cfg, &kn.record(t).tokens);
    usim_exact_seg(kn, cfg, &srec, &trec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knowledge::tests::kn_figure1;
    use crate::knowledge::KnowledgeBuilder;

    #[test]
    fn figure1_exact_value() {
        let mut kn = kn_figure1();
        let s = kn.add_record("coffee shop latte Helsingki");
        let t = kn.add_record("espresso cafe Helsinki");
        let cfg = SimConfig::default();
        let sim = usim_exact(&kn, s, t, &cfg).unwrap();
        // Example 3's partition (i) is optimal: (1 + 0.8 + J(helsingki,
        // helsinki)) / 3 = (1 + 0.8 + 2/3)/3 with our gram convention.
        let expected = (1.0 + 0.8 + 2.0 / 3.0) / 3.0;
        assert!((sim - expected).abs() < 1e-12, "got {sim}");
    }

    #[test]
    fn identical_strings_are_one() {
        let mut kn = kn_figure1();
        let cfg = SimConfig::default();
        for text in ["espresso", "coffee shop latte", "a b c d"] {
            let s = kn.add_record(text);
            let t = kn.add_record(text);
            let sim = usim_exact(&kn, s, t, &cfg).unwrap();
            assert!((sim - 1.0).abs() < 1e-12, "{text:?} gave {sim}");
        }
    }

    #[test]
    fn symmetric() {
        let mut kn = kn_figure1();
        let cfg = SimConfig::default();
        let a = kn.add_record("coffee shop latte Helsingki");
        let b = kn.add_record("espresso cafe Helsinki");
        let ab = usim_exact(&kn, a, b, &cfg).unwrap();
        let ba = usim_exact(&kn, b, a, &cfg).unwrap();
        assert!((ab - ba).abs() < 1e-12);
    }

    #[test]
    fn disjoint_strings_are_zero() {
        let mut kn = kn_figure1();
        let cfg = SimConfig::default();
        let a = kn.add_record("xyzzy quux");
        let b = kn.add_record("grault corge");
        assert_eq!(usim_exact(&kn, a, b, &cfg).unwrap(), 0.0);
    }

    #[test]
    #[allow(clippy::field_reassign_with_default)]
    fn budget_exhaustion_returns_none() {
        let mut kn = kn_figure1();
        // Long identical strings → huge numbers of independent sets.
        let text = "a b c d e f g h i j k l m n o p";
        let s = kn.add_record(text);
        let t = kn.add_record(text);
        let mut cfg = SimConfig::default();
        cfg.exact_budget = 10;
        assert_eq!(usim_exact(&kn, s, t, &cfg), None);
    }

    #[test]
    fn paper_example5_instance() {
        // Tokens a..e / f..h with rules R1..R5 of Figure 2; the optimal
        // unified similarity is 0.13 via {R1, R4} (Example 5).
        let mut b = KnowledgeBuilder::new();
        b.synonym("b c d", "f", 0.3); // R1
        b.synonym("b c", "f g", 0.13); // R2
        b.synonym("c d", "f g", 0.22); // R3
        b.synonym("a", "g", 0.09); // R4
        b.synonym("d", "h", 0.27); // R5
        b.synonym("z e f", "g", 0.5); // R6, inapplicable
        let mut kn = b.build();
        let s = kn.add_record("a b c d e");
        let t = kn.add_record("f g h");
        // Disable J so only the rule structure matters (as in the example).
        let cfg = SimConfig::default().with_measures(crate::config::MeasureSet::S);
        let sim = usim_exact(&kn, s, t, &cfg).unwrap();
        assert!((sim - 0.13).abs() < 1e-12, "got {sim}");
    }
}
