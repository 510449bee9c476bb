//! `GetSim`: score an independent set of the conflict graph (Eq. 5/6).
//!
//! A chosen independent set `A` fixes the matched segment pairs. The
//! partition pair it induces (Algorithm 1 Line 7, "partitions of S and T
//! constructed from A") is: the matched segments, plus a **minimum**
//! well-defined partition of the leftover tokens on each side — minimal
//! because Eq. 6 divides by `max(|P_S|, |P_T|)`, so leftover tokens should
//! be grouped into as few well-defined segments as possible.
//!
//! `sim(A) = Σ_{v∈A} w(v) / max(|A| + r_S, |A| + r_T)` where `r_X` is the
//! minimum residual partition size of side X.

use crate::segment::SegRecord;
use crate::usim::graph::UsimGraph;
use au_matching::min_partition_masked_with;

/// Reusable buffers for [`get_sim_with`]: the free-token masks of both
/// sides and the min-partition DP table. One instance lives per
/// verification worker; `GetSim` runs thousands of times per verified
/// candidate (once per enumerated claw swap), so the per-call `vec!`
/// allocations it used to make dominated the improvement loop.
#[derive(Debug, Clone, Default)]
pub struct EvalScratch {
    free_s: Vec<bool>,
    free_t: Vec<bool>,
    dp: Vec<u32>,
}

/// Score the independent set `set` (vertex indices of `g`). Both strings
/// empty scores 1 (identical); one empty scores 0.
pub fn get_sim(s: &SegRecord, t: &SegRecord, g: &UsimGraph, set: &[usize]) -> f64 {
    get_sim_with(s, t, g, set, &mut EvalScratch::default())
}

/// Allocation-free form of [`get_sim`]: identical value, buffers reused
/// from `ev`.
pub fn get_sim_with(
    s: &SegRecord,
    t: &SegRecord,
    g: &UsimGraph,
    set: &[usize],
    ev: &mut EvalScratch,
) -> f64 {
    let ns = s.n_tokens();
    let nt = t.n_tokens();
    if ns == 0 && nt == 0 {
        return 1.0;
    }
    if ns == 0 || nt == 0 {
        return 0.0;
    }
    ev.free_s.clear();
    ev.free_s.resize(ns, true);
    ev.free_t.clear();
    ev.free_t.resize(nt, true);
    let mut weight = 0.0;
    for &v in set {
        let vp = &g.vertices[v];
        weight += vp.weight;
        for slot in &mut ev.free_s[s.span(vp.s_seg)] {
            debug_assert!(*slot, "independent set covers a token twice");
            *slot = false;
        }
        for slot in &mut ev.free_t[t.span(vp.t_seg)] {
            debug_assert!(*slot, "independent set covers a token twice");
            *slot = false;
        }
    }
    let r_s = min_partition_masked_with(ns, &s.intervals_by_end, &ev.free_s, &mut ev.dp);
    let r_t = min_partition_masked_with(nt, &t.intervals_by_end, &ev.free_t, &mut ev.dp);
    let denom = (set.len() as u32 + r_s).max(set.len() as u32 + r_t);
    debug_assert!(denom > 0);
    weight / denom as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::knowledge::{Knowledge, KnowledgeBuilder};
    use crate::segment::segment_record;
    use crate::usim::graph::build_graph;

    fn setup() -> (Knowledge, SimConfig) {
        let mut b = KnowledgeBuilder::new();
        b.synonym("coffee shop", "cafe", 1.0);
        b.taxonomy_path(&["wikipedia", "food", "coffee", "coffee drinks", "latte"]);
        b.taxonomy_path(&["wikipedia", "food", "coffee", "coffee drinks", "espresso"]);
        (b.build(), SimConfig::default())
    }

    #[test]
    fn figure1_partition_choice_scores() {
        let (mut kn, cfg) = setup();
        let s = kn.add_record("coffee shop latte Helsingki");
        let t = kn.add_record("espresso cafe Helsinki");
        let srec = segment_record(&kn, &cfg, &kn.record(s).tokens);
        let trec = segment_record(&kn, &cfg, &kn.record(t).tokens);
        let g = build_graph(&kn, &cfg, &srec, &trec);
        let idx = |st: &str, tt: &str| {
            g.vertices
                .iter()
                .position(|v| srec.segment(v.s_seg).text == st && trec.segment(v.t_seg).text == tt)
                .unwrap()
        };
        // Partition (i) of Example 3: {coffee shop, latte, Helsingki}.
        let set = vec![
            idx("coffee shop", "cafe"),
            idx("latte", "espresso"),
            idx("helsingki", "helsinki"),
        ];
        let sim = get_sim(&srec, &trec, &g, &set);
        // (1 + 0.8 + 2/3) / 3 with our gram convention (paper: 0.892 with
        // its 0.875 helsinki score).
        let expected = (1.0 + 0.8 + 2.0 / 3.0) / 3.0;
        assert!((sim - expected).abs() < 1e-12, "got {sim}");
    }

    #[test]
    fn empty_set_scores_zero_over_min_partitions() {
        let (mut kn, cfg) = setup();
        let s = kn.add_record("coffee shop latte Helsingki");
        let t = kn.add_record("espresso cafe Helsinki");
        let srec = segment_record(&kn, &cfg, &kn.record(s).tokens);
        let trec = segment_record(&kn, &cfg, &kn.record(t).tokens);
        let g = build_graph(&kn, &cfg, &srec, &trec);
        assert_eq!(get_sim(&srec, &trec, &g, &[]), 0.0);
    }

    #[test]
    fn residual_grouping_shrinks_denominator() {
        // S = "a coffee shop", T = "espresso"; match nothing ⇒ 0. Match
        // (coffee, espresso) tax 0.6: residual S tokens {a, shop} are two
        // singletons → d_S = 1+2 = 3. But matching nothing and instead
        // matching ("coffee shop"→?) has no partner. Verify denominator uses
        // the residual "coffee shop" grouping when the match is elsewhere:
        // S = "x coffee shop", match (x, x)? keep simple and just check the
        // masked partition path with the synonym span free.
        let (mut kn, cfg) = setup();
        let s = kn.add_record("espresso coffee shop");
        let t = kn.add_record("latte");
        let srec = segment_record(&kn, &cfg, &kn.record(s).tokens);
        let trec = segment_record(&kn, &cfg, &kn.record(t).tokens);
        let g = build_graph(&kn, &cfg, &srec, &trec);
        let v = g
            .vertices
            .iter()
            .position(|v| {
                srec.segment(v.s_seg).text == "espresso" && trec.segment(v.t_seg).text == "latte"
            })
            .unwrap();
        let sim = get_sim(&srec, &trec, &g, &[v]);
        // numerator 0.8; residual S = {"coffee shop"} groups into ONE
        // segment (it's a rule side) → d_S = 1 + 1 = 2; d_T = 1 + 0 = 1.
        assert!((sim - 0.8 / 2.0).abs() < 1e-12, "got {sim}");
    }

    #[test]
    fn empty_vs_empty_and_empty_vs_nonempty() {
        let (mut kn, cfg) = setup();
        let s = kn.add_record("");
        let t = kn.add_record("espresso");
        let srec = segment_record(&kn, &cfg, &kn.record(s).tokens);
        let trec = segment_record(&kn, &cfg, &kn.record(t).tokens);
        let g = build_graph(&kn, &cfg, &srec, &trec);
        assert_eq!(get_sim(&srec, &srec, &g, &[]), 1.0);
        assert_eq!(get_sim(&srec, &trec, &g, &[]), 0.0);
    }

    #[test]
    fn identical_strings_score_one_with_full_matching() {
        let (mut kn, cfg) = setup();
        let s = kn.add_record("latte espresso");
        let srec = segment_record(&kn, &cfg, &kn.record(s).tokens);
        let g = build_graph(&kn, &cfg, &srec, &srec);
        // Choose the diagonal single-token matches (latte,latte),
        // (espresso,espresso).
        let set: Vec<usize> = g
            .vertices
            .iter()
            .enumerate()
            .filter(|(_, v)| v.s_seg == v.t_seg && v.s_seg < 2)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(set.len(), 2);
        let sim = get_sim(&srec, &srec, &g, &set);
        assert!((sim - 1.0).abs() < 1e-12);
    }
}
