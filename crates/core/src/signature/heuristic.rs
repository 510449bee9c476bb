//! AU-Filter heuristic signature selection (Algorithm 4, Lemma 2).
//!
//! To demand τ overlapping pebbles instead of one, the removal budget must
//! additionally cover the τ−1 heaviest pebbles that *stay* in the
//! signature: a similar pair could overlap on those τ−1 signature pebbles
//! plus mass hidden in the removed suffix. Removal therefore continues
//! only while `AS(suffix) + TW_{τ−1}(prefix) < θ·MP(S)`.

use crate::pebble::Pebble;
use crate::segment::SegRecord;
use crate::signature::common::{min_partition_bound, prefix_topk_sums, suffix_masses};

/// Signature prefix length for AU-Filter (heuristics) with overlap
/// constraint `tau`.
///
/// Mirrors Algorithm 4: scan candidate lengths from `n` downward and
/// return the first (largest) length `L` whose test
/// `AS(B[L−1..)) + TW_{τ−1}(B[0..L)) ≥ θ·MP(S)` fails to justify another
/// removal. Note both sides of the paper's test share the boundary pebble
/// (a deliberate overestimate, kept for faithfulness). Returns 0 when even
/// the full list cannot reach the threshold.
///
/// Deviation from the literal Algorithm 4: the paper's repeat-loop always
/// removes at least one pebble, which can empty a short record's
/// signature outright (e.g. a single-pebble record at any τ) and lose
/// true positives; candidates here start at `n` — keeping the whole list
/// is a valid outcome, exactly as Lemma 2's "smallest `i` satisfying the
/// inequality" reading allows.
///
/// Requires equal keys to be adjacent in `pebbles` (see
/// [`prefix_topk_sums`]).
pub fn heuristic_prefix_len(
    sr: &SegRecord,
    pebbles: &[Pebble],
    tau: u32,
    theta: f64,
    eps: f64,
) -> usize {
    let n = pebbles.len();
    if n == 0 {
        return 0;
    }
    let m = min_partition_bound(sr);
    let target = theta * m as f64;
    if target <= eps {
        // Zero removal budget → the signature is the whole list.
        return n;
    }
    let mass = suffix_masses(sr, pebbles);
    let tw = prefix_topk_sums(pebbles, tau as usize - 1);
    for len in (1..=n).rev() {
        if mass[len - 1] + tw[len] >= target - eps {
            return len;
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::knowledge::tests::kn_figure1;
    use crate::pebble::{generate_pebbles, PebbleOrder};
    use crate::segment::segment_record;
    use crate::signature::ufilter::ufilter_prefix_len;

    fn fixture(text: &str) -> (SegRecord, Vec<Pebble>, SimConfig) {
        let mut kn = kn_figure1();
        let cfg = SimConfig::default();
        let id = kn.add_record(text);
        let sr = segment_record(&kn, &cfg, &kn.record(id).tokens);
        let mut p = generate_pebbles(&kn, &cfg, &sr);
        let order = PebbleOrder::build(std::iter::once(p.as_slice()));
        order.sort(&mut p, &mut Default::default());
        (sr, p, cfg)
    }

    #[test]
    fn larger_tau_keeps_more_pebbles() {
        let (sr, p, cfg) = fixture("espresso cafe helsinki coffee shop latte");
        let mut last = 0usize;
        for tau in 1..=6u32 {
            let len = heuristic_prefix_len(&sr, &p, tau, 0.8, cfg.eps);
            assert!(len >= last, "τ={tau}: {len} < {last}");
            last = len;
        }
        assert!(last > 0);
    }

    #[test]
    fn tau_one_matches_ufilter() {
        // With τ = 1, TW_0 = 0 and the test degenerates to U-Filter's
        // suffix-mass bound (with the shared-boundary overestimate, which
        // U-Filter's strict `<` scan produces identically).
        let (sr, p, cfg) = fixture("espresso cafe helsinki");
        for theta in [0.7, 0.8, 0.9] {
            let u = ufilter_prefix_len(&sr, &p, theta, cfg.eps);
            let h = heuristic_prefix_len(&sr, &p, 1, theta, cfg.eps);
            assert_eq!(h, u, "θ={theta}");
        }
    }

    #[test]
    fn single_pebble_record_keeps_its_pebble() {
        // Regression: a record with one heavy pebble must not end up with
        // an empty signature just because τ > 1 asked for more overlaps
        // than exist (the guarantee level handles the τ demand; the
        // signature itself must survive).
        let (sr, p, cfg) = fixture("espresso cafe helsinki");
        let single = &p[..1];
        let mut boosted = single.to_vec();
        boosted[0].weight = 1.0;
        let len = heuristic_prefix_len(&sr, &boosted, 1, 0.2, cfg.eps);
        assert_eq!(len, 1);
    }

    #[test]
    fn example7_style_budget_accounting() {
        // String T of Figure 1 with θ=0.8, τ=4: the top-3 signature
        // pebbles (the synonym lhs at weight 1 plus heavy grams) extend the
        // removal budget, so the heuristic keeps more pebbles than τ=1.
        let (sr, p, cfg) = fixture("espresso cafe helsinki");
        let t1 = heuristic_prefix_len(&sr, &p, 1, 0.8, cfg.eps);
        let t4 = heuristic_prefix_len(&sr, &p, 4, 0.8, cfg.eps);
        assert!(t4 > t1, "τ=4 ({t4}) must keep more than τ=1 ({t1})");
        let mass = suffix_masses(&sr, &p);
        let tw = prefix_topk_sums(&p, 3);
        assert!(mass[t4 - 1] + tw[t4] >= 0.8 * 3.0 - 1e-9);
    }

    #[test]
    fn impossible_threshold_prunes() {
        let (sr, mut p, cfg) = fixture("latte espresso");
        for x in &mut p {
            x.weight *= 0.05;
        }
        assert_eq!(heuristic_prefix_len(&sr, &p, 3, 0.9, cfg.eps), 0);
    }

    #[test]
    fn empty_and_zero_theta() {
        let (sr, p, cfg) = fixture("latte espresso");
        assert_eq!(heuristic_prefix_len(&sr, &[], 2, 0.8, cfg.eps), 0);
        // θ=0: zero removal budget keeps the whole list.
        assert_eq!(heuristic_prefix_len(&sr, &p, 3, 0.0, cfg.eps), p.len());
    }
}
