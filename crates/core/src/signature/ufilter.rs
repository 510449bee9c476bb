//! U-Filter signature selection (Algorithm 2, Lemma 1).
//!
//! Remove pebbles from the tail of the globally-ordered list while the
//! *accumulated similarity* of the removed suffix stays below
//! `θ · MP(S)`: a string pair with `USIM ≥ θ` must carry at least
//! `θ · max(|P_S|, |P_T|) ≥ θ · MP(S)` of matched similarity mass, and
//! every unit of mass is witnessed by an overlapping pebble, so the
//! overlap cannot hide entirely in a suffix with less mass than that.

use crate::pebble::Pebble;
use crate::segment::SegRecord;
use crate::signature::common::{min_partition_bound, suffix_masses};

/// Signature prefix length for U-Filter.
///
/// Returns the smallest `L` such that the suffix `B[L..)` has accumulated
/// similarity `< θ·MP(S)`; `L = 0` means the whole record can never reach
/// the threshold (it is pruned entirely).
pub fn ufilter_prefix_len(sr: &SegRecord, pebbles: &[Pebble], theta: f64, eps: f64) -> usize {
    let m = min_partition_bound(sr);
    let target = theta * m as f64;
    if target <= eps {
        // An empty record (or θ ≈ 0): the removal budget θ·MP is zero, so
        // no pebble is removable — the signature is the whole list. (No
        // threshold operation accepts θ = 0: zero-similarity pairs have no
        // overlap witness, so such a join could not be complete.)
        return pebbles.len();
    }
    let mass = suffix_masses(sr, pebbles);
    // mass is non-increasing in the index; find the first index below the
    // target (it exists because mass[n] = 0 < target).
    mass.iter()
        .position(|&v| v < target - eps)
        .expect("mass[n] = 0 is always below a positive target")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::knowledge::tests::kn_figure1;
    use crate::knowledge::Knowledge;
    use crate::pebble::{generate_pebbles, PebbleOrder};
    use crate::segment::segment_record;

    fn sorted_pebbles(kn: &Knowledge, cfg: &SimConfig, sr: &SegRecord) -> Vec<Pebble> {
        let mut p = generate_pebbles(kn, cfg, sr);
        let order = PebbleOrder::build(std::iter::once(p.as_slice()));
        order.sort(&mut p, &mut Default::default());
        p
    }

    #[test]
    fn example6_like_selection() {
        // String T of Figure 1: "espresso cafe helsinki", θ = 0.8, m = 3 →
        // target 2.4. Total mass is 3.0 (see common tests), so some suffix
        // is removable but most pebbles stay.
        let mut kn = kn_figure1();
        let cfg = SimConfig::default();
        let id = kn.add_record("espresso cafe helsinki");
        let sr = segment_record(&kn, &cfg, &kn.record(id).tokens);
        let p = sorted_pebbles(&kn, &cfg, &sr);
        let len = ufilter_prefix_len(&sr, &p, 0.8, cfg.eps);
        assert!(len > 0 && len < p.len(), "len {len} of {}", p.len());
        // The removed mass must stay under the target and the kept prefix
        // must push it to (or past) the boundary.
        let mass = suffix_masses(&sr, &p);
        assert!(mass[len] < 2.4);
        assert!(mass[len - 1] >= 2.4 - 1e-9);
    }

    #[test]
    fn lower_theta_means_longer_signature() {
        let mut kn = kn_figure1();
        let cfg = SimConfig::default();
        let id = kn.add_record("coffee shop latte helsingki espresso cake");
        let sr = segment_record(&kn, &cfg, &kn.record(id).tokens);
        let p = sorted_pebbles(&kn, &cfg, &sr);
        let mut last = 0usize;
        for theta in [0.95, 0.85, 0.75, 0.6] {
            let len = ufilter_prefix_len(&sr, &p, theta, cfg.eps);
            assert!(
                len >= last,
                "θ={theta}: signature shrank from {last} to {len}"
            );
            last = len;
        }
    }

    #[test]
    fn impossible_threshold_prunes_record() {
        // A record whose total mass cannot reach θ·MP: θ=1 requires mass
        // ≥ MP = token count; mass is ≤ #segments... equal here, so use a
        // hand-built pebble list with tiny weights instead.
        let mut kn = kn_figure1();
        let cfg = SimConfig::default();
        let id = kn.add_record("latte espresso");
        let sr = segment_record(&kn, &cfg, &kn.record(id).tokens);
        let mut p = sorted_pebbles(&kn, &cfg, &sr);
        for x in &mut p {
            x.weight *= 0.1; // simulate weak pebbles
        }
        let len = ufilter_prefix_len(&sr, &p, 0.9, cfg.eps);
        assert_eq!(len, 0);
    }

    #[test]
    fn theta_zero_keeps_everything() {
        // Zero removal budget → no pebble is removable.
        let mut kn = kn_figure1();
        let cfg = SimConfig::default();
        let id = kn.add_record("latte espresso");
        let sr = segment_record(&kn, &cfg, &kn.record(id).tokens);
        let p = sorted_pebbles(&kn, &cfg, &sr);
        assert_eq!(ufilter_prefix_len(&sr, &p, 0.0, cfg.eps), p.len());
    }

    #[test]
    fn empty_record() {
        let kn = kn_figure1();
        let cfg = SimConfig::default();
        let sr = segment_record(&kn, &cfg, &[]);
        assert_eq!(ufilter_prefix_len(&sr, &[], 0.8, cfg.eps), 0);
    }
}
