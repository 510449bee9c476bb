//! Shared signature-selection machinery: accumulated similarity, top-k
//! prefix sums, and the minimum-partition lower bound `MP(S)`.
//!
//! **Precondition of every per-key aggregate here** ([`prefix_topk_sums`],
//! [`guarantee_level`]): all instances of one key are *adjacent* in the
//! pebble list. That is what sorting by the global order leaves behind
//! ([`crate::pebble::PebbleOrder::sort`] — any sort whose primary key is a
//! total order on pebble keys does), and it is what lets a key's aggregate
//! be summed over one run of the list instead of through a hash map.
//! Debug builds check it.

use crate::pebble::{Pebble, PebbleKey};
use crate::segment::SegRecord;

/// The maximal runs of equal-key pebbles, in list order.
pub(crate) fn key_runs(pebbles: &[Pebble]) -> impl Iterator<Item = &[Pebble]> {
    pebbles.chunk_by(|a, b| a.key == b.key)
}

/// Debug-build check of the module-level precondition: all instances of
/// every key are adjacent.
pub(crate) fn debug_assert_keys_adjacent(pebbles: &[Pebble]) {
    if cfg!(debug_assertions) {
        let mut firsts: Vec<PebbleKey> = key_runs(pebbles).map(|run| run[0].key).collect();
        let runs = firsts.len();
        firsts.sort_unstable();
        firsts.dedup();
        assert_eq!(
            firsts.len(),
            runs,
            "instances of one pebble key must be adjacent: sort by the global order first"
        );
    }
}

/// Incremental accumulated similarity (Definition 4):
/// `AS = Σ_P max_f W(B_{P,f})` over the pebbles added so far.
#[derive(Debug, Clone, Default)]
pub struct SuffixState {
    sums: Vec<[f64; 3]>,
    seg_max: Vec<f64>,
    total: f64,
}

impl SuffixState {
    /// State for a record with `n_segments` segments; AS = 0.
    pub fn new(n_segments: usize) -> Self {
        let mut st = Self::default();
        st.reset(n_segments);
        st
    }

    /// Back to AS = 0 for a record with `n_segments` segments, keeping the
    /// buffers.
    pub fn reset(&mut self, n_segments: usize) {
        self.sums.clear();
        self.sums.resize(n_segments, [0.0; 3]);
        self.seg_max.clear();
        self.seg_max.resize(n_segments, 0.0);
        self.total = 0.0;
    }

    /// Add one pebble to the tracked set.
    pub fn add(&mut self, p: &Pebble) {
        let s = p.seg as usize;
        self.sums[s][p.measure.idx()] += p.weight;
        let new_max = self.sums[s].iter().copied().fold(0.0, f64::max);
        self.total += new_max - self.seg_max[s];
        self.seg_max[s] = new_max;
    }

    /// Current accumulated similarity.
    pub fn value(&self) -> f64 {
        self.total
    }

    /// Raw per-measure sums of one segment (indexed by
    /// [`crate::msim::MeasureKind::idx`]).
    pub fn sums(&self, seg: usize) -> [f64; 3] {
        self.sums[seg]
    }

    /// `max_f` of one segment's per-measure sums.
    pub fn seg_max(&self, seg: usize) -> f64 {
        self.seg_max[seg]
    }
}

/// `mass[k] = AS(B[k..n))` for all suffix starts `k ∈ 0..=n`
/// (so `mass[n] = 0` and `mass[0]` is the whole record's mass).
pub fn suffix_masses(sr: &SegRecord, pebbles: &[Pebble]) -> Vec<f64> {
    let n = pebbles.len();
    let mut out = vec![0.0; n + 1];
    let mut st = SuffixState::new(sr.n_segments());
    for k in (0..n).rev() {
        st.add(&pebbles[k]);
        out[k] = st.value();
    }
    out
}

/// `tw[j] = Σ` of the `k` heaviest **per-key aggregated** masses among the
/// prefix `B[0..j)`, for all `j ∈ 0..=n` (`tw[0] = 0`). `k = 0` gives all
/// zeros. A key's aggregate is the total weight of *all* its prefix
/// instances.
///
/// This is the `TW_{τ−1}` budget of Eq. 8 made sound for duplicate keys:
/// the τ-overlap count of Algorithm 6 counts *distinct* common keys, and a
/// single key can carry pebble instances in several segments (taxonomy
/// ancestors shared by two entities, repeated tokens). Bounding the mass of
/// τ−1 shared keys by the τ−1 heaviest pebble *instances* — the paper's
/// reading — undercounts exactly then, and the filter drops true positives.
/// Aggregating per key restores the guarantee: the mass τ−1 shared keys can
/// carry is at most the sum of the τ−1 largest per-key aggregates.
///
/// Requires equal keys to be adjacent (module docs): the touched key's
/// aggregate is then a running sum that restarts at every key change.
pub fn prefix_topk_sums(pebbles: &[Pebble], k: usize) -> Vec<f64> {
    debug_assert_keys_adjacent(pebbles);
    let n = pebbles.len();
    let mut out = vec![0.0; n + 1];
    if k == 0 {
        return out;
    }
    // The k largest aggregates (unordered) and their running sum.
    // Aggregates only grow, so re-evaluating the touched key against the
    // current minimum keeps the invariant exact.
    let mut top: Vec<(PebbleKey, f64)> = Vec::with_capacity(k);
    let mut sum = 0.0f64;
    // Aggregate of the current key's run so far.
    let mut a = 0.0f64;
    for (j, p) in pebbles.iter().enumerate() {
        if j == 0 || pebbles[j - 1].key != p.key {
            a = 0.0;
        }
        a += p.weight;
        if let Some(t) = top.iter_mut().find(|t| t.0 == p.key) {
            sum += a - t.1;
            t.1 = a;
        } else if top.len() < k {
            top.push((p.key, a));
            sum += a;
        } else {
            let (mi, mv) = top
                .iter()
                .enumerate()
                .map(|(i, t)| (i, t.1))
                .min_by(|x, y| x.1.total_cmp(&y.1))
                .expect("top is non-empty when full");
            if a > mv {
                sum += a - mv;
                top[mi] = (p.key, a);
            }
        }
        out[j + 1] = sum;
    }
    out
}

/// The largest overlap constraint `τ' ≤ tau` this record can actually
/// *guarantee* (Lemma 2 feasibility).
///
/// Lemma 2's argument needs some `i` to satisfy
/// `θ·MP(S) > AS(i, S) + TW_{τ'−1}(B[1, i−1])`; the weakest instance is
/// `i = |B| + 1` (nothing removed), where the right side is
/// `TW_{τ'−1}(B)`. If even that fails — the record's `τ'−1` heaviest
/// keys alone already carry `θ·MP(S)` of mass, or the record simply has
/// fewer than `τ'` keys worth of evidence — then a θ-similar partner
/// may overlap on fewer than `τ'` pebbles and demanding `τ'` overlaps
/// would drop true positives. (The paper's Algorithm 4/6 overlooks this:
/// applied literally, a one-pebble record like `"a"` can never meet
/// `τ = 2` and the identical pair `("a", "a")` at `USIM = 1` is lost.)
///
/// Joins therefore select each record's signature at its guarantee level
/// and require `min(τ, level(S), level(T))` overlaps per pair — the
/// strongest demand that is still complete.
///
/// Requires equal keys to be adjacent (module docs).
pub fn guarantee_level(sr: &SegRecord, pebbles: &[Pebble], tau: u32, theta: f64, eps: f64) -> u32 {
    if tau <= 1 || pebbles.is_empty() {
        return tau.max(1);
    }
    let target = theta * min_partition_bound(sr) as f64;
    if target <= eps {
        // θ = 0: the τ-overlap demand is kept as-is (the degenerate
        // convention the selectors use too).
        return tau;
    }
    debug_assert_keys_adjacent(pebbles);
    // Per-key aggregated masses: a θ-similar partner overlapping on τ'−1
    // *distinct* keys can collect every instance of those keys (see
    // `prefix_topk_sums`), so feasibility must budget aggregates too. One
    // key is one run of the list.
    let mut weights: Vec<f64> = key_runs(pebbles)
        .map(|run| run.iter().fold(0.0, |agg, p| agg + p.weight))
        .collect();
    // Only the τ−1 heaviest are read, in descending order.
    let budget = (tau - 1) as usize;
    if weights.len() > budget {
        weights.select_nth_unstable_by(budget - 1, |a, b| b.total_cmp(a));
        weights.truncate(budget);
    }
    weights.sort_by(|a, b| b.total_cmp(a));
    let mut tw = 0.0f64; // TW_{τ'−1} for the current τ'
    let mut level = 1u32;
    for tprime in 2..=tau {
        let k = (tprime - 1) as usize; // heaviest-pebble budget at τ'
        if k <= weights.len() {
            tw += weights[k - 1];
        } // else TW saturates at the total mass
        if tw < target - eps {
            level = tprime;
        } else {
            break;
        }
    }
    level
}

/// The minimum number of well-defined segments in any partition of the
/// record (the `m` of Algorithms 2/4/5): the exact interval DP computed at
/// segmentation, 0 for an empty record.
pub fn min_partition_bound(sr: &SegRecord) -> u32 {
    sr.min_partition
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::knowledge::KnowledgeBuilder;
    use crate::pebble::generate_pebbles;
    use crate::segment::segment_record;
    use au_text::FxHashMap;

    fn fixture() -> (SegRecord, Vec<Pebble>) {
        let mut b = KnowledgeBuilder::new();
        b.synonym("coffee shop", "cafe", 1.0);
        b.taxonomy_path(&["wikipedia", "food", "coffee", "coffee drinks", "espresso"]);
        let mut kn = b.build();
        let cfg = SimConfig::default();
        let id = kn.add_record("espresso cafe helsinki");
        let sr = segment_record(&kn, &cfg, &kn.record(id).tokens);
        let p = generate_pebbles(&kn, &cfg, &sr);
        (sr, p)
    }

    #[test]
    fn suffix_masses_monotone() {
        let (sr, p) = fixture();
        let m = suffix_masses(&sr, &p);
        assert_eq!(m.len(), p.len() + 1);
        assert_eq!(m[p.len()], 0.0);
        for k in 0..p.len() {
            assert!(m[k] >= m[k + 1] - 1e-12, "mass must grow leftwards");
        }
        assert!(m[0] > 0.0);
    }

    #[test]
    fn suffix_state_takes_max_over_measures() {
        let (sr, p) = fixture();
        // Adding ALL pebbles: AS = Σ_seg max_f (sum of that measure).
        let mut st = SuffixState::new(sr.n_segments());
        for x in &p {
            st.add(x);
        }
        // segment "cafe" has J-mass 1.0 (3 grams × 1/3) and S-mass 1.0;
        // max = 1.0, not 2.0. espresso has J-mass 1.0 (6 grams × 1/6) and
        // T-mass 1.0 (5 ancestors × 1/5). helsinki J-mass 1.0.
        // Total = 3.0 exactly (each well-defined segment saturates at 1).
        assert!((st.value() - 3.0).abs() < 1e-9, "got {}", st.value());
    }

    fn naive_topk_key_sums(pebbles: &[Pebble], k: usize, j: usize) -> f64 {
        let mut agg: FxHashMap<PebbleKey, f64> = FxHashMap::default();
        for p in &pebbles[..j] {
            *agg.entry(p.key).or_insert(0.0) += p.weight;
        }
        let mut w: Vec<f64> = agg.into_values().collect();
        w.sort_by(|a, b| b.total_cmp(a));
        w.iter().take(k).sum()
    }

    #[test]
    fn prefix_topk_sums_match_naive() {
        let (_, p) = fixture();
        for k in [0usize, 1, 2, 3, 7] {
            let tw = prefix_topk_sums(&p, k);
            for (j, &twj) in tw.iter().enumerate() {
                let naive = naive_topk_key_sums(&p, k, j);
                assert!((twj - naive).abs() < 1e-9, "k={k} j={j}: {twj} vs {naive}");
            }
        }
    }

    #[test]
    fn prefix_topk_sums_aggregate_duplicate_keys() {
        // A key repeated across segments (two entities sharing taxonomy
        // ancestors, repeated tokens) must count as ONE budget item whose
        // mass is the sum of all its instances — the regression behind the
        // Dice/AU-DP completeness failure on records like
        // "espresso espresso house espresso".
        let (_, base) = fixture();
        let mk = |key_src: usize, weight: f64, seg: u32| Pebble {
            key: base[key_src].key,
            weight,
            seg,
            ..base[key_src]
        };
        // Key A (from base[0]) in three segments; keys B, C single. As in
        // any order-sorted list, A's instances are adjacent.
        let p = vec![
            mk(1, 0.4, 2),
            mk(0, 0.25, 0),
            mk(0, 0.25, 1),
            mk(0, 0.25, 3),
            mk(2, 0.1, 2),
        ];
        let tw = prefix_topk_sums(&p, 1);
        // After all 5: key A aggregates to 0.75 > 0.4.
        assert!((tw[5] - 0.75).abs() < 1e-12, "got {}", tw[5]);
        // After 3: A = 0.5 > B = 0.4.
        assert!((tw[3] - 0.5).abs() < 1e-12, "got {}", tw[3]);
        let tw2 = prefix_topk_sums(&p, 2);
        // Top-2 after all 5: A (0.75) + B (0.4).
        assert!((tw2[5] - 1.15).abs() < 1e-12, "got {}", tw2[5]);
        for k in 1..=3 {
            let tw = prefix_topk_sums(&p, k);
            for (j, &twj) in tw.iter().enumerate() {
                let naive = naive_topk_key_sums(&p, k, j);
                assert!((twj - naive).abs() < 1e-9, "k={k} j={j}");
            }
        }
    }

    #[test]
    fn mp_bounds() {
        let (sr, _) = fixture();
        // "espresso cafe helsinki": no multi-token segments → MP = 3.
        assert_eq!(min_partition_bound(&sr), 3);
    }

    #[test]
    fn mp_with_multi_token_segment() {
        let mut b = KnowledgeBuilder::new();
        b.synonym("coffee shop", "cafe", 1.0);
        let mut kn = b.build();
        let cfg = SimConfig::default();
        let id = kn.add_record("coffee shop latte helsingki");
        let sr = segment_record(&kn, &cfg, &kn.record(id).tokens);
        // Exact: {coffee shop},{latte},{helsingki} = 3.
        assert_eq!(min_partition_bound(&sr), 3);
    }

    #[test]
    fn guarantee_level_caps_at_feasible_tau() {
        let (sr, p) = fixture();
        // "espresso cafe helsinki": MP = 3 → θ = 0.8 gives target 2.4.
        // Weights descending: 1.0 (syn lhs), 3×1/3 (cafe grams),
        // 5×1/5 (taxonomy), 6×1/6, 7×1/7. TW_5 = 2.2 < 2.4 but
        // TW_6 = 2.4 ≥ 2.4 → level caps at 6.
        assert_eq!(guarantee_level(&sr, &p, 10, 0.8, 1e-9), 6);
        // Requested τ below the cap is returned unchanged.
        assert_eq!(guarantee_level(&sr, &p, 3, 0.8, 1e-9), 3);
        // τ = 1 needs no evidence beyond a nonempty list.
        assert_eq!(guarantee_level(&sr, &p, 1, 0.8, 1e-9), 1);
    }

    #[test]
    fn guarantee_level_single_pebble_record() {
        // One pebble of weight 1.0, MP = 1, θ = 0.9: TW_1 = 1.0 ≥ 0.9 →
        // only one overlap can be demanded, whatever τ asks.
        let (sr, p) = fixture();
        let single = vec![Pebble {
            weight: 1.0,
            ..p[0]
        }];
        let sr1 = {
            let mut s = sr.clone();
            s.min_partition = 1;
            s
        };
        for tau in [2u32, 3, 8] {
            assert_eq!(guarantee_level(&sr1, &single, tau, 0.9, 1e-9), 1, "τ={tau}");
        }
    }

    #[test]
    fn empty_record_mp_zero() {
        let kn = KnowledgeBuilder::new().build();
        let cfg = SimConfig::default();
        let sr = segment_record(&kn, &cfg, &[]);
        assert_eq!(min_partition_bound(&sr), 0);
    }
}
