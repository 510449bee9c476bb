//! AU-Filter signature selection by dynamic programming (Algorithm 5).
//!
//! The heuristic bound `TW_{τ−1}` charges the τ−1 heaviest *prefix*
//! pebbles regardless of which segment/measure they belong to — but a
//! segment's contribution is capped by a *single* measure (`max_f` in
//! Definition 4), so inserting two heavy pebbles of different measures
//! into one segment cannot double-count. The DP computes, per candidate
//! prefix, a tight upper bound `W_i[t, τ−1]` on the similarity increment
//! of re-inserting τ−1 prefix pebbles (Eq. 12–14):
//!
//! * `R(P, i, c) = max_f { W(B_{P,f}[i, n]) + TW_c(B_{P,f}[1, i−1]) }`
//! * `V_i[p, c] = R(P, i, c) − R(P, i, 0)` (accessory table)
//! * `W_i[p, d] = max_{c ≤ d} W_i[p−1, d−c] + V_i[p, c]`
//!
//! Removal continues while `AS(i, S) + W_i[t, τ−1] < θ·MP(S)`, yielding
//! signatures no longer — and usually strictly shorter — than the
//! heuristic's (Example 8 of the paper).
//!
//! **Duplicate-key correction.** The τ-overlap count of Algorithm 6 counts
//! *distinct* keys, and one key can own pebble instances in several
//! segments (taxonomy ancestors shared by two entities, repeated tokens) —
//! such a key costs the adversary **one** unit of the τ−1 budget while
//! gaining in every segment it touches, which the per-instance knapsack
//! above undercounts (it would charge one unit per segment). Keys with
//! more than one instance therefore leave the per-segment tables and form
//! a *global pool*: choosing one inserts its whole per-key prefix
//! aggregate for a single budget unit (the same sound aggregate bound as
//! the corrected heuristic, see [`prefix_topk_sums`]). The pool enters the
//! knapsack as row 0, so budget still splits optimally between pooled keys
//! and the (still tight, measure-aware) per-segment tables for
//! single-instance keys.
//!
//! **Preconditions and shortcuts.** Equal keys must be adjacent in the
//! pebble list (see [`crate::signature::common`]): instance counts and
//! pooled aggregates are read off the list's runs. The knapsack is skipped
//! at a candidate length whenever the *heuristic* budget
//! `TW_{τ−1}(prefix)` already fails to reach the target: every unit of the
//! DP budget buys at most one distinct key's whole prefix aggregate (a
//! pooled key's by construction; a single-instance key's weight *is* its
//! aggregate, and `max_f(a_f + b_f) − max_f a_f ≤ max_f b_f`), so the DP
//! bound never exceeds `TW_{τ−1}` and "not reached" under the heuristic
//! implies "not reached" under the DP. The knapsack therefore runs only
//! between the heuristic's stopping point and its own, and the prefix
//! tables it reads are not built before that first run.

use crate::msim::MeasureKind;
use crate::pebble::{Pebble, PebbleKey};
use crate::segment::SegRecord;
use crate::signature::common::{
    debug_assert_keys_adjacent, key_runs, min_partition_bound, prefix_topk_sums, SuffixState,
};

/// Slack of the knapsack skip: the DP bound and `TW_{τ−1}` are the same
/// mathematical quantity's upper and lower side but are summed in
/// different orders, so the skip only fires when the heuristic budget
/// misses the target by more than any rounding of a few hundred
/// weights ≤ 1 could bridge.
const DP_SKIP_GUARD: f64 = 1e-9;

/// Per-(segment, measure) view of the prefix: weights sorted descending,
/// supporting removal as entries migrate to the suffix.
#[derive(Debug, Clone, Default)]
pub(super) struct PrefixSlot {
    /// Weights, kept sorted descending.
    weights: Vec<f64>,
}

impl PrefixSlot {
    pub(super) fn insert(&mut self, w: f64) {
        let pos = self.weights.partition_point(|&x| x > w);
        self.weights.insert(pos, w);
    }

    pub(super) fn remove(&mut self, w: f64) {
        let pos = self
            .weights
            .iter()
            .position(|&x| x == w)
            .expect("removing a weight that was inserted");
        self.weights.remove(pos);
    }

    /// Sum of the `c` largest weights.
    pub(super) fn top_sum(&self, c: usize) -> f64 {
        self.weights.iter().take(c).sum()
    }
}

/// The knapsack's view of one prefix `B[0..p)`: the weights of
/// single-instance keys per (segment, measure), and the pool of
/// multi-instance keys with their prefix aggregates.
#[derive(Debug, Default)]
struct PrefixTables {
    /// Only the first `segments.len()` entries belong to the current
    /// record.
    slots: Vec<[PrefixSlot; 3]>,
    /// `pooled[i]`: pebble `i`'s key has more than one instance.
    pooled: Vec<bool>,
    /// `(prefix aggregate, key)` of every pooled key, descending, so the
    /// knapsack's row 0 reads prefix sums directly.
    pool: Vec<(f64, PebbleKey)>,
    /// `has_pebble[s]`: segment `s` owns at least one pebble (only those
    /// can ever contribute a knapsack row).
    has_pebble: Vec<bool>,
}

impl PrefixTables {
    /// The tables of `B[0..p)`, bit for bit as pebble-by-pebble migration
    /// out of `B[0..n−1)` would have left them — so they are only built
    /// at the first candidate length whose knapsack actually runs.
    fn build(&mut self, pebbles: &[Pebble], p: usize, t_segs: usize) {
        let n = pebbles.len();
        if self.slots.len() < t_segs {
            self.slots.resize_with(t_segs, Default::default);
        }
        for slot in self.slots[..t_segs].iter_mut().flatten() {
            slot.weights.clear();
        }
        self.pooled.clear();
        self.pool.clear();
        self.has_pebble.clear();
        self.has_pebble.resize(t_segs, false);
        // Keys with more than one instance go to the global pool (see the
        // module docs); single-instance keys stay in the per-segment
        // tables. One key is one run of the list.
        let mut start = 0usize;
        for run in key_runs(pebbles) {
            self.pooled
                .extend(std::iter::repeat_n(run.len() > 1, run.len()));
            // The run's members inside B[0..p), and inside B[0..n−1).
            let kept = run.len().min(p.saturating_sub(start));
            if run.len() > 1 {
                // Sum over B[0..n−1) in list order, then take the migrated
                // members off again, last first: the floating-point
                // operations `migrate` performs one candidate at a time.
                let counted = run.len().min(n - 1 - start);
                let mut agg = run[..counted].iter().fold(0.0, |agg, q| agg + q.weight);
                for q in run[kept..counted].iter().rev() {
                    agg -= q.weight;
                }
                self.pool.push((agg, run[0].key));
            } else if kept == 1 {
                let q = &run[0];
                self.slots[q.seg as usize][q.measure.idx()].insert(q.weight);
            }
            start += run.len();
        }
        // The key tie-break makes the order total; the knapsack reads only
        // the (descending) aggregates.
        self.pool
            .sort_by(|a, b| b.0.total_cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
        for q in pebbles {
            self.has_pebble[q.seg as usize] = true;
        }
    }

    /// Pebble `i` leaves the prefix for the suffix.
    fn migrate(&mut self, i: usize, moving: &Pebble) {
        if self.pooled[i] {
            let pool = &mut self.pool;
            let mut at = pool
                .iter()
                .position(|e| e.1 == moving.key)
                .expect("pooled key has a pool entry");
            // Aggregates only shrink: one in-place decrease plus a
            // rightward bubble restores the descending order.
            pool[at].0 -= moving.weight;
            while at + 1 < pool.len() && pool[at].0 < pool[at + 1].0 {
                pool.swap(at, at + 1);
                at += 1;
            }
        } else {
            self.slots[moving.seg as usize][moving.measure.idx()].remove(moving.weight);
        }
    }
}

/// Reusable buffers of [`dp_prefix_len`]. A worker selecting a corpus's
/// signatures keeps one, so the prefix tables, the suffix state and the
/// knapsack rows are allocated per worker, not per record.
#[derive(Debug, Default)]
pub struct DpScratch {
    tables: PrefixTables,
    suffix: SuffixState,
    /// Knapsack rows `W[p−1][·]`, `W[p][·]` and the accessory row `V[p][·]`.
    w_prev: Vec<f64>,
    w_cur: Vec<f64>,
    v: Vec<f64>,
}

/// Signature prefix length for AU-Filter (DP) with overlap constraint
/// `tau`. Conventions follow Algorithm 5: candidate lengths are scanned
/// from `n` (the full list may be kept) down to 1; at candidate `L` the
/// suffix is `B[L−1..n)` and the DP tables cover the prefix `B[0..L−1)`.
///
/// Requires equal keys to be adjacent in `pebbles` (module docs).
pub fn dp_prefix_len(
    sr: &SegRecord,
    pebbles: &[Pebble],
    tau: u32,
    theta: f64,
    eps: f64,
    scratch: &mut DpScratch,
) -> usize {
    let n = pebbles.len();
    let t_segs = sr.segments.len();
    if n == 0 || t_segs == 0 {
        return 0;
    }
    let m = min_partition_bound(sr);
    let target = theta * m as f64;
    let tau = tau.max(1) as usize;
    if target <= eps {
        // Zero removal budget → the signature is the whole list.
        return n;
    }
    debug_assert_keys_adjacent(pebbles);

    let DpScratch {
        tables,
        suffix,
        w_prev,
        w_cur,
        v,
    } = scratch;
    // Suffix sums: initially B[n−1..n).
    suffix.reset(t_segs);
    suffix.add(&pebbles[n - 1]);
    // The heuristic budget of every prefix, for the knapsack skip.
    let tw = prefix_topk_sums(pebbles, tau - 1);
    for row in [&mut *w_prev, &mut *w_cur, &mut *v] {
        row.clear();
        row.resize(tau, 0.0);
    }
    // Whether `tables` describe the current prefix yet.
    let mut tabled = false;

    let mut len = n;
    loop {
        // Candidate signature length `len`: suffix B[len−1..n) (already in
        // `suffix`), prefix B[0..len−1) (in `tables` once built).
        let as_val = suffix.value();
        let mut reached = as_val >= target - eps; // τ−1 = 0 case and fast path
        if !reached && tau > 1 && as_val + tw[len - 1] >= target - eps - DP_SKIP_GUARD {
            if !tabled {
                tables.build(pebbles, len - 1, t_segs);
                tabled = true;
            }
            let PrefixTables {
                slots,
                pool,
                has_pebble,
                ..
            } = &*tables;
            // Row 0 of the knapsack: the global pool. w_prev[d] = sum of
            // the d largest pooled prefix aggregates (one budget unit buys
            // one pooled key's whole aggregate).
            let mut acc = 0.0f64;
            for (d, x) in w_prev.iter_mut().enumerate() {
                if d >= 1 && d <= pool.len() {
                    acc += pool[d - 1].0.max(0.0);
                }
                *x = acc;
            }
            if as_val + w_prev[tau - 1] >= target - eps {
                reached = true;
            }
            'rows: for seg in (0..t_segs).filter(|&s| has_pebble[s]) {
                if reached {
                    break 'rows;
                }
                let sums = suffix.sums(seg);
                let r0 = suffix.seg_max(seg);
                // V[p][c] for c in 0..tau
                for (c, vc) in v.iter_mut().enumerate() {
                    let mut best = 0.0f64;
                    for f in MeasureKind::ALL {
                        let cand = sums[f.idx()] + slots[seg][f.idx()].top_sum(c);
                        if cand > best {
                            best = cand;
                        }
                    }
                    *vc = best - r0;
                }
                for d in 0..tau {
                    let mut best = 0.0f64;
                    for c in 0..=d {
                        let cand = w_prev[d - c] + v[c];
                        if cand > best {
                            best = cand;
                        }
                    }
                    w_cur[d] = best;
                    if as_val + best >= target - eps {
                        reached = true;
                        break 'rows;
                    }
                }
                std::mem::swap(w_prev, w_cur);
            }
        }
        if reached {
            return len;
        }
        // Remove one more pebble: entry len−2 moves prefix → suffix.
        if len == 1 {
            return 0;
        }
        let moving = &pebbles[len - 2];
        if tabled {
            tables.migrate(len - 2, moving);
        }
        suffix.add(moving);
        len -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::knowledge::tests::kn_figure1;
    use crate::pebble::{generate_pebbles, PebbleOrder};
    use crate::segment::segment_record;
    use crate::signature::heuristic::heuristic_prefix_len;

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
    fn dp_never_longer_than_heuristic() {
        // Example 8's point: the DP bound is tighter, so its signatures are
        // shorter (modulo the one-pebble boundary convention difference).
        for text in [
            "espresso cafe helsinki",
            "coffee shop latte helsingki",
            "latte espresso cafe coffee shop helsinki cake",
        ] {
            let (sr, p, cfg) = fixture(text);
            for tau in 1..=5u32 {
                for theta in [0.7, 0.8, 0.9] {
                    let h = heuristic_prefix_len(&sr, &p, tau, theta, cfg.eps);
                    let d = dp_prefix_len(&sr, &p, tau, theta, cfg.eps, &mut DpScratch::default());
                    assert!(
                        d <= h + 1,
                        "{text:?} τ={tau} θ={theta}: dp {d} > heur {h} + 1"
                    );
                }
            }
        }
    }

    #[test]
    fn dp_strictly_shorter_somewhere() {
        // The tighter bound must pay off on at least one configuration.
        let mut found = false;
        for text in [
            "espresso cafe helsinki",
            "coffee shop latte helsingki espresso",
            "latte espresso cafe coffee shop helsinki cake",
        ] {
            let (sr, p, cfg) = fixture(text);
            for tau in 2..=6u32 {
                for theta in [0.7, 0.75, 0.8, 0.85] {
                    let h = heuristic_prefix_len(&sr, &p, tau, theta, cfg.eps);
                    let d = dp_prefix_len(&sr, &p, tau, theta, cfg.eps, &mut DpScratch::default());
                    if d < h {
                        found = true;
                    }
                }
            }
        }
        assert!(found, "DP never beat the heuristic on any configuration");
    }

    #[test]
    fn monotone_in_tau() {
        // Runs past τ = 16: a fixed-size scratch buffer used to cap the
        // knapsack budget at 15 items, silently weakening the bound (and
        // hence completeness) for larger τ.
        let (sr, p, cfg) = fixture("espresso cafe helsinki coffee shop latte");
        let mut last = 0usize;
        for tau in 1..=20u32 {
            let len = dp_prefix_len(&sr, &p, tau, 0.8, cfg.eps, &mut DpScratch::default());
            assert!(len >= last, "τ={tau}: {len} < {last}");
            last = len;
        }
    }

    #[test]
    fn large_tau_bound_counts_past_sixteen_items() {
        // 30 equal-weight single-instance pebbles in one segment: with the
        // full budget usable, W[τ−1] must keep growing beyond 16 items, so
        // the candidate-length test is satisfied at full length for a
        // target the old capped bound could not reach.
        use crate::pebble::PebbleKey;
        let (sr, p, cfg) = fixture("espresso cafe helsinki");
        // 30 distinct gram keys in one segment with one measure at equal
        // weight.
        let many: Vec<Pebble> = (0..30u64)
            .map(|i| Pebble {
                key: PebbleKey::Gram(0xfeed_0000 + i),
                weight: 0.1,
                ..p[0]
            })
            .collect();
        let sr1 = {
            let mut s = sr.clone();
            s.min_partition = 1;
            s
        };
        // target = θ·MP = 2.0; 20 pebbles of 0.1 reach it only if the
        // budget really admits τ−1 = 24 items.
        let len = dp_prefix_len(&sr1, &many, 25, 2.0, cfg.eps, &mut DpScratch::default());
        assert_eq!(len, many.len(), "full budget must keep the whole list");
    }

    #[test]
    fn impossible_threshold_prunes() {
        let (sr, mut p, cfg) = fixture("latte espresso");
        for x in &mut p {
            x.weight *= 0.05;
        }
        assert_eq!(
            dp_prefix_len(&sr, &p, 3, 0.9, cfg.eps, &mut DpScratch::default()),
            0
        );
    }

    #[test]
    fn edge_cases() {
        let (sr, p, cfg) = fixture("latte espresso");
        assert_eq!(
            dp_prefix_len(&sr, &[], 2, 0.8, cfg.eps, &mut DpScratch::default()),
            0
        );
        assert_eq!(
            dp_prefix_len(&sr, &p, 3, 0.0, cfg.eps, &mut DpScratch::default()),
            p.len()
        );
        // τ = 1 degenerates to the U-Filter bound (W ≡ 0).
        let d1 = dp_prefix_len(&sr, &p, 1, 0.9, cfg.eps, &mut DpScratch::default());
        let u = crate::signature::ufilter::ufilter_prefix_len(&sr, &p, 0.9, cfg.eps);
        assert_eq!(d1, u);
    }
}
