//! The hash-map implementations the run-scan selectors and the rank sort
//! replaced, kept verbatim as test oracles, and the property tests that
//! pin the replacements to them: identical [`SignatureChoice`]s and
//! identical pebble orders, bit for bit.
//!
//! `ufilter_prefix_len` has no copy here: its body did not change, so the
//! U-Filter leg of the tests below exercises the sort alone.

use super::common::{min_partition_bound, suffix_masses, SuffixState};
use super::dp::PrefixSlot;
use super::{ufilter_prefix_len, FilterKind, SignatureChoice};
use crate::msim::MeasureKind;
use crate::pebble::{DocFreqs, Pebble, PebbleKey};
use crate::segment::SegRecord;
use au_text::FxHashMap;

/// The old `PebbleOrder::sort`: two frequency lookups per comparison.
pub(crate) fn sort(freq: &DocFreqs, pebbles: &mut [Pebble]) {
    pebbles.sort_by(|a, b| {
        freq.get(a.key)
            .cmp(&freq.get(b.key))
            .then_with(|| a.key.cmp(&b.key))
            .then_with(|| a.seg.cmp(&b.seg))
            .then_with(|| a.measure.idx().cmp(&b.measure.idx()))
    });
}

fn prefix_topk_sums(pebbles: &[Pebble], k: usize) -> Vec<f64> {
    let n = pebbles.len();
    let mut out = vec![0.0; n + 1];
    if k == 0 {
        return out;
    }
    let mut agg: FxHashMap<PebbleKey, f64> = FxHashMap::default();
    let mut top: Vec<(PebbleKey, f64)> = Vec::with_capacity(k);
    let mut sum = 0.0f64;
    for (j, p) in pebbles.iter().enumerate() {
        let e = agg.entry(p.key).or_insert(0.0);
        *e += p.weight;
        let a = *e;
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

fn guarantee_level(sr: &SegRecord, pebbles: &[Pebble], tau: u32, theta: f64, eps: f64) -> u32 {
    if tau <= 1 || pebbles.is_empty() {
        return tau.max(1);
    }
    let target = theta * min_partition_bound(sr) as f64;
    if target <= eps {
        return tau;
    }
    let mut agg: FxHashMap<PebbleKey, f64> = FxHashMap::default();
    for p in pebbles {
        *agg.entry(p.key).or_insert(0.0) += p.weight;
    }
    // det: map order cannot reach output — the values are sorted by
    // `total_cmp` immediately below, a total order on f64 bits.
    let mut weights: Vec<f64> = agg.into_values().collect();
    weights.sort_by(|a, b| b.total_cmp(a));
    let mut tw = 0.0f64;
    let mut level = 1u32;
    for tprime in 2..=tau {
        let k = (tprime - 1) as usize;
        if k <= weights.len() {
            tw += weights[k - 1];
        }
        if tw < target - eps {
            level = tprime;
        } else {
            break;
        }
    }
    level
}

fn heuristic_prefix_len(
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
    let target = theta * min_partition_bound(sr) as f64;
    if target <= eps {
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

/// The old `dp_prefix_len`: instance counts and pooled aggregates through
/// hash maps, fresh tables per record, the knapsack at every candidate
/// length.
pub(crate) fn dp_prefix_len(
    sr: &SegRecord,
    pebbles: &[Pebble],
    tau: u32,
    theta: f64,
    eps: f64,
) -> usize {
    let n = pebbles.len();
    let t_segs = sr.n_segments();
    if n == 0 || t_segs == 0 {
        return 0;
    }
    let target = theta * min_partition_bound(sr) as f64;
    let tau = tau.max(1) as usize;
    if target <= eps {
        return n;
    }
    let mut inst_count: FxHashMap<PebbleKey, u32> = FxHashMap::default();
    for p in pebbles {
        *inst_count.entry(p.key).or_insert(0) += 1;
    }
    let is_pooled = |key: PebbleKey| inst_count[&key] > 1;
    let mut slots: Vec<[PrefixSlot; 3]> = (0..t_segs).map(|_| Default::default()).collect();
    let mut pooled: FxHashMap<PebbleKey, f64> = FxHashMap::default();
    for p in &pebbles[..n - 1] {
        if is_pooled(p.key) {
            *pooled.entry(p.key).or_insert(0.0) += p.weight;
        } else {
            slots[p.seg as usize][p.measure.idx()].insert(p.weight);
        }
    }
    // det: map order cannot reach output — the pool is fully ordered by
    // the (weight, key) sort below.
    let mut pool: Vec<(f64, PebbleKey)> = pooled.iter().map(|(&k, &w)| (w, k)).collect();
    pool.sort_by(|a, b| b.0.total_cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
    let mut suffix = SuffixState::new(t_segs);
    suffix.add(&pebbles[n - 1]);
    let mut active: Vec<usize> = (0..t_segs).collect();
    active.retain(|&s| pebbles.iter().any(|p| p.seg as usize == s));
    let mut w_prev = vec![0.0f64; tau];
    let mut w_cur = vec![0.0f64; tau];
    let mut v = vec![0.0f64; tau];
    let mut len = n;
    loop {
        let as_val = suffix.value();
        let mut reached = as_val >= target - eps;
        if !reached && tau > 1 {
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
            'rows: for &seg in &active {
                if reached {
                    break 'rows;
                }
                let sums = suffix.sums(seg);
                let r0 = suffix.seg_max(seg);
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
                std::mem::swap(&mut w_prev, &mut w_cur);
            }
        }
        if reached {
            return len;
        }
        if len == 1 {
            return 0;
        }
        let moving = &pebbles[len - 2];
        if is_pooled(moving.key) {
            let i = pool
                .iter()
                .position(|e| e.1 == moving.key)
                .expect("pooled key has a pool entry");
            pool[i].0 -= moving.weight;
            let mut i = i;
            while i + 1 < pool.len() && pool[i].0 < pool[i + 1].0 {
                pool.swap(i, i + 1);
                i += 1;
            }
        } else {
            slots[moving.seg as usize][moving.measure.idx()].remove(moving.weight);
        }
        suffix.add(moving);
        len -= 1;
    }
}

fn select_signature(
    sr: &SegRecord,
    pebbles: &[Pebble],
    kind: FilterKind,
    theta: f64,
    eps: f64,
) -> SignatureChoice {
    match kind {
        FilterKind::UFilter => SignatureChoice {
            len: ufilter_prefix_len(sr, pebbles, theta, eps),
            level: 1,
        },
        FilterKind::AuHeuristic { tau } => {
            let level = guarantee_level(sr, pebbles, tau.max(1), theta, eps);
            SignatureChoice {
                len: heuristic_prefix_len(sr, pebbles, level, theta, eps),
                level,
            }
        }
        FilterKind::AuDp { tau } => {
            let level = guarantee_level(sr, pebbles, tau.max(1), theta, eps);
            SignatureChoice {
                len: dp_prefix_len(sr, pebbles, level, theta, eps),
                level,
            }
        }
    }
}

mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::knowledge::{Knowledge, KnowledgeBuilder};
    use crate::pebble::{generate_pebbles, PebbleOrder};
    use crate::segment::segment_record;
    use crate::signature::DpScratch;
    use proptest::prelude::*;

    /// Two entities under one parent (shared taxonomy ancestors), a phrase
    /// that is a rule side twice over, and words that share grams.
    fn knowledge() -> Knowledge {
        let mut kb = KnowledgeBuilder::new();
        kb.synonym("coffee shop", "cafe", 1.0);
        kb.synonym("coffee shop", "bistro", 0.8);
        kb.synonym("tea house", "tearoom", 0.9);
        kb.taxonomy_path(&["root", "drinks", "coffee", "latte"]);
        kb.taxonomy_path(&["root", "drinks", "coffee", "espresso"]);
        kb.taxonomy_path(&["root", "food", "cake", "apple cake"]);
        kb.build()
    }

    const WORDS: [&str; 16] = [
        "coffee",
        "shop",
        "cafe",
        "bistro",
        "latte",
        "espresso",
        "helsinki",
        "helsingki",
        "cake",
        "apple",
        "tea",
        "house",
        "tearoom",
        "a",
        "aa",
        "grande",
    ];

    fn text_strategy() -> impl Strategy<Value = String> {
        prop::collection::vec(prop::sample::select(WORDS.to_vec()), 1..=7)
            .prop_map(|words| words.join(" "))
    }

    fn count_frequencies(lists: &[Vec<Pebble>]) -> DocFreqs {
        let (mut freq, mut keys) = (DocFreqs::default(), Vec::new());
        for list in lists {
            freq.count_pebbles(list, &mut keys);
        }
        freq
    }

    /// Segment `lines` and generate every record's pebbles.
    fn pebble_lists(lines: &[String]) -> (Knowledge, Vec<SegRecord>, Vec<Vec<Pebble>>) {
        let mut kn = knowledge();
        let cfg = SimConfig::default();
        let corpus = kn.corpus_from_lines(lines.iter().map(String::as_str));
        let segrecs: Vec<SegRecord> = corpus
            .iter()
            .map(|r| segment_record(&kn, &cfg, &r.tokens))
            .collect();
        let lists = segrecs
            .iter()
            .map(|sr| generate_pebbles(&kn, &cfg, sr))
            .collect();
        (kn, segrecs, lists)
    }

    fn identity(pebbles: &[Pebble]) -> Vec<(PebbleKey, u32, usize, u64)> {
        pebbles
            .iter()
            .map(|p| (p.key, p.seg, p.measure.idx(), p.weight.to_bits()))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Rank sort + run-scan selectors ≡ comparator sort + hash-map
        /// selectors, on records with repeated tokens, shared ancestors,
        /// doubled rule sides and one-pebble records ("a").
        #[test]
        fn selection_matches_the_replaced_implementations(
            lines in prop::collection::vec(text_strategy(), 1..12),
            tau in 1u32..=6,
            theta in prop::sample::select(vec![0.5, 0.7, 0.8, 0.9, 0.95]),
        ) {
            let (_, segrecs, lists) = pebble_lists(&lines);
            let order = PebbleOrder::build(lists.iter().map(|v| v.as_slice()));
            let freq = count_frequencies(&lists);
            let eps = SimConfig::default().eps;
            let mut scratch = DpScratch::default();
            for (sr, list) in segrecs.iter().zip(&lists) {
                let (mut ranked, mut compared) = (list.clone(), list.clone());
                order.sort(&mut ranked, &mut Default::default());
                sort(&freq, &mut compared);
                prop_assert_eq!(identity(&ranked), identity(&compared));
                for kind in [
                    FilterKind::UFilter,
                    FilterKind::AuHeuristic { tau },
                    FilterKind::AuDp { tau },
                ] {
                    let got = crate::signature::select_signature(
                        sr, &ranked, kind, theta, eps, &mut scratch,
                    );
                    let want = select_signature(sr, &compared, kind, theta, eps);
                    prop_assert_eq!(got, want, "{:?} θ={} on {:?}", kind, theta, lines);
                }
            }
        }

        /// Rank order ≡ comparator order when the order was built over
        /// *other* records (query side: unseen keys have frequency 0, sort
        /// first, by key) and when every frequency is doubled (an R×S join
        /// of a corpus with itself).
        #[test]
        fn rank_order_matches_the_comparator(
            indexed in prop::collection::vec(text_strategy(), 0..8),
            queries in prop::collection::vec(text_strategy(), 1..6),
            rotation in 0usize..64,
        ) {
            let all: Vec<String> = indexed.iter().chain(&queries).cloned().collect();
            let (_, _, lists) = pebble_lists(&all);
            let (seen, unseen) = lists.split_at(indexed.len());
            let freq = count_frequencies(seen);
            let single = PebbleOrder::from_doc_freqs(&[&freq], 1);
            let doubled = PebbleOrder::from_doc_freqs(&[&freq, &freq], 2);
            for list in unseen.iter().chain(seen) {
                // Any input permutation sorts to the same list.
                let mut input = list.clone();
                if !input.is_empty() {
                    let n = input.len();
                    input.rotate_left(rotation % n);
                }
                let mut want = input.clone();
                sort(&freq, &mut want);
                for order in [&single, &doubled] {
                    let mut got = input.clone();
                    order.sort(&mut got, &mut Default::default());
                    prop_assert_eq!(identity(&got), identity(&want));
                }
            }
        }
    }
}
