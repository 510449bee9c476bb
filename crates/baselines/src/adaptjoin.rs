//! AdaptJoin: gram-based Jaccard join with adaptive ℓ-prefix filtering.
//!
//! Wang et al. (SIGMOD 2012) generalise prefix filtering: with prefixes of
//! length `|G| − ⌈θ·|G|⌉ + ℓ` (grams sorted by a global order), any pair
//! with Jaccard ≥ θ shares at least `ℓ` prefix grams. Larger ℓ means
//! longer prefixes (more index work) but far fewer candidates.
//!
//! Simplification vs the original (see DESIGN.md): the original picks ℓ
//! *per record* with a cost model over per-gram statistics; we pick one ℓ
//! per join by probing each candidate ℓ on an index sample — same
//! principle, coarser granularity.

use crate::BaselineResult;
use au_text::hash::FxHashMap;
use au_text::jaccard::jaccard_sorted;
use au_text::qgram::qgrams;
use au_text::record::Corpus;

/// AdaptJoin parameters.
#[derive(Debug, Clone, Copy)]
pub struct AdaptJoinConfig {
    /// Gram length.
    pub q: usize,
    /// Largest ℓ tried by the adaptive chooser.
    pub max_l: u32,
    /// Relative cost of verifying one candidate vs probing one posting
    /// (the chooser's cost model).
    pub verify_cost_ratio: f64,
}

impl Default for AdaptJoinConfig {
    fn default() -> Self {
        Self {
            q: 2,
            max_l: 4,
            verify_cost_ratio: 20.0,
        }
    }
}

/// Record text → sorted distinct gram ids, with a global frequency order.
struct GramSets {
    /// Per record: gram ids sorted by (corpus frequency, id).
    by_order: Vec<Vec<u32>>,
    /// Per record: gram ids sorted numerically (for fast Jaccard).
    sorted: Vec<Vec<u32>>,
}

fn build_gram_sets(corpora: [&Corpus; 2], q: usize) -> (GramSets, GramSets) {
    let mut ids: FxHashMap<String, u32> = FxHashMap::default();
    let mut freq: Vec<u32> = Vec::new();
    let mut per_corpus: Vec<Vec<Vec<u32>>> = Vec::with_capacity(2);
    for corpus in corpora {
        let mut sets = Vec::with_capacity(corpus.len());
        for r in corpus.iter() {
            let mut gs: Vec<u32> = qgrams(&r.raw.to_lowercase(), q)
                .into_iter()
                .map(|g| {
                    let next = ids.len() as u32;
                    let id = *ids.entry(g).or_insert(next);
                    if id as usize == freq.len() {
                        freq.push(0);
                    }
                    id
                })
                .collect();
            gs.sort_unstable();
            gs.dedup();
            for &g in &gs {
                freq[g as usize] += 1;
            }
            sets.push(gs);
        }
        per_corpus.push(sets);
    }
    let finish = |sets: Vec<Vec<u32>>| -> GramSets {
        let by_order = sets
            .iter()
            .map(|s| {
                let mut v = s.clone();
                v.sort_by_key(|&g| (freq[g as usize], g));
                v
            })
            .collect();
        GramSets {
            by_order,
            sorted: sets,
        }
    };
    let t = per_corpus.pop().unwrap();
    let s = per_corpus.pop().unwrap();
    (finish(s), finish(t))
}

fn prefix_len(n: usize, theta: f64, l: u32) -> usize {
    if n == 0 {
        return 0;
    }
    let alpha = (theta * n as f64).ceil() as usize;
    (n - alpha.min(n) + l as usize).min(n)
}

/// Run AdaptJoin between two corpora at Jaccard threshold `theta`.
pub fn adapt_join(s: &Corpus, t: &Corpus, theta: f64, cfg: &AdaptJoinConfig) -> BaselineResult {
    let (gs, gt) = build_gram_sets([s, t], cfg.q);

    // Adaptive ℓ: estimate cost(ℓ) = index probes + ratio × candidates
    // (upper-bounded by probe totals) and keep the cheapest.
    let mut best = (1u32, f64::INFINITY);
    for l in 1..=cfg.max_l {
        let (probes, cands) = count_filter_work(&gs, &gt, theta, l);
        let cost = probes as f64 + cfg.verify_cost_ratio * cands as f64;
        if cost < best.1 {
            best = (l, cost);
        }
    }
    let l = best.0;

    // Filtering with the chosen ℓ.
    let mut index: FxHashMap<u32, Vec<u32>> = FxHashMap::default();
    for (rid, grams) in gt.by_order.iter().enumerate() {
        for &g in &grams[..prefix_len(grams.len(), theta, l)] {
            index.entry(g).or_default().push(rid as u32);
        }
    }
    let mut counts: FxHashMap<u64, u32> = FxHashMap::default();
    for (rid, grams) in gs.by_order.iter().enumerate() {
        for &g in &grams[..prefix_len(grams.len(), theta, l)] {
            if let Some(list) = index.get(&g) {
                for &b in list {
                    *counts.entry((rid as u64) << 32 | b as u64).or_insert(0) += 1;
                }
            }
        }
    }
    let mut candidates: Vec<(u32, u32)> = counts
        .into_iter()
        .filter(|&(_, c)| c >= l)
        .map(|(k, _)| ((k >> 32) as u32, k as u32))
        .collect();
    candidates.sort_unstable();

    // Verification: exact Jaccard.
    let mut pairs = Vec::new();
    for &(a, b) in &candidates {
        let j = jaccard_sorted(&gs.sorted[a as usize], &gt.sorted[b as usize]);
        if j >= theta - 1e-9 {
            pairs.push((a, b, j));
        }
    }
    BaselineResult {
        candidates: candidates.len() as u64,
        pairs,
    }
}

fn count_filter_work(gs: &GramSets, gt: &GramSets, theta: f64, l: u32) -> (u64, u64) {
    let mut index: FxHashMap<u32, u32> = FxHashMap::default();
    for grams in &gt.by_order {
        for &g in &grams[..prefix_len(grams.len(), theta, l)] {
            *index.entry(g).or_insert(0) += 1;
        }
    }
    let mut probes = 0u64;
    for grams in &gs.by_order {
        for &g in &grams[..prefix_len(grams.len(), theta, l)] {
            probes += index.get(&g).copied().unwrap_or(0) as u64;
        }
    }
    // Candidate estimate: probes / l (a pair needs ℓ probe hits).
    (probes, probes / l as u64)
}

/// Brute-force gram-Jaccard join (oracle for tests).
pub fn jaccard_brute_force(s: &Corpus, t: &Corpus, theta: f64, q: usize) -> Vec<(u32, u32, f64)> {
    let (gs, gt) = build_gram_sets([s, t], q);
    let mut out = Vec::new();
    for a in 0..s.len() {
        for b in 0..t.len() {
            let j = jaccard_sorted(&gs.sorted[a], &gt.sorted[b]);
            if j >= theta - 1e-9 {
                out.push((a as u32, b as u32, j));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use au_text::tokenize::TokenizeConfig;
    use au_text::Vocab;

    fn corpus(lines: &[&str]) -> Corpus {
        let mut v = Vocab::new();
        Corpus::from_lines(lines.iter().copied(), &mut v, &TokenizeConfig::default())
    }

    #[test]
    fn finds_typo_pairs() {
        let s = corpus(&["helsingki cafe", "something else"]);
        let t = corpus(&["helsinki cafe", "other words"]);
        let res = adapt_join(&s, &t, 0.6, &AdaptJoinConfig::default());
        assert!(res.pairs.iter().any(|&(a, b, _)| (a, b) == (0, 0)));
    }

    #[test]
    fn matches_brute_force_for_all_l() {
        let s = corpus(&[
            "coffee shop latte",
            "espresso cafe helsinki",
            "the quick brown fox",
            "quick brown foxes",
            "espresso coffee bar",
        ]);
        let t = corpus(&[
            "coffee shops latte",
            "espresso cafe helsinky",
            "a quick brown fox",
            "totally different words",
            "espresso coffee bars",
        ]);
        for theta in [0.5, 0.7, 0.85] {
            let want: Vec<(u32, u32)> = jaccard_brute_force(&s, &t, theta, 2)
                .iter()
                .map(|&(a, b, _)| (a, b))
                .collect();
            for max_l in 1..=4u32 {
                let cfg = AdaptJoinConfig {
                    max_l,
                    ..Default::default()
                };
                let res = adapt_join(&s, &t, theta, &cfg);
                assert_eq!(res.id_pairs(), want, "θ={theta} max_l={max_l}");
            }
        }
    }

    #[test]
    fn larger_l_prunes_more() {
        let lines_s: Vec<String> = (0..30)
            .map(|i| format!("record number {i} common tail"))
            .collect();
        let lines_t: Vec<String> = (0..30)
            .map(|i| format!("record number {i} common tails"))
            .collect();
        let s = corpus(&lines_s.iter().map(|x| x.as_str()).collect::<Vec<_>>());
        let t = corpus(&lines_t.iter().map(|x| x.as_str()).collect::<Vec<_>>());
        let c1 = {
            let cfg = AdaptJoinConfig {
                max_l: 1,
                ..Default::default()
            };
            adapt_join(&s, &t, 0.8, &cfg).candidates
        };
        // Force ℓ=3 by making it the only choice.
        let c3 = {
            let mut cfg = AdaptJoinConfig {
                max_l: 3,
                ..Default::default()
            };
            cfg.verify_cost_ratio = 1e9; // make candidates dominate the cost
            adapt_join(&s, &t, 0.8, &cfg).candidates
        };
        assert!(c3 <= c1, "ℓ=3 gave {c3} candidates vs {c1} at ℓ=1");
    }

    #[test]
    fn empty_inputs() {
        let s = corpus(&[]);
        let t = corpus(&["anything"]);
        let res = adapt_join(&s, &t, 0.8, &AdaptJoinConfig::default());
        assert!(res.pairs.is_empty());
    }

    #[test]
    fn identical_records_score_one() {
        let s = corpus(&["exact same string"]);
        let t = corpus(&["exact same string"]);
        let res = adapt_join(&s, &t, 0.99, &AdaptJoinConfig::default());
        assert_eq!(res.pairs.len(), 1);
        assert!((res.pairs[0].2 - 1.0).abs() < 1e-12);
    }
}
