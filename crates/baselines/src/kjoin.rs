//! K-Join: knowledge-aware (taxonomy) similarity join.
//!
//! Shang et al. (TKDE 2016) map each string to its taxonomy entities and
//! define the knowledge-aware similarity as the maximum weight matching of
//! entity pairs scored by LCA depth, normalised by the larger entity
//! count. Their filter indexes *ancestor signatures*: if
//! `sim(n, m) ≥ θ` then `depth(LCA) ≥ θ·max(depth n, depth m)`, so both
//! entities' root paths pass through a common node at depth
//! `≥ ⌈θ·depth⌉` — indexing every ancestor at depth `≥ ⌈θ·depth(n)⌉`
//! guarantees a shared key for any pair that could reach θ.
//!
//! Simplification vs the original (see DESIGN.md): K-Join additionally
//! prunes with per-level cost-based signature shrinking; we index the full
//! qualifying ancestor range.

use crate::BaselineResult;
use au_core::config::{MeasureSet, SimConfig};
use au_core::knowledge::Knowledge;
use au_core::segment::segment_record;
use au_matching::max_weight_matching;
use au_taxonomy::NodeId;
use au_text::hash::FxHashMap;
use au_text::record::Corpus;

/// Entities of one record (deduplicated, keeps first occurrence order).
fn entities_of(kn: &Knowledge, cfg: &SimConfig, tokens: &[au_text::TokenId]) -> Vec<NodeId> {
    let sr = segment_record(kn, cfg, tokens);
    let mut out: Vec<NodeId> = Vec::new();
    for seg in sr.segments() {
        if let Some(n) = seg.node {
            if !out.contains(&n) {
                out.push(n);
            }
        }
    }
    out
}

/// Knowledge-aware similarity: max-weight entity matching / larger count.
pub fn kjoin_similarity(kn: &Knowledge, ex: &[NodeId], ey: &[NodeId]) -> f64 {
    if ex.is_empty() || ey.is_empty() {
        return 0.0;
    }
    let weights: Vec<Vec<f64>> = ex
        .iter()
        .map(|&a| ey.iter().map(|&b| kn.taxonomy.sim(a, b)).collect())
        .collect();
    let m = max_weight_matching(&weights);
    m.weight / ex.len().max(ey.len()) as f64
}

/// Run K-Join between two corpora at threshold `theta`, verifying each
/// candidate with the full max-weight (Hungarian) entity matching.
pub fn k_join(kn: &Knowledge, s: &Corpus, t: &Corpus, theta: f64) -> BaselineResult {
    let sim_cfg = SimConfig::default().with_measures(MeasureSet::T);
    let es: Vec<Vec<NodeId>> = s
        .iter()
        .map(|r| entities_of(kn, &sim_cfg, &r.tokens))
        .collect();
    let et: Vec<Vec<NodeId>> = t
        .iter()
        .map(|r| entities_of(kn, &sim_cfg, &r.tokens))
        .collect();

    // Ancestor-signature index over T.
    let mut index: FxHashMap<NodeId, Vec<u32>> = FxHashMap::default();
    for (rid, nodes) in et.iter().enumerate() {
        let mut keys: Vec<NodeId> = Vec::new();
        for &n in nodes {
            let dn = kn.taxonomy.depth(n);
            let min_depth = (theta * dn as f64).ceil().max(1.0) as u32;
            for anc in kn.taxonomy.ancestors(n) {
                if kn.taxonomy.depth(anc) < min_depth {
                    break;
                }
                if !keys.contains(&anc) {
                    keys.push(anc);
                }
            }
        }
        for k in keys {
            index.entry(k).or_default().push(rid as u32);
        }
    }

    // Probe with S signatures, dedupe candidates.
    let mut cand_set: FxHashMap<u64, ()> = FxHashMap::default();
    for (rid, nodes) in es.iter().enumerate() {
        let mut keys: Vec<NodeId> = Vec::new();
        for &n in nodes {
            let dn = kn.taxonomy.depth(n);
            let min_depth = (theta * dn as f64).ceil().max(1.0) as u32;
            for anc in kn.taxonomy.ancestors(n) {
                if kn.taxonomy.depth(anc) < min_depth {
                    break;
                }
                if !keys.contains(&anc) {
                    keys.push(anc);
                }
            }
        }
        for k in keys {
            if let Some(list) = index.get(&k) {
                for &b in list {
                    cand_set.insert((rid as u64) << 32 | b as u64, ());
                }
            }
        }
    }
    let mut candidates: Vec<(u32, u32)> = cand_set
        .into_keys()
        .map(|k| ((k >> 32) as u32, k as u32))
        .collect();
    candidates.sort_unstable();

    let mut pairs = Vec::new();
    for &(a, b) in &candidates {
        let sim = kjoin_similarity(kn, &es[a as usize], &et[b as usize]);
        if sim >= theta - 1e-9 {
            pairs.push((a, b, sim));
        }
    }
    BaselineResult {
        candidates: candidates.len() as u64,
        pairs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use au_core::knowledge::KnowledgeBuilder;

    fn setup() -> Knowledge {
        let mut b = KnowledgeBuilder::new();
        b.taxonomy_path(&["wikipedia", "food", "coffee", "coffee drinks", "latte"]);
        b.taxonomy_path(&["wikipedia", "food", "coffee", "coffee drinks", "espresso"]);
        b.taxonomy_path(&["wikipedia", "food", "cake", "apple cake"]);
        b.build()
    }

    /// Oracle: brute-force verification over all pairs.
    fn brute(kn: &Knowledge, s: &Corpus, t: &Corpus, theta: f64) -> Vec<(u32, u32)> {
        let cfg = SimConfig::default().with_measures(MeasureSet::T);
        let mut out = Vec::new();
        for a in s.iter() {
            for b in t.iter() {
                let ea = entities_of(kn, &cfg, &a.tokens);
                let eb = entities_of(kn, &cfg, &b.tokens);
                if kjoin_similarity(kn, &ea, &eb) >= theta - 1e-9 {
                    out.push((a.id.0, b.id.0));
                }
            }
        }
        out
    }

    #[test]
    fn latte_espresso_pair_found() {
        let mut kn = setup();
        let s = kn.corpus_from_lines(["morning latte", "apple cake slice"]);
        let t = kn.corpus_from_lines(["espresso evening", "cake stand"]);
        let res = k_join(&kn, &s, &t, 0.5);
        // latte vs espresso: matching = 0.8, max entities 1 → 0.8
        assert!(res
            .pairs
            .iter()
            .any(|&(a, b, sim)| (a, b) == (0, 0) && (sim - 0.8).abs() < 1e-9));
        // apple cake vs cake: 3/4
        assert!(res.pairs.iter().any(|&(a, b, _)| (a, b) == (1, 1)));
    }

    #[test]
    fn no_false_negatives_vs_brute_force() {
        let mut kn = setup();
        let s = kn.corpus_from_lines([
            "latte and cake",
            "espresso apple cake",
            "coffee drinks daily",
            "nothing relevant",
        ]);
        let t = kn.corpus_from_lines([
            "espresso with apple cake",
            "latte time",
            "cake only",
            "also irrelevant",
        ]);
        for theta in [0.4, 0.6, 0.8] {
            let want = brute(&kn, &s, &t, theta);
            let got = k_join(&kn, &s, &t, theta).id_pairs();
            assert_eq!(got, want, "θ={theta}");
        }
    }

    #[test]
    fn strings_without_entities_never_match() {
        let mut kn = setup();
        let s = kn.corpus_from_lines(["no entities here"]);
        let t = kn.corpus_from_lines(["latte"]);
        let res = k_join(&kn, &s, &t, 0.1);
        assert!(res.pairs.is_empty());
    }

    #[test]
    fn similarity_properties() {
        let kn = setup();
        let get = |name: &str| {
            kn.entities
                .lookup(kn.phrases.get(&[kn.vocab.get(name).unwrap()]).unwrap())
                .unwrap()
        };
        let latte = get("latte");
        let espresso = get("espresso");
        let cake = get("cake");
        // symmetric
        assert_eq!(
            kjoin_similarity(&kn, &[latte], &[espresso]),
            kjoin_similarity(&kn, &[espresso], &[latte])
        );
        // identity
        assert_eq!(kjoin_similarity(&kn, &[latte], &[latte]), 1.0);
        // normalised by the larger side
        let s = kjoin_similarity(&kn, &[latte, cake], &[espresso]);
        assert!((s - 0.8 / 2.0).abs() < 1e-9);
        // empty sides
        assert_eq!(kjoin_similarity(&kn, &[], &[latte]), 0.0);
    }
}
