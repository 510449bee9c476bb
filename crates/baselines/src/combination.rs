//! "Combination": union of the three single-measure baselines.
//!
//! The paper's strongest non-unified competitor (Tables 13/14) runs
//! AdaptJoin (J), K-Join (T) and PKduck (S) independently and unions the
//! result sets. It still misses pairs whose similarity is only reachable
//! by *mixing* measures inside one string pair — the gap AU-Join closes.

use crate::adaptjoin::{adapt_join, AdaptJoinConfig};
use crate::kjoin::{k_join, KJoinConfig};
use crate::pkduck::{pkduck_join, PkduckConfig};
use crate::BaselineResult;
use au_core::knowledge::Knowledge;
use au_text::record::Corpus;
use std::time::Instant;

/// Run all three baselines and union their pairs (keeping each pair's
/// best similarity).
pub fn combination_join(kn: &Knowledge, s: &Corpus, t: &Corpus, theta: f64) -> BaselineResult {
    let start = Instant::now();
    let a = adapt_join(s, t, theta, &AdaptJoinConfig::default());
    let k = k_join(kn, s, t, theta, &KJoinConfig::default());
    let p = pkduck_join(kn, s, t, theta, &PkduckConfig::default());
    let mut best: std::collections::BTreeMap<(u32, u32), f64> = std::collections::BTreeMap::new();
    for res in [&a, &k, &p] {
        for &(x, y, sim) in &res.pairs {
            let e = best.entry((x, y)).or_insert(sim);
            if sim > *e {
                *e = sim;
            }
        }
    }
    BaselineResult {
        pairs: best.into_iter().map(|((x, y), s)| (x, y, s)).collect(),
        candidates: a.candidates + k.candidates + p.candidates,
        time: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use au_core::knowledge::KnowledgeBuilder;

    #[test]
    fn union_covers_all_three_measures() {
        let mut b = KnowledgeBuilder::new();
        b.synonym("coffee shop", "cafe", 1.0);
        b.taxonomy_path(&["wikipedia", "food", "coffee", "coffee drinks", "latte"]);
        b.taxonomy_path(&["wikipedia", "food", "coffee", "coffee drinks", "espresso"]);
        let mut kn = b.build();
        let s = kn.corpus_from_lines([
            "helsingki harbour",   // typo pair → AdaptJoin
            "latte",               // taxonomy pair → K-Join
            "coffee shop central", // synonym pair → PKduck
        ]);
        let t = kn.corpus_from_lines(["helsinki harbour", "espresso", "cafe central"]);
        let res = combination_join(&kn, &s, &t, 0.6);
        let ids = res.id_pairs();
        assert!(ids.contains(&(0, 0)), "typo pair missing: {ids:?}");
        assert!(ids.contains(&(1, 1)), "taxonomy pair missing: {ids:?}");
        assert!(ids.contains(&(2, 2)), "synonym pair missing: {ids:?}");
    }

    #[test]
    fn misses_mixed_relation_pairs() {
        // The paper's motivating example: each relation alone is below
        // θ = 0.8 but the unified measure is above — Combination misses it.
        let mut b = KnowledgeBuilder::new();
        b.synonym("coffee shop", "cafe", 1.0);
        b.taxonomy_path(&["wikipedia", "food", "coffee", "coffee drinks", "latte"]);
        b.taxonomy_path(&["wikipedia", "food", "coffee", "coffee drinks", "espresso"]);
        let mut kn = b.build();
        let s = kn.corpus_from_lines(["coffee shop latte helsingki"]);
        let t = kn.corpus_from_lines(["espresso cafe helsinki"]);
        let theta = 0.8;
        let res = combination_join(&kn, &s, &t, theta);
        assert!(
            res.pairs.is_empty(),
            "no single measure should reach 0.8: {:?}",
            res.pairs
        );
        // while the unified measure does reach it (~0.822)
        let engine = au_core::Engine::new(kn, au_core::SimConfig::default()).unwrap();
        let (ps, pt) = (engine.prepare(&s).unwrap(), engine.prepare(&t).unwrap());
        let sim = engine.usim(&ps, 0, &pt, 0).unwrap();
        assert!(sim >= theta, "unified sim {sim} below θ");
    }
}
