//! Randomized filter-completeness sweep: every filter at every gram
//! measure must return exactly the brute-force result set.
//!
//! Small corpora with a tiny vocabulary maximise repeated tokens and
//! shared taxonomy ancestors — the regime that exposed the τ−1 budget bug
//! (one shared *key* carrying pebble instances in several segments costs
//! the adversary a single overlap, which the per-instance `TW_{τ−1}` /
//! per-instance DP knapsack undercounted, dropping true positives; e.g.
//! "latte shop latte coffee" ↔ "espresso espresso house espresso" under
//! Dice at θ = 0.6, τ = 3). Kept as a standing sweep so future signature
//! work cannot silently trade completeness for pruning power.

use au_join::core::oracle::brute_force_join;
use au_join::core::signature::FilterKind;
use au_join::prelude::*;

const WORDS: [&str; 15] = [
    "coffee",
    "shop",
    "cafe",
    "latte",
    "espresso",
    "helsinki",
    "helsingki",
    "cake",
    "apple",
    "tea",
    "house",
    "bar",
    "corner",
    "grande",
    "small",
];

fn test_knowledge() -> Knowledge {
    let mut kb = KnowledgeBuilder::new();
    kb.synonym("coffee shop", "cafe", 1.0);
    kb.synonym("tea house", "tearoom", 0.9);
    kb.taxonomy_path(&["root", "drinks", "coffee", "latte"]);
    kb.taxonomy_path(&["root", "drinks", "coffee", "espresso"]);
    kb.build()
}

struct R(u64);
impl R {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn text(r: &mut R, max_tokens: usize) -> String {
    let n = 1 + r.below(max_tokens);
    (0..n)
        .map(|_| WORDS[r.below(WORDS.len())])
        .collect::<Vec<_>>()
        .join(" ")
}

#[test]
fn filters_complete_on_randomized_small_corpora() {
    for seed in 0..2000u64 {
        let mut r = R(seed);
        let mut kn = test_knowledge();
        let ns = 3 + r.below(5);
        let nt = 3 + r.below(5);
        let ls: Vec<String> = (0..ns).map(|_| text(&mut r, 4)).collect();
        let lt: Vec<String> = (0..nt).map(|_| text(&mut r, 4)).collect();
        let theta = 0.5 + (r.below(45) as f64) / 100.0;
        let s = kn.corpus_from_lines(ls.iter().map(|x| x.as_str()));
        let t = kn.corpus_from_lines(lt.iter().map(|x| x.as_str()));
        let gram = GramMeasure::ALL[(seed % 4) as usize];
        let cfg = SimConfig::default().with_gram(gram);
        let oracle: Vec<(u32, u32)> = brute_force_join(&kn, &cfg, &s, &t, theta)
            .iter()
            .map(|&(a, b, _)| (a, b))
            .collect();
        let tau = 1 + (seed % 5) as u32;
        let engine = Engine::new(kn, cfg).expect("valid config");
        let ps = engine.prepare(&s).expect("prepare S");
        let pt = engine.prepare(&t).expect("prepare T");
        for filter in [
            FilterKind::UFilter,
            FilterKind::AuHeuristic { tau },
            FilterKind::AuDp { tau },
        ] {
            let spec = JoinSpec::threshold(theta).filter(filter).parallel(false);
            let got: Vec<(u32, u32)> = engine
                .join(&ps, &pt, &spec)
                .expect("join")
                .pairs
                .iter()
                .map(|&(a, b, _)| (a, b))
                .collect();
            if got != oracle {
                panic!(
                    "seed {seed} θ={theta} {filter:?}\n  s={ls:?}\n  t={lt:?}\n  got {got:?} want {oracle:?}"
                );
            }
        }
    }
}
