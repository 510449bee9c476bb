//! Top-k similarity join: the `k` most similar pairs, no threshold needed.
//!
//! Threshold joins require the caller to guess a good θ; exploratory
//! workloads (data profiling, duplicate triage) instead ask for "the k
//! most similar pairs". [`crate::engine::Engine::topk`] answers that with
//! a *threshold descent*: run the threshold join at a high θ, and while it
//! yields fewer than `k` pairs, lower θ and rerun. Correctness is
//! immediate from the threshold join's completeness: once a round at θ
//! returns ≥ k pairs, every pair it did **not** return has similarity
//! < θ ≤ (k-th best), so the true top-k are all in hand.
//!
//! Cost: corpora are prepared (segmented, pebbled) once; each round redoes
//! signature selection + filtering + verification at its θ. Rounds form a
//! geometric-ish schedule, and in practice the last (cheapest-θ) round
//! dominates, so the total stays within a small factor of a single join at
//! the final θ — the price of not knowing that θ in advance. Every round
//! runs through the CSR candidate-generation engine
//! (`join::candidate_pass`): the signature prefixes are
//! θ-dependent and rebuilt per round, but each round's filtering cost is a
//! flat index build plus dense-counter probes rather than a per-pair
//! hashmap.
//!
//! Similarities are the Algorithm 1 approximation, like the threshold
//! join's verification; the ranking is exact with respect to that measure.
//! Accepted pairs are re-scored with the full (non-early-exit) Algorithm 1
//! before ranking, because the verifier's early-accept may undershoot the
//! final value.

use crate::engine::Engine;
use crate::error::AuError;
use crate::prepared::Prepared;
use crate::spec::JoinSpec;
use crate::usim::{Verifier, VerifyScratch};

/// Result of a top-k join.
#[derive(Debug, Clone, Default)]
pub struct TopkResult {
    /// At most `k` pairs `(s, t, usim)`, sorted by descending similarity
    /// (ties by ascending ids). Fewer than `k` when the corpus holds fewer
    /// pairs with similarity ≥ `theta_floor`.
    pub pairs: Vec<(u32, u32, f64)>,
    /// Number of descent rounds executed.
    pub rounds: usize,
    /// Threshold of the final round (the effective similarity cut).
    pub final_theta: f64,
}

impl Engine {
    /// Top-k R×S join via threshold descent over prepared state.
    pub fn topk(&self, s: &Prepared, t: &Prepared, spec: &JoinSpec) -> Result<TopkResult, AuError> {
        self.check(s)?;
        self.check(t)?;
        spec.validate_topk()?;
        Ok(self.topk_impl(s, t, false, spec))
    }

    /// Top-k self-join (pairs reported with `s < t`).
    pub fn topk_self(&self, c: &Prepared, spec: &JoinSpec) -> Result<TopkResult, AuError> {
        self.check(c)?;
        spec.validate_topk()?;
        Ok(self.topk_impl(c, c, true, spec))
    }

    fn topk_impl(
        &self,
        s: &Prepared,
        t: &Prepared,
        self_join: bool,
        spec: &JoinSpec,
    ) -> TopkResult {
        if spec.k() == 0 {
            return TopkResult::default();
        }
        let mut theta = spec.theta();
        let mut rounds = 0usize;
        loop {
            rounds += 1;
            let res = self.join_full(s, t, self_join, &spec.at_theta(theta));
            let done = res.pairs.len() >= spec.k() || theta <= spec.theta_floor + self.cfg.eps;
            if done {
                // Re-score fully (the verifier's early-accept may report a
                // lower bound), rank, truncate.
                let verifier = Verifier::new(&self.kn, &self.cfg);
                let mut pairs: Vec<(u32, u32, f64)> = crate::parallel::par_map_scratch(
                    &res.pairs,
                    spec.parallel,
                    VerifyScratch::default,
                    |scr, &(a, b, _)| {
                        let sim = verifier.sim(&s.segrecs[a as usize], &t.segrecs[b as usize], scr);
                        (a, b, sim)
                    },
                    |_| {},
                );
                pairs.sort_by(|x, y| {
                    y.2.total_cmp(&x.2)
                        .then_with(|| (x.0, x.1).cmp(&(y.0, y.1)))
                });
                pairs.truncate(spec.k());
                return TopkResult {
                    pairs,
                    rounds,
                    final_theta: theta,
                };
            }
            theta = (theta - spec.step).max(spec.theta_floor);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::engine::{Engine, JoinSpec};
    use crate::join::brute_force_join;
    use crate::knowledge::{Knowledge, KnowledgeBuilder};
    use crate::usim::usim_approx_seg;
    use au_text::record::Corpus;

    fn setup() -> (Knowledge, Corpus, Corpus) {
        let mut b = KnowledgeBuilder::new();
        b.synonym("coffee shop", "cafe", 1.0);
        b.taxonomy_path(&["wikipedia", "food", "coffee", "coffee drinks", "latte"]);
        b.taxonomy_path(&["wikipedia", "food", "coffee", "coffee drinks", "espresso"]);
        let mut kn = b.build();
        let s = kn.corpus_from_lines([
            "coffee shop latte helsingki",
            "cake and tea",
            "espresso north",
            "latte espresso cafe",
            "unrelated words entirely",
        ]);
        let t = kn.corpus_from_lines([
            "espresso cafe helsinki",
            "tea cake",
            "latte south",
            "coffee shop latte helsingki",
            "different thing",
        ]);
        (kn, s, t)
    }

    /// Top-k through the session API with the historical `au_dp(k, 2)`
    /// defaults (start 0.95, floor 0.3, step 0.1, parallel).
    fn topk_join(kn: &Knowledge, cfg: &SimConfig, s: &Corpus, t: &Corpus, k: usize) -> TopkResult {
        let engine = Engine::new(kn.clone(), *cfg).expect("valid config");
        let ps = engine.prepare(s).expect("prepare S");
        let pt = engine.prepare(t).expect("prepare T");
        engine
            .topk(&ps, &pt, &JoinSpec::topk(k).au_dp(2).parallel(true))
            .expect("topk")
    }

    fn topk_join_self(kn: &Knowledge, cfg: &SimConfig, c: &Corpus, k: usize) -> TopkResult {
        let engine = Engine::new(kn.clone(), *cfg).expect("valid config");
        let pc = engine.prepare(c).expect("prepare");
        engine
            .topk_self(&pc, &JoinSpec::topk(k).au_dp(2).parallel(true))
            .expect("topk self")
    }

    const FLOOR: f64 = 0.3;

    /// Oracle: brute-force at the floor, re-score fully (the join verifier
    /// early-accepts at the threshold and may report a lower bound), rank,
    /// truncate.
    fn oracle_topk(
        kn: &Knowledge,
        cfg: &SimConfig,
        s: &Corpus,
        t: &Corpus,
        k: usize,
        floor: f64,
    ) -> Vec<(u32, u32, f64)> {
        use crate::segment::segment_record;
        let mut all: Vec<(u32, u32, f64)> = brute_force_join(kn, cfg, s, t, floor)
            .iter()
            .map(|&(a, b, _)| {
                let sa = segment_record(kn, cfg, &s.get(au_text::RecordId(a)).tokens);
                let sb = segment_record(kn, cfg, &t.get(au_text::RecordId(b)).tokens);
                (a, b, usim_approx_seg(kn, cfg, &sa, &sb))
            })
            .collect();
        all.sort_by(|x, y| {
            y.2.total_cmp(&x.2)
                .then_with(|| (x.0, x.1).cmp(&(y.0, y.1)))
        });
        all.truncate(k);
        all
    }

    #[test]
    fn matches_brute_force_oracle() {
        let (kn, s, t) = setup();
        let cfg = SimConfig::default();
        for k in [1usize, 3, 5, 10] {
            let got = topk_join(&kn, &cfg, &s, &t, k);
            let want = oracle_topk(&kn, &cfg, &s, &t, k, FLOOR);
            assert_eq!(
                got.pairs.len(),
                want.len(),
                "k={k}: {:?} vs {:?}",
                got.pairs,
                want
            );
            for (g, w) in got.pairs.iter().zip(&want) {
                assert!(
                    (g.2 - w.2).abs() < 1e-9,
                    "k={k}: scores diverge {g:?} vs {w:?}"
                );
            }
            // Where scores are unique the ids must agree exactly.
            for (g, w) in got.pairs.iter().zip(&want) {
                let dup = want.iter().filter(|x| (x.2 - w.2).abs() < 1e-9).count();
                if dup == 1 {
                    assert_eq!((g.0, g.1), (w.0, w.1), "k={k}");
                }
            }
        }
    }

    #[test]
    fn descends_until_enough_pairs() {
        let (kn, s, t) = setup();
        let cfg = SimConfig::default();
        // k=1 finds the identical pair at θ=0.95 in round 1; a large k
        // must descend further.
        let r1 = topk_join(&kn, &cfg, &s, &t, 1);
        assert_eq!(r1.rounds, 1);
        assert_eq!(r1.pairs.len(), 1);
        assert_eq!((r1.pairs[0].0, r1.pairs[0].1), (0, 3)); // identical strings
        assert!(r1.pairs[0].2 > 0.999);
        let r8 = topk_join(&kn, &cfg, &s, &t, 8);
        assert!(r8.rounds > 1);
        assert!(r8.final_theta < 0.95);
    }

    #[test]
    fn fewer_results_than_k_stops_at_floor() {
        let (kn, s, t) = setup();
        let cfg = SimConfig::default();
        let res = topk_join(&kn, &cfg, &s, &t, 500);
        assert!((res.final_theta - FLOOR).abs() < 1e-9);
        assert!(res.pairs.len() < 500);
        // Everything the floor-level join finds must be here.
        let want = oracle_topk(&kn, &cfg, &s, &t, 500, FLOOR);
        assert_eq!(res.pairs.len(), want.len());
    }

    #[test]
    fn k_zero_is_empty_and_free() {
        let (kn, s, t) = setup();
        let cfg = SimConfig::default();
        let res = topk_join(&kn, &cfg, &s, &t, 0);
        assert!(res.pairs.is_empty());
        assert_eq!(res.rounds, 0);
    }

    #[test]
    fn self_join_topk() {
        let (kn, s, _) = setup();
        let cfg = SimConfig::default();
        let res = topk_join_self(&kn, &cfg, &s, 3);
        for &(a, b, _) in &res.pairs {
            assert!(a < b);
        }
        for w in res.pairs.windows(2) {
            assert!(w[0].2 >= w[1].2 - 1e-12);
        }
        // (0, 3) share latte + coffee-shop/cafe semantics → best pair.
        assert!(!res.pairs.is_empty());
    }

    #[test]
    fn ranking_is_descending() {
        let (kn, s, t) = setup();
        let cfg = SimConfig::default();
        let engine = Engine::new(kn.clone(), cfg).expect("valid config");
        let ps = engine.prepare(&s).expect("prepare S");
        let pt = engine.prepare(&t).expect("prepare T");
        let res = engine
            .topk(&ps, &pt, &JoinSpec::topk(10).au_dp(1))
            .expect("topk");
        for w in res.pairs.windows(2) {
            assert!(w[0].2 >= w[1].2 - 1e-12);
        }
    }
}
