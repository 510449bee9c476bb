//! Bernoulli cardinality estimation and the join cost model (Section 4.1).
//!
//! The join cost (Eq. 15) is `Cτ = c_f · Tτ + c_v · Vτ`, with `Tτ` the
//! number of index pairs touched during filtering (Eq. 16) and `Vτ` the
//! number of candidates. Independent Bernoulli samples with probabilities
//! `p_s`, `p_t` give unbiased estimators `T̂τ = T′τ / (p_s·p_t)` and
//! `V̂τ = V′τ / (p_s·p_t)` (Eq. 17), because each pair survives sampling
//! with probability `p_s·p_t`.

use crate::engine::Engine;
use crate::error::AuError;
use crate::join::RunTotals;
use crate::prepared::Prepared;
use crate::signature::FilterKind;
use crate::spec::JoinSpec;
use crate::usim::{RunScratch, Verifier};
use au_text::record::Corpus;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Mutex;
use std::time::Instant;

/// Draw an independent Bernoulli sample of `corpus` with inclusion
/// probability `p` (deterministic under `seed`).
pub fn bernoulli_sample(corpus: &Corpus, p: f64, seed: u64) -> Corpus {
    assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
    let mut rng = StdRng::seed_from_u64(seed);
    let (sampled, _) = corpus.filter(|_| rng.random_bool(p));
    sampled
}

/// Raw filtering-stage counts on a sample.
#[derive(Debug, Clone, Copy, Default)]
pub struct FilterCounts {
    /// `T′τ`: processed index pairs.
    pub processed: u64,
    /// `V′τ`: surviving candidates.
    pub candidates: u64,
}

/// The Bernoulli estimator of Eq. 17.
#[derive(Debug, Clone, Copy)]
pub struct BernoulliEstimate {
    /// `T̂τ`.
    pub t_hat: f64,
    /// `V̂τ`.
    pub v_hat: f64,
}

/// Scale raw sample counts up by `1 / (p_s·p_t)`.
pub fn estimate_from_counts(counts: FilterCounts, ps: f64, pt: f64) -> BernoulliEstimate {
    let scale = 1.0 / (ps * pt);
    BernoulliEstimate {
        t_hat: counts.processed as f64 * scale,
        v_hat: counts.candidates as f64 * scale,
    }
}

/// Candidates [`Engine::calibrate`] times stage 5 on, at least.
const CALIBRATION_VERIFICATIONS: usize = 64;

impl Engine {
    /// The raw `T′τ` / `V′τ` counts of the Bernoulli estimator (Eq. 17):
    /// stages 2–4 of a serial R×S join on prepared corpora — the same
    /// memoized order, signatures and CSR index, the same probe — with a
    /// consumer that only counts, so the `Tτ` / `Vτ` a join of `s` and
    /// `t` reports. The one count entry point; no candidate is kept.
    pub fn filter_counts(
        &self,
        s: &Prepared,
        t: &Prepared,
        theta: f64,
        filter: FilterKind,
    ) -> Result<FilterCounts, AuError> {
        self.check(s)?;
        self.check(t)?;
        let spec = JoinSpec::threshold(theta).filter(filter).serial();
        spec.validate_threshold(self.cfg.eps)?;
        Ok(self.count_run(s, t, &spec))
    }

    /// Measure the per-unit costs `c_f` / `c_v` of Eq. 15 on prepared
    /// corpora, serially, through the join's own candidate pass, and
    /// without building a candidate list: `c_f` is the count consumer's
    /// summed probe spans (the CSR probe alone, not the order or signature
    /// stages a memo miss adds) over its `Tτ`; `c_v` is the verify
    /// consumer's summed spans — stage 5 as a join runs it, walking `t`'s
    /// memoized transposed index, fetched (so built) beforehand and
    /// untimed — per candidate over the leading probe records, until at
    /// least 64 candidates are verified. A pass with no candidates times
    /// the first 64 pairs of a small synthesized cross product instead.
    /// Preparation is never repeated.
    pub fn calibrate(
        &self,
        s: &Prepared,
        t: &Prepared,
        theta: f64,
        filter: FilterKind,
    ) -> Result<CostModel, AuError> {
        self.check(s)?;
        self.check(t)?;
        let spec = JoinSpec::threshold(theta).filter(filter).serial();
        spec.validate_threshold(self.cfg.eps)?;
        let (pass, _) = self.candidate_pass(s, t, false, &spec);
        let (hits, counted) = pass.count(false);
        let c_f = if counted.probe.processed > 0 {
            counted.probe_time.as_secs_f64() / counted.probe.processed as f64
        } else {
            5e-8
        };
        let mut lead = 0;
        let mut verified = 0;
        while lead < hits.len() && verified < CALIBRATION_VERIFICATIONS {
            verified += hits[lead];
            lead += 1;
        }
        let (ns, nt) = (s.len().min(16) as u32, t.len().min(16) as u32);
        let verifier = Verifier::new(&self.kn, &self.cfg);
        let c_v = if verified > 0 {
            let index = t.transposed(false);
            let totals = Mutex::new(RunTotals::default());
            let (_, run) = pass.verify(
                0..lead as u32,
                false,
                &verifier,
                &s.segrecs,
                t.run_side(&index),
                theta,
                &totals,
            );
            (run.consume_time.as_secs_f64() / run.candidates as f64).max(1e-9)
        } else if ns > 0 && nt > 0 {
            let pairs: Vec<(u32, u32)> = (0..ns)
                .flat_map(|a| (0..nt).map(move |b| (a, b)))
                .take(CALIBRATION_VERIFICATIONS)
                .collect();
            let index = t.transposed(false);
            let (mut rs, mut out) = (RunScratch::default(), Vec::new());
            let start = Instant::now();
            for run in pairs.chunk_by(|x, y| x.0 == y.0) {
                let keys = rs.resolve(&s.segrecs[run[0].0 as usize], t.run_side(&index));
                verifier.verify_run_at_least(keys, run, theta, &mut rs, &mut out);
            }
            (start.elapsed().as_secs_f64() / pairs.len() as f64).max(1e-9)
        } else {
            2e-6
        };
        Ok(CostModel {
            c_f: c_f.max(1e-10),
            c_v,
        })
    }
}

/// Calibrated per-unit costs (seconds) of Eq. 15.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Seconds per processed index pair.
    pub c_f: f64,
    /// Seconds per verified candidate.
    pub c_v: f64,
}

impl CostModel {
    /// Estimated total cost `Ĉτ` (Eq. 15).
    pub fn cost(&self, est: BernoulliEstimate) -> f64 {
        self.c_f * est.t_hat + self.c_v * est.v_hat
    }

    /// Variance propagation for Eq. 22:
    /// `σ²_C = c_f² σ²_T + c_v² σ²_V`.
    pub fn cost_var(&self, var_t: f64, var_v: f64) -> f64 {
        self.c_f * self.c_f * var_t + self.c_v * self.c_v * var_v
    }
}

/// A prepared sample pair kept by the suggestion loop.
#[derive(Debug)]
pub struct SamplePair {
    /// Sampled S side.
    pub s: Corpus,
    /// Sampled T side.
    pub t: Corpus,
}

/// Draw the `n`-th i.i.d. sample pair (deterministic in `seed` and `n`).
pub fn draw_sample_pair(s: &Corpus, t: &Corpus, ps: f64, pt: f64, seed: u64, n: u64) -> SamplePair {
    SamplePair {
        s: bernoulli_sample(
            s,
            ps,
            seed ^ (0x9e3779b97f4a7c15u64.wrapping_mul(2 * n + 1)),
        ),
        t: bernoulli_sample(
            t,
            pt,
            seed ^ (0xc2b2ae3d27d4eb4fu64.wrapping_mul(2 * n + 2)),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::knowledge::{Knowledge, KnowledgeBuilder};

    fn setup() -> (Knowledge, Corpus, Corpus) {
        let mut b = KnowledgeBuilder::new();
        b.synonym("coffee shop", "cafe", 1.0);
        b.taxonomy_path(&["wikipedia", "food", "coffee", "coffee drinks", "latte"]);
        b.taxonomy_path(&["wikipedia", "food", "coffee", "coffee drinks", "espresso"]);
        let mut kn = b.build();
        let lines_s: Vec<String> = (0..40)
            .map(|i| match i % 4 {
                0 => format!("coffee shop latte number{i}"),
                1 => format!("espresso corner number{i}"),
                2 => format!("tea house number{i}"),
                _ => format!("random place number{i}"),
            })
            .collect();
        let lines_t: Vec<String> = (0..40)
            .map(|i| match i % 4 {
                0 => format!("cafe latte number{i}"),
                1 => format!("espresso bar number{i}"),
                2 => format!("tea room number{i}"),
                _ => format!("other spot number{i}"),
            })
            .collect();
        let s = kn.corpus_from_lines(lines_s.iter().map(|x| x.as_str()));
        let t = kn.corpus_from_lines(lines_t.iter().map(|x| x.as_str()));
        (kn, s, t)
    }

    #[test]
    fn bernoulli_sample_is_deterministic_and_sized() {
        let (_, s, _) = setup();
        let a = bernoulli_sample(&s, 0.5, 42);
        let b = bernoulli_sample(&s, 0.5, 42);
        assert_eq!(a.len(), b.len());
        assert_eq!(
            a.iter().map(|r| r.raw.clone()).collect::<Vec<_>>(),
            b.iter().map(|r| r.raw.clone()).collect::<Vec<_>>()
        );
        let c = bernoulli_sample(&s, 0.5, 43);
        // Different seed → (almost surely) different sample.
        assert!(a.len() != c.len() || a.iter().zip(c.iter()).any(|(x, y)| x.raw != y.raw));
        assert_eq!(bernoulli_sample(&s, 0.0, 1).len(), 0);
        assert_eq!(bernoulli_sample(&s, 1.0, 1).len(), s.len());
    }

    #[test]
    fn estimator_is_unbiased_in_expectation() {
        // Mean of many independent estimates must approach the true value
        // (CLT); tolerance is generous to keep the test fast.
        let (kn, s, t) = setup();
        let engine = Engine::new(kn, SimConfig::default()).expect("valid config");
        let filter = FilterKind::AuHeuristic { tau: 2 };
        let counts_of = |a: &Corpus, b: &Corpus| {
            let (pa, pb) = (engine.prepare(a).unwrap(), engine.prepare(b).unwrap());
            engine.filter_counts(&pa, &pb, 0.7, filter).unwrap()
        };
        let truth = counts_of(&s, &t);
        assert!(truth.processed > 0, "fixture must produce filter work");
        let (ps, pt) = (0.5, 0.5);
        let mut sum_t = 0.0;
        let runs = 60;
        for n in 0..runs {
            let sp = draw_sample_pair(&s, &t, ps, pt, 7, n);
            sum_t += estimate_from_counts(counts_of(&sp.s, &sp.t), ps, pt).t_hat;
        }
        let mean_t = sum_t / runs as f64;
        let rel = (mean_t - truth.processed as f64).abs() / truth.processed as f64;
        assert!(
            rel < 0.35,
            "relative bias {rel:.3} (mean {mean_t}, truth {})",
            truth.processed
        );
    }

    /// Sample counts and the suggestion loop's outcome, recorded before
    /// samples were routed through `Engine::prepare` + the production
    /// filter run: the estimator's inputs must not move.
    #[test]
    fn sample_counts_and_suggestion_are_pinned() {
        let (kn, s, t) = setup();
        let engine = Engine::new(kn, SimConfig::default()).expect("valid config");
        let sp = draw_sample_pair(&s, &t, 0.5, 0.5, 7, 3);
        assert_eq!((sp.s.len(), sp.t.len()), (17, 19));
        let (pa, pb) = (
            engine.prepare(&sp.s).unwrap(),
            engine.prepare(&sp.t).unwrap(),
        );
        for (filter, want) in [
            (FilterKind::AuHeuristic { tau: 2 }, (406, 48)),
            (FilterKind::AuDp { tau: 3 }, (641, 73)),
            (FilterKind::UFilter, (97, 35)),
        ] {
            let c = engine.filter_counts(&pa, &pb, 0.7, filter).unwrap();
            assert_eq!((c.processed, c.candidates), want, "{}", filter.label());
        }
        let (ps, pt) = (engine.prepare(&s).unwrap(), engine.prepare(&t).unwrap());
        let model = CostModel {
            c_f: 5e-8,
            c_v: 5e-6,
        };
        let sc = crate::suggest::SuggestConfig {
            ps: 0.5,
            pt: 0.5,
            n_star: 3,
            max_iters: 12,
            universe: vec![1, 2, 3],
            seed: 99,
            ..Default::default()
        };
        let out = engine.suggest_tau(&ps, &pt, 0.7, &model, &sc).unwrap();
        assert_eq!((out.tau, out.iterations), (1, 7));
    }

    #[test]
    fn cost_model_combines_linearly() {
        let m = CostModel { c_f: 2.0, c_v: 3.0 };
        let e = BernoulliEstimate {
            t_hat: 10.0,
            v_hat: 4.0,
        };
        assert_eq!(m.cost(e), 32.0);
        assert_eq!(m.cost_var(1.0, 1.0), 13.0);
    }

    #[test]
    fn calibration_produces_positive_costs() {
        let (kn, s, t) = setup();
        let engine = Engine::new(kn, SimConfig::default()).expect("valid config");
        let ps = engine.prepare(&s).expect("prepare S");
        let pt = engine.prepare(&t).expect("prepare T");
        let m = engine
            .calibrate(&ps, &pt, 0.7, FilterKind::UFilter)
            .expect("calibrate");
        assert!(m.c_f > 0.0 && m.c_f.is_finite());
        assert!(m.c_v > 0.0 && m.c_v.is_finite());
        // Note: c_v > c_f holds on realistic data but is wall-clock-noisy
        // on a 40-record fixture, so it is asserted only at bench scale.
    }
}
