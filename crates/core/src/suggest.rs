//! Algorithm 7: suggesting the best overlap constraint τ.
//!
//! Monte-Carlo refinement over independent Bernoulli samples: every
//! iteration draws a fresh sample pair, runs the *filtering stage only*
//! for every τ in the universe, scales the counts to full-dataset
//! estimates (Eq. 17), folds them into online mean/variance accumulators
//! (Eq. 20–21) and computes confidence intervals on the estimated cost
//! `Ĉτ` (Eq. 22–23). Sampling stops — after a burn-in of `n*` iterations —
//! once the worst-case penalty of a wrong pick drops below the price of
//! one more iteration (Ineq. 24).
//!
//! Deviation noted in DESIGN.md: Ineq. 24's right-hand side needs
//! `Σ_τ T′(n+1)`, the cost of the *next* iteration, which is unknowable
//! before drawing the sample; we predict it with the running mean of the
//! per-iteration totals observed so far.

use crate::engine::Engine;
use crate::error::AuError;
use crate::estimate::{draw_sample_pair, estimate_from_counts, CostModel, FilterCounts};
use crate::prepared::Prepared;
use crate::signature::FilterKind;
use crate::spec::JoinSpec;
use crate::stats::OnlineStats;
use au_text::record::Corpus;
use std::time::{Duration, Instant};

/// Student-t quantile t* of the stopping rule's confidence interval: the
/// paper's 1.036, a 70 % two-sided interval.
const T_STAR: f64 = 1.036;

/// Configuration of the suggestion loop.
#[derive(Debug, Clone)]
pub struct SuggestConfig {
    /// Sampling probability for the S side.
    pub ps: f64,
    /// Sampling probability for the T side.
    pub pt: f64,
    /// Burn-in: minimum number of iterations before stopping (the paper's
    /// `n*`; Figure 8 uses 10).
    pub n_star: usize,
    /// Safety cap on iterations.
    pub max_iters: usize,
    /// Candidate τ values (the universe `U`).
    pub universe: Vec<u32>,
    /// RNG seed (all sampling is deterministic given this).
    pub seed: u64,
    /// Whether the signatures use the DP or the heuristic AU-Filter.
    pub use_dp: bool,
}

impl Default for SuggestConfig {
    fn default() -> Self {
        Self {
            ps: 0.02,
            pt: 0.02,
            n_star: 10,
            max_iters: 200,
            universe: vec![1, 2, 3, 4, 5, 6],
            seed: 0xA0_5EED,
            use_dp: false,
        }
    }
}

/// Outcome of the suggestion loop.
#[derive(Debug, Clone)]
pub struct SuggestOutcome {
    /// The recommended overlap constraint.
    pub tau: u32,
    /// Iterations executed.
    pub iterations: usize,
    /// Final cost estimates `(τ, Ĉτ seconds)`.
    pub estimates: Vec<(u32, f64)>,
    /// Wall-clock spent suggesting.
    pub elapsed: Duration,
}

/// The Algorithm 7 loop, counting each sample pair through `counts_of`
/// ([`Engine::suggest_tau`] counts through prepared state). `None` when
/// the universe is empty: there is no τ to suggest.
fn suggest_loop(
    s: &Corpus,
    t: &Corpus,
    model: &CostModel,
    sc: &SuggestConfig,
    mut counts_of: impl FnMut(&Corpus, &Corpus, FilterKind) -> FilterCounts,
) -> Option<SuggestOutcome> {
    let start = Instant::now();
    let make_filter = |tau: u32| -> FilterKind {
        if sc.use_dp {
            FilterKind::AuDp { tau }
        } else {
            FilterKind::AuHeuristic { tau }
        }
    };
    let k = sc.universe.len();
    let mut t_stats = vec![OnlineStats::new(); k];
    let mut v_stats = vec![OnlineStats::new(); k];
    let mut iter_cost_stats = OnlineStats::new();
    let mut n = 0usize;

    loop {
        n += 1;
        let sample = draw_sample_pair(s, t, sc.ps, sc.pt, sc.seed, n as u64);
        let mut iter_cost = 0.0;
        for (i, &tau) in sc.universe.iter().enumerate() {
            let counts = counts_of(&sample.s, &sample.t, make_filter(tau));
            let est = estimate_from_counts(counts, sc.ps, sc.pt);
            t_stats[i].push(est.t_hat);
            v_stats[i].push(est.v_hat);
            iter_cost += model.c_f * counts.processed as f64;
        }
        iter_cost_stats.push(iter_cost);

        if n >= sc.n_star.max(2) {
            let cis: Vec<(f64, f64, f64)> = (0..k)
                .map(|i| {
                    let mean = model.c_f * t_stats[i].mean() + model.c_v * v_stats[i].mean();
                    let var = model.cost_var(
                        t_stats[i].sample_var() / n as f64,
                        v_stats[i].sample_var() / n as f64,
                    );
                    let half = T_STAR * var.sqrt();
                    (mean, mean - half, mean + half)
                })
                .collect();
            let best = (0..k).min_by(|&a, &b| cis[a].0.total_cmp(&cis[b].0))?;
            let upper_best = cis[best].2;
            let min_other_lower = (0..k)
                .filter(|&i| i != best)
                .map(|i| cis[i].1)
                .fold(f64::INFINITY, f64::min);
            let penalty = upper_best - min_other_lower;
            let next_iter_cost = iter_cost_stats.mean();
            if penalty < next_iter_cost || n >= sc.max_iters {
                let estimates = sc
                    .universe
                    .iter()
                    .zip(&cis)
                    .map(|(&tau, ci)| (tau, ci.0))
                    .collect();
                return Some(SuggestOutcome {
                    tau: sc.universe[best],
                    iterations: n,
                    estimates,
                    elapsed: start.elapsed(),
                });
            }
        }
    }
}

impl Engine {
    /// Algorithm 7 on prepared corpora: recommend the overlap constraint
    /// τ minimising the estimated join cost at `theta`. Bernoulli samples
    /// are drawn from the prepared corpora's records; the full corpora
    /// themselves are never re-prepared. `theta` must lie in (ε, 1]
    /// (ε = [`crate::SimConfig::eps`]), as for every threshold operation.
    pub fn suggest_tau(
        &self,
        s: &Prepared,
        t: &Prepared,
        theta: f64,
        model: &CostModel,
        sc: &SuggestConfig,
    ) -> Result<SuggestOutcome, AuError> {
        self.check(s)?;
        self.check(t)?;
        JoinSpec::threshold(theta).validate_threshold(self.cfg.eps)?;
        let empty = || AuError::InvalidSpec {
            field: "universe",
            message: "the τ universe must not be empty".into(),
        };
        if sc.universe.is_empty() {
            return Err(empty());
        }
        for (name, p) in [("ps", sc.ps), ("pt", sc.pt)] {
            if !(0.0..=1.0).contains(&p) {
                return Err(AuError::InvalidSpec {
                    field: name,
                    message: format!("sampling probability out of range: {p}"),
                });
            }
        }
        suggest_loop(&s.corpus, &t.corpus, model, sc, |a, b, f| {
            self.sample_counts(a, b, theta, f)
        })
        .ok_or_else(empty)
    }

    /// [`Engine::filter_counts`] on one Bernoulli sample pair drawn from
    /// corpora this engine already prepared: each sample is prepared and
    /// filtered through exactly the stages the full join runs, so Eq. 17
    /// scales the production path's own counts.
    fn sample_counts(
        &self,
        s: &Corpus,
        t: &Corpus,
        theta: f64,
        filter: FilterKind,
    ) -> FilterCounts {
        let (ps, pt) = (
            self.prepare_trusted(s.clone()),
            self.prepare_trusted(t.clone()),
        );
        let spec = JoinSpec::threshold(theta).filter(filter).serial();
        self.count_run(&ps, &pt, &spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::knowledge::{Knowledge, KnowledgeBuilder};

    /// τ suggestion through the session API (prepares fresh state per
    /// call, like the removed free function used to).
    fn suggest_tau(
        kn: &Knowledge,
        cfg: &SimConfig,
        s: &Corpus,
        t: &Corpus,
        theta: f64,
        model: &CostModel,
        sc: &SuggestConfig,
    ) -> SuggestOutcome {
        let engine = Engine::new(kn.clone(), *cfg).expect("valid config");
        let ps = engine.prepare(s).expect("prepare S");
        let pt = engine.prepare(t).expect("prepare T");
        engine
            .suggest_tau(&ps, &pt, theta, model, sc)
            .expect("suggest")
    }

    fn setup(n: usize) -> (Knowledge, Corpus, Corpus) {
        let mut b = KnowledgeBuilder::new();
        b.synonym("coffee shop", "cafe", 1.0);
        b.taxonomy_path(&["wikipedia", "food", "coffee", "coffee drinks", "latte"]);
        b.taxonomy_path(&["wikipedia", "food", "coffee", "coffee drinks", "espresso"]);
        let mut kn = b.build();
        let mk = |prefix: &str, i: usize| match i % 5 {
            0 => format!("{prefix} coffee shop latte place{i}"),
            1 => format!("{prefix} espresso corner place{i}"),
            2 => format!("{prefix} tea house place{i}"),
            3 => format!("{prefix} cafe latte place{i}"),
            _ => format!("{prefix} random spot place{i}"),
        };
        let lines_s: Vec<String> = (0..n).map(|i| mk("north", i)).collect();
        let lines_t: Vec<String> = (0..n).map(|i| mk("south", i)).collect();
        let s = kn.corpus_from_lines(lines_s.iter().map(|x| x.as_str()));
        let t = kn.corpus_from_lines(lines_t.iter().map(|x| x.as_str()));
        (kn, s, t)
    }

    #[test]
    fn suggestion_terminates_and_is_in_universe() {
        let (kn, s, t) = setup(120);
        let cfg = SimConfig::default();
        let model = CostModel {
            c_f: 5e-8,
            c_v: 5e-6,
        };
        let sc = SuggestConfig {
            ps: 0.3,
            pt: 0.3,
            n_star: 3,
            max_iters: 20,
            universe: vec![1, 2, 3],
            ..Default::default()
        };
        let out = suggest_tau(&kn, &cfg, &s, &t, 0.75, &model, &sc);
        assert!(sc.universe.contains(&out.tau));
        assert!(out.iterations >= 3 && out.iterations <= 20);
        assert_eq!(out.estimates.len(), 3);
        assert!(out.estimates.iter().all(|&(_, c)| c >= 0.0));
    }

    #[test]
    fn deterministic_given_seed() {
        let (kn, s, t) = setup(80);
        let cfg = SimConfig::default();
        let model = CostModel {
            c_f: 5e-8,
            c_v: 5e-6,
        };
        let sc = SuggestConfig {
            ps: 0.25,
            pt: 0.25,
            n_star: 3,
            max_iters: 10,
            universe: vec![1, 2, 4],
            seed: 99,
            ..Default::default()
        };
        let a = suggest_tau(&kn, &cfg, &s, &t, 0.8, &model, &sc);
        let b = suggest_tau(&kn, &cfg, &s, &t, 0.8, &model, &sc);
        assert_eq!(a.tau, b.tau);
        assert_eq!(a.iterations, b.iterations);
    }

    #[test]
    fn an_empty_universe_or_a_bad_probability_is_a_typed_error() {
        let (kn, s, t) = setup(20);
        let engine = Engine::new(kn, SimConfig::default()).expect("valid config");
        let (ps, pt) = (engine.prepare(&s).unwrap(), engine.prepare(&t).unwrap());
        let model = CostModel {
            c_f: 5e-8,
            c_v: 5e-6,
        };
        let field = |sc: SuggestConfig| match engine.suggest_tau(&ps, &pt, 0.8, &model, &sc) {
            Err(AuError::InvalidSpec { field, .. }) => field,
            other => panic!("expected InvalidSpec, got {other:?}"),
        };
        let universe = Vec::new();
        assert_eq!(
            field(SuggestConfig {
                universe,
                ..Default::default()
            }),
            "universe"
        );
        assert_eq!(
            field(SuggestConfig {
                pt: 1.5,
                ..Default::default()
            }),
            "pt"
        );
    }

    #[test]
    fn burn_in_respected() {
        let (kn, s, t) = setup(60);
        let cfg = SimConfig::default();
        // Enormous verification cost makes every τ equally awful; the loop
        // must still run at least n_star iterations.
        let model = CostModel { c_f: 1.0, c_v: 1.0 };
        let sc = SuggestConfig {
            ps: 0.3,
            pt: 0.3,
            n_star: 5,
            max_iters: 6,
            universe: vec![1, 2],
            ..Default::default()
        };
        let out = suggest_tau(&kn, &cfg, &s, &t, 0.8, &model, &sc);
        assert!(out.iterations >= 5);
    }
}
