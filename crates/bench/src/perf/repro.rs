//! The paper's evaluation (Section 5) as one gated artifact,
//! `BENCH_repro.json`: one row per claim of Figures 3–8 and Tables 8–13
//! that rests on counts.
//!
//! Each row runs at the sizes and seeds of the paper experiment it stands
//! for, scaled by `AU_SCALE` ([`sized`]), and carries its inputs, its
//! points and `holds`: whether the paper's shape holds on this run. A
//! claim that does not hold stays `false` in the baseline, and
//! `bench_gate` diffs every value, so a change that flips a claim or moves
//! a count behind one fails the gate. Where the paper picks τ from a timed
//! calibration, a row fixes τ = 3 or prices τ with [`COUNT_MODEL`], so no
//! value depends on the clock. The wall-clock claims (Fig. 4/6/7 times,
//! Tables 10 and 14) are the repo benchmark's (DESIGN.md "Substitutions
//! (data)").

use super::json::Value;
use super::{filters, SCHEMA};
use crate::harness::{med_dataset, score_join, score_pairs, sized, wiki_dataset, Prf};
use au_baselines::{adapt_join, combination_join, k_join, pkduck_join};
use au_baselines::{AdaptJoinConfig, PkduckConfig};
use au_core::config::{MeasureSet, SimConfig};
use au_core::engine::{Engine, JoinSpec, Prepared};
use au_core::estimate::CostModel;
use au_core::join::JoinResult;
use au_core::knowledge::KnowledgeBuilder;
use au_core::segment::segment_record;
use au_core::signature::FilterKind;
use au_core::suggest::{SuggestConfig, SuggestOutcome};
use au_core::usim::{usim_approx_seg, usim_exact_seg};
use au_datagen::{word, LabeledDataset};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The count-proxy cost model of every τ choice here (Eq. 15 in counts):
/// one unit per processed index pair (`Tτ`), twenty per candidate (`Vτ`).
pub const COUNT_MODEL: CostModel = CostModel {
    c_f: 1.0,
    c_v: 20.0,
};

/// The thresholds of the effectiveness tables (Tables 8 and 13).
const PRF_THETAS: [f64; 2] = [0.70, 0.75];

/// The θ sweep of Fig. 4 and Tables 11–12.
const THETAS: [f64; 5] = [0.75, 0.80, 0.85, 0.90, 0.95];

/// One paper claim: what it says, whether it holds, and the counts it
/// rests on.
#[derive(Debug, Clone)]
pub struct Claim {
    /// Stable row id, `<artifact>/<dataset>` (e.g. `fig5/med`).
    pub id: String,
    /// The paper's shape, in words.
    pub claim: &'static str,
    /// Whether the shape holds on this run.
    pub holds: bool,
    /// Run parameters: dataset, records per side, seed, fixed θ / τ.
    pub inputs: Vec<(&'static str, Value)>,
    /// One object per measured point, in sweep order.
    pub points: Vec<Value>,
}

/// A generated corpus pair: `med` or `wiki` profile, records per side,
/// seed.
#[derive(Debug, Clone, Copy)]
pub struct Data {
    /// `med` or `wiki`.
    pub profile: &'static str,
    /// Records per side (the largest size of a size sweep).
    pub n: usize,
    /// Generator seed.
    pub seed: u64,
}

impl Data {
    /// A MED-like pair.
    pub fn med(n: usize, seed: u64) -> Self {
        Self::of("med", n, seed)
    }

    /// A WIKI-like pair.
    pub fn wiki(n: usize, seed: u64) -> Self {
        Self::of("wiki", n, seed)
    }

    fn of(profile: &'static str, n: usize, seed: u64) -> Self {
        Data { profile, n, seed }
    }

    fn generate(&self) -> LabeledDataset {
        match self.profile {
            "med" => med_dataset(self.n, self.seed),
            _ => wiki_dataset(self.n, self.seed),
        }
    }

    /// The row of `artifact` on this pair, `extra` inputs after its own.
    fn claim<const N: usize>(
        &self,
        (artifact, claim): (&str, &'static str),
        holds: bool,
        extra: [(&'static str, Value); N],
        points: Vec<Value>,
    ) -> Claim {
        let own = [
            ("dataset", self.profile.into()),
            ("n_records", self.n.into()),
            ("seed", self.seed.into()),
        ];
        Claim {
            id: format!("{artifact}/{}", self.profile),
            claim,
            holds,
            inputs: own.into_iter().chain(extra).collect(),
            points,
        }
    }
}

/// Both sides of a dataset prepared once, for every join of a row.
struct Pair {
    engine: Engine,
    ps: Prepared,
    pt: Prepared,
}

impl Pair {
    fn new(ds: &LabeledDataset, cfg: SimConfig) -> Self {
        let engine = Engine::new(ds.kn.clone(), cfg).expect("valid config");
        let ps = engine.prepare(&ds.s).expect("prepare S");
        let pt = engine.prepare(&ds.t).expect("prepare T");
        Pair { engine, ps, pt }
    }

    fn join(&self, theta: f64, filter: FilterKind) -> JoinResult {
        let spec = JoinSpec::threshold(theta).filter(filter);
        self.engine.join(&self.ps, &self.pt, &spec).expect("join")
    }

    /// Algorithm 7 under [`COUNT_MODEL`].
    fn suggest(&self, theta: f64, sc: &SuggestConfig) -> SuggestOutcome {
        let pick = self
            .engine
            .suggest_tau(&self.ps, &self.pt, theta, &COUNT_MODEL, sc);
        pick.expect("suggest")
    }

    /// [`COUNT_MODEL`] cost of the AU-heuristic join at each τ of
    /// `universe`.
    fn tau_costs(&self, theta: f64, universe: &[u32]) -> Vec<f64> {
        let cost = |&tau: &u32| {
            let st = self.join(theta, FilterKind::AuHeuristic { tau }).stats;
            COUNT_MODEL.c_f * st.processed_pairs as f64 + COUNT_MODEL.c_v * st.candidates as f64
        };
        universe.iter().map(cost).collect()
    }
}

/// Algorithm 7's settings: sampling probability `p` on both sides,
/// burn-in, iteration cap and τ universe.
fn sampling(p: f64, n_star: usize, max_iters: usize, universe: &[u32]) -> SuggestConfig {
    SuggestConfig {
        ps: p,
        pt: p,
        n_star,
        max_iters,
        universe: universe.to_vec(),
        ..SuggestConfig::default()
    }
}

/// Fig. 3(a)/(b) and Fig. 5: signature length and candidates over a τ
/// sweep at each θ, for the filters `which` picks out of [`filters`].
fn tau_sweep(
    data: Data,
    (artifact, claim): (&str, &'static str),
    thetas: &[f64],
    taus: &[u32],
    which: std::ops::Range<usize>,
) -> Claim {
    let pair = Pair::new(&data.generate(), SimConfig::default());
    let (mut holds, mut points) = (true, Vec::new());
    for &theta in thetas {
        let mut last = vec![(0.0, u64::MAX); which.len()];
        for &tau in taus {
            let mut cur = Vec::new();
            for (name, filter) in &filters(tau)[which.clone()] {
                let st = pair.join(theta, *filter).stats;
                cur.push((st.avg_sig_len_s, st.candidates));
                points.push(obj! {
                    "theta": theta, "tau": tau, "filter": *name,
                    "sig_len": st.avg_sig_len_s, "candidates": st.candidates,
                });
            }
            // Along τ each filter's signatures grow and its candidates
            // fall; at one τ the candidates fall from U to AU-heur to AU-DP.
            holds &= cur.iter().zip(&last).all(|(c, l)| c.0 >= l.0 && c.1 <= l.1);
            holds &= cur.windows(2).all(|w| w[1].1 <= w[0].1);
            last = cur;
        }
    }
    data.claim((artifact, claim), holds, [], points)
}

/// Fig. 3(a)/(b): AU-heuristic signature length and candidates over
/// τ = 1..5 at θ ∈ {0.75, 0.85, 0.95}.
pub fn fig3(data: Data) -> Claim {
    let claim = "AU-heur signatures grow and candidates fall as τ grows, at every θ";
    let (thetas, taus) = ([0.75, 0.85, 0.95], [1, 2, 3, 4, 5]);
    tau_sweep(data, ("fig3", claim), &thetas, &taus, 1..2)
}

/// Fig. 4's count proxy: candidates of U / AU-heur / AU-DP at τ = 3 over
/// the θ sweep; the three filters must return the same pairs.
pub fn fig4(data: Data) -> Claim {
    let pair = Pair::new(&data.generate(), SimConfig::default());
    let (mut holds, mut points) = (true, Vec::new());
    for theta in THETAS {
        let runs = filters(3).map(|(name, filter)| (name, pair.join(theta, filter)));
        let [u, h, d] = runs.each_ref().map(|(_, r)| r.stats.candidates);
        holds &= d <= h && h <= u && runs.iter().all(|(_, r)| r.pairs == runs[0].1.pairs);
        for (name, r) in runs {
            points.push(obj! {
                "theta": theta, "filter": name,
                "candidates": r.stats.candidates, "result_pairs": r.pairs.len(),
            });
        }
    }
    let claim = "candidates AU-DP ≤ AU-heur ≤ U at τ = 3 and every θ, with the same pairs";
    data.claim(("fig4", claim), holds, [("tau", 3u32.into())], points)
}

/// Fig. 5: signature length and candidates of the three filters over
/// τ ∈ {1, 2, 4, 6, 8} at θ = 0.85.
pub fn fig5(data: Data) -> Claim {
    let claim = "AU signatures grow and candidates fall with τ; candidates AU-DP ≤ AU-heur ≤ U";
    tau_sweep(data, ("fig5", claim), &[0.85], &[1, 2, 4, 6, 8], 0..3)
}

/// Fig. 7's count proxy: candidates of the three filters at τ = 3 against
/// corpus size; each must stay below 4/5 of the cross product.
pub fn fig7(data: Data, theta: f64, sizes: &[usize]) -> Claim {
    let (mut holds, mut points) = (true, Vec::new());
    for &n in sizes {
        let pair = Pair::new(&Data { n, ..data }.generate(), SimConfig::default());
        let cross = (n * n) as u64;
        for (name, filter) in filters(3) {
            let candidates = pair.join(theta, filter).stats.candidates;
            holds &= candidates < cross * 4 / 5;
            points.push(obj! {
                "n_records": n, "filter": name,
                "candidates": candidates, "cross_product": cross,
            });
        }
    }
    let claim = "every filter keeps candidates below 4/5 of the cross product at every size";
    let extra = [("theta", theta.into()), ("tau", 3u32.into())];
    data.claim(("fig7", claim), holds, extra, points)
}

/// Fig. 8: Algorithm 7's iterations against the sampling probability p
/// at θ = 0.80.
pub fn fig8(data: Data) -> Claim {
    let theta = 0.80;
    let pair = Pair::new(&data.generate(), SimConfig::default());
    let (mut holds, mut points, mut last) = (true, Vec::new(), usize::MAX);
    for p in [0.01, 0.02, 0.05, 0.10, 0.20, 0.40] {
        let pick = pair.suggest(theta, &sampling(p, 10, 400, &[1, 2, 3, 4]));
        holds &= pick.iterations <= last;
        last = pick.iterations;
        points.push(obj! { "p": p, "iterations": pick.iterations, "tau": pick.tau });
    }
    let claim = "smaller samples need at least as many suggestion iterations";
    data.claim(("fig8", claim), holds, [("theta", theta.into())], points)
}

/// `(label, θ, P/R/F)` of every method of an effectiveness table.
type Scored = Vec<(String, f64, Prf)>;

/// Whether `ours`'s F1 is at least each of `rivals`' at every θ, and the
/// table's points.
fn f1_dominates(key: &'static str, scored: &Scored, rivals: &[&str]) -> (bool, Vec<Value>) {
    let f1 = |label: &str, theta: f64| {
        let hit = scored.iter().find(|(l, t, _)| l == label && *t == theta);
        hit.expect("scored method").2.f
    };
    let holds = PRF_THETAS
        .iter()
        .all(|&theta| rivals.iter().all(|r| f1("TJS", theta) >= f1(r, theta)));
    let point = |(label, theta, prf): &(String, f64, Prf)| {
        Value::obj([
            (key, label.as_str().into()),
            ("theta", (*theta).into()),
            ("precision", prf.p.into()),
            ("recall", prf.r.into()),
            ("f1", prf.f.into()),
        ])
    };
    (holds, scored.iter().map(point).collect())
}

/// Table 8: P/R/F of the seven measure combinations (AU-DP, τ = 2)
/// against every planted pair.
pub fn table8(data: Data) -> Claim {
    let ds = data.generate();
    let mut scored = Scored::new();
    for m in MeasureSet::all_combinations() {
        let pair = Pair::new(&ds, SimConfig::default().with_measures(m));
        for theta in PRF_THETAS {
            let res = pair.join(theta, FilterKind::AuDp { tau: 2 });
            scored.push((m.label(), theta, score_join(&ds, &res)));
        }
    }
    let (holds, points) = f1_dominates("measure", &scored, &["J", "T", "S"]);
    let claim = "the unified measure TJS has an F1 at least each single measure's";
    let extra = [("planted_pairs", ds.truth.len().into())];
    data.claim(("table8", claim), holds, extra, points)
}

/// Table 13: P/R/F of the four baselines and the unified measure
/// (AU-DP, τ = 2) against every planted pair.
pub fn table13(data: Data) -> Claim {
    let ds = data.generate();
    let pair = Pair::new(&ds, SimConfig::default());
    let (kn, s, t) = (&ds.kn, &ds.s, &ds.t);
    let mut scored = Scored::new();
    for theta in PRF_THETAS {
        let ours = pair.join(theta, FilterKind::AuDp { tau: 2 }).pairs;
        let methods = [
            ("K-Join", k_join(kn, s, t, theta).id_pairs()),
            (
                "AdaptJoin",
                adapt_join(s, t, theta, &AdaptJoinConfig::default()).id_pairs(),
            ),
            (
                "PKduck",
                pkduck_join(kn, s, t, theta, &PkduckConfig::default()).id_pairs(),
            ),
            ("Combination", combination_join(kn, s, t, theta).id_pairs()),
            ("TJS", ours.iter().map(|&(a, b, _)| (a, b)).collect()),
        ];
        for (label, pairs) in methods {
            scored.push((label.into(), theta, score_pairs(&ds, &pairs)));
        }
    }
    let rivals = ["K-Join", "AdaptJoin", "PKduck", "Combination"];
    let (holds, points) = f1_dominates("method", &scored, &rivals);
    let claim = "the unified measure TJS has an F1 at least each baseline's";
    let extra = [("planted_pairs", ds.truth.len().into())];
    data.claim(("table13", claim), holds, extra, points)
}

fn percentile(sorted: &[f64], p: usize) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((p as f64 / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Algorithm 1's `approx / exact` on up to `n_pairs` generated string
/// pairs, each over its own dense rule set with sides up to `k` tokens.
fn ratios_for_k(k: usize, n_pairs: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(n_pairs);
    let mut attempts = 0;
    while out.len() < n_pairs && attempts < n_pairs * 4 {
        attempts += 1;
        // Small dedicated knowledge per pair: dense overlapping rules make
        // the instance combinatorially hard (like Example 1).
        let mut b = KnowledgeBuilder::new();
        let n_tokens = rng.random_range(5..=7usize);
        let words = |base: u64| -> Vec<String> {
            (0..n_tokens)
                .map(|i| word(seed * 97 + base + i as u64))
                .collect()
        };
        let (s_words, t_words) = (words(0), words(50));
        for _ in 0..rng.random_range(4..=8usize) {
            let ls = rng.random_range(1..=k.min(n_tokens));
            let lt = rng.random_range(1..=k.min(n_tokens));
            let ss = rng.random_range(0..=n_tokens - ls);
            let ts = rng.random_range(0..=n_tokens - lt);
            let c = 0.2 + rng.random::<f64>() * 0.8;
            b.synonym(
                &s_words[ss..ss + ls].join(" "),
                &t_words[ts..ts + lt].join(" "),
                c,
            );
        }
        let mut kn = b.build();
        let sid = kn.add_record(&s_words.join(" "));
        let tid = kn.add_record(&t_words.join(" "));
        let cfg = SimConfig {
            exact_budget: 500_000,
            ..SimConfig::default()
        };
        let srec = segment_record(&kn, &cfg, &kn.record(sid).tokens);
        let trec = segment_record(&kn, &cfg, &kn.record(tid).tokens);
        match usim_exact_seg(&kn, &cfg, &srec, &trec) {
            Some(exact) if exact > 0.0 => {
                out.push((usim_approx_seg(&kn, &cfg, &srec, &trec) / exact).min(1.0));
            }
            _ => {}
        }
    }
    out
}

/// Table 9: percentiles of Algorithm 1's `approx / exact` per longest
/// rule size k = 3..8, over `n_pairs` pairs drawn across eight seeds.
pub fn table9(n_pairs: usize) -> Claim {
    let (mut holds, mut points) = (true, Vec::new());
    for k in 3..=8usize {
        let seeds = (0..8u64).map(|seed| k as u64 * 1000 + seed);
        let mut all: Vec<f64> = seeds
            .flat_map(|seed| ratios_for_k(k, n_pairs / 8 + 1, seed))
            .collect();
        all.sort_by(|a, b| a.total_cmp(b));
        let mean = all.iter().sum::<f64>() / all.len() as f64;
        holds &= all.iter().all(|&x| x > 0.0 && x <= 1.0) && mean > 0.6;
        let pct = |p| percentile(&all, p);
        points.push(obj! {
            "k": k, "pairs": all.len(), "pct2": pct(2), "pct25": pct(25), "pct50": pct(50),
            "pct75": pct(75), "pct98": pct(98), "mean": mean,
        });
    }
    Claim {
        id: "table9/rules".into(),
        claim: "Algorithm 1's approx/exact lies in (0, 1] with a mean above 0.6 at every k",
        holds,
        inputs: vec![("n_pairs", n_pairs.into())],
        points,
    }
}

/// Table 11: the count cost of the suggested τ (AU-heuristic, τ = 1..5)
/// against the best and the worst τ, per θ.
pub fn table11(data: Data) -> Claim {
    let pair = Pair::new(&data.generate(), SimConfig::default());
    let sc = sampling(0.1, 5, 25, &[1, 2, 3, 4, 5]);
    let (mut holds, mut points) = (true, Vec::new());
    for theta in THETAS {
        let costs = pair.tau_costs(theta, &sc.universe);
        let tau = pair.suggest(theta, &sc).tau;
        let cost = costs[tau as usize - 1]; // the universe is 1..=5
        let best = costs.iter().copied().fold(f64::INFINITY, f64::min);
        let worst = costs.iter().copied().fold(0.0, f64::max);
        let midpoint = best + (worst - best) / 2.0;
        holds &= cost <= midpoint;
        let costs: Vec<Value> = costs.into_iter().map(Value::from).collect();
        points.push(obj! {
            "theta": theta, "costs": costs, "suggested_tau": tau, "midpoint": midpoint,
        });
    }
    let claim = "the suggested τ costs at most the midpoint of the best and the worst τ";
    data.claim(("table11", claim), holds, [], points)
}

/// Table 12: how many of 10 suggestion seeds (AU-heuristic, τ = 1..4,
/// p = 0.08) pick a τ within 10 % of the best τ's count cost, per θ.
pub fn table12(data: Data) -> Claim {
    const RUNS: u64 = 10;
    let pair = Pair::new(&data.generate(), SimConfig::default());
    let universe = [1, 2, 3, 4];
    let (mut holds, mut points) = (true, Vec::new());
    for theta in THETAS {
        let costs = pair.tau_costs(theta, &universe);
        let best = (0..4).min_by(|&a, &b| costs[a].total_cmp(&costs[b]));
        let best = best.expect("a non-empty universe");
        let near_best = |run: &u64| {
            let seed = 0x5EED_0000 + run;
            let sc = SuggestConfig {
                seed,
                ..sampling(0.08, 5, 25, &universe)
            };
            let tau = pair.suggest(theta, &sc).tau;
            costs[tau as usize - 1] <= costs[best] * 1.10 // the universe is 1..=4
        };
        let hits = (0..RUNS).filter(near_best).count() as u64;
        holds &= hits * 10 >= RUNS * 9;
        points.push(obj! { "theta": theta, "best_tau": universe[best], "near_best": hits });
    }
    let claim = "at least 9 of 10 suggestion seeds pick a τ within 10 % of the best count cost";
    data.claim(("table12", claim), holds, [("runs", RUNS.into())], points)
}

/// Every claim at `scale`, at the paper experiments' sizes and seeds, in
/// paper order. The rows run on threads of their own: Algorithm 7's
/// sampling loop is serial, and the rows share nothing.
pub fn run(scale: f64) -> Vec<Claim> {
    let n = |base| sized(base, scale);
    let steps: Vec<usize> = (1..=6).map(|step| n(400 * step)).collect();
    let rows: [&(dyn Fn() -> Claim + Sync); 15] = [
        &|| fig3(Data::med(n(1200), 31)),
        &|| fig4(Data::med(n(1200), 41)),
        &|| fig4(Data::wiki(n(1200), 42)),
        &|| fig5(Data::med(n(1200), 51)),
        &|| fig5(Data::wiki(n(1200), 52)),
        &|| fig7(Data::med(n(2400), 71), 0.90, &steps),
        &|| fig7(Data::wiki(n(2400), 72), 0.95, &steps),
        &|| fig8(Data::med(n(1500), 131)),
        &|| table8(Data::med(n(700), 81)),
        &|| table8(Data::wiki(n(700), 82)),
        &|| table9(n(150)),
        &|| table11(Data::med(n(1000), 111)),
        &|| table12(Data::med(n(800), 121)),
        &|| table13(Data::med(n(600), 141)),
        &|| table13(Data::wiki(n(600), 142)),
    ];
    let rows = std::thread::scope(|s| rows.map(|row| s.spawn(row)).map(|h| h.join()));
    rows.into_iter()
        .map(|row| row.expect("a claim panicked"))
        .collect()
}

impl Claim {
    /// One `claims` entry of `BENCH_repro.json`.
    pub fn to_value(&self) -> Value {
        let head = [
            ("id", self.id.as_str().into()),
            ("claim", self.claim.into()),
            ("holds", self.holds.into()),
        ];
        let inputs = self.inputs.iter().cloned();
        let points = ("points", Value::Arr(self.points.clone()));
        Value::obj(head.into_iter().chain(inputs).chain([points]))
    }
}

/// The `BENCH_repro.json` document of `claims`, run at `au_scale`.
pub fn to_value(au_scale: f64, claims: &[Claim]) -> Value {
    let claims: Vec<Value> = claims.iter().map(Claim::to_value).collect();
    obj! {
        "schema": SCHEMA, "name": "repro", "au_scale": au_scale,
        "c_f": COUNT_MODEL.c_f, "c_v": COUNT_MODEL.c_v, "claims": claims,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_helper() {
        let xs = [0.1, 0.2, 0.3, 0.4, 1.0];
        assert_eq!(percentile(&xs, 50), 0.3);
        assert_eq!(percentile(&xs, 2), 0.1);
        assert_eq!(percentile(&xs, 98), 1.0);
        assert!(percentile(&[], 50).is_nan());
    }
}
