//! Labeled dataset generation: corpora + constructed ground truth.
//!
//! Every ground-truth pair is built by perturbing a base record with one
//! or more of the paper's three similarity relations (Figure 1):
//!
//! * **Typo** — a character edit inside a filler word (gram/Jaccard
//!   recoverable),
//! * **Synonym** — a rule side replaced by the other side of the rule,
//! * **Taxonomy** — an entity replaced by a sibling entity (shared
//!   parent, high LCA similarity).
//!
//! Labels are exact by construction, which replaces the paper's
//! crowd-sourced judgements (see DESIGN.md). Pairs record which relations
//! were used, so the effectiveness experiments can report per-measure
//! recall.

use crate::blueprint::KnowledgeBlueprint;
use crate::profile::DatasetProfile;
use crate::words::word;
use crate::zipf::Zipf;
use au_core::config::SimConfig;
use au_core::knowledge::Knowledge;
use au_core::segment::segment_record;
use au_core::usim::usim_approx_seg;
use au_text::record::Corpus;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One slot of a record sketch.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Slot {
    /// A plain vocabulary word.
    Filler(String),
    /// A taxonomy entity (blueprint node index).
    Entity(usize),
    /// One side of a synonym rule.
    RuleSide {
        /// Blueprint rule index.
        rule: usize,
        /// Which side is rendered.
        lhs: bool,
    },
}

/// A structurally-typed record, rendered to text on demand.
#[derive(Debug, Clone)]
struct Sketch {
    slots: Vec<Slot>,
}

impl Sketch {
    fn render(&self, bp: &KnowledgeBlueprint) -> String {
        let mut parts: Vec<String> = Vec::with_capacity(self.slots.len());
        for s in &self.slots {
            match s {
                Slot::Filler(w) => parts.push(w.clone()),
                Slot::Entity(n) => parts.push(bp.nodes[*n].label.clone()),
                Slot::RuleSide { rule, lhs } => {
                    let r = &bp.rules[*rule];
                    parts.push(if *lhs { r.lhs.clone() } else { r.rhs.clone() });
                }
            }
        }
        parts.join(" ")
    }
}

/// Which perturbation produced a ground-truth pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PerturbKind {
    /// Character edit (needs J to recover).
    Typo,
    /// Rule-side replacement (needs S).
    Synonym,
    /// Sibling-entity replacement (needs T).
    Taxonomy,
}

/// A labeled similar pair.
#[derive(Debug, Clone)]
pub struct GroundTruthPair {
    /// Record id in the S corpus.
    pub s: u32,
    /// Record id in the T corpus.
    pub t: u32,
    /// Perturbations applied (non-empty).
    pub kinds: Vec<PerturbKind>,
    /// Unified similarity of the pair (Algorithm 1 under the default
    /// [`SimConfig`]), computed at generation time.
    ///
    /// Construction guarantees the pair is *related*, not that it clears
    /// any particular θ: stacked perturbations (e.g. a typo plus a synonym
    /// plus a taxonomy swap on a short record) can push the true
    /// similarity below a high join threshold. Effectiveness metrics must
    /// therefore compare a θ-join against [`LabeledDataset::truth_at`]
    /// (the planted pairs that actually reach θ), not against the full
    /// planted list — scoring against the full list under-reports recall
    /// by exactly the pairs no θ-complete join could ever return.
    pub sim: f64,
}

/// Generated corpora with ground truth and shared knowledge.
#[derive(Debug)]
pub struct LabeledDataset {
    /// Built knowledge (taxonomy + synonyms + shared vocabulary).
    pub kn: Knowledge,
    /// The string-level blueprint behind `kn`.
    pub blueprint: KnowledgeBlueprint,
    /// Left join side.
    pub s: Corpus,
    /// Right join side.
    pub t: Corpus,
    /// Constructed similar pairs (s-id, t-id, perturbation kinds).
    pub truth: Vec<GroundTruthPair>,
}

impl LabeledDataset {
    /// Generate `n_s`×`n_t` corpora with `n_pairs` planted similar pairs.
    ///
    /// Pair `i` occupies S record `i` and T record `i`; the remaining
    /// records are independent random sketches. Deterministic in `seed`.
    ///
    /// Generation streams: every rendered line is tokenized into its
    /// corpus immediately ([`Knowledge::push_line`]) and dropped, so the
    /// only auxiliary buffer is the planted T-side lines (`n_pairs`
    /// strings, one planted fraction of one corpus) — those are rendered
    /// during the planted loop but must intern *after* every S line to
    /// keep the vocabulary's intern/doc-frequency order identical to the
    /// historical two-phase implementation. Output corpora are
    /// byte-for-byte unchanged; peak auxiliary memory drops from all
    /// `n_s + n_t` rendered lines to `n_pairs`, which is what lets the
    /// `AU_SCALE=100` tier (hundreds of thousands of records) generate
    /// without the generator itself becoming the memory high-water mark.
    pub fn generate(
        profile: &DatasetProfile,
        n_s: usize,
        n_t: usize,
        n_pairs: usize,
        seed: u64,
    ) -> Self {
        assert!(n_pairs <= n_s.min(n_t), "more planted pairs than records");
        let blueprint = KnowledgeBlueprint::generate(profile, seed);
        let mut kn = blueprint.build_knowledge();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xda7a);
        let zipf = Zipf::new(profile.vocab, profile.zipf_exp);

        let mut gen = SketchGen {
            profile,
            bp: &blueprint,
            zipf: &zipf,
        };

        let mut s = Corpus::new();
        let mut t = Corpus::new();
        let mut planted_t: Vec<String> = Vec::with_capacity(n_pairs);
        let mut truth = Vec::with_capacity(n_pairs);

        for i in 0..n_pairs {
            let kinds = pick_kinds(profile.kind_weights, &mut rng);
            let base = gen.sketch_with(&kinds, &mut rng);
            let variant = perturb(&base, &kinds, &blueprint, &mut rng);
            kn.push_line(&mut s, &base.render(&blueprint));
            planted_t.push(variant.render(&blueprint));
            truth.push(GroundTruthPair {
                s: i as u32,
                t: i as u32,
                kinds,
                sim: 0.0,
            });
        }
        for _ in n_pairs..n_s {
            let sk = gen.sketch(&mut rng);
            kn.push_line(&mut s, &sk.render(&blueprint));
        }
        for line in planted_t.drain(..) {
            kn.push_line(&mut t, &line);
        }
        for _ in n_pairs..n_t {
            let sk = gen.sketch(&mut rng);
            kn.push_line(&mut t, &sk.render(&blueprint));
        }
        drop(planted_t);
        // Every line is in: fold the streamed tokens into the vocabulary's
        // shared core, so the engines, services and harnesses that clone
        // `kn` from here on copy nothing of it.
        kn.vocab.seal();
        // Label every planted pair with its actual unified similarity so
        // consumers can score θ-joins against [`Self::truth_at`]. Runs
        // over the shared parallel layer (deterministic output) — the
        // labeling is independent per pair and would otherwise dominate
        // generation at large scales.
        let cfg = SimConfig::default();
        let ids: Vec<(u32, u32)> = truth.iter().map(|p| (p.s, p.t)).collect();
        let sims = au_core::parallel::par_map(&ids, true, |&(sid, tid)| {
            let sr = segment_record(&kn, &cfg, &s.get(au_text::record::RecordId(sid)).tokens);
            let tr = segment_record(&kn, &cfg, &t.get(au_text::record::RecordId(tid)).tokens);
            usim_approx_seg(&kn, &cfg, &sr, &tr)
        });
        for (p, sim) in truth.iter_mut().zip(sims) {
            p.sim = sim;
        }
        Self {
            kn,
            blueprint,
            s,
            t,
            truth,
        }
    }

    /// The planted pairs whose unified similarity actually reaches `theta`
    /// (under the default [`SimConfig`]'s eps slack, matching the join
    /// verifier's acceptance test) — the correct ground truth for scoring
    /// a θ-join. See [`GroundTruthPair::sim`].
    pub fn truth_at(&self, theta: f64) -> impl Iterator<Item = &GroundTruthPair> {
        let eps = SimConfig::default().eps;
        self.truth.iter().filter(move |p| p.sim >= theta - eps)
    }

    /// Mean tokens per record over both corpora (Table 7 style).
    pub fn avg_tokens(&self) -> f64 {
        let n = self.s.len() + self.t.len();
        if n == 0 {
            return 0.0;
        }
        let total: usize = self
            .s
            .iter()
            .chain(self.t.iter())
            .map(|r| r.tokens.len())
            .sum();
        total as f64 / n as f64
    }
}

struct SketchGen<'a> {
    profile: &'a DatasetProfile,
    bp: &'a KnowledgeBlueprint,
    zipf: &'a Zipf,
}

impl SketchGen<'_> {
    fn filler(&self, rng: &mut StdRng) -> Slot {
        Slot::Filler(word(self.zipf.sample(rng) as u64))
    }

    fn slot(&mut self, rng: &mut StdRng) -> Slot {
        let roll: f64 = rng.random();
        if roll < self.profile.p_entity_slot && !self.bp.nodes.is_empty() {
            Slot::Entity(rng.random_range(0..self.bp.nodes.len()))
        } else if roll < self.profile.p_entity_slot + self.profile.p_rule_slot
            && !self.bp.rules.is_empty()
        {
            Slot::RuleSide {
                rule: rng.random_range(0..self.bp.rules.len()),
                lhs: rng.random_bool(0.5),
            }
        } else {
            self.filler(rng)
        }
    }

    /// A random record sketch.
    fn sketch(&mut self, rng: &mut StdRng) -> Sketch {
        let avg = self.profile.avg_tokens.max(2);
        let n_slots = rng.random_range(avg / 2..=avg + avg / 2).max(1);
        let slots = (0..n_slots).map(|_| self.slot(rng)).collect();
        Sketch { slots }
    }

    /// A sketch guaranteed to contain the slot types the perturbation
    /// kinds need (a filler for Typo, a rule side for Synonym, an entity
    /// with a sibling for Taxonomy).
    fn sketch_with(&mut self, kinds: &[PerturbKind], rng: &mut StdRng) -> Sketch {
        let mut sk = self.sketch(rng);
        for kind in kinds {
            match kind {
                PerturbKind::Typo => {
                    if !sk
                        .slots
                        .iter()
                        .any(|s| matches!(s, Slot::Filler(w) if w.len() >= 4))
                    {
                        sk.slots
                            .push(Slot::Filler(word(self.zipf.sample(rng) as u64 + 7)));
                    }
                }
                PerturbKind::Synonym => {
                    if !sk.slots.iter().any(|s| matches!(s, Slot::RuleSide { .. })) {
                        sk.slots.push(Slot::RuleSide {
                            rule: rng.random_range(0..self.bp.rules.len().max(1)),
                            lhs: rng.random_bool(0.5),
                        });
                    }
                }
                PerturbKind::Taxonomy => {
                    let has_swappable = sk.slots.iter().any(|s| {
                        matches!(s, Slot::Entity(n) if self.bp.nodes[*n].parent.is_some_and(|p| self.bp.nodes[p].children.len() > 1))
                    });
                    if !has_swappable {
                        // find a node with a sibling
                        let candidates: Vec<usize> = (0..self.bp.nodes.len())
                            .filter(|&n| {
                                self.bp.nodes[n]
                                    .parent
                                    .is_some_and(|p| self.bp.nodes[p].children.len() > 1)
                            })
                            .collect();
                        if !candidates.is_empty() {
                            let n = candidates[rng.random_range(0..candidates.len())];
                            sk.slots.push(Slot::Entity(n));
                        }
                    }
                }
            }
        }
        sk
    }
}

fn pick_kinds(weights: [f64; 3], rng: &mut StdRng) -> Vec<PerturbKind> {
    use PerturbKind::*;
    // Mix mirrors the paper's observation that real pairs combine
    // relations: singles 45%, doubles 35%, triple 20%; within each arity
    // the kinds follow the profile's weights (MED synonym-heavy, WIKI
    // typo/taxonomy-heavy).
    let all = [Typo, Synonym, Taxonomy];
    let draw = |rng: &mut StdRng| -> usize {
        let total: f64 = weights.iter().sum();
        let mut u: f64 = rng.random::<f64>() * total;
        for (i, &w) in weights.iter().enumerate() {
            if u < w {
                return i;
            }
            u -= w;
        }
        2
    };
    let roll: f64 = rng.random();
    if roll < 0.45 {
        vec![all[draw(rng)]]
    } else if roll < 0.80 {
        let i = draw(rng);
        let mut j = draw(rng);
        let mut guard = 0;
        while j == i && guard < 16 {
            j = draw(rng);
            guard += 1;
        }
        if j == i {
            j = (i + 1) % 3;
        }
        vec![all[i], all[j]]
    } else {
        all.to_vec()
    }
}

/// Apply the perturbations to a copy of `base`.
fn perturb(
    base: &Sketch,
    kinds: &[PerturbKind],
    bp: &KnowledgeBlueprint,
    rng: &mut StdRng,
) -> Sketch {
    let mut out = base.clone();
    for kind in kinds {
        match kind {
            PerturbKind::Typo => {
                let idx: Vec<usize> = out
                    .slots
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| matches!(s, Slot::Filler(w) if w.len() >= 4))
                    .map(|(i, _)| i)
                    .collect();
                if let Some(&i) = pick(&idx, rng) {
                    if let Slot::Filler(w) = &out.slots[i] {
                        out.slots[i] = Slot::Filler(typo(w, rng));
                    }
                }
            }
            PerturbKind::Synonym => {
                let idx: Vec<usize> = out
                    .slots
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| matches!(s, Slot::RuleSide { .. }))
                    .map(|(i, _)| i)
                    .collect();
                if let Some(&i) = pick(&idx, rng) {
                    if let Slot::RuleSide { rule, lhs } = out.slots[i] {
                        out.slots[i] = Slot::RuleSide { rule, lhs: !lhs };
                    }
                }
            }
            PerturbKind::Taxonomy => {
                let idx: Vec<usize> = out
                    .slots
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| matches!(s, Slot::Entity(_)))
                    .map(|(i, _)| i)
                    .collect();
                // try each entity slot until one has a sibling
                let mut order = idx.clone();
                shuffle(&mut order, rng);
                for i in order {
                    if let Slot::Entity(n) = out.slots[i] {
                        if let Some(sib) = bp.sibling_of(n, rng) {
                            out.slots[i] = Slot::Entity(sib);
                            break;
                        }
                    }
                }
            }
        }
    }
    out
}

fn pick<'a, T>(xs: &'a [T], rng: &mut StdRng) -> Option<&'a T> {
    if xs.is_empty() {
        None
    } else {
        Some(&xs[rng.random_range(0..xs.len())])
    }
}

fn shuffle<T>(xs: &mut [T], rng: &mut StdRng) {
    for i in (1..xs.len()).rev() {
        xs.swap(i, rng.random_range(0..=i));
    }
}

/// One random character substitution (ASCII) inside `w`.
fn typo(w: &str, rng: &mut StdRng) -> String {
    let chars: Vec<char> = w.chars().collect();
    let i = rng.random_range(0..chars.len());
    let mut out: String = String::with_capacity(w.len());
    let replacement = loop {
        let c = (b'a' + rng.random_range(0..26u8)) as char;
        if c != chars[i] {
            break c;
        }
    };
    for (j, &c) in chars.iter().enumerate() {
        out.push(if j == i { replacement } else { c });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use au_core::config::SimConfig;
    use au_core::segment::segment_record;
    use au_core::usim::usim_approx_seg;
    use au_text::edit::levenshtein;

    fn small() -> LabeledDataset {
        let mut profile = DatasetProfile::med_like(0.05);
        profile.taxonomy_nodes = 300;
        profile.synonym_rules = 150;
        LabeledDataset::generate(&profile, 60, 60, 20, 42)
    }

    #[test]
    fn sizes_and_determinism() {
        let a = small();
        assert_eq!(a.s.len(), 60);
        assert_eq!(a.t.len(), 60);
        assert_eq!(a.truth.len(), 20);
        let b = small();
        assert_eq!(
            a.s.get(au_text::record::RecordId(5)).raw,
            b.s.get(au_text::record::RecordId(5)).raw
        );
    }

    #[test]
    fn truth_pairs_are_similar() {
        let d = small();
        let cfg = SimConfig::default();
        let mut sims = Vec::new();
        for p in &d.truth {
            let sr = segment_record(&d.kn, &cfg, &d.s.get(au_text::record::RecordId(p.s)).tokens);
            let tr = segment_record(&d.kn, &cfg, &d.t.get(au_text::record::RecordId(p.t)).tokens);
            sims.push(usim_approx_seg(&d.kn, &cfg, &sr, &tr));
        }
        let mean = sims.iter().sum::<f64>() / sims.len() as f64;
        assert!(
            mean > 0.75,
            "planted pairs not similar enough: mean {mean}, sims {sims:?}"
        );
    }

    #[test]
    fn random_pairs_are_dissimilar() {
        let d = small();
        let cfg = SimConfig::default();
        let mut high = 0;
        let n = 30;
        for i in 0..n {
            let a = (i * 2 + 20) % 60; // outside the planted range? 20..60 are random
            let b = (i * 3 + 21) % 60;
            if a < 20 && b < 20 {
                continue;
            }
            let sr = segment_record(
                &d.kn,
                &cfg,
                &d.s.get(au_text::record::RecordId(a as u32)).tokens,
            );
            let tr = segment_record(
                &d.kn,
                &cfg,
                &d.t.get(au_text::record::RecordId(b as u32)).tokens,
            );
            if usim_approx_seg(&d.kn, &cfg, &sr, &tr) > 0.6 {
                high += 1;
            }
        }
        assert!(high <= 2, "{high} random pairs look similar");
    }

    #[test]
    fn typo_is_single_substitution() {
        let mut rng = StdRng::seed_from_u64(5);
        for w in ["espresso", "helsinki", "coffee"] {
            let t = typo(w, &mut rng);
            assert_eq!(levenshtein(w, &t), 1, "{w} → {t}");
            assert_eq!(w.len(), t.len());
        }
    }

    #[test]
    fn truth_sims_labeled_and_theta_filtered() {
        let d = small();
        let cfg = SimConfig::default();
        for p in &d.truth {
            assert!(p.sim >= 0.0 && p.sim <= 1.0 + 1e-12, "sim {}", p.sim);
            // The label is exactly what the join verifier computes.
            let sr = segment_record(&d.kn, &cfg, &d.s.get(au_text::record::RecordId(p.s)).tokens);
            let tr = segment_record(&d.kn, &cfg, &d.t.get(au_text::record::RecordId(p.t)).tokens);
            assert_eq!(
                p.sim.to_bits(),
                usim_approx_seg(&d.kn, &cfg, &sr, &tr).to_bits()
            );
        }
        assert_eq!(d.truth_at(0.0).count(), d.truth.len());
        // truth_at is monotone in θ.
        let mut last = d.truth.len();
        for theta in [0.5, 0.7, 0.9, 0.99] {
            let n = d.truth_at(theta).count();
            assert!(n <= last, "truth_at not monotone at {theta}");
            last = n;
        }
    }

    #[test]
    fn kinds_are_recorded_and_nonempty() {
        let d = small();
        for p in &d.truth {
            assert!(!p.kinds.is_empty());
        }
        // all three kinds should appear somewhere in 20 pairs
        let all: std::collections::HashSet<_> = d
            .truth
            .iter()
            .flat_map(|p| p.kinds.iter().copied())
            .collect();
        assert!(all.len() >= 2, "kinds seen: {all:?}");
    }

    #[test]
    fn avg_tokens_near_profile() {
        let d = small();
        let avg = d.avg_tokens();
        assert!(avg > 4.0 && avg < 16.0, "avg tokens {avg}");
    }
}
