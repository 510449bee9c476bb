//! Similarity configuration: measure selection and algorithm knobs.

use std::fmt;

/// Bitset of the three similarity measures of Section 2.1.
///
/// `J` = gram-based Jaccard (Eq. 1), `S` = synonym (Eq. 2),
/// `T` = taxonomy (Eq. 3). The seven non-empty combinations are exactly the
/// measures compared in Table 8 / Figure 6 of the paper.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct MeasureSet(u8);

impl MeasureSet {
    /// Gram-based Jaccard.
    pub const J: MeasureSet = MeasureSet(1);
    /// Synonym rules.
    pub const S: MeasureSet = MeasureSet(2);
    /// Taxonomy (IS-A).
    pub const T: MeasureSet = MeasureSet(4);
    /// All three measures (the paper's unified "TJS").
    pub const TJS: MeasureSet = MeasureSet(7);

    /// Empty set (no measure; only useful as a fold seed).
    pub const fn empty() -> Self {
        MeasureSet(0)
    }

    /// Union.
    pub const fn with(self, other: MeasureSet) -> Self {
        MeasureSet(self.0 | other.0)
    }

    /// Membership test (all bits of `other` present).
    pub const fn contains(self, other: MeasureSet) -> bool {
        self.0 & other.0 == other.0
    }

    /// True when no measure is enabled.
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Parse labels like `"J"`, `"TJ"`, `"TJS"` (order/case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        let mut m = MeasureSet::empty();
        for c in s.chars() {
            m = match c.to_ascii_uppercase() {
                'J' => m.with(Self::J),
                'S' => m.with(Self::S),
                'T' => m.with(Self::T),
                _ => return None,
            };
        }
        (!m.is_empty()).then_some(m)
    }

    /// Canonical label, with measures in the paper's "TJS" order.
    pub fn label(self) -> String {
        let mut out = String::new();
        if self.contains(Self::T) {
            out.push('T');
        }
        if self.contains(Self::J) {
            out.push('J');
        }
        if self.contains(Self::S) {
            out.push('S');
        }
        out
    }

    /// The seven non-empty combinations in the order used by Table 8:
    /// J, T, S, TJ, TS, JS, TJS.
    pub fn all_combinations() -> [MeasureSet; 7] {
        [
            Self::J,
            Self::T,
            Self::S,
            Self::T.with(Self::J),
            Self::T.with(Self::S),
            Self::J.with(Self::S),
            Self::TJS,
        ]
    }
}

impl fmt::Debug for MeasureSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MeasureSet({})", self.label())
    }
}

impl Default for MeasureSet {
    fn default() -> Self {
        Self::TJS
    }
}

/// Which gram-set similarity fills the syntactic (`J`) slot of the
/// unified measure.
///
/// Section 2.1 of the paper names Jaccard, Cosine, Dice and Hamming as
/// interchangeable gram-based measures; the framework (and our filters)
/// work with any of them because each admits a one-sided per-gram bound
/// used as the pebble weight (see [`GramMeasure::pebble_weight`]).
///
/// # Examples
///
/// ```
/// use au_core::{GramMeasure, SimConfig};
///
/// let cfg = SimConfig::default().with_gram(GramMeasure::Dice);
/// // helsingki/helsinki: 8 and 7 distinct 2-grams, 6 shared.
/// assert!((cfg.gram.score(6, 8, 7) - 0.8).abs() < 1e-12);
/// assert_eq!(GramMeasure::parse("dice"), Some(GramMeasure::Dice));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum GramMeasure {
    /// `|A∩B| / |A∪B|` (Eq. 1; the paper's default).
    #[default]
    Jaccard,
    /// `2|A∩B| / (|A|+|B|)`.
    Dice,
    /// `|A∩B| / √(|A|·|B|)`.
    Cosine,
    /// `|A∩B| / min(|A|,|B|)`. No useful one-sided filter bound exists
    /// (the other side may be a single shared gram), so gram pebbles get
    /// weight 1 — correct but with much weaker pruning.
    Overlap,
}

impl GramMeasure {
    /// All variants, Jaccard first.
    pub const ALL: [GramMeasure; 4] = [
        GramMeasure::Jaccard,
        GramMeasure::Dice,
        GramMeasure::Cosine,
        GramMeasure::Overlap,
    ];

    /// Score from the intersection size and the two set cardinalities.
    /// Zero when both sides are empty (no evidence of similarity, matching
    /// `jaccard_sorted`); Cosine/Overlap are also zero when either side is
    /// empty.
    pub fn score(self, inter: usize, na: usize, nb: usize) -> f64 {
        debug_assert!(inter <= na.min(nb) || na == 0 || nb == 0);
        if na == 0 || nb == 0 {
            // Jaccard/Dice of (∅, X) are 0 anyway; guard the divisions.
            return 0.0;
        }
        let i = inter as f64;
        match self {
            GramMeasure::Jaccard => i / (na + nb - inter) as f64,
            GramMeasure::Dice => 2.0 * i / (na + nb) as f64,
            GramMeasure::Cosine => i / ((na * nb) as f64).sqrt(),
            GramMeasure::Overlap => i / na.min(nb) as f64,
        }
    }

    /// Sound per-gram pebble weight for a segment with `n ≥ 1` distinct
    /// grams: for *any* other gram set `B` (`|B| ≥ 1`), the similarity is
    /// at most `|A∩B| × pebble_weight(|A|)`:
    ///
    /// * Jaccard: `i/(n+|B|−i) ≤ i/n` since `|B| ≥ i`;
    /// * Dice: `2i/(n+|B|) ≤ 2i/(n+1)`;
    /// * Cosine: `i/√(n|B|) ≤ i/√n`;
    /// * Overlap: `i/min(n,|B|) ≤ i` — the bound degenerates to 1.
    ///
    /// These keep Lemmas 1 and 2 (filter completeness) valid for every
    /// gram measure.
    pub fn pebble_weight(self, n: usize) -> f64 {
        debug_assert!(n >= 1);
        match self {
            GramMeasure::Jaccard => 1.0 / n as f64,
            GramMeasure::Dice => 2.0 / (n + 1) as f64,
            GramMeasure::Cosine => 1.0 / (n as f64).sqrt(),
            GramMeasure::Overlap => 1.0,
        }
    }

    /// Lower-case label used by CLIs and reports.
    pub fn label(self) -> &'static str {
        match self {
            GramMeasure::Jaccard => "jaccard",
            GramMeasure::Dice => "dice",
            GramMeasure::Cosine => "cosine",
            GramMeasure::Overlap => "overlap",
        }
    }

    /// Parse a [`GramMeasure::label`] (case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL
            .into_iter()
            .find(|m| m.label().eq_ignore_ascii_case(s))
    }
}

/// Parameters of the unified similarity computation.
///
/// `PartialEq` compares every field (the session API uses it to reject
/// prepared artifacts built under a different configuration).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Gram length `q` (the paper's examples use 2).
    pub q: usize,
    /// Enabled measures.
    pub measures: MeasureSet,
    /// Which gram-set similarity the `J` slot uses (default Jaccard, as in
    /// the paper).
    pub gram: GramMeasure,
    /// Algorithm 1's `t`: local improvements must gain at least `1/t`
    /// similarity, bounding the loop to `⌊t⌋` iterations. Larger `t` means a
    /// tighter approximation at more cost (Theorem 2's ratio is
    /// `t/(t−1) · (k²−1)/2`).
    pub t_param: f64,
    /// Cap on SquareImp talon-set size. The effective claw bound is
    /// `min(max_talons, k + 1)` where `k` is the knowledge base's longest
    /// rule side / entity phrase.
    pub max_talons: usize,
    /// Budget (number of enumerated independent sets) for the exact USIM;
    /// `usim_exact` returns `None` beyond it.
    pub exact_budget: u64,
    /// Float-comparison slack applied in the *safe* direction everywhere.
    pub eps: f64,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            q: 2,
            measures: MeasureSet::TJS,
            gram: GramMeasure::Jaccard,
            t_param: 50.0,
            max_talons: 4,
            exact_budget: 2_000_000,
            eps: 1e-9,
        }
    }
}

impl SimConfig {
    /// This configuration restricted to `measures`.
    pub fn with_measures(mut self, measures: MeasureSet) -> Self {
        self.measures = measures;
        self
    }

    /// This configuration with the gram slot switched to `gram`.
    pub fn with_gram(mut self, gram: GramMeasure) -> Self {
        self.gram = gram;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_label_roundtrip() {
        for m in MeasureSet::all_combinations() {
            assert_eq!(MeasureSet::parse(&m.label()), Some(m));
        }
        assert_eq!(MeasureSet::parse("jts"), Some(MeasureSet::TJS));
        assert_eq!(MeasureSet::parse(""), None);
        assert_eq!(MeasureSet::parse("X"), None);
    }

    #[test]
    fn contains_semantics() {
        let tj = MeasureSet::T.with(MeasureSet::J);
        assert!(tj.contains(MeasureSet::T));
        assert!(tj.contains(MeasureSet::J));
        assert!(!tj.contains(MeasureSet::S));
        assert!(MeasureSet::TJS.contains(tj));
        assert!(!MeasureSet::J.contains(tj));
    }

    #[test]
    fn labels_follow_paper_order() {
        assert_eq!(MeasureSet::TJS.label(), "TJS");
        assert_eq!(MeasureSet::T.with(MeasureSet::J).label(), "TJ");
        assert_eq!(MeasureSet::J.with(MeasureSet::S).label(), "JS");
    }

    #[test]
    fn default_config_sane() {
        let c = SimConfig::default();
        assert_eq!(c.q, 2);
        assert_eq!(c.measures, MeasureSet::TJS);
        assert_eq!(c.gram, GramMeasure::Jaccard);
        assert!(c.t_param > 1.0);
        let j = c.with_measures(MeasureSet::J);
        assert_eq!(j.measures, MeasureSet::J);
        let d = c.with_gram(GramMeasure::Dice);
        assert_eq!(d.gram, GramMeasure::Dice);
    }

    #[test]
    fn gram_measure_parse_label_roundtrip() {
        for m in GramMeasure::ALL {
            assert_eq!(GramMeasure::parse(m.label()), Some(m));
            assert_eq!(GramMeasure::parse(&m.label().to_uppercase()), Some(m));
        }
        assert_eq!(GramMeasure::parse("euclid"), None);
    }

    #[test]
    fn gram_scores_known_values() {
        // helsingki/helsinki: 8 and 7 grams, 6 shared.
        let (i, na, nb) = (6, 8, 7);
        assert!((GramMeasure::Jaccard.score(i, na, nb) - 6.0 / 9.0).abs() < 1e-12);
        assert!((GramMeasure::Dice.score(i, na, nb) - 12.0 / 15.0).abs() < 1e-12);
        assert!((GramMeasure::Cosine.score(i, na, nb) - 6.0 / 56f64.sqrt()).abs() < 1e-12);
        assert!((GramMeasure::Overlap.score(i, na, nb) - 6.0 / 7.0).abs() < 1e-12);
        for m in GramMeasure::ALL {
            assert_eq!(m.score(0, 0, 0), 0.0);
            assert_eq!(m.score(0, 0, 5), 0.0);
            assert_eq!(m.score(3, 3, 3), 1.0);
        }
    }

    #[test]
    fn pebble_weight_is_sound_per_gram_bound() {
        // score(i, n, m) ≤ i × pebble_weight(n) for every measure and all
        // feasible (i, n, m) in a grid — the invariant Lemmas 1/2 rely on.
        for m in GramMeasure::ALL {
            for n in 1usize..=12 {
                let w = m.pebble_weight(n);
                for nb in 1usize..=12 {
                    for i in 0..=n.min(nb) {
                        let s = m.score(i, n, nb);
                        assert!(
                            s <= i as f64 * w + 1e-12,
                            "{m:?}: score({i},{n},{nb})={s} > {i}×{w}"
                        );
                    }
                }
            }
        }
    }

    /// The mass bound's gram credit (`usim::verify`): with `c` of a
    /// segment's `n` grams occurring anywhere in the partner, no partner
    /// segment — `m` grams, `i ≤ min(c, m)` of them shared — scores above
    /// `score(c, n, c)`. Exact float comparison, no tolerance: the bound
    /// must dominate the row-max sum bit for bit.
    #[test]
    fn shared_gram_credit_dominates_every_segment_score() {
        for g in GramMeasure::ALL {
            for n in 1usize..=64 {
                for c in 0..=n {
                    let credit = g.score(c, n, c);
                    for m in 1usize..=64 {
                        for i in 0..=c.min(m) {
                            let s = g.score(i, n, m);
                            assert!(s <= credit, "{g:?}: score({i},{n},{m})={s} > {credit}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn gram_measure_chain() {
        // J ≤ D ≤ C ≤ O pointwise on a feasibility grid.
        for n in 1usize..=10 {
            for nb in 1usize..=10 {
                for i in 0..=n.min(nb) {
                    let j = GramMeasure::Jaccard.score(i, n, nb);
                    let d = GramMeasure::Dice.score(i, n, nb);
                    let c = GramMeasure::Cosine.score(i, n, nb);
                    let o = GramMeasure::Overlap.score(i, n, nb);
                    assert!(j <= d + 1e-12 && d <= c + 1e-12 && c <= o + 1e-12);
                    assert!((0.0..=1.0 + 1e-12).contains(&o));
                }
            }
        }
    }
}
