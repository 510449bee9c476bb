//! `msim` — the per-segment-pair maximum over measures (Eq. 4).
//!
//! For two segments, the unified framework scores them with the *best*
//! applicable measure among the enabled ones:
//!
//! * Jaccard over the segments' q-gram sets (Eq. 1),
//! * synonym closeness when a rule links the two phrases (Eq. 2),
//! * taxonomy LCA-depth similarity when both map to entities (Eq. 3).

use crate::config::{MeasureSet, SimConfig};
use crate::knowledge::Knowledge;
use crate::segment::SegView;
use au_text::jaccard::intersection_size_sorted;

/// Which measure produced a score (for explanations and Table 8 style
/// breakdowns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MeasureKind {
    /// The gram-based (syntactic) measure — Jaccard by default, or
    /// whichever [`crate::config::GramMeasure`] the config selects.
    Jaccard,
    /// Synonym rule.
    Synonym,
    /// Taxonomy LCA.
    Taxonomy,
}

impl MeasureKind {
    /// Single-letter label as used in the paper's tables.
    pub fn letter(self) -> char {
        match self {
            MeasureKind::Jaccard => 'J',
            MeasureKind::Synonym => 'S',
            MeasureKind::Taxonomy => 'T',
        }
    }

    /// Index 0..3 for dense per-measure arrays.
    pub fn idx(self) -> usize {
        match self {
            MeasureKind::Jaccard => 0,
            MeasureKind::Synonym => 1,
            MeasureKind::Taxonomy => 2,
        }
    }

    /// All three kinds in dense-index order.
    pub const ALL: [MeasureKind; 3] = [
        MeasureKind::Jaccard,
        MeasureKind::Synonym,
        MeasureKind::Taxonomy,
    ];
}

/// `msim(a, b)` (Eq. 4) together with the winning measure.
/// Returns `(0.0, Jaccard)` when nothing applies.
///
/// Exact surface equality scores 1 under *any* measure subset: an
/// identical segment is trivially its own synonym/typo/taxonomy match, so
/// restricting the measure set (the J/T/S rows of Table 8) must not stop
/// equal tokens from matching. With J enabled this is what Jaccard
/// returns anyway.
pub fn msim_explained(
    kn: &Knowledge,
    cfg: &SimConfig,
    a: &SegView<'_>,
    b: &SegView<'_>,
) -> (f64, MeasureKind) {
    // Text comparison keeps this entry point context-free: segments from
    // *different* Knowledge contexts are still compared correctly. The
    // tiered engine's internal fast path uses the interned `SegView::key`
    // instead, which is valid only within its single-context invariant.
    if a.text == b.text {
        return (1.0, MeasureKind::Jaccard);
    }
    let mut best = (0.0f64, MeasureKind::Jaccard);
    if cfg.measures.contains(MeasureSet::J) {
        let inter = intersection_size_sorted(a.grams, b.grams);
        let j = cfg.gram.score(inter, a.grams.len(), b.grams.len());
        if j > best.0 {
            best = (j, MeasureKind::Jaccard);
        }
    }
    if cfg.measures.contains(MeasureSet::S) {
        if let (Some(pa), Some(pb)) = (a.phrase, b.phrase) {
            let s = kn.synonyms.sim(pa, pb);
            if s > best.0 {
                best = (s, MeasureKind::Synonym);
            }
        }
    }
    if cfg.measures.contains(MeasureSet::T) {
        if let (Some(na), Some(nb)) = (a.node, b.node) {
            let t = kn.taxonomy.sim(na, nb);
            if t > best.0 {
                best = (t, MeasureKind::Taxonomy);
            }
        }
    }
    best
}

/// `msim(a, b)` (Eq. 4): the score only.
pub fn msim(kn: &Knowledge, cfg: &SimConfig, a: &SegView<'_>, b: &SegView<'_>) -> f64 {
    msim_explained(kn, cfg, a, b).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knowledge::KnowledgeBuilder;
    use crate::segment::{segment_record, SegRecord};

    fn setup() -> (Knowledge, SimConfig) {
        let mut b = KnowledgeBuilder::new();
        b.synonym("coffee shop", "cafe", 1.0);
        b.taxonomy_path(&["wikipedia", "food", "coffee", "coffee drinks", "latte"]);
        b.taxonomy_path(&["wikipedia", "food", "coffee", "coffee drinks", "espresso"]);
        b.taxonomy_path(&["wikipedia", "food", "cake", "apple cake"]);
        (b.build(), SimConfig::default())
    }

    fn record_of(kn: &mut Knowledge, cfg: &SimConfig, text: &str) -> SegRecord {
        let id = kn.add_record(text);
        segment_record(kn, cfg, &kn.record(id).tokens)
    }

    fn segment_of<'a>(sr: &'a SegRecord, want: &str) -> SegView<'a> {
        sr.segments()
            .find(|s| s.text == want)
            .unwrap_or_else(|| panic!("segment {want:?} not found"))
    }

    #[test]
    fn synonym_beats_jaccard_for_rule_pair() {
        let (mut kn, cfg) = setup();
        let a_rec = record_of(&mut kn, &cfg, "coffee shop latte");
        let a = segment_of(&a_rec, "coffee shop");
        let b_rec = record_of(&mut kn, &cfg, "espresso cafe");
        let b = segment_of(&b_rec, "cafe");
        let (score, kind) = msim_explained(&kn, &cfg, &a, &b);
        assert_eq!(score, 1.0);
        assert_eq!(kind, MeasureKind::Synonym);
    }

    #[test]
    fn taxonomy_wins_latte_espresso() {
        let (mut kn, cfg) = setup();
        let a_rec = record_of(&mut kn, &cfg, "latte time");
        let a = segment_of(&a_rec, "latte");
        let b_rec = record_of(&mut kn, &cfg, "espresso bar");
        let b = segment_of(&b_rec, "espresso");
        let (score, kind) = msim_explained(&kn, &cfg, &a, &b);
        assert!((score - 0.8).abs() < 1e-12);
        assert_eq!(kind, MeasureKind::Taxonomy);
    }

    #[test]
    fn jaccard_for_typos() {
        let (mut kn, cfg) = setup();
        let a_rec = record_of(&mut kn, &cfg, "visit helsingki");
        let a = segment_of(&a_rec, "helsingki");
        let b_rec = record_of(&mut kn, &cfg, "visit helsinki");
        let b = segment_of(&b_rec, "helsinki");
        let (score, kind) = msim_explained(&kn, &cfg, &a, &b);
        assert!((score - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(kind, MeasureKind::Jaccard);
    }

    #[test]
    fn paper_eq4_example_cake() {
        // Section 2.2: msim("cake", "apple cake") = max(J=1/3, T=0.75) = 0.75.
        let (mut kn, cfg) = setup();
        let a_rec = record_of(&mut kn, &cfg, "cake");
        let a = segment_of(&a_rec, "cake");
        let b_rec = record_of(&mut kn, &cfg, "apple cake");
        let b = segment_of(&b_rec, "apple cake");
        let (score, kind) = msim_explained(&kn, &cfg, &a, &b);
        assert!((score - 0.75).abs() < 1e-12, "got {score}");
        assert_eq!(kind, MeasureKind::Taxonomy);
    }

    #[test]
    fn measure_gating_respected() {
        let (mut kn, cfg) = setup();
        let a_rec = record_of(&mut kn, &cfg, "latte time");
        let a = segment_of(&a_rec, "latte");
        let b_rec = record_of(&mut kn, &cfg, "espresso bar");
        let b = segment_of(&b_rec, "espresso");
        // With taxonomy disabled, only Jaccard remains (latte/espresso are
        // distinct strings sharing no 2-grams → 0).
        let cfg_j = cfg.with_measures(MeasureSet::J);
        // Re-segment under the J-only config (nodes are not attached).
        let id = kn.add_record("latte time");
        let sr = segment_record(&kn, &cfg_j, &kn.record(id).tokens);
        let a_j = segment_of(&sr, "latte");
        assert_eq!(msim(&kn, &cfg_j, &a_j, &b), 0.0);
        // Even with T-attached segments, a J-only config ignores nodes.
        assert_eq!(msim(&kn, &cfg_j, &a, &b), 0.0);
    }

    #[test]
    fn identical_tokens_score_one() {
        let (mut kn, cfg) = setup();
        let a_rec = record_of(&mut kn, &cfg, "helsinki");
        let a = segment_of(&a_rec, "helsinki");
        let b_rec = record_of(&mut kn, &cfg, "helsinki");
        let b = segment_of(&b_rec, "helsinki");
        assert_eq!(msim(&kn, &cfg, &a, &b), 1.0);
    }

    #[test]
    fn gram_measure_slot_is_pluggable() {
        use crate::config::GramMeasure;
        let (mut kn, _) = setup();
        let cfg = SimConfig::default();
        let a_rec = record_of(&mut kn, &cfg, "visit helsingki");
        let a = segment_of(&a_rec, "helsingki");
        let b_rec = record_of(&mut kn, &cfg, "visit helsinki");
        let b = segment_of(&b_rec, "helsinki");
        // 8 and 7 grams, 6 shared.
        let expect = [
            (GramMeasure::Jaccard, 6.0 / 9.0),
            (GramMeasure::Dice, 12.0 / 15.0),
            (GramMeasure::Cosine, 6.0 / 56f64.sqrt()),
            (GramMeasure::Overlap, 6.0 / 7.0),
        ];
        for (g, want) in expect {
            let cfg_g = cfg.with_gram(g);
            let (score, kind) = msim_explained(&kn, &cfg_g, &a, &b);
            assert!((score - want).abs() < 1e-12, "{g:?}: got {score}");
            assert_eq!(kind, MeasureKind::Jaccard);
        }
    }

    #[test]
    fn gram_measure_does_not_affect_semantic_scores() {
        use crate::config::GramMeasure;
        let (mut kn, cfg) = setup();
        let a_rec = record_of(&mut kn, &cfg, "latte time");
        let a = segment_of(&a_rec, "latte");
        let b_rec = record_of(&mut kn, &cfg, "espresso bar");
        let b = segment_of(&b_rec, "espresso");
        for g in GramMeasure::ALL {
            let cfg_g = cfg.with_gram(g);
            let (score, kind) = msim_explained(&kn, &cfg_g, &a, &b);
            assert!((score - 0.8).abs() < 1e-12);
            assert_eq!(kind, MeasureKind::Taxonomy);
        }
    }
}
