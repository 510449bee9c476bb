//! Algorithm 1: polynomial-time approximation of USIM.
//!
//! 1. Build the conflict graph (Section 2.3).
//! 2. Seed with SquareImp's w-MIS local optimum.
//! 3. While some claw's talons improve the *unified similarity* (`GetSim`)
//!    by at least `1/t`, apply the best such swap — at most `⌊t⌋`
//!    iterations, keeping the whole algorithm polynomial in `t · n`
//!    (Theorem 2: approximation ratio `t/(t−1) · (k²−1)/2`).

use crate::config::SimConfig;
use crate::knowledge::Knowledge;
pub use crate::msim::MeasureKind;
use crate::segment::{segment_record, SegRecord};
use crate::usim::eval::{get_sim_with, EvalScratch};
use crate::usim::graph::{build_vertices, finish_graph, UsimGraph};
use au_matching::{apply_swap, for_each_talon_set, square_imp, SquareImpConfig};
use au_text::record::RecordId;
use std::sync::Arc;

/// One matched segment pair in an explanation.
#[derive(Debug, Clone)]
pub struct MatchedPair {
    /// Matched segment text on the S side (shared with the segmentation —
    /// no per-pair string copy).
    pub s_text: Arc<str>,
    /// Matched segment text on the T side (shared likewise).
    pub t_text: Arc<str>,
    /// Segment score (`msim`).
    pub score: f64,
    /// Winning measure.
    pub kind: MeasureKind,
}

/// Result of [`usim_approx_explained`].
#[derive(Debug, Clone)]
pub struct UsimResult {
    /// The approximate unified similarity.
    pub sim: f64,
    /// The matched segment pairs backing the score.
    pub matches: Vec<MatchedPair>,
}

/// Approximate USIM over pre-segmented records (Algorithm 1), returning the
/// chosen independent set for explanation purposes. When `target` is set,
/// the improvement loop stops as soon as the similarity reaches it — the
/// verifier only needs a θ decision and Algorithm 1's value is a lower
/// bound of USIM either way.
fn approx_set(
    kn: &Knowledge,
    cfg: &SimConfig,
    s: &SegRecord,
    t: &SegRecord,
    target: Option<f64>,
) -> (f64, Vec<usize>, UsimGraph) {
    let mut rs = RefineScratch::default();
    let (sim, g) = approx_set_with(kn, cfg, s, t, target, &mut rs);
    (sim, std::mem::take(&mut rs.a), g)
}

/// [`approx_set`] over a caller-owned [`RefineScratch`]: the upper-bound
/// side tables and every local-search buffer come from `rs`, so a worker
/// verifying many candidates through the reference path allocates nothing
/// per pair. The chosen set is left in `rs.a`.
fn approx_set_with(
    kn: &Knowledge,
    cfg: &SimConfig,
    s: &SegRecord,
    t: &SegRecord,
    target: Option<f64>,
    rs: &mut RefineScratch,
) -> (f64, UsimGraph) {
    let vertices = build_vertices(kn, cfg, s, t);
    // Decision fast path: a provable upper bound below the target rejects
    // before the O(V²) conflict edges are even built. Eq. 6's numerator is
    // at most the sum over either side's segments of their best vertex
    // weight (every matched pair charges its segment's best), and the
    // denominator is at least the larger minimum partition size.
    if let Some(th) = target {
        let ub = vertex_upper_bound_with(s, t, &vertices, &mut rs.best_s, &mut rs.best_t);
        if ub < th - cfg.eps {
            let g = UsimGraph {
                graph: au_matching::ConflictGraph::with_weights(Vec::new()),
                vertices: Vec::new(),
            };
            rs.a.clear();
            return (ub.min(th), g);
        }
    }
    let g = finish_graph(s, t, vertices);
    if g.graph.is_empty() {
        rs.a.clear();
        let sim = get_sim_with(s, t, &g, &[], &mut rs.eval);
        return (sim, g);
    }
    let sim = refine_set(kn, cfg, s, t, &g, target, rs);
    (sim, g)
}

/// Reusable buffers of the Algorithm 1 local search (`refine_set`): the
/// current independent set, its membership mask, the candidate-solution
/// scratch of the claw enumeration, the best talon set of a round, the
/// `GetSim` evaluation buffers, and the per-side best-weight tables of the
/// vertex upper bound. One instance lives per verification worker.
#[derive(Debug, Clone, Default)]
pub(crate) struct RefineScratch {
    /// Final independent set after refinement (output).
    pub a: Vec<usize>,
    in_a: Vec<bool>,
    cand: Vec<usize>,
    best_talons: Vec<usize>,
    pub eval: EvalScratch,
    /// Upper-bound per-side best-weight tables (see
    /// [`vertex_upper_bound_with`]).
    pub best_s: Vec<f64>,
    pub best_t: Vec<f64>,
}

/// Algorithm 1's solution search on a prebuilt conflict graph: SquareImp
/// w-MIS seed, then `1/t`-gain claw improvements on the similarity
/// objective, early-stopping at `target` when given. Returns the (drift
/// free, recomputed) similarity; the chosen set is left in `rs.a`. This is
/// the single implementation behind both the reference
/// [`usim_approx_seg`] path and the tiered verification engine
/// ([`crate::usim::verify`]) — byte-identical results by construction.
pub(crate) fn refine_set(
    kn: &Knowledge,
    cfg: &SimConfig,
    s: &SegRecord,
    t: &SegRecord,
    g: &UsimGraph,
    target: Option<f64>,
    rs: &mut RefineScratch,
) -> f64 {
    let d = kn.claw_bound().min(cfg.max_talons).max(1);
    let sq_cfg = SquareImpConfig {
        max_talons: d,
        ..Default::default()
    };
    let RefineScratch {
        a,
        in_a,
        cand,
        best_talons,
        eval,
        ..
    } = rs;
    // Line 1: w-MIS seed.
    a.clear();
    a.extend(square_imp(&g.graph, &sq_cfg));
    in_a.clear();
    in_a.resize(g.graph.len(), false);
    for &v in a.iter() {
        in_a[v] = true;
    }
    let mut cur = get_sim_with(s, t, g, a, eval);
    // Lines 3–4: claw improvements on the similarity objective. The talon
    // enumeration is additionally capped per round: on degenerate inputs
    // (many interchangeable segment pairs, e.g. heavily repeated tokens)
    // the number of claws explodes combinatorially while the SquareImp
    // seed is already within its guarantee, so we bound the extra work.
    const MAX_EVALS_PER_ROUND: usize = 2_000;
    let min_gain = 1.0 / cfg.t_param.max(1.0 + f64::EPSILON);
    let max_rounds = cfg.t_param.floor() as usize;
    let reached = |cur: f64| target.is_some_and(|th| cur >= th - cfg.eps);
    for _ in 0..max_rounds {
        if reached(cur) {
            break;
        }
        let mut best_gain = 0.0f64;
        let mut has_best = false;
        let mut evals = 0usize;
        for_each_talon_set(&g.graph, in_a, d, &mut |talons| {
            evals += 1;
            // Candidate solution: A ∪ T \ N(T, A).
            cand.clear();
            cand.extend(
                a.iter()
                    .copied()
                    .filter(|&u| !talons.iter().any(|&v| v == u || g.graph.are_adjacent(v, u))),
            );
            cand.extend_from_slice(talons);
            // Cheap upper bound: the denominator is at least |A'|, so a
            // candidate whose weight sum cannot beat the best similarity
            // seen this round even against that floor needs no exact
            // evaluation.
            let w: f64 = cand.iter().map(|&v| g.graph.weight(v)).sum();
            if w > (cur + best_gain) * cand.len() as f64 {
                let sim = get_sim_with(s, t, g, cand, eval);
                let gain = sim - cur;
                if gain > best_gain {
                    best_gain = gain;
                    has_best = true;
                    best_talons.clear();
                    best_talons.extend_from_slice(talons);
                }
            }
            evals < MAX_EVALS_PER_ROUND
        });
        if has_best && best_gain >= min_gain - cfg.eps {
            apply_swap(&g.graph, a, in_a, best_talons);
            cur += best_gain;
        } else {
            break;
        }
    }
    // Recompute to avoid accumulated float drift.
    get_sim_with(s, t, g, a, eval)
}

/// Cheap provable upper bound of USIM from the vertex set alone:
/// `min(Σ_s best_w, Σ_t best_w) / max(MP(S), MP(T))`.
pub fn vertex_upper_bound(
    s: &SegRecord,
    t: &SegRecord,
    vertices: &[crate::usim::graph::VertexPair],
) -> f64 {
    vertex_upper_bound_with(s, t, vertices, &mut Vec::new(), &mut Vec::new())
}

/// Allocation-free core of [`vertex_upper_bound`]: the per-side
/// best-weight tables live in the caller's reusable buffers. The single
/// implementation behind both the reference decision fast path and the
/// tiered engine's pre-graph rejection — identical float operations by
/// construction.
pub(crate) fn vertex_upper_bound_with(
    s: &SegRecord,
    t: &SegRecord,
    vertices: &[crate::usim::graph::VertexPair],
    best_s: &mut Vec<f64>,
    best_t: &mut Vec<f64>,
) -> f64 {
    let denom = s.min_partition.max(t.min_partition);
    if denom == 0 {
        // both empty → similarity 1 by convention; one empty has no
        // vertices and bound 0 handled by the sums below.
        return if s.n_tokens() == 0 && t.n_tokens() == 0 {
            1.0
        } else {
            0.0
        };
    }
    best_s.clear();
    best_s.resize(s.segments.len(), 0.0);
    best_t.clear();
    best_t.resize(t.segments.len(), 0.0);
    for v in vertices {
        if v.weight > best_s[v.s_seg] {
            best_s[v.s_seg] = v.weight;
        }
        if v.weight > best_t[v.t_seg] {
            best_t[v.t_seg] = v.weight;
        }
    }
    let sum_s: f64 = best_s.iter().sum();
    let sum_t: f64 = best_t.iter().sum();
    sum_s.min(sum_t) / denom as f64
}

/// Cheap provable upper bound of USIM from the conflict graph (see
/// [`vertex_upper_bound`]).
pub fn usim_upper_bound(s: &SegRecord, t: &SegRecord, g: &UsimGraph) -> f64 {
    vertex_upper_bound(s, t, &g.vertices)
}

/// Tier-1.5 **greedy-matching bound**: a provable upper bound of USIM
/// that is strictly at least as tight as the row-max vertex bound, yet
/// needs no conflict graph, no `GetSim` masks and no min-partition DP —
/// only the per-side best-weight tables the row-max bound already built.
///
/// Any independent set `A` of size `m` uses `m` *distinct* segments per
/// side (a segment overlaps itself), and each matched pair's weight is at
/// most the best weight of its segment on **both** sides. Sorting the
/// positive per-segment bests descending (`a₁ ≥ a₂ ≥ …` on S, `b₁ ≥ b₂ ≥
/// …` on T), the sum-of-mins of the sorted-sorted pairing dominates every
/// possible assignment of `m` distinct S-bests to `m` distinct T-bests
/// (`min` is L-superadditive, so similarly-ordered pairing maximises the
/// sum — and elementwise `xᵢ ≤ aᵢ`, `yᵢ ≤ bᵢ` for any choice of `m`
/// entries per side). Eq. 6's denominator is at least `max(m, MP(S),
/// MP(T))` (`|A| + residuals ≥ |A|` and matched + residual segments
/// partition each side), hence
///
/// ```text
/// USIM ≤ max over m of  Σ_{i≤m} min(aᵢ, bᵢ) / max(m, MP(S), MP(T))
/// ```
///
/// with `m` capped by the positive-best counts and the token counts
/// (each pair consumes ≥ 1 token per side). Every prefix term is ≤ the
/// row-max bound (`Σ min(aᵢ,bᵢ) ≤ min(Σa, Σb)` and the denominator only
/// grows), so this bound never rejects less than row-max does.
///
/// `buf_s`/`buf_t` are caller-owned sort buffers (per-worker scratch).
pub(crate) fn greedy_matching_bound_with(
    ns: usize,
    nt: usize,
    mp: u32,
    best_s: &[f64],
    best_t: &[f64],
    buf_s: &mut Vec<f64>,
    buf_t: &mut Vec<f64>,
) -> f64 {
    buf_s.clear();
    buf_s.extend(best_s.iter().copied().filter(|&w| w > 0.0));
    buf_t.clear();
    buf_t.extend(best_t.iter().copied().filter(|&w| w > 0.0));
    buf_s.sort_unstable_by(|a, b| b.total_cmp(a));
    buf_t.sort_unstable_by(|a, b| b.total_cmp(a));
    let m_max = buf_s.len().min(buf_t.len()).min(ns).min(nt);
    let mut acc = 0.0f64;
    let mut best = 0.0f64;
    for m in 1..=m_max {
        acc += buf_s[m - 1].min(buf_t[m - 1]);
        let v = acc / (m as u32).max(mp) as f64;
        if v > best {
            best = v;
        }
    }
    best
}

/// Approximate USIM over pre-segmented records (Algorithm 1).
pub fn usim_approx_seg(kn: &Knowledge, cfg: &SimConfig, s: &SegRecord, t: &SegRecord) -> f64 {
    approx_set(kn, cfg, s, t, None).0
}

/// Decision-oriented variant for verification: identical to
/// [`usim_approx_seg`] except the improvement loop stops once `target` is
/// reached. The returned value is still a valid lower bound of USIM, so
/// `usim_approx_seg_at_least(...) >= θ` accepts exactly the pairs
/// `usim_approx_seg` would (it merely skips work *after* the decision is
/// already positive).
pub fn usim_approx_seg_at_least(
    kn: &Knowledge,
    cfg: &SimConfig,
    s: &SegRecord,
    t: &SegRecord,
    target: f64,
) -> f64 {
    approx_set(kn, cfg, s, t, Some(target)).0
}

/// [`usim_approx_seg_at_least`] over a caller-owned scratch — the
/// reference verification path's per-worker form
/// ([`crate::oracle::verify_candidates_reference`]): identical value, but
/// the upper-bound tables and local-search buffers are reused across
/// candidates instead of freshly allocated per call.
pub(crate) fn usim_approx_seg_at_least_with(
    kn: &Knowledge,
    cfg: &SimConfig,
    s: &SegRecord,
    t: &SegRecord,
    target: f64,
    rs: &mut RefineScratch,
) -> f64 {
    approx_set_with(kn, cfg, s, t, Some(target), rs).0
}

/// Approximate USIM of two records of the knowledge's built-in corpus.
pub fn usim_approx(kn: &Knowledge, s: RecordId, t: RecordId, cfg: &SimConfig) -> f64 {
    let srec = segment_record(kn, cfg, &kn.record(s).tokens);
    let trec = segment_record(kn, cfg, &kn.record(t).tokens);
    usim_approx_seg(kn, cfg, &srec, &trec)
}

/// Like [`usim_approx_seg`] but also reports which segment pairs matched
/// with which measure — the segment-level workhorse behind
/// [`usim_approx_explained`], usable on any pair of [`SegRecord`]s (e.g.
/// records of corpora other than the knowledge's built-in one).
pub fn usim_explain_seg(
    kn: &Knowledge,
    cfg: &SimConfig,
    s: &SegRecord,
    t: &SegRecord,
) -> UsimResult {
    let (sim, set, g) = approx_set(kn, cfg, s, t, None);
    let mut matches: Vec<MatchedPair> = set
        .iter()
        .map(|&v| {
            let vp = &g.vertices[v];
            MatchedPair {
                s_text: s.segments[vp.s_seg].text.clone(),
                t_text: t.segments[vp.t_seg].text.clone(),
                score: vp.weight,
                kind: vp.kind,
            }
        })
        .collect();
    matches.sort_by(|a, b| b.score.total_cmp(&a.score));
    UsimResult { sim, matches }
}

/// Like [`usim_approx`] but also reports which segment pairs matched with
/// which measure — useful for applications explaining join results.
pub fn usim_approx_explained(
    kn: &Knowledge,
    s: RecordId,
    t: RecordId,
    cfg: &SimConfig,
) -> UsimResult {
    let srec = segment_record(kn, cfg, &kn.record(s).tokens);
    let trec = segment_record(kn, cfg, &kn.record(t).tokens);
    usim_explain_seg(kn, cfg, &srec, &trec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MeasureSet;
    use crate::knowledge::tests::kn_figure1;
    use crate::knowledge::KnowledgeBuilder;
    use crate::usim::exact::usim_exact;

    #[test]
    fn figure1_approx_reaches_exact() {
        let mut kn = kn_figure1();
        let s = kn.add_record("coffee shop latte Helsingki");
        let t = kn.add_record("espresso cafe Helsinki");
        let cfg = SimConfig::default();
        let approx = usim_approx(&kn, s, t, &cfg);
        let exact = usim_exact(&kn, s, t, &cfg).unwrap();
        assert!(approx <= exact + 1e-12);
        assert!(
            (approx - exact).abs() < 1e-9,
            "approx {approx} vs exact {exact}"
        );
    }

    #[test]
    fn approx_never_exceeds_exact_on_small_instances() {
        let mut kn = kn_figure1();
        let cfg = SimConfig::default();
        let texts = [
            "coffee shop latte",
            "espresso cafe",
            "latte helsinki",
            "coffee drinks cake",
            "cafe coffee shop espresso",
            "helsingki latte coffee",
        ];
        let ids: Vec<_> = texts.iter().map(|t| kn.add_record(t)).collect();
        for &a in &ids {
            for &b in &ids {
                let ap = usim_approx(&kn, a, b, &cfg);
                let ex = usim_exact(&kn, a, b, &cfg).unwrap();
                assert!(
                    ap <= ex + 1e-9,
                    "approx {ap} > exact {ex} for {:?} vs {:?}",
                    kn.record(a).raw,
                    kn.record(b).raw
                );
                // On these tiny instances local search should be near-exact.
                assert!(ap >= 0.5 * ex - 1e-9, "approx {ap} far below exact {ex}");
            }
        }
    }

    #[test]
    fn identity_is_one() {
        let mut kn = kn_figure1();
        let cfg = SimConfig::default();
        let s = kn.add_record("coffee shop latte Helsingki");
        assert!((usim_approx(&kn, s, s, &cfg) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn paper_example5_improvement_loop() {
        // SquareImp alone may settle on a w-MIS solution that is not the
        // best *similarity*; the improvement loop must reach 0.13.
        let mut b = KnowledgeBuilder::new();
        b.synonym("b c d", "f", 0.3);
        b.synonym("b c", "f g", 0.13);
        b.synonym("c d", "f g", 0.22);
        b.synonym("a", "g", 0.09);
        b.synonym("d", "h", 0.27);
        let mut kn = b.build();
        let s = kn.add_record("a b c d e");
        let t = kn.add_record("f g h");
        let cfg = SimConfig::default().with_measures(MeasureSet::S);
        let sim = usim_approx(&kn, s, t, &cfg);
        assert!((sim - 0.13).abs() < 1e-12, "got {sim}");
    }

    #[test]
    fn explanation_lists_matches() {
        let mut kn = kn_figure1();
        let s = kn.add_record("coffee shop latte Helsingki");
        let t = kn.add_record("espresso cafe Helsinki");
        let cfg = SimConfig::default();
        let res = usim_approx_explained(&kn, s, t, &cfg);
        assert_eq!(res.matches.len(), 3);
        assert_eq!(&*res.matches[0].s_text, "coffee shop");
        assert_eq!(&*res.matches[0].t_text, "cafe");
        assert_eq!(res.matches[0].kind, MeasureKind::Synonym);
        let kinds: Vec<_> = res.matches.iter().map(|m| m.kind).collect();
        assert!(kinds.contains(&MeasureKind::Taxonomy));
        assert!(kinds.contains(&MeasureKind::Jaccard));
    }

    #[test]
    fn upper_bound_dominates_exact() {
        let mut kn = kn_figure1();
        let cfg = SimConfig::default();
        let texts = [
            "coffee shop latte",
            "espresso cafe",
            "latte helsinki",
            "cafe coffee shop espresso",
            "helsingki latte coffee",
        ];
        let ids: Vec<_> = texts.iter().map(|t| kn.add_record(t)).collect();
        for &a in &ids {
            for &b in &ids {
                let sa = crate::segment::segment_record(&kn, &cfg, &kn.record(a).tokens);
                let sb = crate::segment::segment_record(&kn, &cfg, &kn.record(b).tokens);
                let g = crate::usim::graph::build_graph(&kn, &cfg, &sa, &sb);
                let ub = super::usim_upper_bound(&sa, &sb, &g);
                let exact = usim_exact(&kn, a, b, &cfg).unwrap();
                assert!(
                    ub >= exact - 1e-9,
                    "UB {ub} < exact {exact} for {:?}/{:?}",
                    kn.record(a).raw,
                    kn.record(b).raw
                );
            }
        }
    }

    #[test]
    fn at_least_variant_same_decisions() {
        let mut kn = kn_figure1();
        let cfg = SimConfig::default();
        let texts = [
            "coffee shop latte helsingki",
            "espresso cafe helsinki",
            "latte corner",
            "totally unrelated words",
        ];
        let ids: Vec<_> = texts.iter().map(|t| kn.add_record(t)).collect();
        for theta in [0.3, 0.6, 0.8] {
            for &a in &ids {
                for &b in &ids {
                    let sa = crate::segment::segment_record(&kn, &cfg, &kn.record(a).tokens);
                    let sb = crate::segment::segment_record(&kn, &cfg, &kn.record(b).tokens);
                    let full = usim_approx_seg(&kn, &cfg, &sa, &sb) >= theta - cfg.eps;
                    let fast =
                        usim_approx_seg_at_least(&kn, &cfg, &sa, &sb, theta) >= theta - cfg.eps;
                    assert_eq!(full, fast, "decision mismatch at theta={theta}");
                }
            }
        }
    }

    #[test]
    fn empty_strings() {
        let mut kn = kn_figure1();
        let cfg = SimConfig::default();
        let e = kn.add_record("");
        let x = kn.add_record("espresso");
        assert_eq!(usim_approx(&kn, e, e, &cfg), 1.0);
        assert_eq!(usim_approx(&kn, e, x, &cfg), 0.0);
    }
}
