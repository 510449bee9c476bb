//! The oracles every completeness and equivalence test checks the join
//! against. They share no index or verifier with the pipeline:
//! [`brute_force_join`] segments both corpora itself and scores every
//! pair with [`verify_candidates_reference`], whose only scorer is
//! Algorithm 1's reference path ([`crate::usim::usim_approx_seg_at_least`]);
//! [`candidate_definition`], the filter's oracle, names the candidates,
//! `Tτ` and compatibility rejections a join's probe must report, pair by
//! pair from the signature key sets alone, with no CSR index and no
//! skipping. Nothing here touches [`crate::usim::Verifier`].

use crate::config::SimConfig;
use crate::join::SelectedSignatures;
use crate::knowledge::Knowledge;
use crate::parallel::par_map_scratch;
use crate::pebble::{generate_pebbles, Pebble, PebbleOrder};
use crate::segment::{segment_record, SegRecord};
use crate::spec::JoinSpec;
use crate::usim::approx::{usim_approx_seg_at_least_with, RefineScratch};
use au_text::record::Corpus;
use std::sync::Arc;

/// Stage 5 on the reference per-candidate path
/// ([`crate::usim::usim_approx_seg_at_least`] with no cross-candidate
/// sharing beyond per-worker bound/search buffers): accepted `(a, b, sim)`
/// in candidate order, which a join's run verifier
/// ([`crate::usim::Verifier::verify_run_at_least`]) must match bit for
/// bit.
pub fn verify_candidates_reference(
    kn: &Knowledge,
    cfg: &SimConfig,
    s: &[Arc<SegRecord>],
    t: &[Arc<SegRecord>],
    candidates: &[(u32, u32)],
    theta: f64,
    parallel: bool,
) -> Vec<(u32, u32, f64)> {
    let verify = |rs: &mut RefineScratch, &(a, b): &(u32, u32)| {
        let sim = usim_approx_seg_at_least_with(kn, cfg, &s[a as usize], &t[b as usize], theta, rs);
        (sim >= theta - cfg.eps).then_some((a, b, sim))
    };
    let verdicts = par_map_scratch(candidates, parallel, RefineScratch::default, verify, |_| {});
    verdicts.into_iter().flatten().collect()
}

/// Brute force: verify all |S|×|T| pairs on the reference path, sorted by
/// `(s, t)` — the oracle for filter tests.
pub fn brute_force_join(
    kn: &Knowledge,
    cfg: &SimConfig,
    s: &Corpus,
    t: &Corpus,
    theta: f64,
) -> Vec<(u32, u32, f64)> {
    let segment = |c: &Corpus| -> Vec<Arc<SegRecord>> {
        c.iter()
            .map(|r| Arc::new(segment_record(kn, cfg, &r.tokens)))
            .collect()
    };
    let (sp, tp) = (segment(s), segment(t));
    let all: Vec<(u32, u32)> = (0..s.len() as u32)
        .flat_map(|a| (0..t.len() as u32).map(move |b| (a, b)))
        .collect();
    verify_candidates_reference(kn, cfg, &sp, &tp, &all, theta, true)
}

/// One join side as [`candidate_definition`] sees it: per-record
/// signature key sets and guarantee levels, and the tier-0 integers
/// `(|r|, MP(r))`.
#[derive(Debug, Clone)]
pub struct FilterSide {
    /// The side's selected signatures.
    pub sel: SelectedSignatures,
    /// `(n_tokens, min_partition)` per record id.
    pub tier0: Vec<(u32, u32)>,
}

impl FilterSide {
    /// The sides of one join under `spec`, built by hand: every record's
    /// pebbles generated, sorted under one order over exactly these sides
    /// (`s` alone for a self-join, `t = None`) and selected with
    /// [`SelectedSignatures::select_from`] — none of the engine's
    /// memoized orders, signatures or indexes.
    pub fn pair(
        kn: &Knowledge,
        cfg: &SimConfig,
        s: &[Arc<SegRecord>],
        t: Option<&[Arc<SegRecord>]>,
        spec: &JoinSpec,
    ) -> (Self, Option<Self>) {
        let sides: Vec<&[Arc<SegRecord>]> = std::iter::once(s).chain(t).collect();
        let pebbles = |recs: &[Arc<SegRecord>]| -> Vec<Vec<Pebble>> {
            recs.iter()
                .map(|sr| generate_pebbles(kn, cfg, sr))
                .collect()
        };
        let mut lists: Vec<_> = sides.iter().map(|recs| pebbles(recs)).collect();
        let order = PebbleOrder::build(lists.iter().flatten().map(Vec::as_slice));
        for list in lists.iter_mut().flatten() {
            order.sort(list, &mut Default::default());
        }
        let mut built = sides.iter().zip(&lists).map(|(recs, sorted)| Self {
            sel: SelectedSignatures::select_from(recs, sorted, spec, cfg.eps),
            tier0: recs.iter().map(|sr| sr.tier0()).collect(),
        });
        (built.next().expect("the S side"), built.next())
    }
}

/// What [`candidate_definition`] assigns to one join.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DefinedCandidates {
    /// The candidate pairs, sorted by `(s, t)`.
    pub candidates: Vec<(u32, u32)>,
    /// `Tτ` (Eq. 16).
    pub t_tau: u64,
    /// Pairs the in-probe compatibility bound rejects.
    pub compat_rejected: u64,
}

/// The candidate pass's definition. `(a, b)` is a candidate ⇔
/// `|keys(a) ∩ keys(b)| ≥ demand = max(1, min(τ, level_a, level_b))` and
/// the tier-0 bound `min(|a|,|b|) / max(MP(a),MP(b)) ≥ min_sim` (θ − ε);
/// it is compat-rejected ⇔ the two share a key, `m − i₀ ≥ demand` (`m`
/// keys in `a`'s signature, `i₀` the index of the first of them `b`
/// carries) and the tier-0 bound is `< min_sim`. `Tτ` is
/// `Σ_key |L_S(key)|·|L_T(key)|`, which is the shared-key count summed
/// over all pairs; a self-join (`t = None`) ranges over `a < b`, i.e.
/// `n(n−1)/2` pairs per posting list. O(|S|·|T|·k) on purpose.
pub fn candidate_definition(
    s: &FilterSide,
    t: Option<&FilterSide>,
    tau: u32,
    min_sim: f64,
) -> DefinedCandidates {
    let indexed = t.unwrap_or(s);
    let mut out = DefinedCandidates::default();
    for a in 0..s.sel.len() as u32 {
        let keys_a = s.sel.record_keys.get(a);
        let first = if t.is_none() { a + 1 } else { 0 };
        for b in first..indexed.sel.len() as u32 {
            let keys_b = indexed.sel.record_keys.get(b);
            let carried = |i: &usize| keys_b.binary_search(&keys_a[*i]).is_ok();
            let shared = (0..keys_a.len()).filter(carried).count();
            out.t_tau += shared as u64;
            let Some(i0) = (0..keys_a.len()).find(carried) else {
                continue;
            };
            let demand = tau
                .min(s.sel.levels[a as usize])
                .min(indexed.sel.levels[b as usize])
                .max(1) as usize;
            let ((na, mpa), (nb, mpb)) = (s.tier0[a as usize], indexed.tier0[b as usize]);
            if na.min(nb) as f64 / mpa.max(mpb) as f64 >= min_sim {
                if shared >= demand {
                    out.candidates.push((a, b));
                }
            } else if keys_a.len() - i0 >= demand {
                out.compat_rejected += 1;
            }
        }
    }
    out
}
