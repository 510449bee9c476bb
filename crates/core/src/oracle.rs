//! The oracle every completeness and equivalence test checks the join
//! against. It shares no filter, index or verifier with the pipeline:
//! [`brute_force_join`] segments both corpora itself and scores every
//! pair with [`verify_candidates_reference`], whose only scorer is
//! Algorithm 1's reference path ([`crate::usim::usim_approx_seg_at_least`]).
//! Nothing here touches [`crate::usim::Verifier`].

use crate::config::SimConfig;
use crate::knowledge::Knowledge;
use crate::parallel::par_map_scratch;
use crate::segment::{segment_record, SegRecord};
use crate::usim::approx::{usim_approx_seg_at_least_with, RefineScratch};
use au_text::record::Corpus;
use std::sync::Arc;

/// Stage 5 on the reference per-candidate path
/// ([`crate::usim::usim_approx_seg_at_least`] with no cross-candidate
/// sharing beyond per-worker bound/search buffers): accepted `(a, b, sim)`
/// in candidate order, which [`crate::join::verify_candidates`] must match
/// bit for bit.
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
