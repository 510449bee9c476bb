//! Stage 5 over an arbitrary candidate list, through the public run API:
//! for the tests that verify lists no join emits (all pairs, one giant
//! or heavy probe record).

use au_join::core::segment::SegRecord;
use au_join::core::usim::{GramPostingsIndex, RunScratch, RunSide, Verifier, VerifyTiers};
use au_join::prelude::*;
use std::sync::Arc;

/// Verify `candidates` — ids into `s` and `t`, sorted by probe id — one
/// probe record's run at a time, serially, through one walk of a
/// transposed posting index over `t` per run: the accepted `(a, b, sim)`
/// in candidate order and the tier buckets.
pub fn verify_runs(
    kn: &Knowledge,
    cfg: &SimConfig,
    s: &[Arc<SegRecord>],
    t: &[Arc<SegRecord>],
    candidates: &[(u32, u32)],
    theta: f64,
) -> (Vec<(u32, u32, f64)>, VerifyTiers) {
    let index = GramPostingsIndex::build(t);
    let tier0: Vec<(u32, u32)> = t.iter().map(|r| r.tier0()).collect();
    let side = RunSide {
        recs: t,
        tier0: &tier0,
        index: &index,
    };
    let verifier = Verifier::new(kn, cfg);
    let (mut rs, mut accepted) = (RunScratch::default(), Vec::new());
    for run in candidates.chunk_by(|x, y| x.0 == y.0) {
        let keys = rs.resolve(&s[run[0].0 as usize], side);
        verifier.verify_run_at_least(keys, run, theta, &mut rs, &mut accepted);
    }
    (accepted, rs.take_tally())
}
