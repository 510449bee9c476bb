//! Helpers shared by the root integration tests.

use au_join::core::join::JoinResult;
use au_join::prelude::*;

/// One-shot R×S join on freshly prepared corpora.
pub fn join(
    kn: &Knowledge,
    cfg: &SimConfig,
    s: &Corpus,
    t: &Corpus,
    spec: &JoinSpec,
) -> JoinResult {
    let engine = Engine::new(kn.clone(), *cfg).expect("valid config");
    let ps = engine.prepare(s).expect("prepare S");
    let pt = engine.prepare(t).expect("prepare T");
    engine.join(&ps, &pt, spec).expect("join")
}
