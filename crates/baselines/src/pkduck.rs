//! PKduck: abbreviation/synonym similarity join over derived strings.
//!
//! Tao et al. (PVLDB 2017) define the similarity of `x` and `y` under a
//! rule set as the maximum token-set Jaccard between `y` and any *derived
//! string* of `x` — `x` with a set of non-overlapping rule applications
//! performed. We symmetrise (derive either side) and verify with the same
//! definition.
//!
//! Simplifications vs the original (see DESIGN.md): derivation
//! enumeration is capped at [`PkduckConfig::max_derivations`] per record
//! (the original bounds work with a stricter DP over signature prefixes),
//! and the signature is the union of classic Jaccard prefixes over all
//! enumerated derivations.

use crate::BaselineResult;
use au_core::knowledge::Knowledge;
use au_text::hash::FxHashMap;
use au_text::jaccard::jaccard_sorted;
use au_text::record::Corpus;
use au_text::TokenId;

/// PKduck parameters.
#[derive(Debug, Clone, Copy)]
pub struct PkduckConfig {
    /// Cap on enumerated derivations per record (incl. the identity).
    pub max_derivations: usize,
}

impl Default for PkduckConfig {
    fn default() -> Self {
        Self {
            max_derivations: 64,
        }
    }
}

/// One applicable rule application on a token sequence.
#[derive(Debug, Clone)]
struct Application {
    start: usize,
    len: usize,
    replacement: Vec<TokenId>,
}

fn applications(kn: &Knowledge, tokens: &[TokenId]) -> Vec<Application> {
    let max_span = kn.max_segment_span().min(tokens.len().max(1));
    let mut out = Vec::new();
    for len in 1..=max_span {
        if len > tokens.len() {
            break;
        }
        for start in 0..=tokens.len() - len {
            let Some(phrase) = kn.phrases.get(&tokens[start..start + len]) else {
                continue;
            };
            for rid in kn.synonyms.rules_with_side(phrase) {
                let rule = kn.synonyms.get(rid);
                if let Some(other) = rule.other_side(phrase) {
                    out.push(Application {
                        start,
                        len,
                        replacement: kn.phrases.resolve(other).to_vec(),
                    });
                }
            }
        }
    }
    out.sort_by_key(|a| (a.start, a.len));
    out
}

/// Enumerate derived token *sets* (sorted, deduplicated), capped.
fn derivations(kn: &Knowledge, tokens: &[TokenId], cap: usize) -> Vec<Vec<TokenId>> {
    let apps = applications(kn, tokens);
    let mut out: Vec<Vec<TokenId>> = Vec::new();
    let mut chosen: Vec<usize> = Vec::new();

    fn emit(
        tokens: &[TokenId],
        apps: &[Application],
        chosen: &[usize],
        out: &mut Vec<Vec<TokenId>>,
    ) {
        let mut derived: Vec<TokenId> = Vec::with_capacity(tokens.len());
        let mut pos = 0usize;
        for &ai in chosen {
            let a = &apps[ai];
            derived.extend_from_slice(&tokens[pos..a.start]);
            derived.extend_from_slice(&a.replacement);
            pos = a.start + a.len;
        }
        derived.extend_from_slice(&tokens[pos..]);
        derived.sort_unstable();
        derived.dedup();
        out.push(derived);
    }

    fn rec(
        tokens: &[TokenId],
        apps: &[Application],
        from: usize,
        chosen: &mut Vec<usize>,
        out: &mut Vec<Vec<TokenId>>,
        cap: usize,
    ) {
        if out.len() >= cap {
            return;
        }
        emit(tokens, apps, chosen, out);
        for i in from..apps.len() {
            let a = &apps[i];
            if let Some(&last) = chosen.last() {
                if a.start < apps[last].start + apps[last].len {
                    continue;
                }
            }
            chosen.push(i);
            rec(tokens, apps, i + 1, chosen, out, cap);
            chosen.pop();
            if out.len() >= cap {
                return;
            }
        }
    }

    rec(tokens, &apps, 0, &mut chosen, &mut out, cap.max(1));
    out.sort();
    out.dedup();
    out
}

/// PKduck similarity (symmetrised, capped derivation enumeration).
pub fn pkduck_similarity(kn: &Knowledge, x: &[TokenId], y: &[TokenId], cfg: &PkduckConfig) -> f64 {
    let mut ys = y.to_vec();
    ys.sort_unstable();
    ys.dedup();
    let mut xs = x.to_vec();
    xs.sort_unstable();
    xs.dedup();
    let mut best: f64 = 0.0;
    for d in derivations(kn, x, cfg.max_derivations) {
        best = best.max(jaccard_sorted(&d, &ys));
    }
    for d in derivations(kn, y, cfg.max_derivations) {
        best = best.max(jaccard_sorted(&d, &xs));
    }
    best
}

/// Run PKduck between two corpora at threshold `theta`.
pub fn pkduck_join(
    kn: &Knowledge,
    s: &Corpus,
    t: &Corpus,
    theta: f64,
    cfg: &PkduckConfig,
) -> BaselineResult {
    // Global token frequency for prefix ordering.
    let mut freq: FxHashMap<TokenId, u32> = FxHashMap::default();
    for r in s.iter().chain(t.iter()) {
        let mut distinct = r.tokens.clone();
        distinct.sort_unstable();
        distinct.dedup();
        for tk in distinct {
            *freq.entry(tk).or_insert(0) += 1;
        }
    }
    let prefix_of = |set: &[TokenId]| -> Vec<TokenId> {
        // classic Jaccard prefix: |x| − ⌈θ|x|⌉ + 1 rarest tokens
        if set.is_empty() {
            return Vec::new();
        }
        let mut sorted = set.to_vec();
        sorted.sort_by_key(|tk| (freq.get(tk).copied().unwrap_or(0), tk.0));
        let alpha = (theta * sorted.len() as f64).ceil() as usize;
        let plen = (sorted.len() - alpha.min(sorted.len()) + 1).min(sorted.len());
        sorted.truncate(plen);
        sorted
    };
    let signature = |tokens: &[TokenId]| -> Vec<TokenId> {
        let mut sig: Vec<TokenId> = Vec::new();
        for d in derivations(kn, tokens, cfg.max_derivations) {
            for tk in prefix_of(&d) {
                if !sig.contains(&tk) {
                    sig.push(tk);
                }
            }
        }
        sig
    };

    let mut index: FxHashMap<TokenId, Vec<u32>> = FxHashMap::default();
    for r in t.iter() {
        for tk in signature(&r.tokens) {
            index.entry(tk).or_default().push(r.id.0);
        }
    }
    let mut cand: FxHashMap<u64, ()> = FxHashMap::default();
    for r in s.iter() {
        for tk in signature(&r.tokens) {
            if let Some(list) = index.get(&tk) {
                for &b in list {
                    cand.insert((r.id.0 as u64) << 32 | b as u64, ());
                }
            }
        }
    }
    let mut candidates: Vec<(u32, u32)> = cand
        .into_keys()
        .map(|k| ((k >> 32) as u32, k as u32))
        .collect();
    candidates.sort_unstable();

    let mut pairs = Vec::new();
    for &(a, b) in &candidates {
        let sim = pkduck_similarity(
            kn,
            &s.get(au_text::record::RecordId(a)).tokens,
            &t.get(au_text::record::RecordId(b)).tokens,
            cfg,
        );
        if sim >= theta - 1e-9 {
            pairs.push((a, b, sim));
        }
    }
    BaselineResult {
        candidates: candidates.len() as u64,
        pairs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use au_core::knowledge::KnowledgeBuilder;

    fn setup() -> Knowledge {
        let mut b = KnowledgeBuilder::new();
        b.synonym("coffee shop", "cafe", 1.0);
        b.synonym("dbms", "database management system", 1.0);
        b.build()
    }

    #[test]
    fn derivation_resolves_synonym() {
        let mut kn = setup();
        let a = kn.add_record("coffee shop helsinki");
        let b = kn.add_record("cafe helsinki");
        let sim = pkduck_similarity(
            &kn,
            &kn.record(a).tokens.clone(),
            &kn.record(b).tokens.clone(),
            &PkduckConfig::default(),
        );
        // derive "coffee shop"→"cafe": {cafe, helsinki} vs {cafe, helsinki}
        assert!((sim - 1.0).abs() < 1e-12, "got {sim}");
    }

    #[test]
    fn abbreviation_expansion_matches() {
        let mut kn = setup();
        let a = kn.add_record("dbms course");
        let b = kn.add_record("database management system course");
        let sim = pkduck_similarity(
            &kn,
            &kn.record(a).tokens.clone(),
            &kn.record(b).tokens.clone(),
            &PkduckConfig::default(),
        );
        assert!((sim - 1.0).abs() < 1e-12, "got {sim}");
    }

    #[test]
    fn join_matches_brute_force() {
        let mut kn = setup();
        let s = kn.corpus_from_lines([
            "coffee shop helsinki",
            "dbms lectures",
            "unrelated alpha beta",
            "cafe tampere",
        ]);
        let t = kn.corpus_from_lines([
            "cafe helsinki",
            "database management system lectures",
            "gamma delta words",
            "coffee shop tampere",
        ]);
        let cfg = PkduckConfig::default();
        for theta in [0.5, 0.8, 0.95] {
            let mut want = Vec::new();
            for a in s.iter() {
                for b in t.iter() {
                    if pkduck_similarity(&kn, &a.tokens, &b.tokens, &cfg) >= theta - 1e-9 {
                        want.push((a.id.0, b.id.0));
                    }
                }
            }
            let got = pkduck_join(&kn, &s, &t, theta, &cfg).id_pairs();
            assert_eq!(got, want, "θ={theta}");
        }
    }

    #[test]
    fn no_rules_degenerates_to_token_jaccard() {
        let mut kn = KnowledgeBuilder::new().build();
        let a = kn.add_record("alpha beta gamma");
        let b = kn.add_record("alpha beta delta");
        let sim = pkduck_similarity(
            &kn,
            &kn.record(a).tokens.clone(),
            &kn.record(b).tokens.clone(),
            &PkduckConfig::default(),
        );
        assert!((sim - 0.5).abs() < 1e-12); // 2 shared / 4 union
    }

    #[test]
    fn derivation_cap_respected() {
        let mut b = KnowledgeBuilder::new();
        // many applicable rules on one string → exponential derivations
        for i in 0..10 {
            b.synonym(&format!("w{i}"), &format!("x{i}"), 1.0);
        }
        let mut kn = b.build();
        let text = (0..10)
            .map(|i| format!("w{i}"))
            .collect::<Vec<_>>()
            .join(" ");
        let id = kn.add_record(&text);
        let ds = derivations(&kn, &kn.record(id).tokens, 32);
        assert!(ds.len() <= 32);
        assert!(!ds.is_empty());
    }

    #[test]
    fn empty_tokens() {
        let kn = setup();
        assert_eq!(
            pkduck_similarity(&kn, &[], &[], &PkduckConfig::default()),
            0.0
        );
    }
}
