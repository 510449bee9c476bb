//! Well-defined segments (Definition 1) and segmented records.
//!
//! A *well-defined segment* of a string is a consecutive token span that
//! (i) maps to the lhs or rhs of a synonym rule, (ii) matches a taxonomy
//! entity, or (iii) is a single token. [`segment_record`] enumerates all of
//! them for a token sequence, caching everything the similarity and pebble
//! layers need: the segment's distinct q-gram hashes (sorted), its taxonomy
//! node and its applicable rules.
//!
//! Grams are represented by 64-bit Fx hashes rather than interned ids so
//! segmentation needs no shared mutable state (important for parallel
//! verification); a collision would require two distinct grams among the
//! handful in one segment pair to collide in 64 bits.

use crate::config::{MeasureSet, SimConfig};
use crate::knowledge::Knowledge;
use au_matching::{min_partition, IntervalsByEnd};
use au_synonym::RuleId;
use au_taxonomy::NodeId;
use au_text::hash::FxHasher64;
use au_text::{PhraseId, TokenId};
use std::hash::Hasher;
use std::sync::Arc;

/// Hash one gram to its 64-bit pebble key payload.
pub fn hash_gram(g: &str) -> u64 {
    let mut h = FxHasher64::default();
    h.write(g.as_bytes());
    h.finish()
}

/// Sorted, deduplicated gram hashes of `text` — the hashes of the gram set
/// [`au_text::qgram::qgrams`] defines, with every `q`-scalar window hashed
/// in place instead of being copied out as a `String` first.
pub fn gram_hashes(text: &str, q: usize) -> Vec<u64> {
    assert!(q > 0, "q must be positive");
    // Window `i` spans char boundaries `i .. i + q`. A text of at most `q`
    // scalars has no boundary `q` to pair with, so its one window ends at
    // the end of the text (the whole-string gram); the empty text has no
    // start at all.
    let starts = text.char_indices().map(|(i, _)| i);
    let ends = starts.clone().skip(q).chain([text.len()]);
    // At most one window per byte; sized up front because the iterator's
    // own lower bound (a quarter of the bytes) regrows the buffer twice.
    let mut v: Vec<u64> = Vec::with_capacity(text.len());
    v.extend(starts.zip(ends).map(|(a, b)| hash_gram(&text[a..b])));
    v.sort_unstable();
    v.dedup();
    v
}

/// One well-defined segment of a record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// First token position.
    pub start: usize,
    /// Token count (≥ 1).
    pub len: usize,
    /// Interned phrase when this span names a rule side / entity (always
    /// set for multi-token segments; for single tokens only if the token
    /// happens to be an interned phrase).
    pub phrase: Option<PhraseId>,
    /// Matching taxonomy entity node, if any.
    pub node: Option<NodeId>,
    /// Synonym rules having this span as lhs or rhs.
    pub rules: Vec<RuleId>,
    /// Space-joined surface text of the span (shared, not cloned: the
    /// explanation path and result plumbing bump a refcount instead of
    /// copying the string per matched pair).
    pub text: Arc<str>,
    /// Sorted distinct gram hashes of `text` (empty when J is disabled).
    pub grams: Vec<u64>,
    /// Interned surface identity of the span: the single token's id for
    /// length-1 segments, the phrase id (tagged with [`SEG_KEY_PHRASE`])
    /// for multi-token segments. Tokens never contain whitespace and
    /// phrase interning is injective on token sequences, so two segments
    /// have equal `key` **iff** they have equal `text` — the identity the
    /// mass bound's full credit and the sparse vertex enumeration are
    /// keyed on.
    pub key: u64,
}

/// Tag bit marking a multi-token phrase id in [`Segment::key`] (token and
/// phrase interners use independent dense id spaces).
pub const SEG_KEY_PHRASE: u64 = 1 << 32;

impl Segment {
    /// Exclusive end position.
    pub fn end(&self) -> usize {
        self.start + self.len
    }

    /// Token-span overlap test.
    pub fn overlaps(&self, other: &Segment) -> bool {
        self.start < other.end() && other.start < self.end()
    }
}

/// A record with its enumerated well-defined segments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegRecord {
    /// Token sequence of the record.
    pub tokens: Vec<TokenId>,
    /// All well-defined segments (singletons first, then longer spans, in
    /// position order within each length).
    pub segments: Vec<Segment>,
    /// Intervals `(start, len)` of the multi-token segments — the input to
    /// the min-partition DP.
    pub multi_intervals: Vec<(usize, usize)>,
    /// `multi_intervals` grouped by end position (CSR), precomputed so the
    /// masked min-partition DP inside `GetSim` allocates nothing per call.
    pub intervals_by_end: IntervalsByEnd,
    /// Exact minimum number of well-defined segments partitioning the
    /// record (cached; the `MP(S)` of Algorithms 2/4/5 and the denominator
    /// floor of every USIM upper bound).
    pub min_partition: u32,
    /// Sorted postings `(gram hash, segment index)` over every segment's
    /// distinct grams — the J side of the sparse vertex enumeration
    /// (empty when J is disabled). The verification engine joins two
    /// records' tables by merge (per pair) or through a hash view of the
    /// probe side (per probe run) — to count shared pebble mass, then to
    /// surface the survivors' segment pairs — and transposes the distinct
    /// keys corpus-wide into a [`crate::usim::GramPostingsIndex`] (which
    /// *records* carry a key) for the run-batched mass count.
    pub gram_posts: Vec<(u64, u32)>,
    /// Sorted postings `(rule id, segment index)` over every segment's
    /// applicable synonym rules — the S side of the sparse enumeration
    /// (same consumers as `gram_posts`).
    pub rule_posts: Vec<(u32, u32)>,
    /// Indices of segments mapped to a taxonomy node — the T side
    /// (always cross-producted per candidate: every node pair is a
    /// potential match, so there are no misses to skip).
    pub node_segs: Vec<u32>,
    /// Sorted postings `(segment key, segment index)` — the
    /// surface-identity side (`msim`'s `a.text == b.text ⇒ 1` rule, which
    /// applies under every measure subset; same consumers as
    /// `gram_posts`).
    pub key_posts: Vec<(u64, u32)>,
}

impl SegRecord {
    /// Number of tokens.
    pub fn n_tokens(&self) -> usize {
        self.tokens.len()
    }

    /// Deep heap footprint in bytes (length-based, so the figure is
    /// deterministic across allocator growth policies). Counts every
    /// owned buffer plus each segment's share; `Arc<str>` text is counted
    /// once here even when the explanation path later shares it.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        let mut total = size_of::<Self>();
        total += self.tokens.len() * size_of::<TokenId>();
        total += self.multi_intervals.len() * size_of::<(usize, usize)>();
        total += self.intervals_by_end.memory_bytes();
        total += self.gram_posts.len() * size_of::<(u64, u32)>();
        total += self.rule_posts.len() * size_of::<(u32, u32)>();
        total += self.node_segs.len() * size_of::<u32>();
        total += self.key_posts.len() * size_of::<(u64, u32)>();
        for seg in &self.segments {
            total += size_of::<Segment>();
            total += seg.rules.len() * size_of::<RuleId>();
            total += seg.grams.len() * size_of::<u64>();
            total += seg.text.len();
        }
        total
    }
}

/// Enumerate all well-defined segments of `tokens` under `cfg.measures`.
///
/// Measure gating follows the paper's per-measure experiments: with `S`
/// disabled, rule sides no longer define segments (and no rules are
/// attached); with `T` disabled, entity spans don't. Single tokens are
/// always well-defined.
pub fn segment_record(kn: &Knowledge, cfg: &SimConfig, tokens: &[TokenId]) -> SegRecord {
    segment_record_with(kn, cfg, tokens, &|span| kn.vocab.join(span))
}

/// [`segment_record`] with an explicit span renderer, for token sequences
/// that mix vocabulary ids with [`au_text::ScratchVocab`] overlay ids
/// (query-side interning: overlay ids are unknown to `kn.vocab`, so the
/// caller supplies an overlay-aware join). Overlay ids never match an
/// interned phrase, rule side or entity — an out-of-vocabulary token
/// cannot be part of known knowledge — so only the surface text needs the
/// overlay.
pub fn segment_record_with(
    kn: &Knowledge,
    cfg: &SimConfig,
    tokens: &[TokenId],
    join_span: &dyn Fn(&[TokenId]) -> String,
) -> SegRecord {
    let n = tokens.len();
    let want_gram = cfg.measures.contains(MeasureSet::J);
    let want_syn = cfg.measures.contains(MeasureSet::S);
    let want_tax = cfg.measures.contains(MeasureSet::T);

    let mut segments = Vec::with_capacity(n + 4);
    let mut multi_intervals = Vec::new();

    // Single tokens first (stable order helps tests and determinism).
    for start in 0..n {
        segments.push(make_segment(
            kn, cfg, tokens, start, 1, want_gram, want_syn, want_tax, join_span,
        ));
    }
    // Multi-token spans up to the knowledge base's longest phrase.
    scan_multi_spans(kn, tokens, want_syn, want_tax, &mut |start, len| {
        segments.push(make_segment(
            kn, cfg, tokens, start, len, want_gram, want_syn, want_tax, join_span,
        ));
        multi_intervals.push((start, len));
    });
    let mp = min_partition(n, &multi_intervals);
    let mut gram_posts = Vec::new();
    let mut rule_posts = Vec::new();
    let mut node_segs = Vec::new();
    let mut key_posts = Vec::with_capacity(segments.len());
    for (i, seg) in segments.iter().enumerate() {
        let i = i as u32;
        gram_posts.extend(seg.grams.iter().map(|&g| (g, i)));
        rule_posts.extend(seg.rules.iter().map(|&r| (r.0, i)));
        if seg.node.is_some() {
            node_segs.push(i);
        }
        key_posts.push((seg.key, i));
    }
    gram_posts.sort_unstable();
    rule_posts.sort_unstable();
    key_posts.sort_unstable();
    SegRecord {
        tokens: tokens.to_vec(),
        segments,
        intervals_by_end: IntervalsByEnd::build(n, &multi_intervals),
        multi_intervals,
        min_partition: mp,
        gram_posts,
        rule_posts,
        node_segs,
        key_posts,
    }
}

/// The one multi-token span scan, shared by [`segment_record_with`] and
/// [`segment_stats`]: visit every well-defined multi-token interval
/// `(start, len)` of `tokens` in the canonical order (by length, then by
/// position). Sharing the scan is what guarantees the lean stats pass and
/// the full segmentation agree on `MP` exactly.
fn scan_multi_spans(
    kn: &Knowledge,
    tokens: &[TokenId],
    want_syn: bool,
    want_tax: bool,
    on_span: &mut dyn FnMut(usize, usize),
) {
    let n = tokens.len();
    let max_span = kn.max_segment_span().min(n.max(1));
    for len in 2..=max_span {
        if len > n {
            break;
        }
        for start in 0..=n - len {
            let span = &tokens[start..start + len];
            let Some(phrase) = kn.phrases.get(span) else {
                continue;
            };
            let is_rule_side = want_syn && kn.synonyms.is_side(phrase);
            let is_entity = want_tax && kn.entities.lookup(phrase).is_some();
            if !is_rule_side && !is_entity {
                continue;
            }
            on_span(start, len);
        }
    }
}

/// The tier-0 integers `(|S|, MP(S))` of a record, computed without
/// building anything else: no gram hashing, no surface text, no posting
/// tables — just the multi-span scan plus the min-partition DP. This is
/// what lets [`crate::engine::Engine::prepare_sharded`] plan a shard
/// layout over a corpus far larger than any full prepare could hold.
pub fn segment_stats(kn: &Knowledge, cfg: &SimConfig, tokens: &[TokenId]) -> (u32, u32) {
    let want_syn = cfg.measures.contains(MeasureSet::S);
    let want_tax = cfg.measures.contains(MeasureSet::T);
    let mut multi_intervals = Vec::new();
    scan_multi_spans(kn, tokens, want_syn, want_tax, &mut |start, len| {
        multi_intervals.push((start, len));
    });
    let n = tokens.len();
    (n as u32, min_partition(n, &multi_intervals))
}

#[allow(clippy::too_many_arguments)]
fn make_segment(
    kn: &Knowledge,
    cfg: &SimConfig,
    tokens: &[TokenId],
    start: usize,
    len: usize,
    want_gram: bool,
    want_syn: bool,
    want_tax: bool,
    join_span: &dyn Fn(&[TokenId]) -> String,
) -> Segment {
    let span = &tokens[start..start + len];
    let phrase = kn.phrases.get(span);
    let node = if want_tax {
        phrase.and_then(|p| kn.entities.lookup(p))
    } else {
        None
    };
    let rules = if want_syn {
        phrase.map_or_else(Vec::new, |p| kn.synonyms.rules_with_side(p).collect())
    } else {
        Vec::new()
    };
    let text = join_span(span);
    let grams = if want_gram {
        gram_hashes(&text, cfg.q)
    } else {
        Vec::new()
    };
    let key = if len == 1 {
        span[0].0 as u64
    } else {
        // Multi-token segments only exist for interned phrases (the caller
        // checked `kn.phrases.get(span)` before creating the span).
        SEG_KEY_PHRASE | phrase.expect("multi-token segment without phrase").0 as u64
    };
    Segment {
        start,
        len,
        phrase,
        node,
        rules,
        text: text.into(),
        grams,
        key,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knowledge::KnowledgeBuilder;

    fn kn_figure1() -> Knowledge {
        let mut b = KnowledgeBuilder::new();
        b.synonym("coffee shop", "cafe", 1.0);
        b.taxonomy_path(&["wikipedia", "food", "coffee", "coffee drinks", "latte"]);
        b.taxonomy_path(&["wikipedia", "food", "coffee", "coffee drinks", "espresso"]);
        b.build()
    }

    fn seg_texts(sr: &SegRecord) -> Vec<&str> {
        sr.segments.iter().map(|s| &*s.text).collect()
    }

    #[test]
    fn figure1_string_s_segments() {
        let mut kn = kn_figure1();
        let id = kn.add_record("coffee shop latte Helsingki");
        let cfg = SimConfig::default();
        let sr = segment_record(&kn, &cfg, &kn.record(id).tokens);
        // four singletons + "coffee shop" (rule lhs); "shop latte" is NOT
        // well-defined (paper, after Definition 1).
        assert_eq!(
            seg_texts(&sr),
            vec!["coffee", "shop", "latte", "helsingki", "coffee shop"]
        );
        assert_eq!(sr.multi_intervals, vec![(0, 2)]);
        let cs = &sr.segments[4];
        assert_eq!(cs.rules.len(), 1);
        assert!(cs.node.is_none());
        // "latte" maps to the taxonomy
        assert!(sr.segments[2].node.is_some());
        // "coffee" is both an entity and a token
        assert!(sr.segments[0].node.is_some());
    }

    #[test]
    fn multi_token_entity_detected() {
        let mut kn = kn_figure1();
        let id = kn.add_record("hot coffee drinks here");
        let cfg = SimConfig::default();
        let sr = segment_record(&kn, &cfg, &kn.record(id).tokens);
        let multi: Vec<_> = sr.segments.iter().filter(|s| s.len > 1).collect();
        assert_eq!(multi.len(), 1);
        assert_eq!(&*multi[0].text, "coffee drinks");
        assert!(multi[0].node.is_some());
        assert!(multi[0].rules.is_empty());
    }

    #[test]
    fn measure_gating_disables_spans() {
        let mut kn = kn_figure1();
        let id = kn.add_record("coffee shop latte");
        let toks = kn.record(id).tokens.clone();
        // J-only: no multi-token segments at all.
        let cfg_j = SimConfig::default().with_measures(MeasureSet::J);
        let sr = segment_record(&kn, &cfg_j, &toks);
        assert!(sr.multi_intervals.is_empty());
        assert!(sr
            .segments
            .iter()
            .all(|s| s.node.is_none() && s.rules.is_empty()));
        // T-only: "coffee shop" is not a segment (it is a rule side, not an
        // entity), but "coffee" still maps to its node; grams are skipped.
        let cfg_t = SimConfig::default().with_measures(MeasureSet::T);
        let sr = segment_record(&kn, &cfg_t, &toks);
        assert!(sr.multi_intervals.is_empty());
        assert!(sr.segments.iter().all(|s| s.grams.is_empty()));
        assert!(sr.segments[0].node.is_some());
        // S-only: "coffee shop" is back.
        let cfg_s = SimConfig::default().with_measures(MeasureSet::S);
        let sr = segment_record(&kn, &cfg_s, &toks);
        assert_eq!(sr.multi_intervals, vec![(0, 2)]);
    }

    #[test]
    fn empty_record() {
        let kn = kn_figure1();
        let cfg = SimConfig::default();
        let sr = segment_record(&kn, &cfg, &[]);
        assert!(sr.segments.is_empty());
        assert_eq!(sr.n_tokens(), 0);
    }

    #[test]
    fn overlap_relation() {
        let mut kn = kn_figure1();
        let id = kn.add_record("coffee shop latte");
        let cfg = SimConfig::default();
        let sr = segment_record(&kn, &cfg, &kn.record(id).tokens);
        let coffee = &sr.segments[0];
        let shop = &sr.segments[1];
        let latte = &sr.segments[2];
        let coffee_shop = &sr.segments[3];
        assert!(coffee.overlaps(coffee_shop));
        assert!(shop.overlaps(coffee_shop));
        assert!(!latte.overlaps(coffee_shop));
        assert!(!coffee.overlaps(shop));
        assert!(coffee.overlaps(coffee));
    }

    #[test]
    fn segment_stats_agrees_with_full_segmentation() {
        let mut kn = kn_figure1();
        let ids: Vec<_> = [
            "coffee shop latte Helsingki",
            "hot coffee drinks here",
            "espresso cafe Helsinki",
            "tea house",
            "",
        ]
        .iter()
        .map(|line| kn.add_record(line))
        .collect();
        for cfg in [
            SimConfig::default(),
            SimConfig::default().with_measures(MeasureSet::J),
            SimConfig::default().with_measures(MeasureSet::S.with(MeasureSet::T)),
        ] {
            for &id in &ids {
                let toks = kn.record(id).tokens.clone();
                let sr = segment_record(&kn, &cfg, &toks);
                let (n, mp) = segment_stats(&kn, &cfg, &toks);
                assert_eq!(n as usize, sr.n_tokens());
                assert_eq!(mp, sr.min_partition);
            }
        }
    }

    #[test]
    fn memory_bytes_counts_owned_buffers() {
        let mut kn = kn_figure1();
        let id = kn.add_record("coffee shop latte Helsingki");
        let cfg = SimConfig::default();
        let sr = segment_record(&kn, &cfg, &kn.record(id).tokens);
        let bytes = sr.memory_bytes();
        assert!(bytes > std::mem::size_of::<SegRecord>());
        // Deterministic: same record, same figure.
        assert_eq!(bytes, sr.clone().memory_bytes());
        let empty = segment_record(&kn, &cfg, &[]);
        assert!(empty.memory_bytes() < bytes);
    }

    #[test]
    fn gram_hashes_sorted_distinct() {
        let g = gram_hashes("espresso", 2);
        assert!(g.windows(2).all(|w| w[0] < w[1]));
        // espresso: es,sp,pr,re,ss,so → 6 distinct
        assert_eq!(g.len(), 6);
        assert_eq!(gram_hashes("", 2).len(), 0);
    }

    #[test]
    fn gram_hashes_match_the_qgram_definition() {
        // Hashing the windows in place is hashing `qgrams`' strings:
        // multi-byte scalars, texts shorter than / exactly q scalars,
        // the empty text, repeated grams.
        let by_definition = |text: &str, q: usize| {
            let mut v: Vec<u64> = au_text::qgram::qgrams(text, q)
                .iter()
                .map(|g| hash_gram(g))
                .collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        for text in [
            "",
            "a",
            "ż",
            "ab",
            "żó",
            "abc",
            "żółw",
            "aaaa",
            "abababab",
            "helsingki",
            "coffee shop",
            "日本語のテキスト",
            "e\u{301}e\u{301}e",
        ] {
            for q in 1..=5 {
                assert_eq!(
                    gram_hashes(text, q),
                    by_definition(text, q),
                    "{text:?} q={q}"
                );
            }
        }
    }
}
