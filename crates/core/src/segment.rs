//! Well-defined segments (Definition 1) and segmented records.
//!
//! A *well-defined segment* of a string is a consecutive token span that
//! (i) maps to the lhs or rhs of a synonym rule, (ii) matches a taxonomy
//! entity, or (iii) is a single token. [`segment_record`] enumerates all of
//! them for a token sequence into one flat row, a [`SegRecord`], caching
//! everything the similarity and pebble layers need: each segment's
//! distinct q-gram hashes (sorted), its taxonomy node and its applicable
//! rules. Consumers read a segment as a borrowed [`SegView`].
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
use std::cell::RefCell;
use std::hash::Hasher;
use std::mem::size_of_val;
use std::ops::Range;

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
    let mut v = Vec::new();
    gram_hashes_into(text, q, &mut v);
    v
}

/// [`gram_hashes`] appended to `out`: its tail past the old length is
/// sorted and deduplicated, what was there before is left alone.
fn gram_hashes_into(text: &str, q: usize, out: &mut Vec<u64>) {
    assert!(q > 0, "q must be positive");
    // Window `i` spans char boundaries `i .. i + q`. A text of at most `q`
    // scalars has no boundary `q` to pair with, so its one window ends at
    // the end of the text (the whole-string gram); the empty text has no
    // start at all.
    let starts = text.char_indices().map(|(i, _)| i);
    let ends = starts.clone().skip(q).chain([text.len()]);
    let from = out.len();
    // At most one window per byte; reserved up front because the iterator's
    // own lower bound (a quarter of the bytes) regrows the buffer twice.
    out.reserve(text.len());
    out.extend(starts.zip(ends).map(|(a, b)| hash_gram(&text[a..b])));
    out[from..].sort_unstable();
    let mut kept = from;
    for i in from..out.len() {
        if kept == from || out[i] != out[kept - 1] {
            out[kept] = out[i];
            kept += 1;
        }
    }
    out.truncate(kept);
}

/// Tag bit marking a multi-token phrase id in [`SegView::key`] (token and
/// phrase interners use independent dense id spaces).
pub const SEG_KEY_PHRASE: u64 = 1 << 32;

/// The fixed-size part of one segment of a [`SegRecord`]. The segment's
/// grams, rules and surface text are the runs of the record's `grams`,
/// `rules` and `text` that end at this header's offsets and start where
/// the previous header's end (at 0 for the first segment).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SegHeader {
    start: u32,
    len: u32,
    phrase: OptId,
    node: OptId,
    grams_end: u32,
    rules_end: u32,
    text_end: u32,
}

/// An optional interned id in four bytes (`Option<u32>` takes eight):
/// `u32::MAX` stands for `None`, an id no interner reaches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct OptId(u32);

impl OptId {
    fn new(id: Option<u32>) -> Self {
        assert_ne!(
            id,
            Some(u32::MAX),
            "interned id collides with the None marker"
        );
        OptId(id.unwrap_or(u32::MAX))
    }

    fn get(self) -> Option<u32> {
        (self.0 != u32::MAX).then_some(self.0)
    }
}

/// One well-defined segment of a record, borrowed from its flat row
/// ([`SegRecord::segment`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegView<'a> {
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
    pub rules: &'a [RuleId],
    /// Space-joined surface text of the span.
    pub text: &'a str,
    /// Sorted distinct gram hashes of `text` (empty when J is disabled).
    pub grams: &'a [u64],
    /// Interned surface identity of the span: the single token's id for
    /// length-1 segments, the phrase id (tagged with [`SEG_KEY_PHRASE`])
    /// for multi-token segments. Tokens never contain whitespace and
    /// phrase interning is injective on token sequences, so two segments
    /// have equal `key` **iff** they have equal `text` — the identity the
    /// mass bound's full credit and the sparse vertex enumeration are
    /// keyed on.
    pub key: u64,
}

impl SegView<'_> {
    /// Exclusive end position.
    pub fn end(&self) -> usize {
        self.start + self.len
    }
}

/// A record with its enumerated well-defined segments, as one flat row:
/// a `Copy` header per segment, one record-level array each for the
/// segments' grams, rules and surface texts (every segment's share is a
/// sub-slice), and posting tables that name slots of those arrays instead
/// of copying their keys. Every buffer is exact-size. Read a segment with
/// [`SegRecord::segment`]; segments come singletons first, then longer
/// spans, in position order within each length.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegRecord {
    /// Token sequence of the record.
    tokens: Box<[TokenId]>,
    segs: Box<[SegHeader]>,
    /// Every segment's sorted distinct gram hashes, segment after segment.
    grams: Box<[u64]>,
    /// Every segment's applicable rules, segment after segment.
    rules: Box<[RuleId]>,
    /// Every segment's surface text, segment after segment.
    text: Box<str>,
    /// Intervals `(start, len)` of the multi-token segments grouped by end
    /// position (CSR), precomputed so the masked min-partition DP inside
    /// `GetSim` allocates nothing per call.
    pub intervals_by_end: IntervalsByEnd,
    /// Exact minimum number of well-defined segments partitioning the
    /// record (cached; the `MP(S)` of Algorithms 2/4/5 and the denominator
    /// floor of every USIM upper bound).
    pub min_partition: u32,
    /// Slots of `grams` sorted by (gram, slot): [`SegRecord::gram_postings`].
    gram_posts: Box<[u32]>,
    /// Slots of `rules` sorted by (rule, slot): [`SegRecord::rule_postings`].
    rule_posts: Box<[u32]>,
    /// Segment indices sorted by (surface key, index):
    /// [`SegRecord::key_postings`].
    key_posts: Box<[u32]>,
    /// Indices of segments mapped to a taxonomy node.
    node_segs: Box<[u32]>,
}

/// A `u32` offset into a row buffer.
fn offset(n: usize) -> u32 {
    u32::try_from(n).expect("a record's row outgrows u32 offsets")
}

/// [`SegView::key`] of `h` within `tokens`.
fn seg_key(tokens: &[TokenId], h: &SegHeader) -> u64 {
    if h.len == 1 {
        u64::from(tokens[h.start as usize].0)
    } else {
        // Multi-token segments only exist for interned phrases.
        SEG_KEY_PHRASE | u64::from(h.phrase.get().expect("multi-token segment without phrase"))
    }
}

impl SegRecord {
    /// Token sequence of the record.
    pub fn tokens(&self) -> &[TokenId] {
        &self.tokens
    }

    /// Number of tokens.
    pub fn n_tokens(&self) -> usize {
        self.tokens.len()
    }

    /// The tier-0 integers `(|S|, MP(S))`.
    pub fn tier0(&self) -> (u32, u32) {
        (self.tokens.len() as u32, self.min_partition)
    }

    /// Number of well-defined segments.
    pub fn n_segments(&self) -> usize {
        self.segs.len()
    }

    /// Segment `i`, borrowed from the row.
    #[inline]
    pub fn segment(&self, i: usize) -> SegView<'_> {
        let h = &self.segs[i];
        SegView {
            start: h.start as usize,
            len: h.len as usize,
            phrase: h.phrase.get().map(PhraseId),
            node: h.node.get().map(NodeId),
            rules: &self.rules[self.run(i, |h| h.rules_end)],
            text: &self.text[self.run(i, |h| h.text_end)],
            grams: self.grams_of(i),
            key: seg_key(&self.tokens, h),
        }
    }

    /// Segment `i`'s run in the record-level array whose run ends `end`
    /// reads off the headers.
    #[inline]
    fn run(&self, i: usize, end: impl Fn(&SegHeader) -> u32) -> Range<usize> {
        let from = i.checked_sub(1).map_or(0, |p| end(&self.segs[p]));
        from as usize..end(&self.segs[i]) as usize
    }

    /// Every segment, in index order.
    pub fn segments(&self) -> impl ExactSizeIterator<Item = SegView<'_>> + '_ {
        (0..self.segs.len()).map(|i| self.segment(i))
    }

    /// Token positions of segment `i` (its header alone, for the
    /// free-mask loop).
    #[inline]
    pub(crate) fn span(&self, i: usize) -> Range<usize> {
        let h = &self.segs[i];
        h.start as usize..(h.start + h.len) as usize
    }

    /// Whether segments `a` and `b` share a token (the conflict-edge
    /// test).
    #[inline]
    pub(crate) fn overlap(&self, a: usize, b: usize) -> bool {
        let (x, y) = (self.span(a), self.span(b));
        x.start < y.end && y.start < x.end
    }

    /// Taxonomy node of segment `i` (its header alone, for the per-candidate
    /// mass bound).
    #[inline]
    pub(crate) fn node_of(&self, i: usize) -> Option<NodeId> {
        self.segs[i].node.get().map(NodeId)
    }

    /// Sorted distinct gram hashes of segment `i` (no view built).
    #[inline]
    pub(crate) fn grams_of(&self, i: usize) -> &[u64] {
        &self.grams[self.run(i, |h| h.grams_end)]
    }

    /// Postings `(gram hash, segment)` over every segment's distinct grams
    /// — the J side of the sparse vertex enumeration (empty when J is
    /// disabled). The verification engine joins two records' tables by
    /// merge (per pair) or walks the probe's through the corpus-level
    /// [`crate::usim::GramPostingsIndex`] (per probe run), to count shared
    /// pebble mass and then to surface the survivors' segment pairs.
    pub(crate) fn gram_postings(&self) -> Postings<'_> {
        Postings {
            rec: self,
            slots: &self.gram_posts,
            col: Column::Grams,
        }
    }

    /// Postings `(rule id, segment)` over every segment's applicable
    /// synonym rules — the S side of the sparse enumeration (same
    /// consumers as [`SegRecord::gram_postings`]).
    pub(crate) fn rule_postings(&self) -> Postings<'_> {
        Postings {
            rec: self,
            slots: &self.rule_posts,
            col: Column::Rules,
        }
    }

    /// Postings `(segment key, segment)` — the surface-identity side
    /// (`msim`'s `a.text == b.text ⇒ 1` rule, which applies under every
    /// measure subset; same consumers as [`SegRecord::gram_postings`]).
    pub(crate) fn key_postings(&self) -> Postings<'_> {
        Postings {
            rec: self,
            slots: &self.key_posts,
            col: Column::Keys,
        }
    }

    /// Indices of segments mapped to a taxonomy node — the T side (always
    /// cross-producted per candidate: every node pair is a potential
    /// match, so there are no misses to skip).
    pub(crate) fn node_segs(&self) -> &[u32] {
        &self.node_segs
    }

    /// Deep footprint in bytes: the struct plus every buffer it owns.
    /// Every buffer is exact-size, so this is what the row holds on the
    /// heap (allocator headers aside) and the same on every allocator.
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + size_of_val(&*self.tokens)
            + size_of_val(&*self.segs)
            + size_of_val(&*self.grams)
            + size_of_val(&*self.rules)
            + self.text.len()
            + self.intervals_by_end.memory_bytes()
            + size_of_val(&*self.gram_posts)
            + size_of_val(&*self.rule_posts)
            + size_of_val(&*self.key_posts)
            + size_of_val(&*self.node_segs)
    }
}

/// The record-level column a [`Postings`] table's slots point into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Column {
    Keys,
    Grams,
    Rules,
}

/// One posting table of a [`SegRecord`]: `(key, segment)` postings sorted
/// by key, then segment, so equal keys are adjacent. A posting is stored
/// as a slot of the column its key lives in — the record's grams, its
/// rules, or its segments for surface keys — so no key is held twice.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Postings<'a> {
    rec: &'a SegRecord,
    slots: &'a [u32],
    col: Column,
}

impl<'a> Postings<'a> {
    /// Number of postings.
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the table has no posting.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Key of posting `i` (rule ids widened).
    #[inline]
    pub(crate) fn key(&self, i: usize) -> u64 {
        let slot = self.slots[i] as usize;
        match self.col {
            Column::Keys => seg_key(&self.rec.tokens, &self.rec.segs[slot]),
            Column::Grams => self.rec.grams[slot],
            Column::Rules => u64::from(self.rec.rules[slot].0),
        }
    }

    /// Segment of posting `i`: the header whose run holds its slot.
    #[inline]
    pub(crate) fn seg(&self, i: usize) -> u32 {
        let slot = self.slots[i];
        let segs = &self.rec.segs;
        let seg = match self.col {
            Column::Keys => return slot,
            Column::Grams => segs.partition_point(|h| h.grams_end <= slot),
            Column::Rules => segs.partition_point(|h| h.rules_end <= slot),
        };
        seg as u32
    }

    /// Every posting `(key, segment)`, in table order.
    #[cfg(test)]
    pub(crate) fn iter(&self) -> impl ExactSizeIterator<Item = (u64, u32)> + 'a {
        let p = *self;
        (0..p.len()).map(move |i| (p.key(i), p.seg(i)))
    }

    /// Every posting's key, in table order (no segment lookup).
    pub(crate) fn keys(&self) -> impl ExactSizeIterator<Item = u64> + 'a {
        let p = *self;
        (0..p.len()).map(move |i| p.key(i))
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
///
/// Every [`SegRecord`] is built here, in this thread's row scratch, which
/// stays borrowed while `join_span` runs: the renderer must not segment.
pub fn segment_record_with(
    kn: &Knowledge,
    cfg: &SimConfig,
    tokens: &[TokenId],
    join_span: &dyn Fn(&[TokenId]) -> String,
) -> SegRecord {
    ROW_SCRATCH.with_borrow_mut(|scratch| build_row(kn, cfg, tokens, join_span, scratch))
}

/// The growable buffers a row is assembled in, one set per thread: a
/// segmentation then allocates its row's buffers once, at their exact
/// sizes, instead of growing and shrinking buffers of its own. A thread
/// keeps the capacity of the longest record it segmented.
#[derive(Default)]
struct RowScratch {
    segs: Vec<SegHeader>,
    grams: Vec<u64>,
    rules: Vec<RuleId>,
    text: String,
    multi: Vec<(usize, usize)>,
    /// `(key, slot)` pairs sorted into a posting table.
    keyed: Vec<(u64, u32)>,
}

thread_local! {
    static ROW_SCRATCH: RefCell<RowScratch> = RefCell::default();
}

fn build_row(
    kn: &Knowledge,
    cfg: &SimConfig,
    tokens: &[TokenId],
    join_span: &dyn Fn(&[TokenId]) -> String,
    scratch: &mut RowScratch,
) -> SegRecord {
    let n = tokens.len();
    let want_gram = cfg.measures.contains(MeasureSet::J);
    let want_syn = cfg.measures.contains(MeasureSet::S);
    let want_tax = cfg.measures.contains(MeasureSet::T);
    let RowScratch {
        segs,
        grams,
        rules,
        text,
        multi,
        keyed,
    } = scratch;
    segs.clear();
    grams.clear();
    rules.clear();
    text.clear();
    multi.clear();
    let mut push = |start: usize, len: usize| {
        let span = &tokens[start..start + len];
        let phrase = kn.phrases.get(span);
        debug_assert!(
            len == 1 || phrase.is_some(),
            "multi-token span without phrase"
        );
        let node = if want_tax {
            phrase.and_then(|p| kn.entities.lookup(p))
        } else {
            None
        };
        if let Some(p) = phrase.filter(|_| want_syn) {
            rules.extend(kn.synonyms.rules_with_side(p));
        }
        let text_start = text.len();
        text.push_str(&join_span(span));
        if want_gram {
            gram_hashes_into(&text[text_start..], cfg.q, grams);
        }
        segs.push(SegHeader {
            start: offset(start),
            len: offset(len),
            phrase: OptId::new(phrase.map(|p| p.0)),
            node: OptId::new(node.map(|n| n.0)),
            grams_end: offset(grams.len()),
            rules_end: offset(rules.len()),
            text_end: offset(text.len()),
        });
    };
    // Single tokens first (stable order helps tests and determinism).
    for start in 0..n {
        push(start, 1);
    }
    // Multi-token spans up to the knowledge base's longest phrase.
    scan_multi_spans(kn, tokens, want_syn, want_tax, &mut |start, len| {
        push(start, len);
        multi.push((start, len));
    });
    // Slots sorted by (key, slot) are postings sorted by (key, segment):
    // a segment's slots follow the previous segment's.
    let mut posts = |keys: &mut dyn Iterator<Item = u64>| -> Box<[u32]> {
        keyed.clear();
        keyed.extend(keys.zip(0..));
        keyed.sort_unstable();
        keyed.iter().map(|&(_, slot)| slot).collect()
    };
    let gram_posts = posts(&mut grams.iter().copied());
    let rule_posts = posts(&mut rules.iter().map(|r| u64::from(r.0)));
    let key_posts = posts(&mut segs.iter().map(|h| seg_key(tokens, h)));
    let node_segs = (0..offset(segs.len()))
        .filter(|&i| segs[i as usize].node.get().is_some())
        .collect();
    let min_partition = min_partition(n, multi);
    // `Tier0Window`'s two cuts decide the tier-0 bound exactly only when
    // no record's minimum partition exceeds its token count.
    debug_assert!(
        min_partition as usize <= n,
        "MP {min_partition} > {n} tokens"
    );
    SegRecord {
        tokens: tokens.into(),
        segs: segs.as_slice().into(),
        grams: grams.as_slice().into(),
        rules: rules.as_slice().into(),
        text: text.as_str().into(),
        intervals_by_end: IntervalsByEnd::build(n, multi),
        min_partition,
        gram_posts,
        rule_posts,
        key_posts,
        node_segs,
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
/// what lets a sharded join ([`crate::engine::Engine::join_self_sharded`])
/// plan a shard layout over a corpus far larger than any full prepare
/// could hold.
pub fn segment_stats(kn: &Knowledge, cfg: &SimConfig, tokens: &[TokenId]) -> (u32, u32) {
    let want_syn = cfg.measures.contains(MeasureSet::S);
    let want_tax = cfg.measures.contains(MeasureSet::T);
    let mut multi_intervals = Vec::new();
    scan_multi_spans(kn, tokens, want_syn, want_tax, &mut |start, len| {
        multi_intervals.push((start, len));
    });
    let n = tokens.len();
    let mp = min_partition(n, &multi_intervals);
    debug_assert!(mp as usize <= n, "MP {mp} > {n} tokens");
    (n as u32, mp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knowledge::tests::kn_figure1;

    fn seg_texts(sr: &SegRecord) -> Vec<&str> {
        sr.segments().map(|s| s.text).collect()
    }

    /// `sr`'s multi-token segments are exactly the intervals `want`, and
    /// its minimum partition is the one they allow.
    fn assert_multi_intervals(sr: &SegRecord, want: &[(usize, usize)]) {
        let n = sr.n_tokens();
        assert_eq!(sr.intervals_by_end, IntervalsByEnd::build(n, want));
        assert_eq!(sr.min_partition, min_partition(n, want));
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
        assert_multi_intervals(&sr, &[(0, 2)]);
        let cs = sr.segment(4);
        assert_eq!(cs.rules.len(), 1);
        assert!(cs.node.is_none());
        // "latte" maps to the taxonomy
        assert!(sr.segment(2).node.is_some());
        // "coffee" is both an entity and a token
        assert!(sr.segment(0).node.is_some());
    }

    #[test]
    fn multi_token_entity_detected() {
        let mut kn = kn_figure1();
        let id = kn.add_record("hot coffee drinks here");
        let cfg = SimConfig::default();
        let sr = segment_record(&kn, &cfg, &kn.record(id).tokens);
        let multi: Vec<_> = sr.segments().filter(|s| s.len > 1).collect();
        assert_eq!(multi.len(), 1);
        assert_eq!(multi[0].text, "coffee drinks");
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
        assert_multi_intervals(&sr, &[]);
        assert!(sr
            .segments()
            .all(|s| s.node.is_none() && s.rules.is_empty()));
        // T-only: "coffee shop" is not a segment (it is a rule side, not an
        // entity), but "coffee" still maps to its node; grams are skipped.
        let cfg_t = SimConfig::default().with_measures(MeasureSet::T);
        let sr = segment_record(&kn, &cfg_t, &toks);
        assert_multi_intervals(&sr, &[]);
        assert!(sr.segments().all(|s| s.grams.is_empty()));
        assert!(sr.segment(0).node.is_some());
        // S-only: "coffee shop" is back.
        let cfg_s = SimConfig::default().with_measures(MeasureSet::S);
        let sr = segment_record(&kn, &cfg_s, &toks);
        assert_multi_intervals(&sr, &[(0, 2)]);
    }

    #[test]
    fn empty_record() {
        let kn = kn_figure1();
        let cfg = SimConfig::default();
        let sr = segment_record(&kn, &cfg, &[]);
        assert_eq!(sr.n_segments(), 0);
        assert_eq!(sr.n_tokens(), 0);
    }

    #[test]
    fn overlap_relation() {
        let mut kn = kn_figure1();
        let id = kn.add_record("coffee shop latte");
        let cfg = SimConfig::default();
        let sr = segment_record(&kn, &cfg, &kn.record(id).tokens);
        let (coffee, shop, latte, coffee_shop) = (0, 1, 2, 3);
        assert_eq!(sr.segment(coffee_shop).text, "coffee shop");
        assert!(sr.overlap(coffee, coffee_shop));
        assert!(sr.overlap(shop, coffee_shop));
        assert!(!sr.overlap(latte, coffee_shop));
        assert!(!sr.overlap(coffee, shop));
        assert!(sr.overlap(coffee, coffee));
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

    /// `sr` read segment by segment equals a direct rebuild from the
    /// knowledge and each span, and its posting tables are exactly the
    /// sorted `(key, segment)` pairs of those views.
    fn assert_row_rebuilds(kn: &Knowledge, cfg: &SimConfig, tokens: &[TokenId], sr: &SegRecord) {
        let measure = |m| cfg.measures.contains(m);
        assert_eq!(sr.tokens(), tokens);
        let (mut grams, mut rules, mut keys, mut nodes) = (vec![], vec![], vec![], vec![]);
        for (i, v) in sr.segments().enumerate() {
            let span = &tokens[v.start..v.end()];
            let phrase = kn.phrases.get(span);
            assert_eq!(sr.span(i), v.start..v.end());
            assert_eq!(v.text, kn.vocab.join(span));
            assert_eq!(v.phrase, phrase);
            let node = phrase.and_then(|p| kn.entities.lookup(p));
            assert_eq!(v.node, node.filter(|_| measure(MeasureSet::T)));
            let want_rules: Vec<RuleId> = match phrase {
                Some(p) if measure(MeasureSet::S) => kn.synonyms.rules_with_side(p).collect(),
                _ => Vec::new(),
            };
            assert_eq!(v.rules, &want_rules[..]);
            let want_grams = if measure(MeasureSet::J) {
                gram_hashes(v.text, cfg.q)
            } else {
                Vec::new()
            };
            assert_eq!(v.grams, &want_grams[..]);
            let key = match phrase {
                _ if v.len == 1 => u64::from(span[0].0),
                Some(p) => SEG_KEY_PHRASE | u64::from(p.0),
                None => panic!("multi-token segment {:?} without phrase", v.text),
            };
            assert_eq!(v.key, key);
            let i = i as u32;
            grams.extend(v.grams.iter().map(|&g| (g, i)));
            rules.extend(v.rules.iter().map(|r| (u64::from(r.0), i)));
            keys.push((v.key, i));
            if v.node.is_some() {
                nodes.push(i);
            }
        }
        for table in [&mut grams, &mut rules, &mut keys] {
            table.sort_unstable();
        }
        let listed = |p: Postings<'_>| p.iter().collect::<Vec<_>>();
        assert_eq!(listed(sr.gram_postings()), grams);
        assert_eq!(listed(sr.rule_postings()), rules);
        assert_eq!(listed(sr.key_postings()), keys);
        assert_eq!(sr.node_segs(), &nodes[..]);
    }

    mod flat_row_props {
        use super::*;
        use proptest::prelude::*;

        /// Rule sides, entities and a typo of `kn_figure1`, plus
        /// multi-byte and one-letter words, so spans, phrases and gram
        /// windows all vary.
        const WORDS: [&str; 14] = [
            "coffee",
            "shop",
            "cafe",
            "latte",
            "espresso",
            "drinks",
            "hot",
            "helsingki",
            "helsinki",
            "cake",
            "tea",
            "żółw",
            "日本",
            "a",
        ];

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn every_view_of_the_flat_row_equals_a_direct_rebuild(
                lines in prop::collection::vec(
                    prop::collection::vec(prop::sample::select(WORDS.to_vec()), 0..9)
                        .prop_map(|w| w.join(" ")),
                    1..6,
                ),
                q in 1usize..5,
                measures in prop::sample::select(MeasureSet::all_combinations().to_vec()),
            ) {
                let mut kn = kn_figure1();
                let cfg = SimConfig { q, ..SimConfig::default() }.with_measures(measures);
                for line in &lines {
                    let id = kn.add_record(line);
                    let tokens = kn.record(id).tokens.clone();
                    assert_row_rebuilds(&kn, &cfg, &tokens, &segment_record(&kn, &cfg, &tokens));
                }
            }
        }
    }
}
