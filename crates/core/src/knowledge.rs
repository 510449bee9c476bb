//! The shared knowledge context: vocabulary, phrases, taxonomy, synonyms.
//!
//! Every similarity computation and every join runs against a [`Knowledge`]
//! value, which owns the interners and the two knowledge sources of the
//! paper (taxonomy hierarchy + synonym rule set) plus a default record
//! corpus for the convenience APIs.

use au_synonym::{Rule, SynonymSet};
use au_taxonomy::{EntityDict, NodeId, Taxonomy, TaxonomyBuilder};
use au_text::record::{Corpus, Record, RecordId};
use au_text::tokenize::{tokenize, TokenizeConfig};
use au_text::{PhraseId, PhraseTable, TokenId, Vocab};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Mint for [`Knowledge::generation`] ids: one per build *and* per
/// vocabulary mutation, so two clones that diverge after the fork can
/// never share a generation (their interners may assign the same fresh
/// token id to different words — artifacts keyed on interned ids must not
/// cross between them).
static NEXT_GENERATION: AtomicU64 = AtomicU64::new(1);

fn mint_generation() -> u64 {
    // ordering: Relaxed — generations only need global uniqueness, which
    // the RMW atomicity of fetch_add guarantees by itself; the staleness
    // checks that *compare* generations always read them through a
    // `&Knowledge`/`&Prepared` whose transfer between threads already
    // establishes the happens-before edge for the stored value.
    NEXT_GENERATION.fetch_add(1, Ordering::Relaxed)
}

/// Immutable-after-build knowledge context.
///
/// Build with [`KnowledgeBuilder`]; add records at any time with
/// [`Knowledge::add_record`] (records only touch the vocabulary, never the
/// taxonomy/synonym structure).
///
/// **Clone cost.** The four knowledge sources are frozen by
/// [`KnowledgeBuilder::build`] and shared by `Arc`; the vocabulary shares
/// its sealed core the same way ([`Vocab`]). A clone therefore costs four
/// reference-count bumps plus a copy of the tokens interned since the
/// vocabulary was last sealed (and of the built-in `corpus`) — independent
/// of how many rules, taxonomy nodes or sealed tokens the context holds.
/// [`KnowledgeBuilder::build`] and [`Knowledge::corpus_from_lines`] seal;
/// the per-line [`Knowledge::push_line`] / [`Knowledge::add_record`] do
/// not (call `kn.vocab.seal()` after a batch of them, before taking
/// clones that should be cheap).
#[derive(Debug, Clone)]
pub struct Knowledge {
    /// Token interner.
    pub vocab: Vocab,
    /// Phrase interner (rule sides, entity names).
    pub phrases: Arc<PhraseTable>,
    /// IS-A hierarchy.
    pub taxonomy: Arc<Taxonomy>,
    /// Phrase → taxonomy node mapping.
    pub entities: Arc<EntityDict>,
    /// Synonym rules.
    pub synonyms: Arc<SynonymSet>,
    /// Default corpus for one-off similarity calls and the examples.
    pub corpus: Corpus,
    /// Tokenizer settings shared by all record ingestion.
    pub tokenize: TokenizeConfig,
    /// Process-unique id minted at [`KnowledgeBuilder::build`] time and
    /// re-minted on every vocabulary mutation ([`Knowledge::add_record`],
    /// [`Knowledge::corpus_from_lines`]). Un-mutated clones share it
    /// (their semantic content is identical); independently built
    /// contexts — or clones that diverged after the fork — never do, even
    /// if one reuses the other's freed memory. Prepared artifacts record
    /// it, so an engine refuses corpora prepared under another context.
    ///
    /// The knowledge sources above are `pub` for their read API only:
    /// they are shared between clones, so the supported workflow is
    /// build-then-read — assemble rules/taxonomy through
    /// [`KnowledgeBuilder`] and rebuild when they change.
    pub(crate) generation: u64,
}

impl Knowledge {
    /// Process-unique identity of this knowledge context (shared by
    /// un-mutated clones, distinct across independent builds and across
    /// post-clone divergence).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Mint and adopt a fresh process-unique generation, returning it.
    ///
    /// Every path that publishes a new knowledge state goes through this
    /// one helper — the in-crate vocabulary mutators below, and external
    /// publishers such as the `au-serve` snapshot swap. Sharing the mint
    /// (one `fetch_add` counter) is what makes a compact-then-shard
    /// sequence safe: artifacts stamped by [`crate::engine::Engine::prepare_sharded`]
    /// and snapshots published by a serving layer can never collide on a
    /// generation, no matter how the two interleave.
    pub fn remint_generation(&mut self) -> u64 {
        self.generation = mint_generation();
        self.generation
    }

    /// Tokenize `text` and append it to the built-in corpus.
    pub fn add_record(&mut self, text: &str) -> RecordId {
        self.remint_generation();
        self.corpus.push_str(text, &mut self.vocab, &self.tokenize)
    }

    /// Borrow a record of the built-in corpus.
    ///
    /// Panics when `id` is out of bounds; service code should prefer
    /// [`Knowledge::try_record`].
    pub fn record(&self, id: RecordId) -> &Record {
        self.corpus.get(id)
    }

    /// Non-panicking [`Knowledge::record`].
    pub fn try_record(&self, id: RecordId) -> Result<&Record, crate::error::AuError> {
        if id.idx() < self.corpus.len() {
            Ok(self.corpus.get(id))
        } else {
            Err(crate::error::AuError::RecordOutOfBounds {
                id: id.0,
                len: self.corpus.len(),
            })
        }
    }

    /// Tokenize a standalone string into a fresh corpus sharing this
    /// knowledge's vocabulary. Seals the vocabulary once the batch is in,
    /// so clones taken afterwards are cheap.
    pub fn corpus_from_lines<'a>(&mut self, lines: impl IntoIterator<Item = &'a str>) -> Corpus {
        self.remint_generation();
        let mut c = Corpus::new();
        for l in lines {
            c.push_str(l, &mut self.vocab, &self.tokenize);
        }
        self.vocab.seal();
        c
    }

    /// Streaming counterpart of [`Self::corpus_from_lines`]: tokenize one
    /// line into a caller-held corpus under this knowledge's vocabulary.
    ///
    /// Feeding lines one at a time through this method produces a corpus
    /// byte-identical to a single `corpus_from_lines` call over the same
    /// sequence (the vocabulary evolves line-by-line either way), without
    /// the caller ever materialising the full line buffer — this is what
    /// keeps large-scale dataset generation memory-bounded.
    pub fn push_line(&mut self, corpus: &mut Corpus, line: &str) -> RecordId {
        self.remint_generation();
        corpus.push_str(line, &mut self.vocab, &self.tokenize)
    }

    /// Longest multi-token span that can be a well-defined segment: the
    /// paper's `k` (max tokens on any rule side or entity phrase), at
    /// least 1.
    pub fn max_segment_span(&self) -> usize {
        self.synonyms
            .max_side_len()
            .max(self.entities.max_phrase_len())
            .max(1)
    }

    /// The claw-freeness bound of Section 2.3: `k + 1`, where `k` is the
    /// paper's "maximal number of tokens in *both sides* of any synonym
    /// rule or taxonomy entity pair".
    ///
    /// A conflict-graph vertex `(P_S, P_T)` covers `|P_S| + |P_T|` tokens
    /// and therefore touches at most that many mutually independent
    /// vertices (each conflicting vertex must claim one of those tokens,
    /// and two independent vertices cannot share one). For synonym-rule
    /// vertices that is `|lhs| + |rhs|`; for taxonomy-pair vertices twice
    /// the longest entity phrase; for single-token pairs 2.
    pub fn claw_bound(&self) -> usize {
        self.synonyms
            .max_pair_len()
            .max(2 * self.entities.max_phrase_len())
            .max(2)
            + 1
    }
}

/// Builder assembling a [`Knowledge`] from plain strings.
#[derive(Debug, Default)]
pub struct KnowledgeBuilder {
    vocab: Vocab,
    phrases: PhraseTable,
    taxonomy: TaxonomyBuilder,
    entities: EntityDict,
    synonyms: SynonymSet,
    tokenize: TokenizeConfig,
}

impl KnowledgeBuilder {
    /// New empty builder with default tokenizer settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Override the tokenizer configuration (affects rules, entity names
    /// and future records alike).
    pub fn tokenizer(&mut self, cfg: TokenizeConfig) -> &mut Self {
        self.tokenize = cfg;
        self
    }

    fn intern_phrase(&mut self, text: &str) -> Option<(PhraseId, usize)> {
        let toks = tokenize(text, &self.tokenize);
        if toks.is_empty() {
            return None;
        }
        let ids: Vec<TokenId> = toks.iter().map(|t| self.vocab.intern(t)).collect();
        let len = ids.len();
        Some((self.phrases.intern(&ids), len))
    }

    /// Intern a pre-tokenized phrase.
    pub fn phrase_from_tokens(&mut self, tokens: &[TokenId]) -> PhraseId {
        self.phrases.intern(tokens)
    }

    /// Add a synonym rule `lhs → rhs` with closeness `c` (Eq. 2).
    ///
    /// Sides that tokenize to nothing are rejected (returns `false`).
    pub fn synonym(&mut self, lhs: &str, rhs: &str, c: f64) -> bool {
        let Some((l, ll)) = self.intern_phrase(lhs) else {
            return false;
        };
        let Some((r, rl)) = self.intern_phrase(rhs) else {
            return false;
        };
        self.synonyms.add(Rule::new(l, r, c), ll, rl);
        true
    }

    /// Add a synonym rule from already-interned phrases.
    pub fn synonym_phrases(&mut self, lhs: PhraseId, rhs: PhraseId, c: f64) {
        let ll = self.phrases.len_of(lhs);
        let rl = self.phrases.len_of(rhs);
        self.synonyms.add(Rule::new(lhs, rhs, c), ll, rl);
    }

    /// Ensure a root-to-leaf taxonomy path exists; each element is an
    /// entity label (possibly multi-token, e.g. `"coffee drinks"`). Every
    /// node on the path is registered as an entity under its label.
    /// Returns the leaf node, or `None` when a label tokenizes to nothing
    /// ([`KnowledgeBuilder::try_taxonomy_path`] reports *which* label).
    pub fn taxonomy_path(&mut self, labels: &[&str]) -> Option<NodeId> {
        let mut interned = Vec::with_capacity(labels.len());
        for l in labels {
            interned.push(self.intern_phrase(l)?);
        }
        let path: Vec<PhraseId> = interned.iter().map(|&(p, _)| p).collect();
        let leaf = self.taxonomy.ensure_path(&path);
        // Register every node on the path as an entity under its label.
        // ensure_path on a prefix is a cheap lookup once the chain exists.
        for i in 1..=path.len() {
            let node = self.taxonomy.ensure_path(&path[..i]);
            let (p, len) = interned[i - 1];
            self.entities.insert(p, len, node);
        }
        Some(leaf)
    }

    /// [`KnowledgeBuilder::taxonomy_path`] with a typed error naming the
    /// label that tokenized to nothing (the path is only modified when
    /// every label is valid).
    pub fn try_taxonomy_path(&mut self, labels: &[&str]) -> Result<NodeId, crate::error::AuError> {
        for l in labels {
            if tokenize(l, &self.tokenize).is_empty() {
                return Err(crate::error::AuError::EmptyPhrase {
                    text: (*l).to_string(),
                });
            }
        }
        if labels.is_empty() {
            return Err(crate::error::AuError::EmptyPhrase {
                text: String::new(),
            });
        }
        Ok(self
            .taxonomy_path(labels)
            .expect("labels pre-validated non-empty"))
    }

    /// [`KnowledgeBuilder::synonym`] with a typed error naming the side
    /// that tokenized to nothing.
    pub fn try_synonym(
        &mut self,
        lhs: &str,
        rhs: &str,
        c: f64,
    ) -> Result<(), crate::error::AuError> {
        for side in [lhs, rhs] {
            if tokenize(side, &self.tokenize).is_empty() {
                return Err(crate::error::AuError::EmptyPhrase {
                    text: side.to_string(),
                });
            }
        }
        assert!(self.synonym(lhs, rhs, c), "sides pre-validated non-empty");
        Ok(())
    }

    /// Add an alias phrase for an existing node.
    pub fn entity_alias(&mut self, node: NodeId, label: &str) -> bool {
        match self.intern_phrase(label) {
            Some((p, len)) => self.entities.insert(p, len, node),
            None => false,
        }
    }

    /// Number of synonym rules so far.
    pub fn rule_count(&self) -> usize {
        self.synonyms.len()
    }

    /// Number of taxonomy nodes so far.
    pub fn node_count(&self) -> usize {
        self.taxonomy.len()
    }

    /// Freeze into a [`Knowledge`]: the sources go behind `Arc`s and the
    /// vocabulary is sealed, so every later clone shares them.
    pub fn build(mut self) -> Knowledge {
        self.vocab.seal();
        Knowledge {
            vocab: self.vocab,
            phrases: Arc::new(self.phrases),
            taxonomy: Arc::new(self.taxonomy.build()),
            entities: Arc::new(self.entities),
            synonyms: Arc::new(self.synonyms),
            corpus: Corpus::new(),
            tokenize: self.tokenize,
            generation: mint_generation(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure1_builder() -> KnowledgeBuilder {
        let mut b = KnowledgeBuilder::new();
        b.synonym("coffee shop", "cafe", 1.0);
        b.synonym("cake", "gateau", 1.0);
        b.taxonomy_path(&["wikipedia", "food", "coffee", "coffee drinks", "latte"]);
        b.taxonomy_path(&["wikipedia", "food", "coffee", "coffee drinks", "espresso"]);
        b.taxonomy_path(&["wikipedia", "food", "cake", "apple cake"]);
        b
    }

    #[test]
    fn builds_figure1_knowledge() {
        let kn = figure1_builder().build();
        assert_eq!(kn.synonyms.len(), 2);
        // wikipedia, food, coffee, coffee drinks, latte, espresso, cake,
        // apple cake = 8 nodes
        assert_eq!(kn.taxonomy.len(), 8);
        assert_eq!(kn.taxonomy.height(), 5);
        // k = 2 ("coffee shop", "coffee drinks", "apple cake")
        assert_eq!(kn.max_segment_span(), 2);
        // paper-k = max tokens across both sides: the ("coffee drinks",
        // "coffee drinks")-style entity pair covers 2+2 tokens → claw 5.
        assert_eq!(kn.claw_bound(), 5);
    }

    #[test]
    fn entities_registered_along_paths() {
        let kn = figure1_builder().build();
        let coffee = kn.vocab.get("coffee").unwrap();
        let p_coffee = kn.phrases.get(&[coffee]).unwrap();
        let n = kn.entities.lookup(p_coffee).unwrap();
        assert_eq!(kn.taxonomy.depth(n), 3);
        // multi-token entity
        let drinks = [
            kn.vocab.get("coffee").unwrap(),
            kn.vocab.get("drinks").unwrap(),
        ];
        let p_drinks = kn.phrases.get(&drinks).unwrap();
        let nd = kn.entities.lookup(p_drinks).unwrap();
        assert_eq!(kn.taxonomy.parent(nd), Some(n));
    }

    #[test]
    fn shared_paths_reuse_nodes() {
        let kn = figure1_builder().build();
        // latte and espresso share the "coffee drinks" parent
        let latte = kn
            .entities
            .lookup(kn.phrases.get(&[kn.vocab.get("latte").unwrap()]).unwrap())
            .unwrap();
        let espresso = kn
            .entities
            .lookup(
                kn.phrases
                    .get(&[kn.vocab.get("espresso").unwrap()])
                    .unwrap(),
            )
            .unwrap();
        assert_eq!(kn.taxonomy.parent(latte), kn.taxonomy.parent(espresso));
        assert!((kn.taxonomy.sim(latte, espresso) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn records_and_corpus() {
        let mut kn = figure1_builder().build();
        let id = kn.add_record("coffee shop latte Helsingki");
        assert_eq!(kn.record(id).len(), 4);
        let extra = kn.corpus_from_lines(["espresso cafe Helsinki"]);
        assert_eq!(extra.len(), 1);
        // both corpora share the vocabulary
        assert!(kn.vocab.get("espresso").is_some());
        assert!(kn.vocab.get("helsingki").is_some());
    }

    #[test]
    fn push_line_streams_identically_to_corpus_from_lines() {
        // The streaming API must evolve the vocabulary (ids) and the
        // corpus exactly as the batch API does — datagen relies
        // on this to stream large corpora without changing a byte.
        let lines = [
            "espresso cafe Helsinki",
            "apple cake coffee shop",
            "latte espresso latte gateau",
        ];
        let mut batch_kn = figure1_builder().build();
        let batch = batch_kn.corpus_from_lines(lines);

        let mut stream_kn = figure1_builder().build();
        let mut stream = Corpus::new();
        for l in lines {
            stream_kn.push_line(&mut stream, l);
        }

        assert_eq!(batch.len(), stream.len());
        for i in 0..batch.len() {
            let id = RecordId(i as u32);
            assert_eq!(batch.get(id).tokens, stream.get(id).tokens);
            assert_eq!(batch.get(id).raw, stream.get(id).raw);
        }
        for w in ["espresso", "cafe", "latte", "gateau"] {
            let tid = batch_kn.vocab.get(w).unwrap();
            assert_eq!(Some(tid), stream_kn.vocab.get(w));
        }
    }

    #[test]
    fn generation_mints_never_collide_across_paths() {
        // Every publish path — builder build, in-place record mutation,
        // explicit remint (the serving layer's snapshot swap), and clones
        // that diverge after a fork — draws from the same process-wide
        // mint, so a compact-then-shard interleaving can never produce two
        // artifacts with the same generation.
        let mut kn = figure1_builder().build();
        let mut seen = vec![kn.generation()];
        kn.add_record("coffee shop latte");
        seen.push(kn.generation());
        let mut forked = kn.clone();
        assert_eq!(forked.generation(), kn.generation());
        seen.push(forked.remint_generation());
        assert_eq!(*seen.last().unwrap(), forked.generation());
        kn.corpus_from_lines(["espresso cafe"]);
        seen.push(kn.generation());
        let mut c = Corpus::new();
        forked.push_line(&mut c, "apple cake");
        seen.push(forked.generation());
        seen.push(KnowledgeBuilder::new().build().generation());
        // All distinct, and every mint observed by this thread is strictly
        // increasing (single fetch_add counter).
        let mut sorted = seen.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), seen.len(), "generation collision: {seen:?}");
        assert!(
            seen.windows(2).all(|w| w[0] < w[1]),
            "non-monotone: {seen:?}"
        );
    }

    #[test]
    fn synonym_rejects_empty_sides() {
        let mut b = KnowledgeBuilder::new();
        assert!(!b.synonym("", "cafe", 1.0));
        assert!(!b.synonym("cafe", "...", 1.0));
        assert_eq!(b.rule_count(), 0);
    }

    #[test]
    fn alias_binds_extra_phrase() {
        let mut b = KnowledgeBuilder::new();
        let leaf = b.taxonomy_path(&["drinks", "espresso"]).unwrap();
        assert!(b.entity_alias(leaf, "short black"));
        let kn = b.build();
        let sb = [
            kn.vocab.get("short").unwrap(),
            kn.vocab.get("black").unwrap(),
        ];
        let p = kn.phrases.get(&sb).unwrap();
        assert_eq!(kn.entities.lookup(p), Some(leaf));
        assert_eq!(kn.max_segment_span(), 2);
    }

    #[test]
    fn empty_knowledge_works() {
        let mut kn = KnowledgeBuilder::new().build();
        assert_eq!(kn.max_segment_span(), 1);
        // Token-pair vertices cover 1+1 tokens → 2 independent
        // neighbours are possible, so the graph is 3-claw-free.
        assert_eq!(kn.claw_bound(), 3);
        let id = kn.add_record("plain tokens only");
        assert_eq!(kn.record(id).len(), 3);
    }
}
