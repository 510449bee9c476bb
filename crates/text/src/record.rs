//! String records and corpora.
//!
//! A [`Record`] is one string of a join collection, kept both in raw form
//! (for display and gram extraction) and as interned tokens (for segment
//! detection). A [`Corpus`] owns a batch of records whose tokens are
//! interned in one shared [`Vocab`].

use crate::interner::{TokenId, Vocab};
use crate::tokenize::{tokenize, TokenizeConfig};

/// Dense id of a record inside one corpus.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct RecordId(pub u32);

impl RecordId {
    /// Index form for slice access.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// One string record.
#[derive(Debug, Clone)]
pub struct Record {
    /// Position of the record in its corpus.
    pub id: RecordId,
    /// Interned token sequence.
    pub tokens: Vec<TokenId>,
    /// Original raw text (post-tokenization it may differ in case/punctuation).
    pub raw: String,
}

impl Record {
    /// Number of tokens.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// True for records that tokenized to nothing.
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }
}

/// A batch of records sharing one vocabulary.
#[derive(Debug, Default, Clone)]
pub struct Corpus {
    records: Vec<Record>,
}

impl Corpus {
    /// New empty corpus.
    pub fn new() -> Self {
        Self::default()
    }

    /// Tokenize and append one string; returns its id.
    pub fn push_str(&mut self, text: &str, vocab: &mut Vocab, cfg: &TokenizeConfig) -> RecordId {
        let ids = tokenize(text, cfg)
            .iter()
            .map(|t| vocab.intern(t))
            .collect();
        self.push_tokens(ids, text.to_string())
    }

    /// Append a pre-tokenized record.
    pub fn push_tokens(&mut self, tokens: Vec<TokenId>, raw: String) -> RecordId {
        let id = RecordId(self.records.len() as u32);
        self.records.push(Record { id, tokens, raw });
        id
    }

    /// Borrow a record.
    pub fn get(&self, id: RecordId) -> &Record {
        &self.records[id.idx()]
    }

    /// All records.
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    /// The records by value, in id order (a consumer that regroups them
    /// moves tokens and text instead of cloning).
    pub fn into_records(self) -> Vec<Record> {
        self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no records are present.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Iterate records.
    pub fn iter(&self) -> impl Iterator<Item = &Record> {
        self.records.iter()
    }

    /// Build a corpus from an iterator of lines.
    pub fn from_lines<'a, I: IntoIterator<Item = &'a str>>(
        lines: I,
        vocab: &mut Vocab,
        cfg: &TokenizeConfig,
    ) -> Self {
        let mut c = Self::new();
        for l in lines {
            c.push_str(l, vocab, cfg);
        }
        c
    }

    /// Deep heap footprint in bytes (length-based, deterministic): every
    /// record's token buffer and raw text plus the record table itself.
    pub fn memory_bytes(&self) -> usize {
        let mut total = std::mem::size_of::<Self>();
        for r in &self.records {
            total += std::mem::size_of::<Record>();
            total += r.tokens.len() * std::mem::size_of::<TokenId>();
            total += r.raw.len();
        }
        total
    }

    /// Corpus restricted to the records selected by `keep[i]`.
    ///
    /// Record ids are re-densified; the mapping `new → old` is returned
    /// alongside so samples can be traced back (used by the Bernoulli
    /// sampler of Section 4).
    pub fn filter(&self, mut keep: impl FnMut(&Record) -> bool) -> (Corpus, Vec<RecordId>) {
        let mut out = Corpus::new();
        let mut back = Vec::new();
        for r in &self.records {
            if keep(r) {
                back.push(r.id);
                out.push_tokens(r.tokens.clone(), r.raw.clone());
            }
        }
        (out, back)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_str_interns_and_counts() {
        let mut v = Vocab::new();
        let cfg = TokenizeConfig::default();
        let mut c = Corpus::new();
        let id = c.push_str("coffee shop coffee", &mut v, &cfg);
        let r = c.get(id);
        assert_eq!(r.len(), 3);
        assert_eq!(r.tokens[0], r.tokens[2]);
        // a later record re-uses the interned id
        let again = c.push_str("coffee", &mut v, &cfg);
        assert_eq!(c.get(again).tokens, vec![v.get("coffee").unwrap()]);
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn from_lines_preserves_order() {
        let mut v = Vocab::new();
        let cfg = TokenizeConfig::default();
        let c = Corpus::from_lines(["alpha beta", "gamma"], &mut v, &cfg);
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(RecordId(0)).raw, "alpha beta");
        assert_eq!(c.get(RecordId(1)).raw, "gamma");
    }

    #[test]
    fn filter_redensifies_ids() {
        let mut v = Vocab::new();
        let cfg = TokenizeConfig::default();
        let c = Corpus::from_lines(["a", "b", "c"], &mut v, &cfg);
        let (sub, back) = c.filter(|r| r.raw != "b");
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.get(RecordId(0)).raw, "a");
        assert_eq!(sub.get(RecordId(1)).raw, "c");
        assert_eq!(back, vec![RecordId(0), RecordId(2)]);
    }

    #[test]
    fn empty_record_allowed() {
        let mut v = Vocab::new();
        let cfg = TokenizeConfig::default();
        let mut c = Corpus::new();
        let id = c.push_str("...", &mut v, &cfg);
        assert!(c.get(id).is_empty());
    }
}
