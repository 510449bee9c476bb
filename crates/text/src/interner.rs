//! Token interning.
//!
//! Every token (word) in the system is represented by a dense [`TokenId`].
//! The [`Vocab`] owns the id ↔ string mapping. (The paper's "global
//! order" for pebbles and prefix signatures — Section 3.1, "by the
//! ascending order of frequencies" — is counted by the pebble order over
//! the collections being joined, not here.)

use crate::hash::FxHashMap;
use std::fmt;
use std::sync::Arc;

/// Dense id of an interned token.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TokenId(pub u32);

impl TokenId {
    /// Index form for slice access.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for TokenId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// One level of a [`Vocab`]: strings in interning order plus the reverse
/// map. The map's values are *global* ids, so the tail level (whose first
/// string has the id after the core's last) needs no offset arithmetic on
/// lookup.
#[derive(Debug, Default, Clone)]
struct Level {
    by_str: FxHashMap<Box<str>, TokenId>,
    strings: Vec<Box<str>>,
}

/// String ↔ [`TokenId`] interner.
///
/// Two levels: a frozen **core** shared by `Arc` between clones, and a
/// small append-only **tail** holding the tokens interned since the last
/// [`Vocab::seal`], with ids continuing after the core's. Ids are dense in
/// interning order whichever level a token sits in.
///
/// **Clone cost** is one `Arc` bump plus a copy of the tail — O(tokens
/// interned since the last seal), not O(|vocabulary|). A vocabulary that
/// is never sealed keeps everything in the tail and clones exactly as a
/// flat interner would.
///
/// **Seal contract.** [`Vocab::seal`] folds the tail into the core
/// (O(|vocabulary|) when the core is shared with a clone, O(|tail|) when
/// it is not) and changes no id, string or lookup result — only what the
/// next clone costs. Call it where an O(|vocabulary|) step is being paid
/// anyway and clones are about to be taken.
///
/// **Diverging clones.** Two clones that intern after the fork each grow
/// their own tail: every pre-fork id resolves identically on both, but
/// neither sees the other's post-fork tokens, and both may assign the same
/// fresh id to different words — ids are only comparable within one
/// lineage.
#[derive(Debug, Default, Clone)]
pub struct Vocab {
    core: Arc<Level>,
    tail: Level,
}

impl Vocab {
    /// New empty vocabulary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `s`, returning its id (existing or fresh).
    pub fn intern(&mut self, s: &str) -> TokenId {
        if let Some(id) = self.get(s) {
            return id;
        }
        let id = TokenId(self.len() as u32);
        let owned: Box<str> = s.into();
        self.tail.strings.push(owned.clone());
        self.tail.by_str.insert(owned, id);
        id
    }

    /// Look up an already-interned token.
    pub fn get(&self, s: &str) -> Option<TokenId> {
        self.core
            .by_str
            .get(s)
            .or_else(|| self.tail.by_str.get(s))
            .copied()
    }

    /// The string for `id`. Panics on an id from another vocabulary.
    pub fn resolve(&self, id: TokenId) -> &str {
        let core_len = self.core.strings.len();
        match id.idx().checked_sub(core_len) {
            None => &self.core.strings[id.idx()],
            Some(i) => &self.tail.strings[i],
        }
    }

    /// Number of distinct tokens.
    pub fn len(&self) -> usize {
        self.core.strings.len() + self.tail.strings.len()
    }

    /// True when no token has been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fold the tail into the core so that subsequent clones share every
    /// token interned so far (see the type-level seal contract). No id,
    /// string or lookup changes.
    pub fn seal(&mut self) {
        if self.tail.strings.is_empty() {
            return;
        }
        let core = Arc::make_mut(&mut self.core);
        // det: a map-to-map move — the ids are the values, so the drain
        // order reaches nothing observable.
        core.by_str.extend(self.tail.by_str.drain());
        core.strings.append(&mut self.tail.strings);
    }

    /// Render a token slice back into a space-joined string.
    pub fn join(&self, tokens: &[TokenId]) -> String {
        let mut out = String::new();
        for (i, t) in tokens.iter().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            out.push_str(self.resolve(*t));
        }
        out
    }

    /// Iterate `(id, string)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (TokenId, &str)> {
        self.core
            .strings
            .iter()
            .chain(&self.tail.strings)
            .enumerate()
            .map(|(i, s)| (TokenId(i as u32), s.as_ref()))
    }
}

/// First id of the scratch range: ids at or above this belong to a
/// [`ScratchVocab`] overlay, never to a base [`Vocab`].
///
/// The split keeps overlay ids stable even if the base vocabulary grows
/// after the overlay is created (a base can hold up to 2³¹ tokens; an id
/// can never be claimed by both sides).
pub const SCRATCH_TOKEN_BASE: u32 = 1 << 31;

/// A read-only view over a base [`Vocab`] plus a private overlay for
/// tokens the base has never seen.
///
/// Query-side tokenization needs to assign ids to out-of-vocabulary
/// words, but a shared knowledge context must not be mutated by reads
/// (and `&mut` on the hot search path forces callers to serialize).
/// A `ScratchVocab` interns unknown tokens into its own id range
/// ([`SCRATCH_TOKEN_BASE`]`..`), leaving the base untouched; known tokens
/// resolve to their base ids, so equal text always yields equal ids
/// within one overlay's lifetime.
#[derive(Debug, Clone, Default)]
pub struct ScratchVocab {
    by_str: FxHashMap<Box<str>, TokenId>,
    strings: Vec<Box<str>>,
}

impl ScratchVocab {
    /// New empty overlay.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `s`: the base id when the base knows the token, otherwise a
    /// stable overlay id (fresh on first sight, reused afterwards).
    pub fn intern(&mut self, base: &Vocab, s: &str) -> TokenId {
        if let Some(id) = base.get(s) {
            return id;
        }
        if let Some(&id) = self.by_str.get(s) {
            return id;
        }
        assert!(
            base.len() < SCRATCH_TOKEN_BASE as usize
                && self.strings.len() < SCRATCH_TOKEN_BASE as usize,
            "vocabulary exceeds the scratch id split"
        );
        let id = TokenId(SCRATCH_TOKEN_BASE + self.strings.len() as u32);
        self.strings.push(s.into());
        self.by_str.insert(self.strings.last().unwrap().clone(), id);
        id
    }

    /// The string for `id`, wherever it lives. Panics on an id from
    /// neither side (same contract as [`Vocab::resolve`]).
    pub fn resolve<'a>(&'a self, base: &'a Vocab, id: TokenId) -> &'a str {
        if id.0 >= SCRATCH_TOKEN_BASE {
            &self.strings[(id.0 - SCRATCH_TOKEN_BASE) as usize]
        } else {
            base.resolve(id)
        }
    }

    /// Render a token slice back into a space-joined string (overlay-aware
    /// [`Vocab::join`]).
    pub fn join(&self, base: &Vocab, tokens: &[TokenId]) -> String {
        let mut out = String::new();
        for (i, t) in tokens.iter().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            out.push_str(self.resolve(base, *t));
        }
        out
    }

    /// Clone the overlay strings referenced by `tokens` into a
    /// self-contained per-query snapshot, so segmentation can resolve
    /// surface text *outside* whatever lock guards the overlay (queries
    /// would otherwise serialize through segmentation).
    pub fn snapshot(&self, tokens: &[TokenId]) -> OverlaySnapshot {
        OverlaySnapshot {
            entries: tokens
                .iter()
                .filter(|t| t.0 >= SCRATCH_TOKEN_BASE)
                .map(|&t| (t, self.strings[(t.0 - SCRATCH_TOKEN_BASE) as usize].clone()))
                .collect(),
        }
    }

    /// Number of overlay-only tokens interned so far.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// True when no unknown token has been interned.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }
}

/// A per-query copy of the [`ScratchVocab`] overlay entries one token
/// sequence references (see [`ScratchVocab::snapshot`]). Queries carry a
/// handful of out-of-vocabulary tokens at most, so lookup is a linear
/// scan.
#[derive(Debug, Clone, Default)]
pub struct OverlaySnapshot {
    entries: Vec<(TokenId, Box<str>)>,
}

impl OverlaySnapshot {
    /// The string for `id`: the base vocabulary for ordinary ids, the
    /// snapshot for overlay ids. Panics on an overlay id the snapshot was
    /// not built for (same contract as [`Vocab::resolve`]).
    pub fn resolve<'a>(&'a self, base: &'a Vocab, id: TokenId) -> &'a str {
        if id.0 >= SCRATCH_TOKEN_BASE {
            &self
                .entries
                .iter()
                .find(|(t, _)| *t == id)
                .expect("overlay id missing from snapshot")
                .1
        } else {
            base.resolve(id)
        }
    }

    /// Snapshot-aware [`Vocab::join`].
    pub fn join(&self, base: &Vocab, tokens: &[TokenId]) -> String {
        let mut out = String::new();
        for (i, t) in tokens.iter().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            out.push_str(self.resolve(base, *t));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut v = Vocab::new();
        let a = v.intern("coffee");
        let b = v.intern("coffee");
        assert_eq!(a, b);
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn resolve_roundtrip() {
        let mut v = Vocab::new();
        let ids: Vec<_> = ["espresso", "cafe", "helsinki"]
            .iter()
            .map(|s| v.intern(s))
            .collect();
        for (i, s) in ["espresso", "cafe", "helsinki"].iter().enumerate() {
            assert_eq!(v.resolve(ids[i]), *s);
            assert_eq!(v.get(s), Some(ids[i]));
        }
        assert_eq!(v.get("latte"), None);
    }

    #[test]
    fn seal_changes_no_id_and_makes_clones_share_the_core() {
        let mut v = Vocab::new();
        let words = ["espresso", "cafe", "helsinki"];
        let ids: Vec<_> = words.iter().map(|w| v.intern(w)).collect();
        let unsealed = v.clone();
        assert!(unsealed.core.strings.is_empty(), "nothing sealed yet");
        assert_eq!(unsealed.tail.strings.len(), 3, "an unsealed clone copies");
        v.seal();
        v.seal(); // idempotent
        for (w, id) in words.iter().zip(&ids) {
            assert_eq!(v.get(w), Some(*id));
            assert_eq!(v.resolve(*id), *w);
            assert_eq!(v.intern(w), *id, "re-interning a sealed word is a lookup");
        }
        assert_eq!(v.len(), 3);
        let sealed = v.clone();
        assert!(Arc::ptr_eq(&sealed.core, &v.core), "one Arc bump");
        assert!(sealed.tail.strings.is_empty(), "and an empty tail to copy");
        // Ids continue after the core.
        assert_eq!(v.intern("latte"), TokenId(3));
        assert_eq!(v.resolve(TokenId(3)), "latte");
        assert_eq!(v.get("latte"), Some(TokenId(3)));
    }

    #[test]
    fn clones_that_diverge_after_a_seal_keep_their_own_tails() {
        let mut a = Vocab::new();
        let pre: Vec<_> = ["coffee", "shop"].iter().map(|w| a.intern(w)).collect();
        a.seal();
        let mut b = a.clone();
        let a_new = a.intern("plaza");
        let b_new = b.intern("avenue");
        let b_second = b.intern("boulevard");
        // Every pre-fork id resolves identically on both sides.
        for &id in &pre {
            assert_eq!(a.resolve(id), b.resolve(id));
        }
        // Both sides assign the same fresh id to different words — ids are
        // comparable only within one lineage — and neither tail leaks.
        assert_eq!(a_new, b_new);
        assert_eq!(a.resolve(a_new), "plaza");
        assert_eq!(b.resolve(b_new), "avenue");
        assert_eq!(a.get("avenue"), None);
        assert_eq!(b.get("plaza"), None);
        assert_eq!((a.len(), b.len()), (3, 4));
        assert_eq!(b_second, TokenId(3));
        // iter() is interning order across both levels.
        let listed: Vec<_> = b.iter().map(|(id, s)| (id.0, s)).collect();
        assert_eq!(
            listed,
            vec![(0, "coffee"), (1, "shop"), (2, "avenue"), (3, "boulevard")]
        );
        // Sealing one side leaves the other's view untouched.
        b.seal();
        assert!(
            !Arc::ptr_eq(&a.core, &b.core),
            "b's seal copied, not shared"
        );
        assert_eq!(a.len(), 3);
        assert_eq!(a.resolve(a_new), "plaza");
        assert_eq!(b.resolve(b_new), "avenue");
        assert_eq!(b.join(&[pre[0], b_second]), "coffee boulevard");
    }

    #[test]
    fn join_renders_spaces() {
        let mut v = Vocab::new();
        let c = v.intern("coffee");
        let s = v.intern("shop");
        assert_eq!(v.join(&[c, s]), "coffee shop");
        assert_eq!(v.join(&[]), "");
    }

    #[test]
    fn scratch_overlay_reuses_known_ids_and_mints_stable_fresh_ones() {
        let mut base = Vocab::new();
        let coffee = base.intern("coffee");
        let mut scratch = ScratchVocab::new();
        assert_eq!(scratch.intern(&base, "coffee"), coffee);
        let novel = scratch.intern(&base, "qwyjibo");
        assert!(novel.0 >= SCRATCH_TOKEN_BASE);
        assert_eq!(scratch.intern(&base, "qwyjibo"), novel);
        assert_eq!(scratch.resolve(&base, novel), "qwyjibo");
        assert_eq!(scratch.resolve(&base, coffee), "coffee");
        assert_eq!(scratch.len(), 1);
        // Base growth after overlay creation cannot collide with overlay
        // ids: new base ids stay below the split.
        let late = base.intern("latecomer");
        assert!(late.0 < SCRATCH_TOKEN_BASE);
        assert_eq!(scratch.intern(&base, "latecomer"), late);
        assert_eq!(scratch.join(&base, &[coffee, novel]), "coffee qwyjibo");
        let snap = scratch.snapshot(&[coffee, novel]);
        assert_eq!(snap.join(&base, &[coffee, novel]), "coffee qwyjibo");
        assert_eq!(snap.resolve(&base, novel), "qwyjibo");
    }

    #[test]
    fn iter_order_matches_ids() {
        let mut v = Vocab::new();
        v.intern("x");
        v.intern("y");
        let all: Vec<_> = v.iter().map(|(id, s)| (id.0, s.to_string())).collect();
        assert_eq!(all, vec![(0, "x".to_string()), (1, "y".to_string())]);
    }
}
