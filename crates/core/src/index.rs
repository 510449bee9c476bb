//! Pebble inverted index (the `L_S` / `L_T` of Algorithms 3 and 6).
//!
//! Keys are signature pebbles; values are the record ids whose signature
//! contains the key. Signatures are key *sets* (a record lists each key at
//! most once), so the τ-overlap count of Algorithm 6 counts distinct
//! common pebbles.
//!
//! [`CsrIndex`] is one `PebbleKey → (offset, len)` table over a single
//! flattened postings arena (compressed sparse row), probed
//! record-at-a-time with an epoch-stamped dense [`OverlapCounter`]:
//! overlap counts live in a plain `Vec<u32>` indexed by record id, so
//! counting one posting entry is an array increment instead of a hash-map
//! probe on a packed pair key. Per-record distinct keys come from
//! [`RecordKeys`], the flattened output of signature selection.
//!
//! [`OverlapCounter::probe`] is the one scan: read each of the probe's
//! posting lists, count the records already admitted, and decide at a
//! record's *first touch* whether it is admitted at all:
//!
//! * **τ-skip** — when only `rem` of the probe's keys remain (current list
//!   included), a record not yet touched can accumulate at most `rem`
//!   overlaps, so it is admitted only when `rem` still covers its overlap
//!   demand `min(τ, level_probe, level_record).max(1)`;
//! * **compatibility** — the verifier's tier-0 record-level bound
//!   `USIM ≤ min(|S|,|T|) / max(MP(S),MP(T))` evaluated from cached
//!   integers; pairs whose bound falls below `θ − ε` would be rejected by
//!   verification tier 0 anyway, so they are dropped here, before they
//!   are ever materialized.
//!
//! Neither test skips *reading* a posting entry, so the processed-pairs
//! count `Tτ` of Eq. 16 is the plain sum of the scanned list lengths.
//!
//! ## Why there is no positional bound
//!
//! A PPJoin-style bound `overlap_so_far + min(keys left in S, keys left in
//! T) < demand` cannot remove a candidate here. Keys are distinct and both
//! sides are scanned in one total order; a record the τ-skip refuses at its
//! first shared key is refused at every later one (`rem` only shrinks), so
//! an admitted record's final count is exactly its number of shared keys.
//! The positional expression is an upper bound on that final count, hence a
//! record it kills ends below its demand and fails the emission test
//! anyway. (Measured before its removal: 0 candidates cut on every
//! workload; see `docs/ARCHITECTURE.md`.)
//!
//! ## Why there is no *weighted* (mass) bound either
//!
//! Tracking matched pebble *mass* per pair against the `(θ − ε) · max(MP)`
//! demand, the way the signature selectors budget mass via AS
//! (Definition 4), cannot be made both sound and useful: the probe
//! observes only `sig(S) ∩ sig(T)`, yet a key can be shared through one
//! side's *non-signature tail*. Covering that unseen mass requires
//! charging the bound with a full tail's AS — and the selectors cut
//! prefixes precisely so each tail holds *just under* `θ · MP` of mass,
//! which drives any such bound's slack to ≈ 0.

use crate::pebble::PebbleKey;
use au_text::FxHashMap;
use std::hash::Hash;

/// Per-record distinct signature keys in one flattened arena.
///
/// `keys[offsets[r] .. offsets[r + 1]]` holds record `r`'s distinct
/// signature keys, sorted by `PebbleKey` order. This is both the probe
/// side of a join (each record's key set is streamed against the other
/// side's [`CsrIndex`]) and the single input of
/// [`CsrIndex::from_record_keys`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordKeys {
    offsets: Vec<u32>,
    keys: Vec<PebbleKey>,
}

impl Default for RecordKeys {
    /// An empty corpus (the `offsets` sentinel is an invariant:
    /// `offsets.len() == records + 1`).
    fn default() -> Self {
        Self {
            offsets: vec![0],
            keys: Vec::new(),
        }
    }
}

impl RecordKeys {
    /// Flatten per-record signature key sets — each distinct and sorted by
    /// `PebbleKey` order, as [`crate::join::record_signature`] emits them —
    /// into one arena.
    pub fn build(per_record: &[Vec<PebbleKey>]) -> Self {
        let mut out = Self::default();
        out.offsets.reserve(per_record.len());
        out.keys.reserve(per_record.iter().map(Vec::len).sum());
        per_record.iter().for_each(|ks| out.push(ks));
        out
    }

    /// The arena of the records `kept` (ids into this one) followed by
    /// `appended`'s, copied arena to arena — no per-record allocation.
    /// (The cost is first touch of the new arena, ≈ 0.7 µs per KiB; copying
    /// run by run between dropped rows measured no faster.)
    pub(crate) fn carry(&self, kept: impl Iterator<Item = u32>, appended: &Self) -> Self {
        let mut out = Self::default();
        out.keys.reserve(self.keys.len() + appended.keys.len());
        kept.for_each(|r| out.push(self.get(r)));
        (0..appended.len() as u32).for_each(|r| out.push(appended.get(r)));
        out
    }

    /// Append one record's key set (distinct, sorted).
    pub(crate) fn push(&mut self, keys: &[PebbleKey]) {
        debug_assert!(
            keys.windows(2).all(|w| w[0] < w[1]),
            "record key sets must be sorted and distinct"
        );
        self.keys.extend_from_slice(keys);
        // u32 offsets keep the arena cache-dense; a corpus whose flattened
        // key count crosses 2^32 must fail loudly, not wrap.
        let end = u32::try_from(self.keys.len());
        self.offsets
            .push(end.expect("signature key arena exceeds u32 offsets"));
    }

    /// Record `r`'s distinct keys (sorted).
    pub fn get(&self, r: u32) -> &[PebbleKey] {
        let (a, b) = (self.offsets[r as usize], self.offsets[r as usize + 1]);
        &self.keys[a as usize..b as usize]
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True when no record is present.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Signature length (distinct keys) of one record.
    pub fn sig_len(&self, r: u32) -> u32 {
        self.offsets[r as usize + 1] - self.offsets[r as usize]
    }

    /// Mean signature length over all records (Figure 3a/5a metric).
    pub fn avg_sig_len(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.keys.len() as f64 / self.len() as f64
    }

    /// Heap footprint in bytes (length-based, deterministic).
    pub fn memory_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<u32>()
            + self.keys.len() * std::mem::size_of::<PebbleKey>()
    }
}

/// A transposed posting table: key → the ascending ids of the records
/// carrying it, one `key → slot` directory over a single postings arena
/// (compressed sparse row). The signature index ([`CsrIndex`]) and the
/// verifier's [`crate::usim::GramPostingsIndex`] tables are both this.
#[derive(Debug, Clone)]
pub struct Transposed<K> {
    /// Key → slot. Slot `k` owns `postings[offsets[k] .. offsets[k + 1]]`.
    slots: FxHashMap<K, u32>,
    offsets: Vec<u32>,
    postings: Vec<u32>,
    /// Records covered: ids `0..records` (of a range's table, its end).
    records: usize,
}

/// The signature inverted index of one join side (the `L_S` / `L_T` of
/// Algorithms 3 and 6), probed with [`OverlapCounter::probe`].
pub type CsrIndex = Transposed<PebbleKey>;

impl<K> Default for Transposed<K> {
    fn default() -> Self {
        Self {
            slots: FxHashMap::default(),
            offsets: vec![0],
            postings: Vec::new(),
            records: 0,
        }
    }
}

impl CsrIndex {
    /// Build from per-record distinct key sets — in one range: a signature
    /// keeps a record's *rarest* keys, so lists are short and cutting the
    /// records up would only buy directories to merge.
    pub fn from_record_keys(rk: &RecordKeys) -> Self {
        Self::build_range(0, rk.len() as u32, &|r, keys| {
            keys.extend_from_slice(rk.get(r))
        })
    }
}

impl<K: Copy + Eq + Hash> Transposed<K> {
    /// The table of records `lo..hi` (ids stay corpus-wide), `keys_into(r,
    /// buf)` filling the empty `buf` with record `r`'s **distinct** keys:
    /// count → prefix-sum → scatter with one hash per `(record, key)` —
    /// the counting pass notes each key's slot, the scatter replays the
    /// notes in record order, so every list is ascending. Ranges built on
    /// several threads are joined by [`Transposed::concat`].
    pub(crate) fn build_range(lo: u32, hi: u32, keys_into: &impl Fn(u32, &mut Vec<K>)) -> Self {
        let mut slots: FxHashMap<K, u32> = FxHashMap::default();
        let mut counts: Vec<u32> = Vec::new();
        // Slot of every `(record, key)`, records back to back, and how
        // many each record contributed.
        let (mut noted, mut lens) = (Vec::new(), Vec::with_capacity((hi - lo) as usize));
        let mut keys: Vec<K> = Vec::new();
        for r in lo..hi {
            keys.clear();
            keys_into(r, &mut keys);
            for &key in &keys {
                let next = counts.len() as u32;
                let slot = slots.get(&key).copied().unwrap_or(next);
                if slot == next {
                    slots.insert(key, next);
                    counts.push(0);
                }
                counts[slot as usize] += 1;
                noted.push(slot);
            }
            lens.push(keys.len());
        }
        let offsets = prefix_sums(&counts, noted.len());
        let mut cursor: Vec<u32> = offsets[..counts.len()].to_vec();
        let mut postings = vec![0u32; noted.len()];
        let mut noted = noted.into_iter();
        for (r, len) in (lo..hi).zip(lens) {
            for slot in noted.by_ref().take(len) {
                let at = &mut cursor[slot as usize];
                postings[*at as usize] = r;
                *at += 1;
            }
        }
        Self {
            slots,
            offsets,
            postings,
            records: hi as usize,
        }
    }

    /// The table of consecutive record ranges from the ranges' own tables:
    /// a key's list is its lists in range order, back to back; slots are
    /// numbered as keys first appear in that order.
    pub(crate) fn concat(mut parts: Vec<Self>) -> Self {
        if parts.len() <= 1 {
            return parts.pop().unwrap_or_default();
        }
        let mut slots: FxHashMap<K, u32> = FxHashMap::default();
        let mut counts: Vec<u32> = Vec::new();
        // Per part: the merged slot of each of its slots.
        let mut merged: Vec<Vec<u32>> = Vec::new();
        for part in &parts {
            let mut keys: Vec<Option<K>> = vec![None; part.slots.len()];
            // det: every key lands at its own slot's index, whatever
            // order the map yields them in.
            for (&key, &slot) in part.slots.iter() {
                keys[slot as usize] = Some(key);
            }
            let lens = part.offsets.windows(2).map(|w| w[1] - w[0]);
            let slot_of = |(key, len)| {
                let next = counts.len() as u32;
                let slot = *slots.entry(key).or_insert(next);
                if slot == next {
                    counts.push(0);
                }
                counts[slot as usize] += len;
                slot
            };
            merged.push(keys.into_iter().flatten().zip(lens).map(slot_of).collect());
        }
        let total = parts.iter().map(|p| p.postings.len()).sum();
        let offsets = prefix_sums(&counts, total);
        let mut cursor: Vec<u32> = offsets[..counts.len()].to_vec();
        let mut postings = vec![0u32; total];
        for (part, merged) in parts.iter().zip(&merged) {
            for (list, &slot) in part.offsets.windows(2).zip(merged) {
                let list = &part.postings[list[0] as usize..list[1] as usize];
                let at = &mut cursor[slot as usize];
                postings[*at as usize..*at as usize + list.len()].copy_from_slice(list);
                *at += list.len() as u32;
            }
        }
        Self {
            slots,
            offsets,
            postings,
            records: parts.last().map_or(0, |p| p.records),
        }
    }

    /// Ids of the records carrying `key` (ascending), `None` when no
    /// record does.
    pub fn get(&self, key: K) -> Option<&[u32]> {
        self.slots.get(&key).map(|&slot| {
            let (a, b) = (self.offsets[slot as usize], self.offsets[slot as usize + 1]);
            &self.postings[a as usize..b as usize]
        })
    }

    /// Number of distinct keys.
    pub fn key_count(&self) -> usize {
        self.slots.len()
    }

    /// Number of indexed records.
    pub fn record_count(&self) -> usize {
        self.records
    }

    /// Total posting entries (the arena length).
    pub fn posting_count(&self) -> usize {
        self.postings.len()
    }

    /// Heap footprint in bytes (length-based; the hash map is counted at
    /// one entry's payload per key so the figure stays deterministic
    /// across load-factor/capacity differences).
    pub fn memory_bytes(&self) -> usize {
        self.slots.len() * std::mem::size_of::<(K, u32)>()
            + self.offsets.len() * std::mem::size_of::<u32>()
            + self.postings.len() * std::mem::size_of::<u32>()
    }
}

/// `[0, c0, c0 + c1, …]`: the CSR offsets of lists of the given lengths,
/// `total` postings in all (u32 keeps the arena cache-dense; a table
/// crossing 2^32 postings must fail loudly, not wrap).
fn prefix_sums(counts: &[u32], total: usize) -> Vec<u32> {
    assert!(
        u32::try_from(total).is_ok(),
        "postings arena exceeds u32 offsets ({total} postings)"
    );
    let mut sum = 0u32;
    let sums = counts.iter().map(|&c| {
        sum += c;
        sum
    });
    std::iter::once(0).chain(sums).collect()
}

/// Epoch-stamped dense overlap counter: the probe-side scratch of the CSR
/// index.
///
/// `counts[r]` is valid only while `stamps[r] == epoch`; bumping the epoch
/// at the start of every probe invalidates every count in O(1), so one
/// counter serves millions of probes with no clearing pass and no
/// per-pair hashing. Size it to the *indexed* side once and reuse it for
/// every probe (see [`crate::parallel::par_map_scratch`] for the parallel
/// sharing pattern).
#[derive(Debug, Clone)]
pub struct OverlapCounter {
    counts: Vec<u32>,
    stamps: Vec<u32>,
    epoch: u32,
    /// Records admitted by the current probe (stamped *and* compatible);
    /// the only ids the emission pass looks at.
    touched: Vec<u32>,
}

/// Funnel telemetry of one [`OverlapCounter::probe`] call.
///
/// Every field is a pure function of the probe inputs (the loop is
/// sequential per probe), so per-record stats — and any sum of them over
/// a deterministic probe set — are identical across runs, thread counts
/// and hosts. The perf gate exact-matches them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeStats {
    /// Posting entries read (`Tτ` contribution, Eq. 16): rejection never
    /// skips reading an entry.
    pub processed: u64,
    /// Pairs refused at first touch by the tier-0 compatibility bound
    /// `min(|S|,|T|) / max(MP(S),MP(T)) < θ − ε`.
    pub compat_rejected: u64,
}

impl ProbeStats {
    /// Accumulate another probe's stats (used when folding per-record
    /// outcomes into a join-level total).
    pub fn merge(&mut self, other: &ProbeStats) {
        self.processed += other.processed;
        self.compat_rejected += other.compat_rejected;
    }
}

/// Inputs of the in-probe compatibility bound ([`OverlapCounter::probe`]).
///
/// `tier0` holds the indexed side's cached `(|T|, MP(T))` integers (one
/// per record id); `probe_tier0` is the probe record's `(|S|, MP(S))`;
/// `min_sim` is `θ − ε` — exactly the verifier's acceptance threshold, so
/// a pair rejected here is a pair tier-0 verification would reject.
#[derive(Debug, Clone, Copy)]
pub struct CompatBound<'a> {
    /// Indexed-side `(n_tokens, min_partition)` per record id.
    pub tier0: &'a [(u32, u32)],
    /// Probe-side `(n_tokens, min_partition)`.
    pub probe_tier0: (u32, u32),
    /// `θ − ε`: the verifier's acceptance threshold.
    pub min_sim: f64,
}

/// The verifier's tier-0 record-level bound `USIM ≤ min(|S|,|T|) /
/// max(MP(S),MP(T))` from cached integers (mirrors
/// [`crate::engine::Engine::usim_upper_bound`], including the empty-record
/// conventions — the two must agree or filtering would not be sound).
#[inline]
fn tier0_upper_bound(ns: u32, mps: u32, nt: u32, mpt: u32) -> f64 {
    if ns == 0 && nt == 0 {
        1.0
    } else if ns == 0 || nt == 0 {
        0.0
    } else {
        ns.min(nt) as f64 / mps.max(mpt) as f64
    }
}

/// The in-probe compatibility decision on two records' tier-0 integers
/// `(n_tokens, min_partition)`: false when the pair's tier-0 bound is
/// already below `min_sim` (`θ − ε`). The one formula behind the indexed
/// probe's first-touch reject and the filterless scan's row screen.
#[inline]
pub(crate) fn tier0_compatible(probe: (u32, u32), rec: (u32, u32), min_sim: f64) -> bool {
    tier0_upper_bound(probe.0, probe.1, rec.0, rec.1) >= min_sim
}

impl OverlapCounter {
    /// Counter for an indexed side of `n_records` records.
    pub fn new(n_records: usize) -> Self {
        Self {
            counts: vec![0; n_records],
            stamps: vec![0; n_records],
            epoch: 0,
            touched: Vec::new(),
        }
    }

    /// Start a new probe: O(1) invalidation of all counts.
    fn begin(&mut self) {
        if self.epoch == u32::MAX {
            // Epoch wrap (once per 2^32 probes): hard-clear the stamps so
            // stale `stamps[r] == epoch` coincidences are impossible.
            self.stamps.iter_mut().for_each(|s| *s = 0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.touched.clear();
    }

    /// Count distinct-key overlaps between one probe record and every
    /// indexed record, appending the ids whose overlap reaches
    /// `min(τ, probe_level, levels[id]).max(1)` — and whose tier-0 bound
    /// reaches `compat.min_sim` — to `out` in ascending order.
    ///
    /// * `keys` — the probe record's distinct signature keys;
    /// * `levels` — per indexed record guarantee levels (see
    ///   [`crate::signature::SignatureChoice`]);
    /// * `min_excl` — for self-joins: only ids strictly greater than this
    ///   are counted, so every pair is produced exactly once.
    ///
    /// A record's fate is settled at its first posting: refused by the
    /// τ-skip it stays unstamped (and is refused again at any later key,
    /// since `rem` only shrinks); refused by the compatibility bound it is
    /// stamped but never enters `touched`, so its later postings land in
    /// the plain increment branch and the emission pass never sees it.
    #[allow(clippy::too_many_arguments)]
    pub fn probe(
        &mut self,
        index: &CsrIndex,
        keys: &[PebbleKey],
        probe_level: u32,
        tau: u32,
        levels: &[u32],
        min_excl: Option<u32>,
        compat: &CompatBound<'_>,
        out: &mut Vec<u32>,
    ) -> ProbeStats {
        debug_assert!(self.counts.len() >= index.record_count());
        self.begin();
        // Maximum demand any indexed record can pose against this probe.
        let dmax = tau.min(probe_level).max(1);
        let mut stats = ProbeStats::default();
        let epoch = self.epoch;
        let m = keys.len();
        for (i, &key) in keys.iter().enumerate() {
            let Some(mut list) = index.get(key) else {
                continue;
            };
            if let Some(a) = min_excl {
                list = &list[list.partition_point(|&b| b <= a)..];
            }
            stats.processed += list.len() as u64;
            let rem = (m - i) as u32;
            for &b in list {
                let bi = b as usize;
                if self.stamps[bi] == epoch {
                    self.counts[bi] += 1;
                    continue;
                }
                // τ-skip (`rem ≥ dmax` covers every record's demand, so
                // the level lookup is only paid on the probe's tail keys).
                if rem < dmax && rem < dmax.min(levels[bi]).max(1) {
                    continue;
                }
                self.stamps[bi] = epoch;
                self.counts[bi] = 1;
                if tier0_compatible(compat.probe_tier0, compat.tier0[bi], compat.min_sim) {
                    self.touched.push(b);
                } else {
                    stats.compat_rejected += 1;
                }
            }
        }
        self.touched.sort_unstable();
        for &b in &self.touched {
            let bi = b as usize;
            if self.counts[bi] >= dmax.min(levels[bi]).max(1) {
                out.push(b);
            }
        }
        stats
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    impl<K: Copy + Ord + Hash> Transposed<K> {
        /// Every `(key, list)`, by key — the table's whole content, free
        /// of slot numbering (what the builder-equivalence tests compare).
        pub(crate) fn sorted_lists(&self) -> Vec<(K, Vec<u32>)> {
            let mut lists: Vec<(K, Vec<u32>)> = (self.slots.keys())
                .map(|&k| (k, self.get(k).expect("listed key").to_vec()))
                .collect();
            lists.sort_unstable();
            lists
        }
    }

    /// The sort-based transposition `Transposed` replaced — gather every
    /// `(key, record)` pair, sort, group — kept as the test oracle.
    pub(crate) fn transpose_by_sorting<K: Ord + Copy>(
        n_records: usize,
        keys_into: impl Fn(u32, &mut Vec<K>),
    ) -> Vec<(K, Vec<u32>)> {
        let (mut pairs, mut keys) = (Vec::new(), Vec::new());
        for r in 0..n_records as u32 {
            keys.clear();
            keys_into(r, &mut keys);
            pairs.extend(keys.iter().map(|&k| (k, r)));
        }
        pairs.sort_unstable();
        let mut lists: Vec<(K, Vec<u32>)> = Vec::new();
        for (k, r) in pairs {
            match lists.last_mut() {
                Some((last, list)) if *last == k => list.push(r),
                _ => lists.push((k, vec![r])),
            }
        }
        lists
    }

    /// A record's key set from gram ids in any order, repeats allowed.
    fn gram_keys(ids: &[u64]) -> Vec<PebbleKey> {
        let mut keys: Vec<PebbleKey> = ids.iter().map(|&g| PebbleKey::Gram(g)).collect();
        keys.sort_unstable();
        keys.dedup();
        keys
    }

    fn record_keys(recs: &[&[u64]]) -> RecordKeys {
        let per_record: Vec<Vec<PebbleKey>> = recs.iter().map(|r| gram_keys(r)).collect();
        RecordKeys::build(&per_record)
    }

    fn index_of(recs: &[&[u64]]) -> CsrIndex {
        CsrIndex::from_record_keys(&record_keys(recs))
    }

    /// Tier-0 integers under which the compatibility bound never fires
    /// (`min_sim = 0`), isolating the overlap count and the τ-skip.
    fn loose(tier0: &[(u32, u32)]) -> CompatBound<'_> {
        CompatBound {
            tier0,
            probe_tier0: (1, 1),
            min_sim: 0.0,
        }
    }

    #[test]
    fn builds_postings() {
        let idx = index_of(&[&[1, 2], &[2, 3]]);
        assert_eq!(idx.get(PebbleKey::Gram(1)), Some(&[0u32][..]));
        assert_eq!(idx.get(PebbleKey::Gram(2)), Some(&[0u32, 1][..]));
        assert_eq!(idx.get(PebbleKey::Gram(3)), Some(&[1u32][..]));
        assert_eq!(idx.get(PebbleKey::Gram(9)), None);
        assert_eq!(idx.key_count(), 3);
        assert_eq!(idx.record_count(), 2);
        assert_eq!(idx.posting_count(), 4);
    }

    #[test]
    fn dedups_keys_within_record() {
        // The dedup happens where the keys are selected: "aa aa" has the
        // pebble `Gram("aa")` in both segments, and its signature — the
        // whole list at θ = 0 — lists the key once.
        use crate::engine::JoinSpec;
        use crate::join::{record_signature, SignatureScratch};
        let mut kn = crate::knowledge::KnowledgeBuilder::new().build();
        let cfg = crate::config::SimConfig::default();
        let id = kn.add_record("aa aa");
        let sr = crate::segment::segment_record(&kn, &cfg, &kn.record(id).tokens);
        let (choice, keys) = record_signature(
            &kn,
            &cfg,
            &crate::pebble::PebbleOrder::default(),
            &JoinSpec::threshold(0.0),
            &sr,
            &mut SignatureScratch::default(),
        );
        assert_eq!(choice.len, 2);
        let gram = PebbleKey::Gram(crate::segment::hash_gram("aa"));
        assert_eq!(keys, vec![gram]);
        let rk = RecordKeys::build(&[keys]);
        assert_eq!(rk.sig_len(0), 1);
        let idx = CsrIndex::from_record_keys(&rk);
        assert_eq!(idx.get(gram), Some(&[0u32][..]));
    }

    #[test]
    fn avg_sig_len() {
        let rk = record_keys(&[&[1, 2], &[2], &[]]);
        assert!((rk.avg_sig_len() - 1.0).abs() < 1e-12);
        let none = record_keys(&[]);
        assert_eq!(none.avg_sig_len(), 0.0);
    }

    #[test]
    fn mixed_key_kinds_are_distinct() {
        use au_taxonomy::NodeId;
        use au_text::PhraseId;
        let a = vec![
            PebbleKey::Gram(7),
            PebbleKey::Rule(PhraseId(7)),
            PebbleKey::Node(NodeId(7)),
        ];
        let rk = RecordKeys::build(&[a]);
        assert_eq!(rk.sig_len(0), 3);
        assert_eq!(CsrIndex::from_record_keys(&rk).key_count(), 3);
    }

    #[test]
    fn probe_counts_distinct_overlaps() {
        let idx = index_of(&[&[1, 2, 3], &[2, 3], &[9]]);
        let levels = vec![3, 2, 1];
        let tier0 = vec![(1, 1); 3];
        let mut ctr = OverlapCounter::new(idx.record_count());
        let mut out = Vec::new();
        // Probe with keys {2, 3}: overlaps → rec0: 2, rec1: 2, rec2: 0.
        let stats = ctr.probe(
            &idx,
            &gram_keys(&[2, 3]),
            2,
            2,
            &levels,
            None,
            &loose(&tier0),
            &mut out,
        );
        assert_eq!(out, vec![0, 1]);
        assert_eq!(stats.processed, 4); // lists for 2 and 3 each hold 2 entries
        assert_eq!(stats.compat_rejected, 0);
    }

    #[test]
    fn probe_respects_min_excl_for_self_joins() {
        let idx = index_of(&[&[1], &[1], &[1]]);
        let levels = vec![1, 1, 1];
        let tier0 = vec![(1, 1); 3];
        let mut ctr = OverlapCounter::new(3);
        let mut out = Vec::new();
        let stats = ctr.probe(
            &idx,
            &gram_keys(&[1]),
            1,
            1,
            &levels,
            Some(1),
            &loose(&tier0),
            &mut out,
        );
        assert_eq!(out, vec![2]); // only ids > 1
        assert_eq!(stats.processed, 1);
    }

    #[test]
    fn tau_skip_drops_hopeless_candidates_only() {
        // Probe has 2 keys; τ = 2. A record sharing only the *last* key can
        // reach 1 < 2 overlaps — it must be skipped; a record sharing both
        // stays.
        let idx = index_of(&[&[1, 2], &[2]]);
        let tier0 = vec![(1, 1); 2];
        let keys = gram_keys(&[1, 2]);
        let mut ctr = OverlapCounter::new(2);
        let mut out = Vec::new();
        ctr.probe(&idx, &keys, 2, 2, &[2, 2], None, &loose(&tier0), &mut out);
        assert_eq!(out, vec![0]);
        // A level-1 record first seen on the last key still qualifies
        // (demand min(τ, levels) = 1).
        out.clear();
        ctr.probe(&idx, &keys, 2, 2, &[2, 1], None, &loose(&tier0), &mut out);
        assert_eq!(out, vec![0, 1]);
    }

    #[test]
    fn counter_epochs_do_not_leak_across_probes() {
        let idx = index_of(&[&[1, 2]]);
        let tier0 = vec![(1, 1)];
        let keys = gram_keys(&[1, 2]);
        let mut ctr = OverlapCounter::new(1);
        let mut out = Vec::new();
        for _ in 0..100 {
            out.clear();
            ctr.probe(&idx, &keys, 2, 2, &[2], None, &loose(&tier0), &mut out);
            assert_eq!(out, vec![0]); // exactly 2 overlaps every round, never 4
        }
    }

    #[test]
    fn compat_bound_rejects_incompatible_lengths_at_first_touch() {
        // Probe tier0 (2, 1) vs record 1 tier0 (30, 15): upper bound
        // min(2,30)/max(1,15) = 2/15 < 0.9 → compat-rejected at first
        // touch. Record 0 is same-sized and survives.
        let idx = index_of(&[&[1, 2], &[1, 2]]);
        let tier0 = vec![(2, 1), (30, 15)];
        let compat = CompatBound {
            tier0: &tier0,
            probe_tier0: (2, 1),
            min_sim: 0.9,
        };
        let keys = gram_keys(&[1, 2]);
        let mut ctr = OverlapCounter::new(2);
        let mut out = Vec::new();
        let stats = ctr.probe(&idx, &keys, 2, 2, &[2, 2], None, &compat, &mut out);
        assert_eq!(out, vec![0]);
        assert_eq!(stats.compat_rejected, 1, "counted once, not per posting");
        assert_eq!(stats.processed, 4, "rejected entries still count toward Tτ");
        // The rejection does not leak into the next probe epoch.
        out.clear();
        ctr.probe(&idx, &keys, 2, 2, &[2, 2], None, &loose(&tier0), &mut out);
        assert_eq!(out, vec![0, 1]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The count → prefix-sum → scatter builder against the sort-based
        /// one it replaced, whole and cut into any number of ranges: same
        /// key set, same ascending id lists (records with no keys and an
        /// empty corpus included), and the CSR shape holds together.
        #[test]
        fn transposed_equals_the_sort_based_builder(
            recs in prop::collection::vec(prop::collection::vec(0u64..40, 0..9), 0..30),
            cuts in 1usize..6,
        ) {
            let sets: Vec<Vec<u64>> = recs.iter().map(|r| {
                let mut r = r.clone();
                r.sort_unstable();
                r.dedup();
                r
            }).collect();
            let keys_into = |r: u32, out: &mut Vec<u64>| out.extend_from_slice(&sets[r as usize]);
            let want = transpose_by_sorting(sets.len(), keys_into);
            let n = sets.len() as u32;
            let whole = Transposed::build_range(0, n, &keys_into);
            prop_assert_eq!(&whole.sorted_lists(), &want);
            let bound = |p: usize| (sets.len() * p / cuts) as u32;
            let parts = (0..cuts).map(|p| Transposed::build_range(bound(p), bound(p + 1), &keys_into));
            let joined = Transposed::concat(parts.collect());
            prop_assert_eq!(&joined.sorted_lists(), &want);
            for t in [&whole, &joined] {
                prop_assert_eq!(t.key_count(), want.len());
                prop_assert_eq!(t.posting_count(), sets.iter().map(Vec::len).sum::<usize>());
                prop_assert_eq!(t.offsets.len(), t.key_count() + 1);
                prop_assert_eq!(t.memory_bytes(), whole.memory_bytes());
            }
        }

        /// Carrying an arena across a merge against flattening the same
        /// key sets afresh: any kept set (none, all, runs), any tail.
        #[test]
        fn carried_arena_equals_the_rebuilt_one(
            recs in prop::collection::vec(prop::collection::vec(0u64..12, 0..6), 0..14),
            drop in prop::collection::vec(prop::bool::weighted(0.4), 14),
            tail in prop::collection::vec(prop::collection::vec(0u64..12, 0..6), 0..5),
        ) {
            let sets = |recs: &[Vec<u64>]| -> Vec<Vec<PebbleKey>> {
                recs.iter().map(|r| gram_keys(r)).collect()
            };
            let (base, tail) = (sets(&recs), sets(&tail));
            let kept = || (0..base.len()).filter(|&r| !drop[r]);
            let want: Vec<_> = kept().map(|r| base[r].clone()).chain(tail.iter().cloned()).collect();
            let got = RecordKeys::build(&base).carry(kept().map(|r| r as u32), &RecordKeys::build(&tail));
            prop_assert_eq!(got, RecordKeys::build(&want));
        }

        /// The scan against its definition on random key sets: `b` is
        /// reported ⇔ `|keys(probe) ∩ keys(b)| ≥ max(1, min(τ, level_probe,
        /// level_b))` and the tier-0 bound holds (and `b > min_excl`);
        /// `Tτ` is the summed posting-list lengths. Equality with the
        /// *full* intersection size is the executable form of the
        /// positional-bound argument in the module docs: admission happens
        /// at the first shared key or never, so no early-termination bound
        /// can change the reported set.
        #[test]
        fn probe_matches_definition(
            recs in prop::collection::vec(prop::collection::vec(0u64..12, 0..8), 1..10),
            probe in prop::collection::vec(0u64..12, 0..8),
            levels in prop::collection::vec(1u32..5, 10),
            tier0 in prop::collection::vec((0u32..6, 1u32..4), 10),
            probe_level in 1u32..5,
            probe_tier0 in (0u32..6, 1u32..4),
            tau in 1u32..5,
            min_sim in 0.0f64..1.2,
            min_excl in prop::sample::select(vec![None, Some(0u32), Some(3)]),
        ) {
            let recs: Vec<&[u64]> = recs.iter().map(|r| r.as_slice()).collect();
            let rk = record_keys(&recs);
            let idx = CsrIndex::from_record_keys(&rk);
            let keys = &gram_keys(&probe)[..];
            let compat = CompatBound { tier0: &tier0, probe_tier0, min_sim };
            let mut ctr = OverlapCounter::new(idx.record_count());
            let mut got = Vec::new();
            let stats = ctr.probe(&idx, keys, probe_level, tau, &levels, min_excl, &compat, &mut got);

            let in_range = |b: u32| min_excl.is_none_or(|a| b > a);
            let mut want = Vec::new();
            let mut processed = 0u64;
            let mut compat_rejected = 0u64;
            for b in 0..rk.len() as u32 {
                if !in_range(b) {
                    continue;
                }
                let shared = keys.iter().filter(|k| rk.get(b).contains(k)).count() as u32;
                processed += shared as u64;
                let demand = tau.min(probe_level).min(levels[b as usize]).max(1);
                let (nt, mpt) = tier0[b as usize];
                let compatible =
                    tier0_upper_bound(probe_tier0.0, probe_tier0.1, nt, mpt) >= min_sim;
                if shared >= demand {
                    if compatible {
                        want.push(b);
                    } else {
                        compat_rejected += 1;
                    }
                }
            }
            prop_assert_eq!(got, want);
            prop_assert_eq!(stats.processed, processed);
            // The counter covers every incompatible record the τ-skip
            // admits — a superset of those that reach their demand.
            prop_assert!(stats.compat_rejected >= compat_rejected);
        }
    }
}
