//! Pebble inverted index (the `L_S` / `L_T` of Algorithms 3 and 6).
//!
//! Keys are signature pebbles, each named by its `u32` rank in the join's
//! global order ([`crate::pebble::PebbleOrder`]) — the one thing the
//! filter asks of a pebble; values are the record ids whose signature
//! contains the key. Signatures are key *sets* (a record lists each key at
//! most once), so the τ-overlap count of Algorithm 6 counts distinct
//! common pebbles.
//!
//! [`CsrIndex`] is `offsets[rank]` over a single flattened postings arena
//! (compressed sparse row) — no hash directory: finding a key's list is
//! two loads — probed record-at-a-time with a dense [`OverlapCounter`]:
//! overlap counts live in a plain `Vec<u32>` indexed by record id, so
//! counting one posting entry is an array increment instead of a hash-map
//! probe on a packed pair key. Per-record ranks come from [`RecordKeys`],
//! the flattened output of signature selection.
//!
//! [`OverlapCounter::probe`] is one scan and one emission pass. The scan
//! reads each of the probe's posting lists and does one load and one add
//! per entry — it counts every record and logs each record's *first
//! touch* (the record and the probe key it was first seen at), with no
//! data-dependent branch. The emission pass settles each logged record
//! exactly as a test at its first touch would:
//!
//! * **τ-skip** — when only `rem` of the probe's keys remain (current list
//!   included), a record not yet touched can accumulate at most `rem`
//!   overlaps, so it is admitted only when `rem` at its first touch still
//!   covers its overlap demand `min(τ, level_probe, level_record).max(1)`;
//! * **compatibility** — the tier-0 record-level bound
//!   `USIM ≤ min(|S|,|T|) / max(MP(S),MP(T))`, decided as two integer
//!   cuts on the record's cached `(|T|, MP(T))` ([`Tier0Window`]); pairs
//!   whose bound falls below `θ − ε` could never be accepted by
//!   verification, so they are dropped here, before they are ever
//!   materialized;
//! * **demand** — an admitted, compatible record is a candidate when its
//!   count reaches its demand.
//!
//! Candidates are marked in a bitmap of one bit per indexed record and
//! read out word by word over the range the hits touched, so they leave
//! in ascending id order without a sort.
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
//! workload; see `docs/ARCHITECTURE.md`.) The same argument is why the
//! emission pass may decide the τ-skip after the scan, from the first
//! touch alone.
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

use crate::pebble::UNSEEN_RANK;
use au_text::FxHashMap;

/// Per-record signature keys, as ranks, in one flattened arena.
///
/// `keys[offsets[r] .. offsets[r + 1]]` holds the ranks of record `r`'s
/// distinct signature keys, listed in `PebbleKey` order — the order
/// [`crate::join::record_signature`] emits them in and the probe walks
/// them in (its τ-skip reads a key's place in the list), not rank order.
/// A ranked key appears once; a key the order never saw (a query's) is
/// [`UNSEEN_RANK`], once per distinct such key. This is both the probe
/// side of a join (each record's ranks are streamed against the other
/// side's [`CsrIndex`]) and the single input of
/// [`CsrIndex::from_record_keys`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordKeys {
    offsets: Vec<u32>,
    keys: Vec<u32>,
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
    /// Flatten per-record signature ranks — as
    /// [`crate::join::record_signature`] emits them — into one arena.
    pub fn build(per_record: &[Vec<u32>]) -> Self {
        let mut out = Self::default();
        out.offsets.reserve(per_record.len());
        out.keys.reserve(per_record.iter().map(Vec::len).sum());
        per_record.iter().for_each(|ks| out.push(ks));
        out
    }

    /// The arena of the records `kept` (ids into this one), each rank `r`
    /// renumbered to `renumbered[r]`, followed by `appended`'s, copied
    /// arena to arena — no per-record allocation. (The cost is first touch
    /// of the new arena, ≈ 0.7 µs per KiB; copying run by run between
    /// dropped rows measured no faster.)
    pub(crate) fn carry(
        &self,
        kept: impl Iterator<Item = u32>,
        renumbered: &[u32],
        appended: &Self,
    ) -> Self {
        let mut out = Self::default();
        out.keys.reserve(self.keys.len() + appended.keys.len());
        for r in kept {
            let keys = self.get(r).iter().map(|&k| renumbered[k as usize]);
            out.keys.extend(keys);
            out.close_record();
        }
        (0..appended.len() as u32).for_each(|r| out.push(appended.get(r)));
        debug_assert!(!out.keys.contains(&UNSEEN_RANK), "a kept key left");
        out
    }

    /// Append one record's ranks.
    pub(crate) fn push(&mut self, keys: &[u32]) {
        self.keys.extend_from_slice(keys);
        self.close_record();
    }

    /// End the record whose ranks were appended last.
    fn close_record(&mut self) {
        // u32 offsets keep the arena cache-dense; a corpus whose flattened
        // key count crosses 2^32 must fail loudly, not wrap.
        let end = u32::try_from(self.keys.len());
        self.offsets
            .push(end.expect("signature key arena exceeds u32 offsets"));
    }

    /// Record `r`'s ranks, in `PebbleKey` order.
    pub fn get(&self, r: u32) -> &[u32] {
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
        (self.offsets.len() + self.keys.len()) * std::mem::size_of::<u32>()
    }
}

/// A transposed posting table: key → the ascending ids of the records
/// carrying it, one `key → slot` directory over a single postings arena
/// (compressed sparse row) — the verifier's
/// [`crate::usim::GramPostingsIndex`] tables, whose gram and rule keys
/// have no dense numbering. (Signature keys are ranks, so the signature
/// index needs no directory: [`CsrIndex`].)
#[derive(Debug, Clone)]
pub struct Transposed {
    /// Key → slot. Slot `k` owns `postings[offsets[k] .. offsets[k + 1]]`.
    slots: FxHashMap<u64, u32>,
    offsets: Vec<u32>,
    postings: Vec<u32>,
    /// Records covered: ids `0..records` (of a range's table, its end).
    records: usize,
}

impl Default for Transposed {
    fn default() -> Self {
        Self {
            slots: FxHashMap::default(),
            offsets: vec![0],
            postings: Vec::new(),
            records: 0,
        }
    }
}

/// The signature inverted index of one join side (the `L_S` / `L_T` of
/// Algorithms 3 and 6), probed with [`OverlapCounter::probe`]: rank `k`'s
/// list — the ascending ids of the records whose signature holds key `k`
/// — is `postings[offsets[k] .. offsets[k + 1]]` of one postings arena.
/// `offsets` runs to the highest rank the side's signatures hold, so a
/// rank past it, [`UNSEEN_RANK`] included, has the empty list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrIndex {
    offsets: Vec<u32>,
    postings: Vec<u32>,
    /// Records covered: ids `0..records`.
    records: usize,
}

impl Default for CsrIndex {
    fn default() -> Self {
        Self {
            offsets: vec![0],
            postings: Vec::new(),
            records: 0,
        }
    }
}

impl CsrIndex {
    /// Build from per-record ranks: count → prefix-sum → scatter, records
    /// in id order, so every list ascends. In one range: a signature keeps
    /// a record's *rarest* keys, so lists are short and cutting the
    /// records up would only buy tables to merge.
    pub fn from_record_keys(rk: &RecordKeys) -> Self {
        let ranked = || rk.keys.iter().copied().filter(|&k| k != UNSEEN_RANK);
        let width = ranked().max().map_or(0, |k| k as usize + 1);
        // `offsets[k + 1]` holds rank `k`'s list length, then where the
        // list starts, and once the scatter has advanced it past every
        // entry, where the list ends: the CSR offsets.
        let mut offsets = vec![0u32; width + 1];
        ranked().for_each(|k| offsets[k as usize + 1] += 1);
        let mut start = 0;
        for slot in &mut offsets[1..] {
            (*slot, start) = (start, start + *slot);
        }
        let mut postings = vec![0u32; start as usize];
        for r in 0..rk.len() as u32 {
            for &k in rk.get(r).iter().filter(|&&k| k != UNSEEN_RANK) {
                let at = &mut offsets[k as usize + 1];
                postings[*at as usize] = r;
                *at += 1;
            }
        }
        Self {
            offsets,
            postings,
            records: rk.len(),
        }
    }

    /// Ids of the records whose signature holds rank `rank` (ascending;
    /// empty when none does).
    #[inline]
    pub fn get(&self, rank: u32) -> &[u32] {
        let k = rank as usize;
        if k + 1 < self.offsets.len() {
            &self.postings[self.offsets[k] as usize..self.offsets[k + 1] as usize]
        } else {
            &[]
        }
    }

    /// Number of ranks with a non-empty list.
    pub fn key_count(&self) -> usize {
        self.offsets.windows(2).filter(|w| w[0] < w[1]).count()
    }

    /// Number of indexed records.
    pub fn record_count(&self) -> usize {
        self.records
    }

    /// Total posting entries (the arena length).
    pub fn posting_count(&self) -> usize {
        self.postings.len()
    }

    /// Heap footprint in bytes (length-based, deterministic).
    pub fn memory_bytes(&self) -> usize {
        (self.offsets.len() + self.postings.len()) * std::mem::size_of::<u32>()
    }
}

impl Transposed {
    /// The table of records `lo..hi` (ids stay corpus-wide), `keys_into(r,
    /// buf)` filling the empty `buf` with record `r`'s **distinct** keys:
    /// count → prefix-sum → scatter with one hash per `(record, key)` —
    /// the counting pass notes each key's slot, the scatter replays the
    /// notes in record order, so every list is ascending. Ranges built on
    /// several threads are joined by [`Transposed::concat`].
    pub(crate) fn build_range(lo: u32, hi: u32, keys_into: &impl Fn(u32, &mut Vec<u64>)) -> Self {
        let mut slots: FxHashMap<u64, u32> = FxHashMap::default();
        let mut counts: Vec<u32> = Vec::new();
        // Slot of every `(record, key)`, records back to back, and how
        // many each record contributed.
        let (mut noted, mut lens) = (Vec::new(), Vec::with_capacity((hi - lo) as usize));
        let mut keys: Vec<u64> = Vec::new();
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
        let mut slots: FxHashMap<u64, u32> = FxHashMap::default();
        let mut counts: Vec<u32> = Vec::new();
        // Per part: the merged slot of each of its slots.
        let mut merged: Vec<Vec<u32>> = Vec::new();
        for part in &parts {
            let mut keys: Vec<Option<u64>> = vec![None; part.slots.len()];
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
    pub fn get(&self, key: u64) -> Option<&[u32]> {
        self.span(key)
            .map(|(a, b)| &self.postings[a as usize..b as usize])
    }

    /// Where `key`'s list sits in [`Transposed::arena`], `None` when no
    /// record carries it: a lookup a caller can keep and read again.
    pub(crate) fn span(&self, key: u64) -> Option<(u32, u32)> {
        (self.slots.get(&key))
            .map(|&slot| (self.offsets[slot as usize], self.offsets[slot as usize + 1]))
    }

    /// Every list back to back.
    pub(crate) fn arena(&self) -> &[u32] {
        &self.postings
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
        self.slots.len() * std::mem::size_of::<(u64, u32)>()
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

/// Dense overlap counter: the probe-side scratch of the CSR index.
///
/// `counts[r]` is record `r`'s overlap with the current probe, and the
/// first-touch log lists every record the probe touched, with the probe
/// key it was first touched at. The emission pass zeroes exactly the
/// counts the probe raised and marks each hit in a bitmap, which it then
/// reads out in id order, zeroing every word it reads — so every probe
/// starts from all-zero counts and an all-zero bitmap with no clearing
/// pass, no per-pair hashing and no sort. Size it to the *indexed* side
/// once and reuse it for every probe (see
/// [`crate::parallel::par_map_scratch`] for the parallel sharing pattern).
#[derive(Debug, Clone)]
pub struct OverlapCounter {
    counts: Vec<u32>,
    /// `(record, index of its first shared probe key)`, first touches in
    /// scan order; one slot more than there are records, because the scan
    /// writes a slot on every posting and advances only on a first touch.
    log: Vec<(u32, u32)>,
    /// The current probe's hits, bit `r % 64` of word `r / 64`.
    hits: Vec<u64>,
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
    /// Pairs the τ-skip admits at their first touch and the tier-0
    /// compatibility bound `min(|S|,|T|) / max(MP(S),MP(T)) < θ − ε`
    /// refuses — once per pair, whatever its overlap.
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
/// a pair rejected here is one verification could never accept.
#[derive(Debug, Clone, Copy)]
pub struct CompatBound<'a> {
    /// Indexed-side `(n_tokens, min_partition)` per record id.
    pub tier0: &'a [(u32, u32)],
    /// Probe-side `(n_tokens, min_partition)`.
    pub probe_tier0: (u32, u32),
    /// `θ − ε`: the verifier's acceptance threshold (≤ 1).
    pub min_sim: f64,
}

/// The tier-0 record-level bound `USIM ≤ min(|S|,|T|) /
/// max(MP(S),MP(T))` from cached integers, and `usim_approx`'s value
/// when a side is empty (1 for both, else 0). Sound because every matched
/// pair scores `msim ≤ 1`, an independent set has at most `min(|S|, |T|)`
/// pairs (each consumes a token per side), and Eq. 6's denominator is at
/// least `max(MP(S), MP(T))` (matched + residual segments partition each
/// side). Also [`crate::engine::Engine::usim_upper_bound`].
#[inline]
pub(crate) fn tier0_upper_bound(ns: u32, mps: u32, nt: u32, mpt: u32) -> f64 {
    if ns == 0 && nt == 0 {
        1.0
    } else if ns == 0 || nt == 0 {
        0.0
    } else {
        ns.min(nt) as f64 / mps.max(mpt) as f64
    }
}

/// The tier-0 bound of one probe record `S` as two integer cuts on a
/// partner `T`: `fl(min(|S|,|T|) / max(MP(S),MP(T))) ≥ min_sim` holds for
/// a non-empty `T` exactly when `|T| ≥ L` and `MP(T) ≤ U`, where `L` is the
/// least `|T|` with `fl(|T| / MP(S)) ≥ min_sim` and `U` the greatest
/// `MP(T)` with `fl(|S| / MP(T)) ≥ min_sim` (and no `T` when
/// `fl(|S| / MP(S))` already falls short, or `S` is empty).
///
/// Exact because correctly rounded division is monotone in both operands,
/// so the bound is the least of the four quotients `fl(|·| / MP(·))`, and
/// the fourth, `fl(|T| / MP(T))`, is ≥ 1 ≥ `min_sim` — which needs
/// `MP ≤ n_tokens` (segmentation asserts it) and `min_sim ≤ 1` (θ ≤ 1).
/// The one tier-0 test behind the probe's first-touch reject, the
/// filterless scan's row screen and a query's window plan
/// ([`crate::search::QueryPlan::Window`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tier0Window {
    /// `L`: the fewest tokens a partner may have (≥ 1).
    min_tokens: u32,
    /// `U`: the largest minimum partition a partner may have.
    max_mp: u32,
}

impl Tier0Window {
    /// Admits nothing.
    const CLOSED: Self = Self {
        min_tokens: u32::MAX,
        max_mp: 0,
    };

    /// The window of a probe record with tier-0 integers `(|S|, MP(S))`
    /// at acceptance threshold `min_sim` (`θ − ε`): two binary searches
    /// over monotone quotients.
    pub fn new((ns, mps): (u32, u32), min_sim: f64) -> Self {
        debug_assert!(mps <= ns && min_sim <= 1.0, "({ns}, {mps}) at {min_sim}");
        let reaches = |num: u64, den: u64| num as f64 / den as f64 >= min_sim;
        if ns == 0 || !reaches(ns.into(), mps.into()) {
            return Self::CLOSED;
        }
        // The first `x` in `lo..=hi` where `ok(x)` holds, given that
        // `ok(hi)` does and `ok` is monotone non-decreasing.
        let first = |mut lo: u64, mut hi: u64, ok: &dyn Fn(u64) -> bool| {
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if ok(mid) {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            hi
        };
        let min_tokens = first(1, ns.into(), &|nt| reaches(nt, mps.into()));
        // The greatest `MP(T)` reaching it is one below the first that
        // does not (`u32::MAX + 1` when none does).
        let past = u64::from(u32::MAX) + 1;
        let max_mp = first(mps.into(), past, &|mpt| {
            mpt == past || !reaches(ns.into(), mpt)
        }) - 1;
        Self {
            min_tokens: min_tokens as u32,
            max_mp: max_mp as u32,
        }
    }

    /// Whether a partner with tier-0 integers `(|T|, MP(T))` passes the
    /// bound. An empty partner never does.
    #[inline]
    pub fn admits(self, (nt, mpt): (u32, u32)) -> bool {
        nt >= self.min_tokens && mpt <= self.max_mp
    }
}

impl OverlapCounter {
    /// Counter for an indexed side of `n_records` records.
    pub fn new(n_records: usize) -> Self {
        Self {
            counts: vec![0; n_records],
            log: vec![(0, 0); n_records + 1],
            hits: vec![0; n_records.div_ceil(64)],
        }
    }

    /// Grow to fit an indexed side of `n_records` records, as a fresh
    /// counter (a no-op when it already fits).
    pub(crate) fn fit(&mut self, n_records: usize) {
        if self.counts.len() < n_records {
            *self = Self::new(n_records);
        }
    }

    /// Count distinct-key overlaps between one probe record and every
    /// indexed record, and append the ids whose overlap reaches
    /// `min(τ, probe_level, levels[id]).max(1)` — and whose tier-0 bound
    /// reaches `compat.min_sim` — to `out`, ascending: read out of the hit
    /// bitmap over the range of words the hits touched.
    ///
    /// * `keys` — the probe record's signature ranks, in `PebbleKey`
    ///   order ([`RecordKeys::get`]); an [`UNSEEN_RANK`] reads no list but
    ///   is one of the `m` keys the τ-skip counts;
    /// * `levels` — per indexed record guarantee levels (see
    ///   [`crate::signature::SignatureChoice`]);
    /// * `min_excl` — for self-joins: only ids strictly greater than this
    ///   are counted, so every pair is produced exactly once.
    ///
    /// The scan is one load and one add per posting: it counts every
    /// record and logs its first touch. The emission pass then settles
    /// each logged record from its first key index `i₀` — the τ-skip with
    /// `rem = m − i₀` (a record refused there would be refused at every
    /// later key, since `rem` only shrinks), then the compatibility bound
    /// (counted once per record), then `count ≥ demand`, setting its hit
    /// bit — and zeroes its count. The read-out costs one word per 64 ids
    /// between the lowest hit and the highest.
    #[allow(clippy::too_many_arguments)]
    pub fn probe(
        &mut self,
        index: &CsrIndex,
        keys: &[u32],
        probe_level: u32,
        tau: u32,
        levels: &[u32],
        min_excl: Option<u32>,
        compat: &CompatBound<'_>,
        out: &mut Vec<u32>,
    ) -> ProbeStats {
        debug_assert!(self.counts.len() >= index.record_count());
        // Maximum demand any indexed record can pose against this probe.
        let dmax = tau.min(probe_level).max(1);
        let mut stats = ProbeStats::default();
        let window = Tier0Window::new(compat.probe_tier0, compat.min_sim);
        let m = keys.len();
        let mut touched = 0;
        for (i, &key) in keys.iter().enumerate() {
            let mut list = index.get(key);
            if let Some(a) = min_excl {
                list = &list[list.partition_point(|&b| b <= a)..];
            }
            stats.processed += list.len() as u64;
            for &b in list {
                let count = &mut self.counts[b as usize];
                self.log[touched] = (b, i as u32);
                touched += usize::from(*count == 0);
                *count += 1;
            }
        }
        // The touched word range: `lo..hi`, empty until a hit.
        let (mut lo, mut hi) = (self.hits.len(), 0);
        for &(b, i0) in &self.log[..touched] {
            let bi = b as usize;
            let count = std::mem::take(&mut self.counts[bi]);
            let demand = dmax.min(levels[bi]).max(1);
            if m - (i0 as usize) < demand as usize {
                continue; // τ-skip
            }
            if !window.admits(compat.tier0[bi]) {
                stats.compat_rejected += 1;
            } else if count >= demand {
                self.hits[bi / 64] |= 1 << (bi % 64);
                lo = lo.min(bi / 64);
                hi = hi.max(bi / 64 + 1);
            }
        }
        for w in lo..hi {
            let mut word = std::mem::take(&mut self.hits[w]);
            while word != 0 {
                out.push((w * 64) as u32 + word.trailing_zeros());
                word &= word - 1;
            }
        }
        stats
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    impl Transposed {
        /// Every `(key, list)`, by key — the table's whole content, free
        /// of slot numbering (what the builder-equivalence tests compare).
        pub(crate) fn sorted_lists(&self) -> Vec<(u64, Vec<u32>)> {
            let mut lists: Vec<(u64, Vec<u32>)> = (self.slots.keys())
                .map(|&k| (k, self.get(k).expect("listed key").to_vec()))
                .collect();
            lists.sort_unstable();
            lists
        }
    }

    impl CsrIndex {
        /// Every non-empty `(rank, list)`, by rank — what the memo
        /// coherence check compares.
        pub(crate) fn sorted_lists(&self) -> Vec<(u32, Vec<u32>)> {
            let ranks = 0..self.offsets.len() as u32 - 1;
            let lists = ranks.map(|k| (k, self.get(k).to_vec()));
            lists.filter(|(_, list)| !list.is_empty()).collect()
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

    /// A record's signature ranks from ranks in any order, repeats
    /// allowed: each rank once, where it first appears — a signature lists
    /// its ranks in key order, not rank order — and every `UNSEEN_RANK`
    /// (each stands for a distinct unseen key).
    fn rank_keys(ids: &[u32]) -> Vec<u32> {
        let mut keys: Vec<u32> = Vec::new();
        for &k in ids {
            if k == UNSEEN_RANK || !keys.contains(&k) {
                keys.push(k);
            }
        }
        keys
    }

    fn record_keys(recs: &[&[u32]]) -> RecordKeys {
        let per_record: Vec<Vec<u32>> = recs.iter().map(|r| rank_keys(r)).collect();
        RecordKeys::build(&per_record)
    }

    fn index_of(recs: &[&[u32]]) -> CsrIndex {
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
        let idx = index_of(&[&[1, 2], &[3, 2]]);
        assert_eq!(idx.get(1), &[0u32][..]);
        assert_eq!(idx.get(2), &[0u32, 1][..]);
        assert_eq!(idx.get(3), &[1u32][..]);
        assert!(idx.get(0).is_empty() && idx.get(9).is_empty());
        assert!(idx.get(UNSEEN_RANK).is_empty());
        assert_eq!(idx.key_count(), 3);
        assert_eq!(idx.record_count(), 2);
        assert_eq!(idx.posting_count(), 4);
    }

    #[test]
    fn dedups_keys_within_record() {
        // The dedup happens where the keys are selected: "aa aa" has the
        // pebble `Gram("aa")` in both segments, and its signature — the
        // whole list at θ = 0 — lists the key once: its rank under an
        // order that ranks it, the unseen rank once under one that does
        // not.
        use crate::engine::JoinSpec;
        use crate::join::{record_signature, SignatureScratch};
        use crate::pebble::{PebbleKey, PebbleOrder};
        let mut kn = crate::knowledge::KnowledgeBuilder::new().build();
        let cfg = crate::config::SimConfig::default();
        let id = kn.add_record("aa aa");
        let sr = crate::segment::segment_record(&kn, &cfg, &kn.record(id).tokens);
        let gram = PebbleKey::Gram(crate::segment::hash_gram("aa"));
        let ranked = PebbleOrder::from_ranking([PebbleKey::Gram(1), gram]);
        for (order, rank) in [(ranked, 1), (PebbleOrder::default(), UNSEEN_RANK)] {
            let (choice, keys) = record_signature(
                &kn,
                &cfg,
                &order,
                &JoinSpec::threshold(0.0),
                &sr,
                &mut SignatureScratch::default(),
            );
            assert_eq!(choice.len, 2);
            assert_eq!(keys, vec![rank]);
            let rk = RecordKeys::build(&[keys]);
            assert_eq!(rk.sig_len(0), 1);
            let idx = CsrIndex::from_record_keys(&rk);
            let want: &[u32] = if rank == UNSEEN_RANK { &[] } else { &[0] };
            assert_eq!(idx.get(rank), want);
        }
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
        use crate::msim::MeasureKind;
        use crate::pebble::{Pebble, PebbleKey, PebbleOrder};
        use au_taxonomy::NodeId;
        use au_text::PhraseId;
        let keys = [
            PebbleKey::Gram(7),
            PebbleKey::Rule(PhraseId(7)),
            PebbleKey::Node(NodeId(7)),
        ];
        let order = PebbleOrder::from_ranking(keys);
        let mut pebbles: Vec<Pebble> = (keys.iter())
            .map(|&key| Pebble {
                key,
                weight: 1.0,
                seg: 0,
                measure: MeasureKind::Jaccard,
            })
            .collect();
        let mut ranks = order.sort(&mut pebbles, &mut Default::default()).to_vec();
        ranks.sort_unstable();
        assert_eq!(ranks, [0, 1, 2]);
        let rk = RecordKeys::build(&[ranks]);
        assert_eq!(rk.sig_len(0), 3);
        assert_eq!(CsrIndex::from_record_keys(&rk).key_count(), 3);
    }

    /// An unseen rank reads no list, yet it is one of the probe's `m`
    /// keys: ahead of it a record's first shared key leaves enough keys
    /// to meet τ, so the tier-0 bound counts its rejection; without it the
    /// τ-skip settles the record first.
    #[test]
    fn an_unseen_rank_reads_nothing_but_counts_for_the_tau_skip() {
        let idx = index_of(&[&[2]]);
        let tier0 = [(30, 15)];
        let compat = CompatBound {
            tier0: &tier0,
            probe_tier0: (2, 1),
            min_sim: 0.9,
        };
        let mut ctr = OverlapCounter::new(1);
        let mut out = Vec::new();
        let mut probe = |keys: &[u32]| ctr.probe(&idx, keys, 2, 2, &[2], None, &compat, &mut out);
        let with = probe(&[2, UNSEEN_RANK]);
        let without = probe(&[2]);
        assert_eq!((with.processed, without.processed), (1, 1));
        assert_eq!((with.compat_rejected, without.compat_rejected), (1, 0));
        assert!(out.is_empty());
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
            &rank_keys(&[2, 3]),
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
            &rank_keys(&[1]),
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
        let keys = rank_keys(&[1, 2]);
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

    /// Each probe zeroes every count it raised, so none leaks into the next.
    #[test]
    fn counter_epochs_do_not_leak_across_probes() {
        let idx = index_of(&[&[1, 2]]);
        let tier0 = vec![(1, 1)];
        let keys = rank_keys(&[1, 2]);
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
        let keys = rank_keys(&[1, 2]);
        let mut ctr = OverlapCounter::new(2);
        let mut out = Vec::new();
        let stats = ctr.probe(&idx, &keys, 2, 2, &[2, 2], None, &compat, &mut out);
        assert_eq!(out, vec![0]);
        assert_eq!(stats.compat_rejected, 1, "counted once, not per posting");
        assert_eq!(stats.processed, 4, "rejected entries still count toward Tτ");
        // The rejection does not leak into the next probe.
        out.clear();
        ctr.probe(&idx, &keys, 2, 2, &[2, 2], None, &loose(&tier0), &mut out);
        assert_eq!(out, vec![0, 1]);
    }

    /// `(|T|, MP(T))` of a record carrying keys: non-empty, and its
    /// minimum partition at most its token count.
    fn tier0_strategy() -> impl Strategy<Value = (u32, u32)> {
        (1u32..6, 0u32..4).prop_map(|(n, k)| (n, 1 + k % n))
    }

    /// The two integer cuts decide every non-empty pair exactly as the
    /// float bound does: all `(|S|, MP(S), |T|, MP(T))` with `MP ≤ n ≤ 24`
    /// at thirteen thresholds, `θ − ε` from just above 0 to `1 − ε`. An
    /// empty side is never admitted.
    #[test]
    fn tier0_window_decides_as_the_float_bound() {
        let eps = crate::config::SimConfig::default().eps;
        let thetas = [
            2.0 * eps,
            0.05,
            0.1,
            0.2,
            0.3,
            1.0 / 3.0,
            0.5,
            0.6,
            2.0 / 3.0,
            0.7,
            0.8,
            0.9,
            1.0,
        ];
        let pairs: Vec<(u32, u32)> = (1..=24u32)
            .flat_map(|n| (1..=n).map(move |mp| (n, mp)))
            .collect();
        let mut admitted = 0u64;
        for theta in thetas {
            let min_sim = theta - eps;
            for &(ns, mps) in &pairs {
                let window = Tier0Window::new((ns, mps), min_sim);
                for &(nt, mpt) in &pairs {
                    let want = tier0_upper_bound(ns, mps, nt, mpt) >= min_sim;
                    assert_eq!(
                        window.admits((nt, mpt)),
                        want,
                        "({ns},{mps}) ({nt},{mpt}) θ={theta}"
                    );
                    admitted += u64::from(want);
                }
                assert!(!window.admits((0, 0)), "an empty partner");
            }
            assert!(
                !Tier0Window::new((0, 0), min_sim).admits((3, 1)),
                "an empty probe"
            );
        }
        // Neither all nor nothing: the cuts were exercised both ways.
        let total = (thetas.len() * pairs.len() * pairs.len()) as u64;
        assert!(
            admitted > total / 10 && admitted < total * 9 / 10,
            "{admitted} of {total}"
        );
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

        /// The rank-indexed CSR against the sort-based transposition:
        /// ranks listed in any order, unseen ranks (drawn as 40) listed
        /// nowhere, every list ascending, and the CSR shape holds together.
        #[test]
        fn csr_index_equals_the_sort_based_builder(
            recs in prop::collection::vec(prop::collection::vec(0u32..41, 0..9), 0..30),
        ) {
            let unseen = |k: u32| if k == 40 { UNSEEN_RANK } else { k };
            let sets: Vec<Vec<u32>> = (recs.iter())
                .map(|r| rank_keys(&r.iter().map(|&k| unseen(k)).collect::<Vec<_>>()))
                .collect();
            let keys_into = |r: u32, out: &mut Vec<u32>| {
                out.extend(sets[r as usize].iter().filter(|&&k| k != UNSEEN_RANK));
            };
            let want = transpose_by_sorting(sets.len(), keys_into);
            let idx = CsrIndex::from_record_keys(&RecordKeys::build(&sets));
            prop_assert_eq!(&idx.sorted_lists(), &want);
            prop_assert_eq!(idx.key_count(), want.len());
            let postings: usize = want.iter().map(|(_, list)| list.len()).sum();
            prop_assert_eq!(idx.posting_count(), postings);
            prop_assert_eq!(idx.record_count(), sets.len());
            let width = want.last().map_or(0, |(k, _)| *k as usize + 1);
            prop_assert_eq!(idx.offsets.len(), width + 1);
            prop_assert!(idx.get(UNSEEN_RANK).is_empty());
        }

        /// Carrying an arena across a merge against flattening the same
        /// key sets afresh: any kept set (none, all, runs), any
        /// renumbering of the kept ranks, any tail.
        #[test]
        fn carried_arena_equals_the_rebuilt_one(
            recs in prop::collection::vec(prop::collection::vec(0u32..12, 0..6), 0..14),
            drop in prop::collection::vec(prop::bool::weighted(0.4), 14),
            tail in prop::collection::vec(prop::collection::vec(0u32..12, 0..6), 0..5),
            shift in 0u32..12,
        ) {
            let sets = |recs: &[Vec<u32>]| -> Vec<Vec<u32>> {
                recs.iter().map(|r| rank_keys(r)).collect()
            };
            let (base, tail) = (sets(&recs), sets(&tail));
            // A permutation of the twelve ranks (5 is prime to 12).
            let renumbered: Vec<u32> = (0..12).map(|r| (5 * r + shift) % 12).collect();
            let kept = || (0..base.len()).filter(|&r| !drop[r]);
            let moved = |r: usize| base[r].iter().map(|&k| renumbered[k as usize]).collect();
            let want: Vec<Vec<u32>> = kept().map(moved).chain(tail.iter().cloned()).collect();
            let got = RecordKeys::build(&base).carry(
                kept().map(|r| r as u32),
                &renumbered,
                &RecordKeys::build(&tail),
            );
            prop_assert_eq!(got, RecordKeys::build(&want));
        }

        /// The scan against its definition on random rank sets, probe
        /// ranks in any order and unseen ones among them: `b` is
        /// reported ⇔ `|keys(probe) ∩ keys(b)| ≥ max(1, min(τ, level_probe,
        /// level_b))` and the tier-0 bound holds (and `b > min_excl`);
        /// `Tτ` is the summed posting-list lengths; `compat_rejected` is
        /// exact ([`definition`]). Equality with the *full* intersection
        /// size is the executable form of the positional-bound argument in
        /// the module docs: admission happens at the first shared key or
        /// never, so no early-termination bound can change the reported
        /// set. Two probes run on one counter, and each must equal a fresh
        /// counter's result — a count the first leaves non-zero fails the
        /// second.
        #[test]
        fn probe_matches_definition(
            recs in prop::collection::vec(prop::collection::vec(0u32..12, 0..8), 1..10),
            probes in prop::collection::vec(prop::collection::vec(0u32..14, 0..8), 2),
            levels in prop::collection::vec(1u32..5, 10),
            tier0 in prop::collection::vec(tier0_strategy(), 10),
            probe_level in 1u32..5,
            probe_tier0 in tier0_strategy(),
            tau in 1u32..5,
            min_sim in 0.0f64..1.0,
            min_excl in prop::sample::select(vec![None, Some(0u32), Some(3)]),
        ) {
            let recs: Vec<&[u32]> = recs.iter().map(|r| r.as_slice()).collect();
            let rk = record_keys(&recs);
            let idx = CsrIndex::from_record_keys(&rk);
            let compat = CompatBound { tier0: &tier0, probe_tier0, min_sim };
            let mut reused = OverlapCounter::new(idx.record_count());
            for probe in &probes {
                // Ranks 12 and 13 stand for keys the order never saw.
                let probe: Vec<u32> = probe.iter().map(|&k| if k < 12 { k } else { UNSEEN_RANK }).collect();
                let keys = &rank_keys(&probe)[..];
                let run = |ctr: &mut OverlapCounter| {
                    let mut got = Vec::new();
                    let stats =
                        ctr.probe(&idx, keys, probe_level, tau, &levels, min_excl, &compat, &mut got);
                    (got, stats)
                };
                let got = run(&mut reused);
                prop_assert_eq!(&got, &run(&mut OverlapCounter::new(idx.record_count())));
                let want = definition(&rk, keys, probe_level, tau, &levels, min_excl, &compat);
                prop_assert_eq!(got, want);
            }
        }

        /// The global-id floor of a cross-shard self-join task: two sides
        /// whose records interleave in global id (`a_side[g]` puts record
        /// `g` in A, else in B; keys, levels and tier-0 integers are drawn
        /// per global id). A probing B's index and B probing A's, each
        /// keeping partners of larger global id
        /// ([`crate::join::ProbeFloor::Global`]), must read between them
        /// exactly the postings of the one unfloored A → B pass and split
        /// its hits into two disjoint halves.
        #[test]
        fn floored_probes_split_the_unfloored_probe(
            recs in prop::collection::vec(prop::collection::vec(0u32..12, 0..8), 12),
            a_side in prop::collection::vec(prop::bool::weighted(0.5), 1..12),
            levels in prop::collection::vec(1u32..5, 12),
            tier0 in prop::collection::vec(tier0_strategy(), 12),
            tau in 1u32..5,
            min_sim in 0.0f64..1.0,
        ) {
            use crate::join::ProbeFloor;
            // One side: its global ids, key sets, levels and tier-0 column.
            type Side = (Vec<u32>, RecordKeys, Vec<u32>, Vec<(u32, u32)>);
            let side = |on_a: bool| -> Side {
                let ids: Vec<u32> =
                    (0..a_side.len() as u32).filter(|&g| a_side[g as usize] == on_a).collect();
                let keys: Vec<&[u32]> = ids.iter().map(|&g| recs[g as usize].as_slice()).collect();
                let lv = ids.iter().map(|&g| levels[g as usize]).collect();
                let t0 = ids.iter().map(|&g| tier0[g as usize]).collect();
                (ids, record_keys(&keys), lv, t0)
            };
            let (a, b) = (side(true), side(false));
            // Every `(probe, partner)` hit of `from` probing `to`'s index
            // under `floor`, in global ids, and the postings read.
            let probe_all = |from: &Side, to: &Side, floor: Option<ProbeFloor<'_>>| {
                let idx = CsrIndex::from_record_keys(&to.1);
                let mut ctr = OverlapCounter::new(idx.record_count());
                let (mut hits, mut processed) = (Vec::new(), 0);
                for r in 0..from.0.len() as u32 {
                    let compat = CompatBound { tier0: &to.3, probe_tier0: from.3[r as usize], min_sim };
                    let (keys, level) = (from.1.get(r), from.2[r as usize]);
                    let min_excl = floor.and_then(|f| f.min_excl(r));
                    let mut out = Vec::new();
                    let st = ctr.probe(&idx, keys, level, tau, &to.2, min_excl, &compat, &mut out);
                    processed += st.processed;
                    hits.extend(out.iter().map(|&h| (from.0[r as usize], to.0[h as usize])));
                }
                (hits, processed)
            };
            let (mut whole, whole_processed) = probe_all(&a, &b, None);
            let (fwd, fwd_processed) = probe_all(&a, &b, Some(ProbeFloor::Global(&a.0, &b.0)));
            let (rev, rev_processed) = probe_all(&b, &a, Some(ProbeFloor::Global(&b.0, &a.0)));
            prop_assert_eq!(fwd_processed + rev_processed, whole_processed);
            prop_assert!(fwd.iter().chain(&rev).all(|&(probe, partner)| probe < partner));
            let mut union = fwd;
            union.extend(rev.iter().map(|&(gb, ga)| (ga, gb)));
            let total = union.len();
            union.sort_unstable();
            union.dedup();
            prop_assert_eq!(union.len(), total, "the two halves overlap");
            whole.sort_unstable();
            prop_assert_eq!(union, whole);
        }
    }

    /// What [`OverlapCounter::probe`] reports, by definition, computed
    /// record by record with no index: `b` (with `b > min_excl`) is a
    /// candidate ⇔ `shared(b) ≥ demand(b) = max(1, min(τ, level_probe,
    /// level_b))` and its tier-0 bound reaches `min_sim`; it is
    /// compat-rejected ⇔ it shares a key, `m − i₀(b) ≥ demand(b)` where
    /// `i₀` is the first probe key it carries, and its tier-0 bound falls
    /// below `min_sim`. `Tτ` is the summed shared-key counts.
    fn definition(
        rk: &RecordKeys,
        keys: &[u32],
        probe_level: u32,
        tau: u32,
        levels: &[u32],
        min_excl: Option<u32>,
        compat: &CompatBound<'_>,
    ) -> (Vec<u32>, ProbeStats) {
        let mut want = Vec::new();
        let mut stats = ProbeStats::default();
        for b in (0..rk.len() as u32).filter(|&b| min_excl.is_none_or(|a| b > a)) {
            let carried: Vec<usize> = (0..keys.len())
                .filter(|&i| rk.get(b).contains(&keys[i]))
                .collect();
            let Some(&i0) = carried.first() else {
                continue;
            };
            stats.processed += carried.len() as u64;
            let demand = tau.min(probe_level).min(levels[b as usize]).max(1) as usize;
            let (ns, mps) = compat.probe_tier0;
            let (nt, mpt) = compat.tier0[b as usize];
            let compatible = tier0_upper_bound(ns, mps, nt, mpt) >= compat.min_sim;
            if !compatible && keys.len() - i0 >= demand {
                stats.compat_rejected += 1;
            }
            if compatible && carried.len() >= demand {
                want.push(b);
            }
        }
        (want, stats)
    }
}
