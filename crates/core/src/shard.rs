//! Length-partitioned shard plans: memory-lean joins for large corpora.
//!
//! PASS-JOIN partitions strings by length so only length-compatible
//! partitions are ever compared. This module adapts the idea to the
//! unified similarity: the verifier's tier-0 record bound
//!
//! ```text
//! USIM(S, T) ≤ min(|S|, |T|) / max(MP(S), MP(T))
//! ```
//!
//! depends only on two integers per record — the token count and the
//! exact minimum partition size — which a lean stats pass
//! ([`crate::segment::segment_stats`]) computes without gram hashing,
//! surface text or posting tables. A [`ShardPlan`] sorts records by token
//! count and splits them into contiguous shards; per shard it keeps the
//! maximum length `lmax` and minimum partition floor `mpmin`, and for any
//! two shards `A`, `B` the **shard-pair bound**
//!
//! ```text
//! ub(A, B) = min(lmax_A, lmax_B) / max(mpmin_A, mpmin_B)
//! ```
//!
//! dominates the tier-0 bound of every record pair drawn from them
//! (`min(|S|,|T|) ≤ min(lmax_A, lmax_B)` and
//! `max(MP(S),MP(T)) ≥ max(mpmin_A, mpmin_B)`), so a θ-join may skip the
//! whole shard pair whenever `ub(A, B) < θ − ε`: no record pair across it
//! can verify at θ. The join over the remaining shard-pair tasks is a
//! partition of the full cross product, so results are exactly the
//! monolithic join's (`tests/shard_equivalence.rs` pins them bitwise).
//!
//! The one entry point is [`crate::engine::Engine::prepare_sharded`], for
//! corpora too large to prepare whole: only the tier-0 integers are
//! computed up front, and each shard is segmented on demand by the join
//! ([`crate::engine::Engine::join_self_sharded`] /
//! [`crate::engine::Engine::join_sharded`]), which keeps
//! [`ShardSpec::cache_capacity`] of them live at a time and drops every
//! one before it returns. [`ShardedPrepared::peak_memory_bytes`] reports
//! the high-water mark, a small fraction of a whole-corpus prepare. It is
//! a memory tool, not a speed-up: every task rebuilds its own pebble
//! order, signatures and index, so a sharded join is slower than the
//! monolithic one whenever the latter fits.

use crate::config::SimConfig;
use crate::engine::relock;
use au_text::record::Corpus;
use std::sync::Mutex;

/// How a corpus should be sharded.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardSpec {
    /// Number of length-ordered shards (0 = choose automatically from the
    /// corpus size, [`ShardPlan::auto_shard_count`]).
    pub shards: usize,
    /// Segmented shards resident at once during a join (0 = default 3;
    /// clamped to ≥ 2 — a cross-shard task needs both sides live). An
    /// R×S join holds this many shards of its left side plus one of its
    /// right side.
    pub cache_capacity: usize,
}

impl ShardSpec {
    /// Automatic shard count and default residency.
    pub fn auto() -> Self {
        Self::default()
    }

    /// Exactly `shards` shards.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Keep `cap` shards segmented at once.
    pub fn with_cache_capacity(mut self, cap: usize) -> Self {
        self.cache_capacity = cap;
        self
    }

    pub(crate) fn effective_cache_capacity(&self) -> usize {
        if self.cache_capacity == 0 {
            3
        } else {
            self.cache_capacity.max(2)
        }
    }
}

/// One shard: a set of record ids with the aggregates the shard-pair
/// bound needs.
#[derive(Debug, Clone)]
pub struct ShardInfo {
    /// Global record ids, ascending. Local id `i` inside any per-shard
    /// artifact maps to global id `ids[i]`; because the ids ascend, local
    /// order agrees with global order (self-join orientation is
    /// preserved).
    ids: Vec<u32>,
    len_min: u32,
    len_max: u32,
    mp_min: u32,
}

impl ShardInfo {
    /// Global record ids (ascending).
    pub fn records(&self) -> &[u32] {
        &self.ids
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when the shard holds no records (never produced by
    /// [`ShardPlan::build`]).
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Token-count range `[len_min, len_max]` of the shard's records.
    pub fn len_range(&self) -> (u32, u32) {
        (self.len_min, self.len_max)
    }

    /// Smallest exact minimum-partition value in the shard.
    pub fn mp_min(&self) -> u32 {
        self.mp_min
    }
}

/// Upper bound on `USIM(S, T)` over every record pair `S ∈ a`, `T ∈ b`.
///
/// Dominates the per-pair tier-0 bound: `min(|S|,|T|)` never exceeds
/// `min(lmax_a, lmax_b)` and `max(MP(S),MP(T))` never undercuts
/// `max(mpmin_a, mpmin_b)` (clamped to ≥ 1: empty records have `MP = 0`,
/// but they carry no pebbles, so no join path ever emits them — the
/// clamp only keeps the division defined).
pub fn shard_pair_bound(a: &ShardInfo, b: &ShardInfo) -> f64 {
    let lmax = a.len_max.min(b.len_max);
    let mp = a.mp_min.max(b.mp_min).max(1);
    lmax as f64 / mp as f64
}

/// May a θ-join skip the shard pair entirely? Mirrors the verifier's
/// acceptance test `sim ≥ θ − ε`: a pair is skippable only when even its
/// bound falls below that.
pub fn shard_pair_compatible(a: &ShardInfo, b: &ShardInfo, theta: f64, eps: f64) -> bool {
    shard_pair_bound(a, b) >= theta - eps
}

/// A length-ordered partition of one corpus into shards.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    shards: Vec<ShardInfo>,
    n_records: usize,
}

impl ShardPlan {
    /// Default shard count for an `n`-record corpus: one shard per ~4096
    /// records, at least 8, at most 64 (small corpora still exercise the
    /// sharded join; huge corpora keep per-shard artifacts a small
    /// fraction of the whole).
    pub fn auto_shard_count(n: usize) -> usize {
        (n / 4096).clamp(8, 64)
    }

    /// Partition `tier0` (the per-record `(|S|, MP(S))` integers, indexed
    /// by record id) into `shards` near-equal contiguous ranges of the
    /// length-sorted record list. Empty chunks are dropped, so every
    /// shard is non-empty and the plan may hold fewer shards than asked
    /// for (at most one per record).
    pub fn build(tier0: &[(u32, u32)], shards: usize) -> Self {
        let n = tier0.len();
        let g = shards.max(1).min(n.max(1));
        let mut by_len: Vec<u32> = (0..n as u32).collect();
        by_len.sort_unstable_by_key(|&i| (tier0[i as usize].0, i));
        let base = n / g;
        let extra = n % g;
        let mut out = Vec::with_capacity(g);
        let mut cursor = 0usize;
        for k in 0..g {
            let size = base + usize::from(k < extra);
            if size == 0 {
                continue;
            }
            let mut ids: Vec<u32> = by_len[cursor..cursor + size].to_vec();
            cursor += size;
            let len_min = tier0[ids[0] as usize].0;
            let len_max = tier0[ids[size - 1] as usize].0;
            let mp_min = ids
                .iter()
                .map(|&i| tier0[i as usize].1)
                .min()
                .expect("non-empty shard");
            ids.sort_unstable();
            out.push(ShardInfo {
                ids,
                len_min,
                len_max,
                mp_min,
            });
        }
        Self {
            shards: out,
            n_records: n,
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// True when the plan covers no records.
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// Records covered by the plan.
    pub fn record_count(&self) -> usize {
        self.n_records
    }

    /// Shard `i`.
    pub fn shard(&self, i: usize) -> &ShardInfo {
        &self.shards[i]
    }

    /// Iterate the shards in length order.
    pub fn iter(&self) -> impl Iterator<Item = &ShardInfo> {
        self.shards.iter()
    }
}

/// What the joins over one [`ShardedPrepared`] have cost so far.
#[derive(Debug, Default)]
pub(crate) struct ShardCounters {
    /// Most segmented-shard bytes any join held at once.
    pub(crate) peak_bytes: usize,
    /// Shards segmented.
    pub(crate) builds: u64,
    /// Most segmented shards any join held at once.
    pub(crate) most_resident: usize,
}

/// A corpus prepared for sharded joins without ever segmenting it whole:
/// the tier-0 integers come from the lean stats pass, shards are
/// segmented on demand by each join and dropped before it returns (the
/// artifact itself never holds one). Create with
/// [`crate::engine::Engine::prepare_sharded`]; join with
/// [`crate::engine::Engine::join_self_sharded`] /
/// [`crate::engine::Engine::join_sharded`].
#[derive(Debug)]
pub struct ShardedPrepared {
    pub(crate) gen: u64,
    pub(crate) cfg: SimConfig,
    pub(crate) corpus: Corpus,
    pub(crate) tier0: Vec<(u32, u32)>,
    pub(crate) plan: ShardPlan,
    pub(crate) cache_capacity: usize,
    pub(crate) counters: Mutex<ShardCounters>,
}

impl ShardedPrepared {
    /// Number of records.
    pub fn len(&self) -> usize {
        self.corpus.len()
    }

    /// True when the corpus has no records.
    pub fn is_empty(&self) -> bool {
        self.corpus.is_empty()
    }

    /// The corpus this artifact was planned from.
    pub fn corpus(&self) -> &Corpus {
        &self.corpus
    }

    /// Knowledge generation this artifact was planned under.
    pub fn generation(&self) -> u64 {
        self.gen
    }

    /// The length-ordered shard plan.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// The per-record `(|S|, MP(S))` tier-0 integers (indexed by record
    /// id) from the lean stats pass — identical to what a full prepare
    /// caches, at a fraction of the cost.
    pub fn tier0(&self) -> &[(u32, u32)] {
        &self.tier0
    }

    /// High-water mark of the segmented-shard bytes a join over this
    /// artifact held at once — both sides of an R×S join, each task's
    /// order/signature/CSR memos included (deep, length-based accounting
    /// via [`crate::engine::Prepared::memory_bytes`]). The memory-lean
    /// claim: with `G` shards and `c` of them resident, this stays near
    /// `c/G` of a whole-corpus prepare.
    pub fn peak_memory_bytes(&self) -> usize {
        relock(&self.counters).peak_bytes
    }

    /// Shards of this artifact segmented so far. Nothing is retained
    /// between bands or joins: a shard counts once per band in which it
    /// has a compatible task, in every join.
    pub fn shard_builds(&self) -> u64 {
        relock(&self.counters).builds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// tier0 fixture: record i has i+1 tokens, MP = ceil(len / 2).
    fn tier0_ramp(n: usize) -> Vec<(u32, u32)> {
        (0..n as u32)
            .map(|i| (i + 1, (i + 1).div_ceil(2)))
            .collect()
    }

    #[test]
    fn plan_partitions_all_records_with_sorted_ranges() {
        let tier0 = tier0_ramp(103);
        let plan = ShardPlan::build(&tier0, 8);
        assert_eq!(plan.shard_count(), 8);
        assert_eq!(plan.record_count(), 103);
        let mut seen = [false; 103];
        let mut prev_max = 0u32;
        for s in plan.iter() {
            assert!(!s.is_empty());
            assert!(s.records().windows(2).all(|w| w[0] < w[1]), "ids ascend");
            let (lo, hi) = s.len_range();
            assert!(lo <= hi);
            assert!(lo >= prev_max, "length ranges are ordered");
            prev_max = hi;
            for &id in s.records() {
                assert!(!seen[id as usize], "record {id} in two shards");
                seen[id as usize] = true;
                let len = tier0[id as usize].0;
                assert!(lo <= len && len <= hi);
                assert!(tier0[id as usize].1 >= s.mp_min());
            }
        }
        assert!(seen.iter().all(|&x| x), "every record in some shard");
    }

    #[test]
    fn more_shards_than_records_degrades_to_singletons() {
        let tier0 = tier0_ramp(3);
        let plan = ShardPlan::build(&tier0, 16);
        assert_eq!(plan.shard_count(), 3);
        assert!(plan.iter().all(|s| s.len() == 1));
        let empty = ShardPlan::build(&[], 4);
        assert_eq!(empty.shard_count(), 0);
        assert!(empty.is_empty());
    }

    #[test]
    fn pair_bound_dominates_every_record_pair_bound() {
        let tier0 = tier0_ramp(60);
        let plan = ShardPlan::build(&tier0, 6);
        for i in 0..plan.shard_count() {
            for j in 0..plan.shard_count() {
                let (a, b) = (plan.shard(i), plan.shard(j));
                let ub = shard_pair_bound(a, b);
                for &x in a.records() {
                    for &y in b.records() {
                        let (nx, mx) = tier0[x as usize];
                        let (ny, my) = tier0[y as usize];
                        let pair = nx.min(ny) as f64 / mx.max(my).max(1) as f64;
                        assert!(
                            ub + 1e-12 >= pair,
                            "shards ({i},{j}) records ({x},{y}): {ub} < {pair}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn empty_records_do_not_poison_the_bound() {
        // Two empty records (len 0, MP 0) plus normal ones: the all-empty
        // shard gets bound 0 (pruned at any positive θ), and mixed pairs
        // stay finite thanks to the ≥1 clamp.
        let tier0 = vec![(0, 0), (0, 0), (4, 2), (6, 3)];
        let plan = ShardPlan::build(&tier0, 2);
        assert_eq!(plan.shard_count(), 2);
        let empties = plan.shard(0);
        assert_eq!(empties.len_range(), (0, 0));
        assert_eq!(shard_pair_bound(empties, empties), 0.0);
        assert!(!shard_pair_compatible(empties, plan.shard(1), 0.5, 0.0));
        assert!(shard_pair_bound(plan.shard(1), plan.shard(1)).is_finite());
    }

    #[test]
    fn auto_shard_count_clamps() {
        assert_eq!(ShardPlan::auto_shard_count(0), 8);
        assert_eq!(ShardPlan::auto_shard_count(10_000), 8);
        assert_eq!(ShardPlan::auto_shard_count(120_000), 29);
        assert_eq!(ShardPlan::auto_shard_count(10_000_000), 64);
    }

    #[test]
    fn spec_defaults() {
        let spec = ShardSpec::auto();
        assert_eq!(spec.shards, 0);
        assert_eq!(spec.effective_cache_capacity(), 3);
        assert_eq!(
            ShardSpec::auto()
                .with_cache_capacity(1)
                .effective_cache_capacity(),
            2,
            "cross-shard tasks need both sides live"
        );
        assert_eq!(ShardSpec::auto().with_shards(12).shards, 12);
    }
}
