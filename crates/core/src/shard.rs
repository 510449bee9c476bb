//! Length-partitioned shard plans: memory-lean joins for large corpora.
//!
//! PASS-JOIN partitions strings by length so only length-compatible
//! partitions are ever compared. This module adapts the idea to the
//! unified similarity: the tier-0 record bound
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
use crate::engine::{relock, Engine};
use crate::error::AuError;
use crate::join::{verify_runs, JoinResult, JoinStats};
use crate::prepared::Prepared;
use crate::segment::segment_stats;
use crate::spec::JoinSpec;
use crate::usim::GramPostingsIndex;
use au_text::record::{Corpus, RecordId};
use std::sync::{Arc, Mutex};
use std::time::Instant;

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
            let chunk = &by_len[cursor..cursor + size];
            cursor += size;
            // An empty chunk has no minimum and is dropped.
            let Some(mp_min) = chunk.iter().map(|&i| tier0[i as usize].1).min() else {
                continue;
            };
            let len_min = tier0[chunk[0] as usize].0;
            let len_max = tier0[chunk[size - 1] as usize].0;
            let mut ids = chunk.to_vec();
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
    /// order/signature/CSR memos included (deep accounting via
    /// [`crate::engine::Prepared::memory_bytes`], the pair order the two
    /// sides of a task share counted once). The memory-lean
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

// -- the sharded joins --------------------------------------------------------

impl Engine {
    /// Plan a corpus for sharded joins **without preparing it**: only the
    /// per-record tier-0 integers are computed (the lean
    /// [`segment_stats`] pass — no gram hashing, no posting tables), then
    /// length-partitioned into a [`ShardPlan`]. Shards are segmented on
    /// demand during [`Engine::join_self_sharded`] /
    /// [`Engine::join_sharded`], `spec.cache_capacity` of them at a time
    /// (plus one streaming partner in an R×S join), so peak memory stays
    /// a small fraction of a whole-corpus [`Engine::prepare`]
    /// ([`ShardedPrepared::peak_memory_bytes`]).
    pub fn prepare_sharded(
        &self,
        corpus: &Corpus,
        spec: &ShardSpec,
    ) -> Result<ShardedPrepared, AuError> {
        self.check_tokens(corpus)?;
        let tier0: Vec<(u32, u32)> = corpus
            .iter()
            .map(|r| segment_stats(&self.kn, &self.cfg, &r.tokens))
            .collect();
        let g = if spec.shards == 0 {
            ShardPlan::auto_shard_count(corpus.len())
        } else {
            spec.shards
        };
        let plan = ShardPlan::build(&tier0, g);
        Ok(ShardedPrepared {
            gen: self.kn.generation(),
            cfg: self.cfg,
            corpus: corpus.clone(),
            tier0,
            plan,
            cache_capacity: spec.effective_cache_capacity(),
            counters: Mutex::default(),
        })
    }

    /// Threshold self-join over a lazily-segmented [`ShardedPrepared`]
    /// (pairs reported with `s < t`, byte-identical to
    /// [`Engine::join_self`] on a full prepare of the same corpus).
    pub fn join_self_sharded(
        &self,
        sp: &ShardedPrepared,
        spec: &JoinSpec,
    ) -> Result<JoinResult, AuError> {
        self.check_stamp(sp.gen, &sp.cfg)?;
        spec.validate_threshold(self.cfg.eps)?;
        Ok(self.join_shards(sp, None, spec))
    }

    /// Threshold R×S join over two lazily-segmented [`ShardedPrepared`]
    /// artifacts (byte-identical to [`Engine::join`] on full prepares).
    pub fn join_sharded(
        &self,
        s: &ShardedPrepared,
        t: &ShardedPrepared,
        spec: &JoinSpec,
    ) -> Result<JoinResult, AuError> {
        self.check_stamp(s.gen, &s.cfg)?;
        self.check_stamp(t.gen, &t.cfg)?;
        spec.validate_threshold(self.cfg.eps)?;
        Ok(self.join_shards(s, Some(t), spec))
    }

    /// The shard in `slot`, segmenting shard `idx` of `sp` into it first
    /// when the slot is empty. Cannot fail: the tokens were checked by
    /// [`Engine::prepare_sharded`], the generation stamp by the join's
    /// entry point.
    fn resident_shard(
        &self,
        slot: &mut Option<Arc<Prepared>>,
        sp: &ShardedPrepared,
        idx: usize,
    ) -> Arc<Prepared> {
        slot.get_or_insert_with(|| {
            relock(&sp.counters).builds += 1;
            let mut sub = Corpus::new();
            for &id in sp.plan.shard(idx).records() {
                let r = sp.corpus.get(RecordId(id));
                sub.push_tokens(r.tokens.clone(), r.raw.clone());
            }
            Arc::new(self.prepare_trusted(sub))
        })
        .clone()
    }

    /// The sharded join: every compatible shard-pair task of the grid —
    /// unordered pairs `(i, j ≥ i)` of `s` for a self-join (`t = None`),
    /// `s × t` otherwise — run one at a time, each task's inner pipeline
    /// honouring `spec.parallel`. Tasks cover disjoint record-pair sets,
    /// so no dedup is needed and the final `(s, t)` sort is the
    /// deterministic merge; that also frees the task *order*, which is
    /// chosen for residency and is the whole residency policy.
    ///
    /// A band of `s`-shards stays segmented while every partner `j`
    /// streams past it once. A band shard is built on its first
    /// compatible task and dropped at band end, the partner likewise for
    /// its one `j`. The band is `cache_capacity − 1` wide for a self-join
    /// (the partner comes out of the same budget — and *is* a band
    /// member while `j` lies inside the band) and `cache_capacity` wide
    /// for R×S, so at most `cache_capacity` (self) or
    /// `cache_capacity + 1` (R×S) shards are ever live, and a shard is
    /// built once per band in which it has a compatible task.
    ///
    /// After each task the resident bytes are sampled at their fullest —
    /// the task's order/signature/CSR memos included — and those memos
    /// dropped: they are keyed by join partner and every shard pair is
    /// visited once, so no later task could reuse them, while keeping
    /// them would let a band shard accumulate one partner's worth per
    /// task. The posting indexes a task's stage 5 builds are transients
    /// of that stage, gone before the sample.
    fn join_shards(
        &self,
        s: &ShardedPrepared,
        t: Option<&ShardedPrepared>,
        spec: &JoinSpec,
    ) -> JoinResult {
        let self_join = t.is_none();
        let t = t.unwrap_or(s);
        let (g_s, g_t) = (s.plan.shard_count(), t.plan.shard_count());
        // `effective_cache_capacity` is ≥ 2, so the band is never empty.
        let band = s.cache_capacity - usize::from(self_join);
        let mut agg = StatAgg::default();
        let mut pairs: Vec<(u32, u32, f64)> = Vec::new();
        let (mut peak_bytes, mut most_resident) = (0usize, 0usize);
        for b0 in (0..g_s).step_by(band) {
            let b1 = (b0 + band).min(g_s);
            let mut held: Vec<Option<Arc<Prepared>>> = vec![None; b1 - b0];
            let j0 = if self_join { b0 } else { 0 };
            for j in j0..g_t {
                let mut partner: Option<Arc<Prepared>> = None;
                let i1 = if self_join { b1.min(j + 1) } else { b1 };
                for i in b0..i1 {
                    let (info_a, info_b) = (s.plan.shard(i), t.plan.shard(j));
                    if !shard_pair_compatible(info_a, info_b, spec.theta, self.cfg.eps) {
                        agg.sum.shard_tasks_pruned += 1;
                        continue;
                    }
                    agg.sum.shard_tasks += 1;
                    let pa = self.resident_shard(&mut held[i - b0], s, i);
                    let pb = if self_join && j < b1 {
                        self.resident_shard(&mut held[j - b0], s, j)
                    } else {
                        self.resident_shard(&mut partner, t, j)
                    };
                    let (ids_a, ids_b) = (info_a.records(), info_b.records());
                    let task = self.shard_task(&pa, &pb, ids_a, ids_b, self_join, spec);
                    agg.absorb(&task.stats, pa.len(), pb.len());
                    pairs.extend(task.pairs);
                    let resident = || held.iter().flatten().chain(&partner);
                    // The task's pair order is one `Arc` in both memos.
                    let bytes: usize = resident().map(|p| p.memory_bytes()).sum();
                    peak_bytes = peak_bytes.max(bytes - pa.shared_order_bytes(&pb));
                    most_resident = most_resident.max(resident().count());
                    pa.clear_memo();
                    pb.clear_memo();
                }
            }
        }
        // Both sides report the whole join's residency (`t` aliases `s`
        // in a self-join; taking the max twice is harmless).
        for sp in [s, t] {
            let mut c = relock(&sp.counters);
            c.peak_bytes = c.peak_bytes.max(peak_bytes);
            c.most_resident = c.most_resident.max(most_resident);
        }
        pairs.sort_unstable_by_key(|x| (x.0, x.1));
        JoinResult {
            stats: agg.into_stats(pairs.len()),
            pairs,
        }
    }

    /// One shard-pair task: filter shard `A` against shard `B` — as a
    /// self-join on the diagonal of a self-join's grid, as an R×S pass
    /// everywhere else — and verify, reporting global ids. Off that
    /// diagonal a self-join's candidates are oriented by *global* id
    /// first: shards partition by length, not by id range, so such a task
    /// sees both orientations, while the monolithic self-join always
    /// verifies `(min_id, max_id)` with the smaller id on the probe side,
    /// and `usim` is not guaranteed bitwise-symmetric — a forward and a
    /// reverse verification group reproduce its exact similarity values.
    /// Each non-empty group verifies through a transposed index of its
    /// own, never filed in the shard's memo and gone before the task's
    /// residency sample.
    fn shard_task(
        &self,
        pa: &Prepared,
        pb: &Prepared,
        ids_a: &[u32],
        ids_b: &[u32],
        self_join: bool,
        spec: &JoinSpec,
    ) -> JoinResult {
        // On the diagonal both sides are the one resident shard.
        let diagonal = self_join && std::ptr::eq(pa, pb);
        let (mut candidates, mut stats) = self.filter_run(pa, pb, diagonal, spec);
        // In R×S every candidate is forward. In a self-join the list is
        // split in place: forward pairs (distinct records, so global ids
        // never tie) move to the front in their order — candidates come
        // sorted, so that group stays probe-sorted — and the rest, flipped
        // to (b, a), are sorted to keep the verifier's runs contiguous.
        let mut split = candidates.len();
        if self_join {
            split = 0;
            for i in 0..candidates.len() {
                let (la, lb) = candidates[i];
                if ids_a[la as usize] < ids_b[lb as usize] {
                    candidates.swap(split, i);
                    split += 1;
                }
            }
            let rev = &mut candidates[split..];
            rev.iter_mut().for_each(|p| *p = (p.1, p.0));
            rev.sort_unstable();
        }
        let (fwd, rev) = candidates.split_at(split);
        let mut pairs = Vec::new();
        for (s, t, group, ids_s, ids_t) in
            [(pa, pb, fwd, ids_a, ids_b), (pb, pa, rev, ids_b, ids_a)]
        {
            if group.is_empty() {
                continue;
            }
            let start = Instant::now();
            let index = GramPostingsIndex::build_for(&t.segrecs, spec.parallel);
            let (accepted, verified) = verify_runs(
                &self.kn,
                &self.cfg,
                &s.segrecs,
                t.run_side(&index),
                group,
                spec.theta,
                spec.parallel,
            );
            stats.tiers.merge(&verified.tiers);
            stats.walked += verified.walked;
            stats.result_count += accepted.len();
            pairs.extend(
                accepted
                    .into_iter()
                    .map(|(a, b, sim)| (ids_s[a as usize], ids_t[b as usize], sim)),
            );
            stats.verify_time += start.elapsed();
        }
        JoinResult { pairs, stats }
    }
}

/// Accumulator merging per-task [`JoinStats`] into the honest aggregate
/// of a sharded run: times, `Tτ` and `Vτ` are sums over the executed
/// tasks (each task runs its own order/signature/filter pipeline, so the
/// totals are comparable with a monolithic run's but not identical to
/// them — see DESIGN.md "Memory-lean joins"); signature lengths are
/// record-weighted means; tier telemetry merges exactly.
#[derive(Default)]
struct StatAgg {
    /// The tasks' stats summed, the two mean signature lengths weighted
    /// by their shards' records; task counts filed by the join.
    sum: JoinStats,
    /// Records the S- and T-side signature lengths are weighted by.
    records: (u64, u64),
}

impl StatAgg {
    /// Fold in one task's stats; `n_s` / `n_t` are its two shards' sizes.
    fn absorb(&mut self, st: &JoinStats, n_s: usize, n_t: usize) {
        let sum = &mut self.sum;
        sum.sig_time += st.sig_time;
        sum.filter_time += st.filter_time;
        sum.verify_time += st.verify_time;
        sum.processed_pairs += st.processed_pairs;
        sum.candidates += st.candidates;
        sum.compat_rejected += st.compat_rejected;
        sum.avg_sig_len_s += st.avg_sig_len_s * n_s as f64;
        sum.avg_sig_len_t += st.avg_sig_len_t * n_t as f64;
        sum.tiers.merge(&st.tiers);
        sum.walked += st.walked;
        self.records.0 += n_s as u64;
        self.records.1 += n_t as u64;
    }

    fn into_stats(self, result_count: usize) -> JoinStats {
        let mean = |weighted: f64, records: u64| {
            if records == 0 {
                0.0
            } else {
                weighted / records as f64
            }
        };
        JoinStats {
            avg_sig_len_s: mean(self.sum.avg_sig_len_s, self.records.0),
            avg_sig_len_t: mean(self.sum.avg_sig_len_t, self.records.1),
            result_count,
            ..self.sum
        }
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
