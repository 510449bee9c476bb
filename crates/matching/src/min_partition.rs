//! Exact minimum well-defined partition of a token span (interval DP).
//!
//! Given the set of well-defined multi-token segments of a string (token
//! intervals) and the fact that every single token is itself well-defined,
//! the minimum number of segments exactly partitioning the string is a
//! 1-D dynamic program: `dp[j] = min over segments [i, j) of dp[i] + 1`.
//!
//! The masked variant partitions only the *free* positions (those not
//! already covered by matched segments of an independent set). It is used
//! when turning a w-MIS solution into the partition pair of Eq. 5/6 — the
//! residual tokens must still be grouped into as few well-defined segments
//! as possible, because the denominator of Eq. 6 counts them.

/// Multi-token intervals of one record indexed by end position in CSR form
/// — the precomputable half of the masked min-partition DP.
///
/// Built once per record (the interval set never changes after
/// segmentation), so the per-call cost of [`min_partition_masked_with`] is
/// the DP alone: no `Vec<Vec<_>>` bucket allocation per evaluation. `GetSim`
/// runs the masked DP once per candidate independent set — thousands of
/// times per verified pair — which made the bucket rebuild the dominant
/// allocator traffic of verification.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IntervalsByEnd {
    /// `offsets[e]..offsets[e + 1]` indexes `starts` for intervals ending
    /// at `e` (offsets has `n + 2` entries).
    offsets: Vec<u32>,
    /// Start positions, grouped by end.
    starts: Vec<u32>,
}

impl IntervalsByEnd {
    /// Group `segments` (intervals `(start, len)`) of a length-`n` token
    /// span by their exclusive end position.
    pub fn build(n: usize, segments: &[(usize, usize)]) -> Self {
        debug_assert!(segments.iter().all(|&(s, l)| l >= 1 && s + l <= n));
        let mut counts = vec![0u32; n + 2];
        for &(s, l) in segments {
            counts[s + l + 1] += 1;
        }
        for e in 1..counts.len() {
            counts[e] += counts[e - 1];
        }
        let offsets = counts;
        let mut cursor = offsets.clone();
        let mut starts = vec![0u32; segments.len()];
        for &(s, l) in segments {
            let slot = cursor[s + l] as usize;
            starts[slot] = s as u32;
            cursor[s + l] += 1;
        }
        Self { offsets, starts }
    }

    /// Start positions of intervals ending at `end`.
    #[inline]
    pub fn ending_at(&self, end: usize) -> &[u32] {
        let lo = self.offsets[end] as usize;
        let hi = self.offsets[end + 1] as usize;
        &self.starts[lo..hi]
    }

    /// Heap footprint in bytes (length-based, deterministic).
    pub fn memory_bytes(&self) -> usize {
        (self.offsets.len() + self.starts.len()) * std::mem::size_of::<u32>()
    }
}

/// Minimum number of segments exactly partitioning `0..n` where the allowed
/// pieces are `segments` (intervals `(start, len)`) plus all singletons.
pub fn min_partition(n: usize, segments: &[(usize, usize)]) -> u32 {
    min_partition_masked(n, segments, &vec![true; n])
}

/// Like [`min_partition`] but only `free[i] == true` positions need
/// covering; segments may only be used if entirely free. Blocked positions
/// contribute no cost.
pub fn min_partition_masked(n: usize, segments: &[(usize, usize)], free: &[bool]) -> u32 {
    let by_end = IntervalsByEnd::build(n, segments);
    let mut dp = Vec::new();
    min_partition_masked_with(n, &by_end, free, &mut dp)
}

/// Allocation-free core of [`min_partition_masked`]: intervals arrive
/// pre-grouped in `by_end` and the DP table is the caller's reusable
/// scratch (`dp` is cleared and refilled; its capacity persists).
pub fn min_partition_masked_with(
    n: usize,
    by_end: &IntervalsByEnd,
    free: &[bool],
    dp: &mut Vec<u32>,
) -> u32 {
    assert_eq!(free.len(), n, "mask length mismatch");
    dp.clear();
    dp.resize(n + 1, u32::MAX);
    dp[0] = 0;
    for j in 1..=n {
        if !free[j - 1] {
            dp[j] = dp[j - 1];
            continue;
        }
        // Singleton piece [j-1, j).
        if dp[j - 1] != u32::MAX {
            dp[j] = dp[j - 1] + 1;
        }
        // Multi-token pieces ending at j, fully free.
        for &s in by_end.ending_at(j) {
            let s = s as usize;
            if dp[s] == u32::MAX {
                continue;
            }
            if (s..j).all(|i| free[i]) {
                dp[j] = dp[j].min(dp[s] + 1);
            }
        }
    }
    dp[n]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_singletons() {
        assert_eq!(min_partition(4, &[]), 4);
        assert_eq!(min_partition(0, &[]), 0);
    }

    #[test]
    fn full_segment_is_one() {
        assert_eq!(min_partition(3, &[(0, 3)]), 1);
    }

    #[test]
    fn picks_best_split() {
        // 0..5 with segments [0,3) and [3,5): 2 pieces beats singleton mix.
        assert_eq!(min_partition(5, &[(0, 3), (3, 2)]), 2);
        // Overlapping segments can't both be used in an exact partition:
        // [0,3) and [2,5): either gives 1 + 2 singletons = 3.
        assert_eq!(min_partition(5, &[(0, 3), (2, 3)]), 3);
    }

    #[test]
    fn figure1_string_s() {
        // "coffee shop latte helsingki": segment "coffee shop" = (0,2);
        // min partition = {coffee shop},{latte},{helsingki} = 3.
        assert_eq!(min_partition(4, &[(0, 2)]), 3);
    }

    #[test]
    fn masked_blocked_positions_cost_nothing() {
        // 5 tokens, positions 1..3 blocked (covered by a matched segment).
        let free = vec![true, false, false, true, true];
        assert_eq!(min_partition_masked(5, &[], &free), 3);
        // A segment spanning the free 3..5 region helps.
        assert_eq!(min_partition_masked(5, &[(3, 2)], &free), 2);
        // A segment crossing a blocked token is unusable.
        assert_eq!(min_partition_masked(5, &[(2, 2)], &free), 3);
    }

    #[test]
    fn masked_all_blocked_is_zero() {
        assert_eq!(min_partition_masked(3, &[], &[false; 3]), 0);
    }

    #[test]
    fn chain_of_overlapping_segments() {
        // 0..4, segments [0,2),[1,3),[2,4): best exact partition uses
        // [0,2)+[2,4) = 2.
        assert_eq!(min_partition(4, &[(0, 2), (1, 2), (2, 2)]), 2);
    }
}
