//! What a service is configured with and what it reports.

use crate::admission::AdmissionStats;
use crate::wal::{RetryPolicy, WalStats};
use au_core::engine::JoinSpec;
use au_core::signature::FilterKind;
use au_core::SimConfig;

/// Service configuration. `Default` gives a sensible interactive setup:
/// θ = 0.7 with the DP filter, compaction every 256 delta records,
/// admission bound 1024.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Similarity configuration shared by every engine the service
    /// builds (base, delta, compacted bases).
    pub sim: SimConfig,
    /// Threshold θ that [`crate::Service::search`] answers at, in
    /// (ε, 1] with ε = `sim.eps`: every constructor refuses another
    /// before it touches the log.
    pub theta: f64,
    /// Signature filter for every query/join spec.
    pub filter: FilterKind,
    /// Auto-compact once the delta segment reaches this many records
    /// (0 = compact only on [`crate::Service::compact`]).
    ///
    /// The delta segment has no filter: a write appends one segmented
    /// row and touches nothing else, and a read verifies every delta row
    /// that passes the tier-0 bound. So the threshold is the bound on what
    /// a read pays for the delta — ≈ 1.7 µs per delta record, linear in
    /// this value — where an indexed delta made every *write* pay ≈ 130 µs
    /// per delta record to rebuild the index.
    ///
    /// The insert that reaches the threshold only starts the compaction:
    /// the merge and index build run on a thread of their own while
    /// writes go on, and the rows those writes add stay in the delta
    /// beside the new base. So the delta may overshoot the threshold by
    /// one build's writes, and a read pays the same ≈ 1.7 µs for each
    /// extra row until the next compaction folds it — up to twice the
    /// threshold: an insert that finds the delta there with the build
    /// still running waits for its swap.
    pub compact_threshold: usize,
    /// Max concurrently executing requests before
    /// [`crate::ServeError::Overloaded`] (0 = unbounded).
    pub max_in_flight: usize,
    /// Retry-with-bounded-backoff policy for write-ahead-log appends
    /// (ignored by non-durable services built with
    /// [`crate::Service::build`]).
    pub retry: RetryPolicy,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            sim: SimConfig::default(),
            theta: 0.7,
            filter: FilterKind::AuDp { tau: 2 },
            compact_threshold: 256,
            max_in_flight: 1024,
            retry: RetryPolicy::default(),
        }
    }
}

impl ServeConfig {
    pub(crate) fn spec_at(&self, theta: f64) -> JoinSpec {
        JoinSpec::threshold(theta).filter(self.filter)
    }

    pub(crate) fn spec(&self) -> JoinSpec {
        self.spec_at(self.theta)
    }
}

/// Receipt of one accepted mutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mutation {
    /// Global id of the affected record.
    pub id: u64,
    /// Generation of the snapshot that first reflects the mutation. An
    /// insert that reaches [`ServeConfig::compact_threshold`] reports its
    /// own publication too: the compaction it starts lands later, under
    /// a larger generation.
    pub generation: u64,
}

/// Point-in-time service counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServeStats {
    /// Generation of the currently published snapshot.
    pub generation: u64,
    /// Live records in the current snapshot.
    pub live: usize,
    /// Records in the current delta segment.
    pub delta_len: usize,
    /// Tombstoned ids awaiting compaction.
    pub tombstones: usize,
    /// Queries answered (search + topk + join_window + batch items).
    pub queries: u64,
    /// Accepted inserts.
    pub inserts: u64,
    /// Accepted deletes.
    pub deletes: u64,
    /// Compactions performed.
    pub compactions: u64,
    /// Records segmented by this service so far: a base build from text
    /// (create, open) counts every record it prepares, an insert counts
    /// one, a delete none — and **a compaction segments nothing**: it
    /// merges rows that were segmented when they were created or
    /// inserted. Monotone; the deterministic statement of "stage 1 runs
    /// once per record, ever".
    pub records_prepared: u64,
    /// Records run through signature selection by base builds so far:
    /// every record of a base built from text (create, open) or ranked
    /// afresh, only the appended rows of a compaction that inherited its
    /// order. Monotone: "stage 3 runs once per record per ranking".
    pub records_signed: u64,
    /// Nanoseconds the most recent compaction held the writer lock: the
    /// `Compact` frame at its start plus the swap at its end (the
    /// "compaction pause" — what a writer can queue behind; reads never
    /// block on it). The merge and index build in between hold no lock
    /// ([`CompactionStats::merge_nanos`], [`CompactionStats::build_nanos`]).
    pub last_compact_nanos: u64,
    /// Shape of the most recent compaction (all zero before the first).
    pub last_compact: CompactionStats,
    /// True while a compaction is in flight: its `Compact` frame is
    /// logged and its new base not yet swapped in.
    pub compacting: bool,
    /// Admission counters.
    pub admission: AdmissionStats,
    /// True while the service is in degraded read-only mode.
    pub degraded: bool,
    /// Times the service *entered* degraded mode (a WAL failure that
    /// survived the whole retry budget).
    pub degraded_entries: u64,
    /// Writes rejected fast with [`crate::ServeError::Degraded`] while in
    /// degraded mode.
    pub degraded_writes: u64,
    /// Write-ahead-log counters (`durable: false` and all-zero for
    /// non-durable services).
    pub wal: WalStats,
}

/// What the most recent compaction did, and where its time went.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactionStats {
    /// Base rows carried over as they were (shared, not re-segmented).
    pub carried: u64,
    /// Tombstoned base rows dropped.
    pub dropped: u64,
    /// Live delta rows appended.
    pub appended: u64,
    /// Delta rows inserted while the new base was built, carried into
    /// the swapped-in snapshot's delta (shared, not re-segmented).
    pub carried_rows: u64,
    /// Tombstones set while the new base was built, carried into the
    /// swapped-in snapshot (they mask; the next compaction folds them).
    pub carried_tombstones: u64,
    /// Nanoseconds assembling the merged artifact (`merge_prepared`),
    /// with no lock held.
    pub merge_nanos: u64,
    /// Nanoseconds making it searchable — the indexes, and only when
    /// `reranked` order and signatures — with no lock held.
    pub build_nanos: u64,
    /// Signatures selected: `appended` per inherited selection, or every
    /// live row after a re-rank.
    pub signed: u64,
    /// The new base ranked its pebble keys afresh instead of inheriting
    /// the previous base's order.
    pub reranked: bool,
    /// Rows dropped + appended since the new base's order was ranked.
    pub churn: u64,
    /// Rows that ranking counted; inherited while `churn ≤ ranked_over`.
    pub ranked_over: u64,
}
