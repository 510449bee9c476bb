//! `au-serve`: a long-lived concurrent serving layer over the AU-Join
//! engine.
//!
//! The batch engine ([`au_core::engine::Engine`] / `Prepared`) answers
//! one join at a time; this crate turns it into a *service*:
//!
//! * [`Service`] owns an atomically-swappable [`Snapshot`] — an
//!   immutable, indexed base `Prepared` plus a small append-only delta
//!   of already-segmented rows — and serves `search` / `topk` /
//!   `join_window` traffic from any number of threads. The delta has no
//!   filter: a read *scans* it ([`au_core::engine::Engine::scan`]),
//!   verifying every row the tier-0 bound admits with the same verifier
//!   the base's candidates end in.
//! * Mutations ([`Service::insert_record`] / [`Service::delete_record`])
//!   run under a single writer lock and publish a fresh snapshot (one
//!   `Arc` swap) that shares everything it did not change: an insert
//!   segments its one record and appends the row, a delete adds one
//!   tombstone and touches no segment. An acknowledged write therefore
//!   costs one fsync plus one record's segmentation, whatever the size
//!   of the knowledge base or the delta
//!   ([`ServeStats::records_prepared`]); what remains is a read-side
//!   cost linear in [`ServeConfig::compact_threshold`]. Every publish
//!   mints a new knowledge generation through the same process-wide
//!   counter as every other engine artifact — a compact-then-shard
//!   interleaving can never collide generations.
//! * An explicit [`Service::compact`] or the insert that reaches
//!   [`ServeConfig::compact_threshold`] folds the
//!   delta and tombstones into a fresh monolithic base off the writer
//!   lock (the writes that land meanwhile are carried into the swapped-in
//!   snapshot) —
//!   a *merge* of rows that are already segmented, under the pebble
//!   order the previous base was signed under
//!   ([`au_core::engine::Engine::merge_prepared`]; carried rows keep
//!   their signatures, appended rows are signed, only the indexes are
//!   rebuilt — [`ServeStats::records_signed`]) — after which query
//!   *answers* are byte-identical to a from-scratch prepare of the
//!   final corpus state. The funnel counters of a response are those of
//!   the base's order: a fresh ranking's again once a compaction
//!   re-ranks ([`CompactionStats::reranked`]) or the service is reopened.
//! * Admission is bounded: past `max_in_flight` concurrent requests the
//!   service sheds load with the typed [`ServeError::Overloaded`].
//! * Durability: [`Service::create`] / [`Service::open`] commit every
//!   mutation to a checksummed write-ahead log ([`Wal`], through the
//!   injectable [`Storage`] trait) *before* acknowledging it, replay
//!   the log at open tolerating a torn tail, retry transient IO faults
//!   with bounded backoff ([`RetryPolicy`]), and degrade to a typed
//!   read-only mode ([`ServeError::Degraded`]) when faults persist —
//!   readers keep being served from the last published snapshot.
//!   [`FaultyStorage`] injects a seeded, deterministic fault schedule
//!   for the crash/fault matrices in tests and CI.
//!
//! Readers never block writers and vice versa: a query clones the
//! current snapshot `Arc` under a read lock held only for the clone,
//! then runs entirely on immutable state. Every response carries the
//! generation it was served at, so callers (and the stress tests) can
//! assert that no response ever mixes two snapshots.

#![warn(missing_docs)]

mod admission;
mod compaction;
mod config;
mod error;
mod faults;
mod replay;
mod service;
mod snapshot;
mod storage;
mod tombstone;
mod wal;
mod write;

pub use admission::AdmissionStats;
pub use config::{CompactionStats, Mutation, ServeConfig, ServeStats};
pub use error::ServeError;
pub use faults::{FaultCounts, FaultPlan, FaultyStorage};
pub use service::Service;
pub use snapshot::{JoinWindowResponse, SearchResponse, Snapshot, TopkResponse};
pub use storage::{FileStorage, MemStorage, Storage};
pub use tombstone::TombstoneSet;
pub use wal::{frame_boundaries, scan_log, RetryPolicy, ScannedLog, Wal, WalOp, WalStats};
