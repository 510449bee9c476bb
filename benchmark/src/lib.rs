//! The repository benchmark: four named workloads against the session API
//! (`Engine`, `Prepared`, `JoinSpec`, `Searcher`, `Service`, `ServeConfig`,
//! `Snapshot`, `Storage`), end-to-end metrics from an untraced run and
//! per-layer metrics from a traced one. See `README.md`.

pub mod cli;
pub mod common;
pub mod joins;
pub mod report;
pub mod run;
pub mod search;
pub mod serve;
pub mod spec;
pub mod stats;
pub mod trace;
