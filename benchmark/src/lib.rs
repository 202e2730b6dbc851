//! `ddosbench` — the benchmark of the ddoscovery reproduction. See
//! `README.md` beside this crate for the workloads, the metrics and how
//! to read a traced run.

pub mod child;
pub mod compare;
pub mod loadgen;
pub mod report;
pub mod spec;
pub mod stats;
pub mod traced;
pub mod workloads;
