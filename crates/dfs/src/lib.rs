//! # dfs — the MOON distributed file system
//!
//! A from-scratch implementation of the metadata and replication engine of
//! an HDFS-class file system, extended with every MOON mechanism from
//! §IV of the paper:
//!
//! - **Hybrid node classes** — [`NodeClass::Dedicated`] vs
//!   [`NodeClass::Volatile`] DataNodes, with per-class placement.
//! - **Two-dimensional replication factors** — [`ReplicationFactor`]
//!   `{d, v}` instead of HDFS's single integer.
//! - **File classes** — [`FileKind::Reliable`] (never lost; always has
//!   dedicated copies) vs [`FileKind::Opportunistic`] (transient data;
//!   dedicated copies best-effort).
//! - **Adaptive volatile replication** — `v′` sized from the NameNode's
//!   sliding-window estimate of node unavailability
//!   ([`replication::adaptive_volatile_degree`]).
//! - **I/O throttling of dedicated nodes** — the paper's Algorithm 1
//!   ([`IoThrottle`]), declining opportunistic writes near saturation.
//! - **Hibernate state** — a third liveness state between Active and Dead
//!   ([`NodeLiveness::Hibernated`]) that suppresses both I/O requests and
//!   replication thrashing on transient outages.
//! - **Prioritised re-replication** — reliable files first
//!   ([`replication::ReplicationQueue`]).
//!
//! Setting [`NameNodeConfig::hybrid`]` = false` recovers stock-HDFS
//! behaviour (uniform placement, no hibernation, no throttle), which is
//! the Hadoop baseline used throughout the paper's evaluation.
//!
//! The crate is a *policy engine*: it makes placement and replication
//! decisions but performs no I/O. The `moon` crate turns decisions into
//! simulated flows.

#![warn(missing_docs)]

mod namenode;
pub mod replication;
mod throttle;
mod types;

pub use namenode::{LivenessReport, NameNode, NameNodeConfig, ReplicationCommand, WritePlan};
pub use throttle::{IoThrottle, ThrottleState};
pub use types::{BlockId, FileId, FileKind, NodeClass, NodeId, NodeLiveness, ReplicationFactor};
