//! # moon-repro — umbrella crate for the MOON reproduction
//!
//! Re-exports the workspace crates so examples and integration tests can
//! reach every layer through one dependency:
//!
//! - [`moon`] — the integrated system: cluster/policy configuration,
//!   experiment driver, results.
//! - [`workloads`] — Table I workload cost models and job streams.
//! - [`mapred`] — the MapReduce control plane (JobTracker, schedulers).
//! - [`dfs`] — the MOON file system policy engine.
//! - [`availability`] — outage traces and estimators.
//! - [`scenarios`] — the declarative scenario engine behind `moon-cli`.
//! - [`netsim`] — the flow-level bandwidth simulator.
//! - [`simkit`] — the discrete-event kernel.
//!
//! Start with the doc-tested quickstart in [`moon`]'s crate-level docs
//! (mirrored by `examples/quickstart.rs`), then `README.md` for the
//! repository tour and `DESIGN.md` for the system inventory.

#![warn(missing_docs)]

pub use availability;
pub use dfs;
pub use mapred;
pub use moon;
pub use netsim;
pub use scenarios;
pub use simkit;
pub use workloads;
