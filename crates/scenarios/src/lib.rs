//! # scenarios — declarative scenario engine
//!
//! Scenarios are *data*, not code: a [`ScenarioSpec`] names workloads,
//! a policy set, an unavailability axis (synthetic rates, correlated
//! lab-session fleets, or an on-disk trace file), seeds, a horizon and
//! output tables — and the engine expands it into a grid of
//! fully-configured experiments ([`expand()`](expand::expand)) and folds the results
//! back into paper-style tables plus a JSON report ([`render`]).
//!
//! Every spec is a TOML file, parsed by the self-contained subset
//! parser in [`toml`] (no crate registry; line-numbered errors) and
//! mapped by [`codec`]. The built-in [`registry`] embeds the paper
//! reproductions and stress scenarios as such files, read through the
//! same path as a user's own.
//!
//! The `bench` crate layers the parallel sweep harness and the
//! `moon-cli` binary on top; `moon-cli run <name>` regenerates each
//! paper figure and table from its registry entry.

#![warn(missing_docs)]

pub mod codec;
pub mod expand;
pub mod fuzz;
pub mod invariants;
pub mod knobs;
pub mod policy;
pub mod registry;
pub mod render;
pub mod spec;
pub mod toml;
pub mod workload;

pub use expand::{expand, Plan, Point};
pub use fuzz::{run_fuzz, Fault, FuzzConfig, FuzzReport};
pub use knobs::{cluster, maybe_shrink, quick_mode, seed_list, seeds};
pub use render::{mean_duplicates, mean_slowdown, mean_time, render_tables, report_json};
pub use spec::{
    ArrivalSpec, Axis, CorrelatedAxis, CorrelatedKnob, JobStreamSpec, LoadAxis, PolicyRef,
    ScenarioError, ScenarioSpec, TableKind, TableSpec, TelemetrySpec,
};
