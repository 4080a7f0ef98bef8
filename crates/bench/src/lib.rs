//! Shared harness for the `moon-cli` scenario runner.
//!
//! `moon-cli run <name>` regenerates one table or figure of the MOON
//! paper (see DESIGN.md §3 for the index) by running a *scenario* from
//! the [`scenarios`] registry. This crate adds the execution layer: one
//! contained cell loop ([`campaign`]) fanning every (point, seed) cell
//! out over the rayon shim's scoped worker threads (`MOON_THREADS` /
//! `RAYON_NUM_THREADS` override the worker count), with optional
//! checkpoints that are also the record of failed cells (the dead-letter
//! queue `moon-cli dlq` reads), progress lines with run outcomes,
//! paper-style text tables on stdout, and machine-readable JSON under
//! `bench_results/`.
//! [`fig1`] generates the Figure 1 availability trace.

#![warn(missing_docs)]

use moon::RunResult;
use scenarios::{Plan, ScenarioError, ScenarioSpec};

pub mod campaign;
pub mod fig1;
pub mod obs;

pub use campaign::{run_campaign, CampaignConfig, CampaignOutcome, FailedCell};

/// A completed scenario run.
#[derive(Debug)]
pub struct ScenarioRun {
    /// The expanded plan (grid + table layout).
    pub plan: Plan,
    /// Seeds actually used.
    pub seeds: Vec<u64>,
    /// Grid-ordered results, one inner vec per point (seeds inside).
    pub results: Vec<Vec<RunResult>>,
    /// Rendered text tables (what `moon-cli run` prints).
    pub tables: String,
    /// The machine-readable scenario report.
    pub report_json: String,
}

/// Expand and run a scenario in memory: [`run_campaign`] without a
/// checkpoint. Failed cells are contained (their rows render as DNF),
/// and the results keep their live telemetry recorders for
/// [`obs::metrics_jsonl`] / [`obs::chrome_trace`].
pub fn run_spec(
    spec: &ScenarioSpec,
    seeds_override: Option<Vec<u64>>,
) -> Result<ScenarioRun, ScenarioError> {
    run_campaign(spec, seeds_override, &CampaignConfig::default()).map(|o| o.run)
}

/// Write a scenario report to `path` (creating parent directories),
/// logging the destination on stderr. The write is atomic (temp file +
/// rename), so a killed process never leaves a truncated artifact.
pub fn write_report(path: &std::path::Path, report_json: &str) {
    match simkit::fsio::atomic_write(path, report_json.as_bytes()) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}
