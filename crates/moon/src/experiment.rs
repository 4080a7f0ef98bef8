//! The experiment driver: build a world, run it to job completion (or
//! the horizon), and extract a [`RunResult`].

use crate::config::{ClusterConfig, PolicyConfig};
use crate::metrics::{ExecutionProfile, Outcome, RunResult};
use crate::world::World;
use mapred::JobStatus;
use simkit::{RunOutcome, Simulation};

/// Containment limits for one experiment run, used by the sweep runner
/// to turn livelocked cells into recorded failures instead of hung
/// sweeps.
#[derive(Debug, Clone, Copy)]
pub struct RunLimits {
    /// Hard cap on handled simulation events. Hitting it classifies
    /// the run as [`Outcome::EventLimit`].
    pub event_budget: u64,
    /// Optional wall-clock budget for the run. Exceeding it classifies
    /// the run as [`Outcome::Deadline`].
    pub wall_deadline: Option<std::time::Duration>,
}

impl RunLimits {
    /// The default event budget.
    pub const DEFAULT_EVENT_BUDGET: u64 = 200_000_000;
}

impl Default for RunLimits {
    fn default() -> Self {
        RunLimits {
            event_budget: Self::DEFAULT_EVENT_BUDGET,
            wall_deadline: None,
        }
    }
}

/// One experiment point: a workload under a policy on a cluster.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// Cluster shape and volatility.
    pub cluster: ClusterConfig,
    /// Policy bundle under test.
    pub policy: PolicyConfig,
    /// Workload model.
    pub workload: workloads::WorkloadSpec,
    /// Root seed (all randomness derives from it).
    pub seed: u64,
}

// Sweeps fan experiments out across pool workers (`bench::run_campaign`),
// so the whole experiment bundle must stay thread-safe by construction.
// These assertions fail the build if anyone adds interior state (Rc,
// RefCell, raw pointers) that would silently force sweeps sequential.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Experiment>();
    assert_send_sync::<ClusterConfig>();
    assert_send_sync::<PolicyConfig>();
    assert_send_sync::<workloads::WorkloadSpec>();
    assert_send_sync::<workloads::JobStream>();
    assert_send_sync::<RunResult>();
};

impl Experiment {
    /// Run the paper's single-job experiment to completion (job output
    /// committed) or the horizon, under the default limits.
    pub fn run(self) -> RunResult {
        self.run_with_limits(None, None, RunLimits::default())
    }

    /// Run with an optional multi-job stream, an optional telemetry
    /// recorder, and explicit containment limits.
    ///
    /// - `jobs`: `None` is the paper's single-job run ([`Self::run`]);
    ///   `Some` injects the stream's jobs over the horizon, records
    ///   per-job SLO rows in [`RunResult::jobs`], and reports the
    ///   *stream* makespan (first submission → last output commit) as
    ///   the run's `job_time`.
    /// - `telemetry`: `None` (the common case) leaves the world without
    ///   a recorder, so every instrumentation hook reduces to a null
    ///   check and results are byte-identical to pre-telemetry builds.
    ///   `Some(cfg)` samples gauges on `cfg`'s sim-time cadence and
    ///   collects spans, returned in [`RunResult::telemetry`]. The
    ///   recorder is fed from the engine's pre-dispatch observer hook
    ///   and from value reads at existing transition points, with no
    ///   access to the event queue or RNG, so it never changes the
    ///   simulation.
    /// - `limits`: [`RunLimits::default`] is the standard event budget
    ///   with no wall deadline; a sweep may tighten them per cell to
    ///   catch livelocks.
    pub fn run_with_limits(
        self,
        jobs: Option<workloads::JobStream>,
        telemetry: Option<simkit::TelemetryConfig>,
        limits: RunLimits,
    ) -> RunResult {
        let label = self.policy.label.clone();
        let workload_name = self.workload.name.clone();
        let unavailability = self.cluster.unavailability;
        let horizon = self.cluster.horizon;
        let seed = self.seed;
        let multi_job = jobs.is_some();

        let mut world = World::with_stream(self.cluster, self.policy, self.workload, jobs);
        if let Some(cfg) = telemetry {
            world.enable_telemetry(cfg);
        }
        let mut sim = Simulation::new(world, seed).with_event_limit(limits.event_budget);
        if let Some(budget) = limits.wall_deadline {
            sim = sim.with_wall_deadline(budget);
        }
        World::init(&mut sim);
        let sim_outcome = sim.run_until(horizon);
        let events = sim.events_handled();
        let end = sim.now();
        let mut world = sim.into_model();
        let telemetry = world.finalize_telemetry(end).map(Box::new);

        let job = world.job_metrics().unwrap_or_default();
        let finished = world.metrics.job_finished.is_some()
            && world.job_status() == Some(JobStatus::Succeeded);
        // Classify the ending. An event-limit hit is a simulator
        // livelock, not a legitimate DNF — it used to be only a
        // `debug_assert!`, so release sweeps averaged livelocked runs
        // into the DNF column; now reports can tell them apart.
        let outcome = if finished {
            Outcome::Completed
        } else if sim_outcome == RunOutcome::EventLimit {
            Outcome::EventLimit
        } else if sim_outcome == RunOutcome::WallDeadline {
            Outcome::Deadline
        } else {
            Outcome::Horizon
        };
        let profile = ExecutionProfile {
            avg_map_time: world.metrics.map_times.mean(),
            avg_shuffle_time: world.metrics.shuffle_times.mean(),
            avg_reduce_time: world.metrics.reduce_times.mean(),
            killed_maps: job.killed_maps,
            killed_reduces: job.killed_reduces,
        };
        RunResult {
            label,
            workload: workload_name,
            unavailability,
            job_time: if finished {
                world.metrics.job_time()
            } else {
                None
            },
            outcome,
            job,
            profile,
            fetch_failures: world.metrics.fetch_failures,
            events,
            seed,
            jobs: multi_job.then(|| world.job_slo_rows()),
            audit: world.debug_final_audit(),
            telemetry,
        }
    }
}
