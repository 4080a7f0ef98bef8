//! Speculative-scheduling policies: stock Hadoop and MOON's two-phase
//! volatility-aware scheduler (§V). Both share Hadoop's straggler rule
//! and its one-copy cap on speculating a slow task; those are paper
//! constants of the JobTracker, not policy fields.

use simkit::SimDuration;

/// MOON's `SuspensionInterval` (§V): a tracker silent this long is
/// *suspended* (its attempts flagged inactive, not killed). Paper: 1
/// minute.
const SUSPENSION_INTERVAL: SimDuration = SimDuration::from_mins(1);

/// How the JobTracker reacts to map-output fetch failures (§VI-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchFailurePolicy {
    /// Stock Hadoop: re-execute a completed map once more than half of the
    /// running reduces have reported failures fetching it.
    HadoopMajority,
    /// MOON: after 3 fetch failures, query the file system; if no active
    /// replica of the map output exists, re-execute immediately.
    MoonQuery,
}

/// How the JobTracker orders *jobs* when several run concurrently —
/// the cross-job layer of the scheduler lattice. The per-task policies
/// ([`SchedulerPolicy`]) still decide *which task* of the chosen job
/// runs; this decides *whose turn* it is. With a single job every
/// variant behaves identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CrossJobPolicy {
    /// Strict submission order: earlier jobs drain the cluster first
    /// (stock Hadoop's default JobQueue behaviour).
    #[default]
    Fifo,
    /// Max-min fair share over running attempts: every free slot goes
    /// to the runnable job with the fewest live attempts (ties broken
    /// by submission order), equalising cluster shares under
    /// contention — the job-driven style of arXiv:1808.08040.
    FairShare,
    /// Fair share with the ranking deliberately inverted: every free
    /// slot goes to the runnable job with the *most* live attempts
    /// (ties broken by *latest* submission). A fault-injection variant
    /// that starves the queue tail — it exists so the metamorphic
    /// fuzzer's tail-latency invariant can prove it catches scheduler
    /// regressions, and is never a sensible production choice.
    FairShareInverted,
    /// Earliest-deadline-first: jobs with the nearest absolute deadline
    /// drain first; deadline-less jobs rank behind every deadline (and
    /// among themselves in submission order, so an all-slack or
    /// all-`None` stream degenerates to FIFO). The deadline-driven
    /// half of arXiv:1808.08040's two-level scheduler.
    Edf,
    /// Strict priority: higher [`crate::JobSpec::priority`] always wins
    /// a slot over lower (ties in submission order). Deliberately
    /// starvation-prone below the top runnable tier — that is the
    /// contract the conformance suite pins.
    StrictPriority,
    /// Weighted max-min fairness across *tenants* with minimum-share
    /// guarantees: tenants below their configured minimum slot count
    /// rank first, then tenants by ascending `live_attempts / weight`,
    /// then jobs within a tenant by max-min fair share. The OS4M-style
    /// global-balancing axis from the roadmap.
    TenantFair,
}

impl CrossJobPolicy {
    /// Stable machine-readable name (`fifo` / `fair` / `fair-inverted`
    /// / `edf` / `priority` / `tenant-fair`).
    pub fn as_str(self) -> &'static str {
        match self {
            CrossJobPolicy::Fifo => "fifo",
            CrossJobPolicy::FairShare => "fair",
            CrossJobPolicy::FairShareInverted => "fair-inverted",
            CrossJobPolicy::Edf => "edf",
            CrossJobPolicy::StrictPriority => "priority",
            CrossJobPolicy::TenantFair => "tenant-fair",
        }
    }
}

/// Stock Hadoop scheduling.
#[derive(Debug, Clone)]
pub struct HadoopPolicy {
    /// `TrackerExpiryInterval`: silent trackers are declared dead after
    /// this long (paper sweeps 1 / 5 / 10 minutes).
    pub tracker_expiry: SimDuration,
}

impl Default for HadoopPolicy {
    fn default() -> Self {
        HadoopPolicy {
            tracker_expiry: SimDuration::from_mins(10),
        }
    }
}

impl HadoopPolicy {
    /// Hadoop with a non-default expiry interval (the paper's
    /// Hadoop10Min / Hadoop5Min / Hadoop1Min variants).
    pub fn with_expiry(expiry: SimDuration) -> Self {
        HadoopPolicy {
            tracker_expiry: expiry,
        }
    }
}

/// MOON's two-phase, volatility-aware scheduler (§V).
#[derive(Debug, Clone)]
pub struct MoonPolicy {
    /// `TrackerExpiryInterval`: much larger than Hadoop's because
    /// suspension already handles transient outages. Paper: 30 minutes.
    pub tracker_expiry: SimDuration,
    /// Global cap: live speculative attempts of a job may not exceed this
    /// fraction of the currently available execution slots. Paper: 20 %.
    pub speculative_slot_fraction: f64,
    /// Homestretch trigger `H`: the phase begins when remaining tasks
    /// fall below `H%` of available slots. Paper: 20.
    pub homestretch_h_percent: f64,
    /// Homestretch replication target `R`: keep at least this many active
    /// copies of every remaining task. Paper: 2.
    pub homestretch_r: u32,
    /// Hybrid awareness (§V-C): schedule speculative copies on dedicated
    /// nodes; tasks with a dedicated copy skip the homestretch and are
    /// deprioritised for further replicas.
    pub hybrid: bool,
}

impl Default for MoonPolicy {
    fn default() -> Self {
        MoonPolicy {
            tracker_expiry: SimDuration::from_mins(30),
            speculative_slot_fraction: 0.2,
            homestretch_h_percent: 20.0,
            homestretch_r: 2,
            hybrid: true,
        }
    }
}

impl MoonPolicy {
    /// MOON without hybrid awareness (the paper's "MOON" curve, as
    /// opposed to "MOON-Hybrid").
    pub fn without_hybrid() -> Self {
        MoonPolicy {
            hybrid: false,
            ..Default::default()
        }
    }
}

/// The scheduling policy in force for a JobTracker.
#[derive(Debug, Clone)]
pub enum SchedulerPolicy {
    /// Stock Hadoop.
    Hadoop(HadoopPolicy),
    /// MOON two-phase (optionally hybrid-aware).
    Moon(MoonPolicy),
}

impl SchedulerPolicy {
    /// The interval after which a silent tracker is declared dead.
    pub fn tracker_expiry(&self) -> SimDuration {
        match self {
            SchedulerPolicy::Hadoop(p) => p.tracker_expiry,
            SchedulerPolicy::Moon(p) => p.tracker_expiry,
        }
    }

    /// The interval after which a silent tracker is *suspended* (MOON
    /// only; Hadoop never suspends, so this equals the expiry interval).
    pub fn suspension_interval(&self) -> SimDuration {
        match self {
            SchedulerPolicy::Hadoop(p) => p.tracker_expiry,
            SchedulerPolicy::Moon(_) => SUSPENSION_INTERVAL,
        }
    }

    /// Is hybrid-aware placement enabled?
    pub fn hybrid(&self) -> bool {
        matches!(self, SchedulerPolicy::Moon(p) if p.hybrid)
    }

    /// Does the policy treat dedicated trackers as workers for *original*
    /// task executions? Hadoop cannot tell classes apart (yes); MOON uses
    /// dedicated nodes for data service plus, in hybrid mode, speculative
    /// copies only (§V-C).
    pub fn dedicated_runs_originals(&self) -> bool {
        matches!(self, SchedulerPolicy::Hadoop(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let m = MoonPolicy::default();
        assert_eq!(m.tracker_expiry, SimDuration::from_mins(30));
        assert!((m.speculative_slot_fraction - 0.2).abs() < 1e-12);
        assert!((m.homestretch_h_percent - 20.0).abs() < 1e-12);
        assert_eq!(m.homestretch_r, 2);
        let h = HadoopPolicy::default();
        assert_eq!(h.tracker_expiry, SimDuration::from_mins(10));
    }

    #[test]
    fn policy_dispatch() {
        let moon = SchedulerPolicy::Moon(MoonPolicy::default());
        assert!(moon.hybrid());
        assert!(!moon.dedicated_runs_originals());
        assert_eq!(moon.suspension_interval(), SimDuration::from_mins(1));
        let moon_nh = SchedulerPolicy::Moon(MoonPolicy::without_hybrid());
        assert!(!moon_nh.hybrid());
        let hadoop = SchedulerPolicy::Hadoop(HadoopPolicy::with_expiry(SimDuration::from_mins(1)));
        assert!(!hadoop.hybrid());
        assert!(hadoop.dedicated_runs_originals());
        assert_eq!(hadoop.suspension_interval(), hadoop.tracker_expiry());
    }
}
