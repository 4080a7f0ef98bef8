//! The JobTracker: task bookkeeping, tracker liveness, slot assignment,
//! speculative execution, and fetch-failure handling.
//!
//! Like the NameNode, this is a pure state machine: the embedding world
//! calls [`JobTracker::heartbeat`] when a TaskTracker reports in, feeds
//! back attempt outcomes, and periodically runs
//! [`JobTracker::check_trackers`]. All policy differences between stock
//! Hadoop, MOON and MOON-Hybrid live here and in [`crate::policy`].

use crate::job::{AttemptInfo, JobSpec, JobStatus, TaskState, MAX_TASK_FAILURES};
use crate::policy::{CrossJobPolicy, FetchFailurePolicy, SchedulerPolicy};
use crate::types::{
    AttemptId, AttemptState, JobId, LaunchReason, TaskAssignment, TaskId, TaskKind,
};
use dfs::NodeId;
use simkit::{SimDuration, SimTime};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};

/// Hadoop's straggler ("slow task") rule, shared by every policy: a task
/// must have run at least this long before it can be a straggler.
const STRAGGLER_MIN_RUNTIME: SimDuration = SimDuration::from_secs(60);
/// The straggler rule's progress gap: a straggler's best progress is at
/// least this far below the average of its job's tasks of the same kind.
const STRAGGLER_GAP: f64 = 0.2;
/// Speculative copies of a *slow* task beyond the original (Hadoop's
/// default; MOON's frozen tasks are exempt — §V-A).
const MAX_SPECULATIVE_PER_TASK: u32 = 1;
/// Fraction of a job's maps that must finish before its reduces are
/// scheduled (Hadoop's "slowstart").
const REDUCE_SLOWSTART: f64 = 0.05;

/// Hadoop's straggler ("slow task") test, the one rule both speculative
/// pickers apply to a live, incomplete task: it is under the per-task
/// speculative cap, its oldest live attempt has run at least
/// [`STRAGGLER_MIN_RUNTIME`], and its best progress is more than
/// [`STRAGGLER_GAP`] below `avg`, its job's average for the task kind.
fn is_straggler(task: &TaskState, now: SimTime, avg: f64) -> bool {
    let oldest_start = || task.live_attempts().map(|a| a.started).min().unwrap_or(now);
    (task.n_live_speculative() as u32) < MAX_SPECULATIVE_PER_TASK
        && now.since(oldest_start()) >= STRAGGLER_MIN_RUNTIME
        && task.best_progress() < avg - STRAGGLER_GAP
}

/// Liveness of a TaskTracker as seen by the JobTracker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrackerState {
    /// Heartbeating normally.
    Alive,
    /// Silent past the suspension interval (MOON only).
    Suspended,
    /// Silent past the expiry interval; its attempts were killed.
    Dead,
}

#[derive(Debug)]
struct Tracker {
    dedicated: bool,
    map_slots: u32,
    reduce_slots: u32,
    last_heartbeat: SimTime,
    state: TrackerState,
    /// Live attempts assigned to this tracker: maintained at launch and
    /// release, recounted by [`JobTracker::audit_indexes`].
    running: BTreeSet<AttemptId>,
}

/// Windowed fetch-failure reports for one map task. Reports arrive in
/// nondecreasing sim-time order, so expiring the window is a prefix
/// drop, and the distinct-reporter count is maintained incrementally
/// instead of re-sorting the report list on every report.
#[derive(Debug, Default)]
struct FetchReports {
    /// (reporting reduce, report time), time-ascending.
    reports: std::collections::VecDeque<(TaskId, SimTime)>,
    /// Reports-in-window per distinct reporting reduce.
    reporter_counts: BTreeMap<TaskId, u32>,
}

impl FetchReports {
    fn push(&mut self, reduce: TaskId, now: SimTime) {
        debug_assert!(
            self.reports.back().is_none_or(|&(_, t)| t <= now),
            "fetch-failure reports arrived out of order"
        );
        self.reports.push_back((reduce, now));
        *self.reporter_counts.entry(reduce).or_insert(0) += 1;
    }

    /// Drop reports before `cutoff` (a prefix, since times ascend).
    fn expire(&mut self, cutoff: SimTime) {
        while let Some(&(r, t)) = self.reports.front() {
            if t >= cutoff {
                break;
            }
            self.reports.pop_front();
            let c = self
                .reporter_counts
                .get_mut(&r)
                .expect("count tracks reports");
            *c -= 1;
            if *c == 0 {
                self.reporter_counts.remove(&r);
            }
        }
    }
}

#[derive(Debug)]
struct Job {
    spec: JobSpec,
    /// Map and reduce tasks, each indexed by `TaskId::index`.
    maps: Vec<TaskState>,
    reduces: Vec<TaskState>,
    status: JobStatus,
    submitted: SimTime,
    /// When the job's first attempt launched (queueing-delay endpoint).
    first_launch: Option<SimTime>,
    /// The next task's `first_launch_seq` (launch order).
    next_launch_seq: u32,
    /// map task → fetch-failure reports as (reporting reduce, time).
    /// Reports expire so that disjoint outage episodes do not accumulate
    /// into a spurious re-execution.
    fetch_failures: BTreeMap<TaskId, FetchReports>,
    /// Live (Running or Inactive) attempts across the job's tasks,
    /// maintained incrementally at launch / kill / success / failure —
    /// the job's cluster share, ranked by fair-share ordering without
    /// an O(tasks) scan per slot grant.
    live_attempts: u32,
    /// The job's counters, returned by [`JobTracker::job_metrics`].
    metrics: JobMetrics,
}

impl Job {
    /// The job's tasks of `kind`, indexed by `TaskId::index`.
    fn tasks(&self, kind: TaskKind) -> &[TaskState] {
        match kind {
            TaskKind::Map => &self.maps,
            TaskKind::Reduce => &self.reduces,
        }
    }

    fn task(&self, id: TaskId) -> &TaskState {
        &self.tasks(id.kind)[id.index as usize]
    }

    fn task_mut(&mut self, id: TaskId) -> &mut TaskState {
        let tasks = match id.kind {
            TaskKind::Map => &mut self.maps,
            TaskKind::Reduce => &mut self.reduces,
        };
        &mut tasks[id.index as usize]
    }

    fn all_tasks(&self) -> impl Iterator<Item = &TaskState> {
        self.maps.iter().chain(&self.reduces)
    }

    /// Is `task` a map whose input split has a replica on `node`?
    fn input_local(&self, task: TaskId, node: NodeId) -> bool {
        task.kind == TaskKind::Map
            && self
                .spec
                .map_input_locations
                .get(task.index as usize)
                .is_some_and(|locs| locs.contains(&node))
    }
}

/// Per-job counters used by the paper's figures and Table II.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct JobMetrics {
    /// Attempts launched beyond each task's first (Figure 5's
    /// "duplicated tasks").
    pub duplicated_tasks: u32,
    /// Map attempts killed (tracker death, sibling success, invalidation).
    pub killed_maps: u32,
    /// Reduce attempts killed.
    pub killed_reduces: u32,
    /// Attempts killed specifically by tracker expiry (subset of the
    /// killed counts; sibling-success kills are benign bookkeeping).
    pub killed_by_tracker_expiry: u32,
    /// Completed maps re-executed because their output became
    /// unavailable.
    pub map_output_relaunches: u32,
    /// Maps completed so far.
    pub completed_maps: u32,
    /// Reduces completed so far.
    pub completed_reduces: u32,
    /// Attempts killed by cross-job preemption (subset of the killed
    /// counts — the cost side of the preemption tradeoff).
    pub preempted: u32,
}

impl JobMetrics {
    /// Accumulate another job's counters (for whole-run aggregates
    /// across a multi-job stream; summing one job is the identity).
    pub fn accumulate(&mut self, other: &JobMetrics) {
        self.duplicated_tasks += other.duplicated_tasks;
        self.killed_maps += other.killed_maps;
        self.killed_reduces += other.killed_reduces;
        self.killed_by_tracker_expiry += other.killed_by_tracker_expiry;
        self.map_output_relaunches += other.map_output_relaunches;
        self.completed_maps += other.completed_maps;
        self.completed_reduces += other.completed_reduces;
        self.preempted += other.preempted;
    }
}

/// What a heartbeat returned: work to start and attempts to abort.
#[derive(Debug, Default, Clone)]
pub struct HeartbeatResponse {
    /// New attempts the tracker must start.
    pub assignments: Vec<TaskAssignment>,
    /// Attempts the tracker must abort (task finished elsewhere while the
    /// tracker was suspended).
    pub kill: Vec<AttemptId>,
}

/// Outcome of a liveness sweep.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct TrackerSweep {
    /// Trackers that just became suspended.
    pub suspended: Vec<NodeId>,
    /// Trackers that were just declared dead.
    pub expired: Vec<NodeId>,
    /// Attempts killed because their tracker died.
    pub killed: Vec<AttemptId>,
}

/// Result of reporting a task success.
#[derive(Debug, Default, Clone)]
pub struct SuccessResponse {
    /// Sibling attempts to abort.
    pub kill: Vec<AttemptId>,
    /// True if this completed the whole job.
    pub job_completed: bool,
}

/// The MapReduce master.
///
/// Jobs, trackers, tasks and attempts live in tables indexed by their
/// dense ids (`JobId`, `NodeId`, `TaskId::index`, `AttemptId::attempt`),
/// as the NameNode's do, so every lookup is an index. Hot-path state is
/// indexed so per-event cost tracks *active* work, not lifetime totals:
/// `running_jobs` keeps the pickers off completed jobs, the
/// alive-slot counters make `available_slots` O(1), and each tracker's
/// `running` set makes its free slots and [`Self::attempts_on`] local.
/// Liveness sweeps walk the tracker table: heartbeats outnumber sweeps
/// about 3:1 per tracker, so an index kept in heartbeat order would cost
/// more to maintain than the walk it saves. Debug builds cross-check
/// every index against a from-scratch recount (see
/// [`Self::audit_indexes`]).
pub struct JobTracker {
    policy: SchedulerPolicy,
    fetch_policy: FetchFailurePolicy,
    cross_job: CrossJobPolicy,
    /// Tracker table indexed by `NodeId` (`None` = never registered).
    trackers: Vec<Option<Tracker>>,
    /// Every job ever submitted, indexed by `JobId` (never removed).
    jobs: Vec<Job>,
    /// Jobs with status Running, ascending JobId (= submission order,
    /// so iterating it *is* the FIFO ranking). Maintained at submit /
    /// completion / failure.
    running_jobs: BTreeSet<JobId>,
    /// Map/reduce slot totals over Alive trackers, maintained on every
    /// liveness transition.
    alive_map_slots: u32,
    alive_reduce_slots: u32,
    /// Cross-job ranking scratch, cleared and refilled per pick so
    /// steady-state picks allocate nothing.
    rank_scratch: RefCell<Vec<(u128, JobId)>>,
    /// Kill-and-requeue preemption: when on, a saturated tracker may
    /// reclaim an occupied slot for a more policy-deserving job.
    preempt: bool,
    /// Tenant weights for [`CrossJobPolicy::TenantFair`], indexed by
    /// tenant id (missing / zero entries count as weight 1).
    tenant_weights: Vec<u32>,
    /// Per-tenant minimum slot guarantees (missing entries = 0).
    tenant_min_slots: Vec<u32>,
    /// Lifetime preemption count across all jobs (gauge feed).
    total_preempted: u64,
}

impl JobTracker {
    /// A JobTracker with the given scheduling and fetch-failure policies
    /// (cross-job ordering defaults to FIFO; see [`Self::with_cross_job`]).
    pub fn new(policy: SchedulerPolicy, fetch_policy: FetchFailurePolicy) -> Self {
        JobTracker {
            policy,
            fetch_policy,
            cross_job: CrossJobPolicy::default(),
            trackers: Vec::new(),
            jobs: Vec::new(),
            running_jobs: BTreeSet::new(),
            alive_map_slots: 0,
            alive_reduce_slots: 0,
            rank_scratch: RefCell::new(Vec::new()),
            preempt: false,
            tenant_weights: Vec::new(),
            tenant_min_slots: Vec::new(),
            total_preempted: 0,
        }
    }

    /// Recount every maintained index from scratch — `running_jobs`,
    /// the alive-slot counters, each job's `live_attempts` and each
    /// tracker's `running` set — and report each discrepancy as one
    /// line (empty = no drift). Debug builds assert
    /// it is empty at each liveness sweep; release-mode fuzzing runs it
    /// after every experiment (`World::debug_final_audit`), where a
    /// panic would abort the whole campaign instead of becoming a
    /// shrinkable finding.
    pub fn audit_indexes(&self) -> Vec<String> {
        let mut issues = Vec::new();
        let running: BTreeSet<JobId> = self
            .job_ids()
            .filter(|&id| self.job(id).status == JobStatus::Running)
            .collect();
        if self.running_jobs != running {
            issues.push(format!(
                "running-job index drifted: indexed {:?}, statuses say {:?}",
                self.running_jobs, running
            ));
        }
        let mut maps = 0u32;
        let mut reduces = 0u32;
        for tr in self.trackers.iter().flatten() {
            if tr.state == TrackerState::Alive {
                maps += tr.map_slots;
                reduces += tr.reduce_slots;
            }
        }
        if self.alive_map_slots != maps {
            issues.push(format!(
                "alive map-slot counter drifted: counter {}, recount {maps}",
                self.alive_map_slots
            ));
        }
        if self.alive_reduce_slots != reduces {
            issues.push(format!(
                "alive reduce-slot counter drifted: counter {}, recount {reduces}",
                self.alive_reduce_slots
            ));
        }
        // Each tracker's running set holds exactly the live attempts
        // placed on it (launch only places on registered trackers).
        let mut placed: Vec<BTreeSet<AttemptId>> = vec![BTreeSet::new(); self.trackers.len()];
        for (jid, job) in self.job_ids().zip(&self.jobs) {
            let live: u32 = job.all_tasks().map(|t| t.n_live() as u32).sum();
            if job.live_attempts != live {
                issues.push(format!(
                    "job {jid:?} live-attempt counter drifted: counter {}, recount {live}",
                    job.live_attempts
                ));
            }
            for a in job.all_tasks().flat_map(TaskState::live_attempts) {
                if let Some(set) = placed.get_mut(a.node.0 as usize) {
                    set.insert(a.id);
                }
            }
        }
        let unregistered = BTreeSet::new();
        for (i, (tr, recount)) in self.trackers.iter().zip(&placed).enumerate() {
            let indexed = tr.as_ref().map_or(&unregistered, |tr| &tr.running);
            if indexed != recount {
                issues.push(format!(
                    "tracker {i} running set drifted: indexed {indexed:?}, live attempts {recount:?}"
                ));
            }
        }
        issues
    }

    /// Set the cross-job ordering policy (FIFO vs max-min fair share).
    pub fn with_cross_job(mut self, cross_job: CrossJobPolicy) -> Self {
        self.cross_job = cross_job;
        self
    }

    /// Enable kill-and-requeue preemption: a heartbeat with no free
    /// slots may kill a running attempt of a policy-disfavored job to
    /// make room for a more deserving one, in the same scheduling round.
    pub fn with_preemption(mut self, preempt: bool) -> Self {
        self.preempt = preempt;
        self
    }

    /// Configure tenant weights and minimum-share guarantees for
    /// [`CrossJobPolicy::TenantFair`] (both indexed by tenant id;
    /// missing weights default to 1, missing minimums to 0).
    pub fn with_tenants(mut self, weights: Vec<u32>, min_slots: Vec<u32>) -> Self {
        self.tenant_weights = weights;
        self.tenant_min_slots = min_slots;
        self
    }

    /// Lifetime count of attempts killed by preemption, across jobs.
    pub fn preempted_total(&self) -> u64 {
        self.total_preempted
    }

    // ------------------------------------------------------------------
    // Trackers
    // ------------------------------------------------------------------

    /// Register a TaskTracker (`dedicated` marks MOON's dedicated nodes).
    pub fn register_tracker(
        &mut self,
        now: SimTime,
        node: NodeId,
        map_slots: u32,
        reduce_slots: u32,
        dedicated: bool,
    ) {
        let i = node.0 as usize;
        if self.trackers.len() <= i {
            self.trackers.resize_with(i + 1, || None);
        }
        let tracker = Tracker {
            dedicated,
            map_slots,
            reduce_slots,
            last_heartbeat: now,
            state: TrackerState::Alive,
            running: BTreeSet::new(),
        };
        if let Some(old) = self.trackers[i].replace(tracker) {
            // Re-registration: retire the old tracker's slot counts.
            if old.state == TrackerState::Alive {
                self.alive_map_slots -= old.map_slots;
                self.alive_reduce_slots -= old.reduce_slots;
            }
        }
        self.alive_map_slots += map_slots;
        self.alive_reduce_slots += reduce_slots;
    }

    fn tracker(&self, node: NodeId) -> &Tracker {
        self.trackers[node.0 as usize]
            .as_ref()
            .expect("unknown tracker")
    }

    fn tracker_mut(&mut self, node: NodeId) -> &mut Tracker {
        self.trackers[node.0 as usize]
            .as_mut()
            .expect("unknown tracker")
    }

    /// Current tracker state.
    pub fn tracker_state(&self, node: NodeId) -> TrackerState {
        self.tracker(node).state
    }

    /// Sweep tracker liveness (call periodically). Suspends and expires
    /// silent trackers per the policy's intervals.
    pub fn check_trackers(&mut self, now: SimTime) -> TrackerSweep {
        debug_assert_eq!(self.audit_indexes(), Vec::<String>::new());
        let mut sweep = TrackerSweep::default();
        let suspension = self.policy.suspension_interval();
        let expiry = self.policy.tracker_expiry();
        // Only trackers silent past the earlier deadline can transition.
        // They are processed in ascending node order (the table's order):
        // sweep vectors and kill ordering feed the deterministic event
        // stream.
        let threshold = suspension.min(expiry);
        let nodes: Vec<NodeId> = (0u32..)
            .zip(&self.trackers)
            .filter_map(|(i, tr)| Some((NodeId(i), tr.as_ref()?)))
            .filter(|(_, tr)| tr.state != TrackerState::Dead)
            .filter(|(_, tr)| now.since(tr.last_heartbeat) >= threshold)
            .map(|(node, _)| node)
            .collect();
        for node in nodes {
            let tr = self.tracker(node);
            let silent = now.since(tr.last_heartbeat);
            match tr.state {
                TrackerState::Alive if silent >= expiry => {
                    sweep.killed.extend(self.expire_tracker(node));
                    sweep.expired.push(node);
                }
                TrackerState::Alive if silent >= suspension => {
                    self.suspend_tracker(node);
                    sweep.suspended.push(node);
                }
                TrackerState::Suspended if silent >= expiry => {
                    sweep.killed.extend(self.expire_tracker(node));
                    sweep.expired.push(node);
                }
                _ => {}
            }
        }
        sweep
    }

    fn suspend_tracker(&mut self, node: NodeId) {
        let tr = self.tracker_mut(node);
        tr.state = TrackerState::Suspended;
        let (map_slots, reduce_slots) = (tr.map_slots, tr.reduce_slots);
        let attempts: Vec<AttemptId> = tr.running.iter().copied().collect();
        self.alive_map_slots -= map_slots;
        self.alive_reduce_slots -= reduce_slots;
        for a in attempts {
            let info = self.attempt_mut(a);
            if info.state == AttemptState::Running {
                info.state = AttemptState::Inactive;
            }
        }
    }

    fn expire_tracker(&mut self, node: NodeId) -> Vec<AttemptId> {
        let tr = self.tracker_mut(node);
        let was_alive = tr.state == TrackerState::Alive;
        tr.state = TrackerState::Dead;
        let (map_slots, reduce_slots) = (tr.map_slots, tr.reduce_slots);
        let attempts: Vec<AttemptId> = std::mem::take(&mut tr.running).into_iter().collect();
        if was_alive {
            self.alive_map_slots -= map_slots;
            self.alive_reduce_slots -= reduce_slots;
        }
        for &a in &attempts {
            self.kill_attempt(a);
            self.job_mut(a.task.job).metrics.killed_by_tracker_expiry += 1;
        }
        attempts
    }

    fn kill_attempt(&mut self, id: AttemptId) {
        let job = self.job_mut(id.task.job);
        match id.task.kind {
            TaskKind::Map => job.metrics.killed_maps += 1,
            TaskKind::Reduce => job.metrics.killed_reduces += 1,
        }
        let info = &mut job.task_mut(id.task).attempts[id.attempt as usize];
        if info.state.is_live() {
            info.state = AttemptState::Killed;
            job.live_attempts -= 1;
        }
    }

    /// An attempt's record: where and when it launched, its state and
    /// progress. Attempts are numbered by launch position and never
    /// removed, so the number is the index.
    pub fn attempt(&self, id: AttemptId) -> &AttemptInfo {
        &self.job(id.task.job).task(id.task).attempts[id.attempt as usize]
    }

    fn attempt_mut(&mut self, id: AttemptId) -> &mut AttemptInfo {
        &mut self.job_mut(id.task.job).task_mut(id.task).attempts[id.attempt as usize]
    }

    fn job(&self, id: JobId) -> &Job {
        &self.jobs[id.0 as usize]
    }

    fn job_mut(&mut self, id: JobId) -> &mut Job {
        &mut self.jobs[id.0 as usize]
    }

    // ------------------------------------------------------------------
    // Jobs
    // ------------------------------------------------------------------

    /// Submit a job; its tasks become schedulable immediately.
    pub fn submit_job(&mut self, now: SimTime, spec: JobSpec) -> JobId {
        let id = JobId(self.jobs.len() as u32);
        let tasks = |kind, n| {
            (0..n)
                .map(|index| {
                    TaskState::new(TaskId {
                        job: id,
                        kind,
                        index,
                    })
                })
                .collect()
        };
        self.jobs.push(Job {
            maps: tasks(TaskKind::Map, spec.n_maps),
            reduces: tasks(TaskKind::Reduce, spec.n_reduces),
            spec,
            status: JobStatus::Running,
            submitted: now,
            first_launch: None,
            next_launch_seq: 0,
            fetch_failures: BTreeMap::new(),
            live_attempts: 0,
            metrics: JobMetrics::default(),
        });
        self.running_jobs.insert(id);
        id
    }

    /// Job status.
    pub fn job_status(&self, job: JobId) -> JobStatus {
        self.job(job).status
    }

    /// When the job was submitted.
    pub fn job_submitted(&self, job: JobId) -> SimTime {
        self.job(job).submitted
    }

    /// When the job's first attempt launched (None while it still
    /// queues) — the endpoint of its queueing delay.
    pub fn job_first_launch(&self, job: JobId) -> Option<SimTime> {
        self.job(job).first_launch
    }

    /// Ids of every job ever submitted, ascending.
    pub fn job_ids(&self) -> impl Iterator<Item = JobId> + '_ {
        (0..self.jobs.len() as u32).map(JobId)
    }

    /// Jobs currently running (submitted, not yet succeeded/failed) —
    /// an instantaneous diagnostic; the perf-log gauges track peaks on
    /// the world side.
    pub fn active_job_count(&self) -> usize {
        self.running_jobs.len()
    }

    /// Jobs submitted whose first attempt has not launched yet — the
    /// instantaneous cross-job queue depth. O(running), not O(ever
    /// submitted).
    pub fn queued_job_count(&self) -> usize {
        self.running_jobs
            .iter()
            .filter(|&&jid| self.job(jid).first_launch.is_none())
            .count()
    }

    /// Snapshot of the job's counters.
    pub fn job_metrics(&self, job: JobId) -> JobMetrics {
        self.job(job).metrics
    }

    /// The job's spec as submitted (deadline / priority / tenant reads
    /// for the world's SLO rows).
    pub fn job_spec(&self, job: JobId) -> &JobSpec {
        &self.job(job).spec
    }

    /// State of one task (for tests and the world model).
    pub fn task(&self, id: TaskId) -> &TaskState {
        self.job(id.job).task(id)
    }

    // ------------------------------------------------------------------
    // Heartbeats & assignment
    // ------------------------------------------------------------------

    /// Record a beat of an Alive tracker at `at` while no job runs —
    /// all that [`heartbeat`](Self::heartbeat) does then. Lets the
    /// embedding model skip beats that only stamp the time and stamp
    /// the last one before the next tracker sweep reads it.
    pub fn stamp_heartbeat(&mut self, node: NodeId, at: SimTime) {
        let tr = self.tracker_mut(node);
        debug_assert!(tr.state == TrackerState::Alive && at >= tr.last_heartbeat);
        tr.last_heartbeat = at;
    }

    /// Time of the tracker's last heartbeat.
    pub fn last_heartbeat(&self, node: NodeId) -> SimTime {
        self.tracker(node).last_heartbeat
    }

    /// Live attempts assigned to the tracker on `node`, ascending.
    pub fn attempts_on(&self, node: NodeId) -> impl Iterator<Item = AttemptId> + '_ {
        self.tracker(node).running.iter().copied()
    }

    /// Process a TaskTracker heartbeat: revive it if needed, then hand it
    /// work for its free slots.
    pub fn heartbeat(&mut self, now: SimTime, node: NodeId) -> HeartbeatResponse {
        let mut resp = HeartbeatResponse::default();
        let (old_state, map_slots, reduce_slots) = {
            let tr = self.tracker_mut(node);
            let prior = (tr.state, tr.map_slots, tr.reduce_slots);
            tr.last_heartbeat = now;
            tr.state = TrackerState::Alive;
            prior
        };
        match old_state {
            TrackerState::Alive => {}
            TrackerState::Suspended => {
                self.alive_map_slots += map_slots;
                self.alive_reduce_slots += reduce_slots;
                let attempts: Vec<AttemptId> = self.tracker(node).running.iter().copied().collect();
                for a in attempts {
                    // Reactivate attempts unless the task finished (or
                    // the attempt was individually killed) meanwhile.
                    if self.task(a.task).completed {
                        self.release_attempt(a);
                        self.kill_attempt(a);
                        resp.kill.push(a);
                    } else {
                        let info = self.attempt_mut(a);
                        if info.state == AttemptState::Inactive {
                            info.state = AttemptState::Running;
                        }
                    }
                }
            }
            TrackerState::Dead => {
                // Re-registration after expiry; attempts were killed.
                self.alive_map_slots += map_slots;
                self.alive_reduce_slots += reduce_slots;
            }
        }

        // Assignment loop: fill map slots then reduce slots. With
        // preemption on, a saturated tracker may first reclaim an
        // occupied slot (kill lands in `resp.kill`, handled by the
        // world *before* the assignments) and the freed slot is granted
        // by the next iteration — same scheduling round, so preemption
        // is work-conserving by construction.
        for kind in [TaskKind::Map, TaskKind::Reduce] {
            loop {
                if self.free_slots(node, kind) == 0 {
                    if self.preempt && self.try_preempt(node, kind, &mut resp.kill) {
                        continue;
                    }
                    break;
                }
                match self.pick_task(now, node, kind) {
                    Some((task, reason)) => {
                        let a = self.launch(now, task, node, reason);
                        resp.assignments.push(a);
                    }
                    None => break,
                }
            }
        }
        resp
    }

    fn free_slots(&self, node: NodeId, kind: TaskKind) -> u32 {
        let tr = self.tracker(node);
        let cap = match kind {
            TaskKind::Map => tr.map_slots,
            TaskKind::Reduce => tr.reduce_slots,
        };
        let used = tr.running.iter().filter(|a| a.task.kind == kind).count() as u32;
        cap.saturating_sub(used)
    }

    fn launch(
        &mut self,
        now: SimTime,
        task: TaskId,
        node: NodeId,
        reason: LaunchReason,
    ) -> TaskAssignment {
        let job = self.job_mut(task.job);
        let seq = job.next_launch_seq;
        let state = job.task_mut(task);
        let id = AttemptId {
            task,
            attempt: state.attempts.len() as u32,
        };
        state.attempts.push(AttemptInfo {
            id,
            node,
            state: AttemptState::Running,
            progress: 0.0,
            started: now,
            reason,
        });
        if id.attempt == 0 {
            state.first_launch_seq = seq;
            job.next_launch_seq += 1;
        }
        job.first_launch.get_or_insert(now);
        job.live_attempts += 1;
        if reason.is_duplicate() {
            job.metrics.duplicated_tasks += 1;
        }
        self.tracker_mut(node).running.insert(id);
        TaskAssignment {
            attempt: id,
            node,
            reason,
        }
    }

    /// Remove the attempt from its tracker's running set.
    fn release_attempt(&mut self, id: AttemptId) {
        let node = self.attempt(id).node;
        self.tracker_mut(node).running.remove(&id);
    }

    /// Choose the next task of `kind` for `node`, with the launch reason.
    fn pick_task(
        &mut self,
        now: SimTime,
        node: NodeId,
        kind: TaskKind,
    ) -> Option<(TaskId, LaunchReason)> {
        let dedicated = self.tracker(node).dedicated;
        // MOON treats dedicated nodes as data servers; only the hybrid
        // variant runs (speculative) tasks there (§V-C).
        if dedicated && !self.policy.dedicated_runs_originals() {
            if !self.policy.hybrid() {
                return None;
            }
            return self.pick_speculative(now, node, kind);
        }
        // 1. Fresh launches and retries.
        if let Some(pick) = self.pick_pending(node, kind) {
            return Some(pick);
        }
        // 2. Speculation.
        self.pick_speculative(now, node, kind)
    }

    /// Drive `f` over running jobs in cross-job policy order, ascending
    /// `(rank_key, JobId)`, stopping at the first `Some`. The ranking
    /// Vec is owned by the tracker and refilled per pick (clear, don't
    /// drop), so steady-state picks allocate nothing; it is taken out
    /// of the cell for the duration so `f` never observes a held
    /// borrow.
    fn pick_across_jobs<T>(&self, mut f: impl FnMut(JobId, &Job) -> Option<T>) -> Option<T> {
        let tenant_live = self.tenant_live_counts();
        let mut order = self.rank_scratch.take();
        order.clear();
        order.extend(
            self.running_jobs
                .iter()
                .map(|&jid| (self.rank_key(jid, self.job(jid), &tenant_live), jid)),
        );
        order.sort_unstable();
        let found = order.iter().find_map(|&(_, jid)| f(jid, self.job(jid)));
        self.rank_scratch.replace(order);
        found
    }

    /// Live attempts per tenant over running jobs: the shares the
    /// tenant-fair ranking and preemption guard compare. Empty under
    /// every other policy, whose keys ignore tenants. O(running jobs),
    /// computed once per pick and once per preemption attempt; no
    /// maintained index to drift.
    fn tenant_live_counts(&self) -> BTreeMap<u32, u64> {
        let mut live = BTreeMap::new();
        if self.cross_job == CrossJobPolicy::TenantFair {
            for &jid in &self.running_jobs {
                let j = self.job(jid);
                *live.entry(j.spec.tenant).or_insert(0u64) += u64::from(j.live_attempts);
            }
        }
        live
    }

    fn tenant_weight(&self, tenant: u32) -> u64 {
        u64::from(
            self.tenant_weights
                .get(tenant as usize)
                .copied()
                .unwrap_or(1)
                .max(1),
        )
    }

    fn tenant_min(&self, tenant: u32) -> u64 {
        u64::from(
            self.tenant_min_slots
                .get(tenant as usize)
                .copied()
                .unwrap_or(0),
        )
    }

    /// One job's rank in the single cross-job order: lower is scheduled
    /// sooner, and preemption kills the slot holder with the highest
    /// rank. Every picker sorts by `(key, JobId)`, and the preemption
    /// guard ([`Self::may_preempt`]) compares keys. `tenant_live` comes
    /// from [`Self::tenant_live_counts`].
    fn rank_key(&self, jid: JobId, job: &Job, tenant_live: &BTreeMap<u32, u64>) -> u128 {
        let t_live = tenant_live.get(&job.spec.tenant).copied().unwrap_or(0);
        self.key_at(jid, &job.spec, job.live_attempts, t_live)
    }

    /// [`Self::rank_key`] of job `jid` as if it held `live` attempts and
    /// its tenant held `t_live`.
    ///
    /// - FIFO: the JobId (submission order).
    /// - Fair share: the live-attempt count (fewest first).
    /// - Inverted fair share: `(u32::MAX − live) << 32 | (u32::MAX −
    ///   jid)`, so the most live attempts and then the latest
    ///   submission come first.
    /// - EDF: the absolute deadline in microseconds; deadline-less jobs
    ///   rank at `u128::MAX`, so an all-`None` stream degenerates to
    ///   FIFO via the JobId tie-break.
    /// - Strict priority: `i32::MAX - priority` (higher priority ⇒
    ///   smaller key), never negative.
    /// - Tenant-fair: `class · 2^120 | weighted_share · 2^40 |
    ///   job_live`: tenants below their minimum share first, then
    ///   ascending `tenant_live/weight`, then max-min within a tenant.
    fn key_at(&self, jid: JobId, spec: &JobSpec, live: u32, t_live: u64) -> u128 {
        match self.cross_job {
            CrossJobPolicy::Fifo => u128::from(jid.0),
            CrossJobPolicy::FairShare => u128::from(live),
            CrossJobPolicy::FairShareInverted => {
                (u128::from(u32::MAX - live) << 32) | u128::from(u32::MAX - jid.0)
            }
            CrossJobPolicy::Edf => spec
                .deadline
                .map_or(u128::MAX, |d| u128::from(d.as_micros())),
            CrossJobPolicy::StrictPriority => {
                (i64::from(i32::MAX) - i64::from(spec.priority)) as u128
            }
            CrossJobPolicy::TenantFair => {
                let class = u128::from(t_live >= self.tenant_min(spec.tenant));
                // < 2^52: live attempts are bounded by cluster slots.
                let share = u128::from(t_live * 1_000_000 / self.tenant_weight(spec.tenant));
                (class << 120) | (share << 40) | u128::from(live)
            }
        }
    }

    /// May a pending task of `challenger` kill a running attempt of
    /// `victim`? The guard is derived from the rank key: the challenger
    /// must rank strictly ahead, and must still rank at or ahead of the
    /// victim after one live attempt moves from victim to challenger
    /// (job and tenant counts both). The reverse kill would then need
    /// the victim strictly ahead, which the transfer has just ruled
    /// out, so kill/relaunch ping-pong cannot occur. Two policies keep
    /// a hand-written rule instead; see their arms.
    fn may_preempt(
        &self,
        challenger: JobId,
        victim: JobId,
        tenant_live: &BTreeMap<u32, u64>,
    ) -> bool {
        let (ch, vi) = (self.job(challenger), self.job(victim));
        let (ct, vt) = (ch.spec.tenant, vi.spec.tenant);
        let cl = tenant_live.get(&ct).copied().unwrap_or(0);
        let vl = tenant_live.get(&vt).copied().unwrap_or(0);
        match self.cross_job {
            // The inverted order ranks the biggest job first, so the
            // derived rule would let it take slots from smaller jobs.
            // This fault-injection variant starves the tail by never
            // preempting at all.
            CrossJobPolicy::FairShareInverted => false,
            // Across tenants the key is not the rule: the floor is a
            // hard stop on the victim, a challenger below its own floor
            // wins whatever the shares, the share term is rounded to
            // integers, and the job-live tie term plays no part. So the
            // floor-and-rebalance rule stays as written: never push a
            // tenant below its floor, and move a slot only to a tenant
            // below its floor or when the weighted shares strictly
            // rebalance, `(ch_live+1)·w_v ≤ (v_live−1)·w_c`.
            CrossJobPolicy::TenantFair if ct != vt => {
                vl > self.tenant_min(vt)
                    && (cl < self.tenant_min(ct)
                        || (cl + 1) * self.tenant_weight(vt) <= (vl - 1) * self.tenant_weight(ct))
            }
            _ => {
                let moved = u64::from(ct != vt);
                self.key_at(challenger, &ch.spec, ch.live_attempts, cl)
                    < self.key_at(victim, &vi.spec, vi.live_attempts, vl)
                    && self.key_at(challenger, &ch.spec, ch.live_attempts + 1, cl + moved)
                        <= self.key_at(
                            victim,
                            &vi.spec,
                            vi.live_attempts.saturating_sub(1),
                            vl.saturating_sub(moved),
                        )
            }
        }
    }

    /// Kill-and-requeue one occupied `kind` slot on `node`, if some
    /// pending job deserves it more than a current occupant. The victim
    /// attempt is killed through the normal attempt-kill path (its task
    /// re-enters the pending pool via `needs_launch`) and pushed onto
    /// `kill` for the world to tear down physically. Returns whether a
    /// slot was reclaimed; the caller grants it in the same round.
    fn try_preempt(&mut self, node: NodeId, kind: TaskKind, kill: &mut Vec<AttemptId>) -> bool {
        // Dedicated nodes under MOON-style policies run speculative
        // copies only (§V-C); reclaiming a slot there would grant it to
        // an original, which those nodes never run.
        if self.tracker(node).dedicated && !self.policy.dedicated_runs_originals() {
            return false;
        }
        // Challenger: the first job in policy order with a pending
        // launchable task of this kind — exactly the pick the freed
        // slot will serve, so a successful preemption always re-grants.
        let Some(challenger) =
            self.pick_across_jobs(|jid, job| self.pick_pending_in(job, node, kind).map(|_| jid))
        else {
            return false;
        };
        // Victim: among this tracker's running attempts of `kind`, the
        // one owned by the most policy-disfavored job the challenger may
        // preempt — preferring speculative copies, then the youngest
        // attempt, so the least progress is discarded.
        let tenant_live = self.tenant_live_counts();
        let mut victim: Option<(u128, JobId, bool, AttemptId)> = None;
        let tr = self.tracker(node);
        for &aid in tr.running.iter().filter(|a| a.task.kind == kind) {
            let vjid = aid.task.job;
            if vjid == challenger || !self.may_preempt(challenger, vjid, &tenant_live) {
                continue;
            }
            let key = self.rank_key(vjid, self.job(vjid), &tenant_live);
            let speculative = self.attempt(aid).reason.is_duplicate();
            let cand = (key, vjid, speculative, aid);
            if victim.is_none_or(|v| cand > v) {
                victim = Some(cand);
            }
        }
        let Some((_, vjid, _, aid)) = victim else {
            return false;
        };
        self.release_attempt(aid);
        self.kill_attempt(aid);
        self.job_mut(vjid).metrics.preempted += 1;
        self.total_preempted += 1;
        kill.push(aid);
        true
    }

    /// Non-running tasks: retries first (Hadoop prioritises recently
    /// failed tasks), then unscheduled tasks — maps preferring input
    /// locality to the requesting node. Jobs are visited in cross-job
    /// policy order; the first job with any candidate wins.
    fn pick_pending(&self, node: NodeId, kind: TaskKind) -> Option<(TaskId, LaunchReason)> {
        self.pick_across_jobs(|_, job| self.pick_pending_in(job, node, kind))
    }

    /// The per-job half of [`Self::pick_pending`]: best pending task of
    /// `kind` in one job, by (class, index).
    fn pick_pending_in(
        &self,
        job: &Job,
        node: NodeId,
        kind: TaskKind,
    ) -> Option<(TaskId, LaunchReason)> {
        if kind == TaskKind::Reduce {
            let gate = (REDUCE_SLOWSTART * job.spec.n_maps as f64).ceil() as u32;
            if job.metrics.completed_maps < gate.min(job.spec.n_maps) {
                return None;
            }
        }
        let mut best: Option<(u8, u32, TaskId)> = None; // (class, order, task)
        for task in job.tasks(kind) {
            if !task.needs_launch() {
                continue;
            }
            let retried = !task.attempts.is_empty() || task.output_lost_count > 0;
            // Lower class = higher priority: 0 retry, 1 local fresh,
            // 2 any fresh.
            let class = if retried {
                0
            } else if job.input_local(task.id, node) {
                1
            } else {
                2
            };
            let cand = (class, task.id.index, task.id);
            if best.is_none_or(|b| (cand.0, cand.1) < (b.0, b.1)) {
                best = Some(cand);
            }
        }
        best.map(|(class, _, tid)| {
            let reason = if class == 0 {
                // Distinguish retry-after-kill from lost-output relaunch.
                let t = job.task(tid);
                if t.output_lost_count > 0
                    && t.attempts
                        .iter()
                        .any(|a| a.state == AttemptState::Succeeded)
                {
                    LaunchReason::MapOutputLost
                } else if t.attempts.is_empty() {
                    LaunchReason::Original
                } else {
                    LaunchReason::Retry
                }
            } else {
                LaunchReason::Original
            };
            (tid, reason)
        })
    }

    /// Slots of `kind` across Alive trackers (the paper's "currently
    /// available execution slots"). O(1): the counters are maintained
    /// on liveness transitions and recounted by [`Self::audit_indexes`].
    fn available_slots(&self, kind: Option<TaskKind>) -> u32 {
        match kind {
            Some(TaskKind::Map) => self.alive_map_slots,
            Some(TaskKind::Reduce) => self.alive_reduce_slots,
            None => self.alive_map_slots + self.alive_reduce_slots,
        }
    }

    fn live_speculative(&self, job: &Job) -> u32 {
        job.all_tasks().map(|t| t.n_live_speculative() as u32).sum()
    }

    /// Mean best-progress over scheduled tasks of `kind` (completed
    /// count as 1.0) — the baseline for the Hadoop straggler rule.
    fn avg_progress(&self, job: &Job, kind: TaskKind) -> f64 {
        let mut sum = 0.0;
        let mut n = 0u32;
        for t in job.tasks(kind) {
            if t.completed {
                sum += 1.0;
                n += 1;
            } else if t.n_live() > 0 {
                sum += t.best_progress();
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    fn pick_speculative(
        &self,
        now: SimTime,
        node: NodeId,
        kind: TaskKind,
    ) -> Option<(TaskId, LaunchReason)> {
        match &self.policy {
            SchedulerPolicy::Hadoop(_) => self.pick_speculative_hadoop(now, node, kind),
            SchedulerPolicy::Moon(p) => self.pick_speculative_moon(now, node, kind, p),
        }
    }

    fn pick_speculative_hadoop(
        &self,
        now: SimTime,
        node: NodeId,
        kind: TaskKind,
    ) -> Option<(TaskId, LaunchReason)> {
        self.pick_across_jobs(|_, job| {
            let avg = self.avg_progress(job, kind);
            // Least (non_local, first launch, id); ids are unique.
            let mut best: Option<(bool, u32, TaskId)> = None;
            for task in job.tasks(kind) {
                if task.completed
                    || task.n_live() == 0
                    || task.has_live_attempt_on(|n| n == node)
                    || !is_straggler(task, now, avg)
                {
                    continue;
                }
                let non_local = !job.input_local(task.id, node);
                let cand = (non_local, task.first_launch_seq, task.id);
                best = Some(best.map_or(cand, |b| b.min(cand)));
            }
            best.map(|(_, _, tid)| (tid, LaunchReason::Speculative))
        })
    }

    fn pick_speculative_moon(
        &self,
        now: SimTime,
        node: NodeId,
        kind: TaskKind,
        p: &crate::policy::MoonPolicy,
    ) -> Option<(TaskId, LaunchReason)> {
        self.pick_across_jobs(|_, job| {
            // Global cap on concurrent speculative instances (§V-A).
            let cap =
                (p.speculative_slot_fraction * self.available_slots(None) as f64).floor() as u32;
            if self.live_speculative(job) >= cap.max(1) {
                return None;
            }
            let avg = self.avg_progress(job, kind);
            let tasks = job.tasks(kind);
            let remaining = tasks.iter().filter(|t| !t.completed).count() as u32;
            let homestretch_on = (remaining as f64)
                < (p.homestretch_h_percent / 100.0) * self.available_slots(Some(kind)) as f64;

            // Each list keeps only its least entry; ids are unique.
            // 1. Frozen list: all copies inactive; exempt from the
            //    per-task cap; lowest progress first (§V-A).
            let mut frozen: Option<(u64, TaskId)> = None;
            // 2. Slow list: Hadoop straggler criteria.
            let mut slow: Option<(u64, TaskId)> = None;
            // 3. Homestretch: remaining tasks short of R active copies.
            let mut homestretch: Option<(u32, u64, TaskId)> = None;

            for task in tasks {
                if task.completed || task.n_live() == 0 {
                    continue;
                }
                if task.has_live_attempt_on(|n| n == node) {
                    continue;
                }
                // Tasks already backed by a dedicated copy have reliable
                // backup; skip them for further replication (§V-C).
                if p.hybrid && task.has_live_attempt_on(|n| self.tracker(n).dedicated) {
                    continue;
                }
                let progress_key = (task.best_progress() * 1e9) as u64;
                if task.is_frozen() {
                    let cand = (progress_key, task.id);
                    frozen = Some(frozen.map_or(cand, |b| b.min(cand)));
                    continue;
                }
                if is_straggler(task, now, avg) {
                    let cand = (progress_key, task.id);
                    slow = Some(slow.map_or(cand, |b| b.min(cand)));
                }
                if homestretch_on && (task.n_running() as u32) < p.homestretch_r {
                    let cand = (task.n_running() as u32, progress_key, task.id);
                    homestretch = Some(homestretch.map_or(cand, |b| b.min(cand)));
                }
            }
            // Dedicated nodes also take homestretch copies; volatile nodes
            // do too — the phase just guarantees R active copies.
            frozen
                .or(slow)
                .map(|(_, tid)| (tid, LaunchReason::Speculative))
                .or(homestretch.map(|(_, _, tid)| (tid, LaunchReason::Homestretch)))
        })
    }

    // ------------------------------------------------------------------
    // Attempt outcomes
    // ------------------------------------------------------------------

    /// Record a progress report for an attempt.
    pub fn report_progress(&mut self, attempt: AttemptId, progress: f64) {
        let info = self.attempt_mut(attempt);
        if info.state.is_live() {
            info.progress = progress.clamp(0.0, 1.0);
        }
    }

    /// An attempt finished successfully.
    pub fn attempt_succeeded(&mut self, attempt: AttemptId) -> SuccessResponse {
        let mut resp = SuccessResponse::default();
        let task_id = attempt.task;
        self.release_attempt(attempt);
        let job = self.job_mut(task_id.job);
        let task = job.task_mut(task_id);
        let sibling_done = task.completed;
        let info = &mut task.attempts[attempt.attempt as usize];
        let was_live = info.state.is_live();
        if sibling_done {
            // A sibling already finished; treat this as a benign kill.
            if was_live {
                info.state = AttemptState::Killed;
                job.live_attempts -= 1;
            }
            return resp;
        }
        info.state = AttemptState::Succeeded;
        info.progress = 1.0;
        task.completed = true;
        let siblings: Vec<AttemptId> = task
            .attempts
            .iter()
            .filter(|a| a.state.is_live())
            .map(|a| a.id)
            .collect();
        if was_live {
            job.live_attempts -= 1;
        }
        match task_id.kind {
            TaskKind::Map => job.metrics.completed_maps += 1,
            TaskKind::Reduce => job.metrics.completed_reduces += 1,
        }
        let done = job.metrics.completed_maps == job.spec.n_maps
            && job.metrics.completed_reduces == job.spec.n_reduces;
        if done {
            job.status = JobStatus::Succeeded;
            resp.job_completed = true;
            self.running_jobs.remove(&task_id.job);
        }
        for s in siblings {
            self.release_attempt(s);
            self.kill_attempt(s);
            resp.kill.push(s);
        }
        resp
    }

    /// An attempt failed (e.g. its input block is unreadable).
    pub fn attempt_failed(&mut self, attempt: AttemptId) {
        self.release_attempt(attempt);
        let job = self.job_mut(attempt.task.job);
        let task = job.task_mut(attempt.task);
        let info = &mut task.attempts[attempt.attempt as usize];
        let was_live = info.state.is_live();
        info.state = AttemptState::Failed;
        task.failures += 1;
        let failures = task.failures;
        if was_live {
            job.live_attempts -= 1;
        }
        if failures > MAX_TASK_FAILURES {
            job.status = JobStatus::Failed;
            self.running_jobs.remove(&attempt.task.job);
        }
    }

    /// Fetch-failure reports older than this no longer count toward
    /// re-execution thresholds (reducers back off and earlier outage
    /// episodes become stale evidence).
    const FETCH_REPORT_WINDOW: SimDuration = SimDuration::from_secs(120);

    /// A reduce reported that it cannot fetch `map`'s output.
    /// `output_active` is the DFS's answer to "does any active replica of
    /// the output exist?" (only consulted by the MOON policy). Returns
    /// true if the map task was re-opened for execution.
    pub fn report_fetch_failure(
        &mut self,
        now: SimTime,
        map: TaskId,
        reduce: TaskId,
        output_active: bool,
    ) -> bool {
        debug_assert_eq!(map.kind, TaskKind::Map);
        let fetch_policy = self.fetch_policy;
        let job = self.job_mut(map.job);
        if !job.task(map).completed {
            return false; // already being re-executed
        }
        let cutoff = now
            .since(SimTime::ZERO)
            .saturating_sub(Self::FETCH_REPORT_WINDOW);
        let cutoff = SimTime::ZERO + cutoff;
        let (reporters, in_window) = {
            let reports = job.fetch_failures.entry(map).or_default();
            reports.push(reduce, now);
            reports.expire(cutoff);
            (reports.reporter_counts.len(), reports.reports.len())
        };
        let reexec = match fetch_policy {
            FetchFailurePolicy::HadoopMajority => {
                // "More than 50% of the running Reduce tasks report
                // fetching failures for the Map task" — distinct reduces.
                let running_reduces = job
                    .reduces
                    .iter()
                    .filter(|t| !t.completed && t.n_live() > 0)
                    .count();
                reporters * 2 > running_reduces.max(1)
            }
            FetchFailurePolicy::MoonQuery => {
                // "Once it observes three fetch failures from this task,
                // it immediately reissues a new copy" — cumulative
                // failures, so even a single starving reduce escalates.
                in_window >= 3 && !output_active
            }
        };
        if !reexec {
            return false;
        }
        // Re-open the map task.
        let task = job.task_mut(map);
        task.completed = false;
        task.output_lost_count += 1;
        job.metrics.completed_maps -= 1;
        job.fetch_failures.remove(&map);
        job.metrics.map_output_relaunches += 1;
        job.metrics.killed_maps += 1; // the completed attempt is invalidated
        true
    }

    /// Total live attempts across all jobs (diagnostics). Sums the
    /// per-job maintained counters instead of walking every task.
    pub fn live_attempt_count(&self) -> usize {
        self.jobs.iter().map(|j| j.live_attempts as usize).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{HadoopPolicy, MoonPolicy};
    use simkit::SimDuration;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn hadoop_jt() -> JobTracker {
        JobTracker::new(
            SchedulerPolicy::Hadoop(HadoopPolicy::default()),
            FetchFailurePolicy::HadoopMajority,
        )
    }

    fn moon_jt(hybrid: bool) -> JobTracker {
        let p = if hybrid {
            MoonPolicy::default()
        } else {
            MoonPolicy::without_hybrid()
        };
        JobTracker::new(SchedulerPolicy::Moon(p), FetchFailurePolicy::MoonQuery)
    }

    /// Register `n_vol` volatile (n0..) and `n_ded` dedicated trackers,
    /// 2 map + 2 reduce slots each.
    fn cluster(jt: &mut JobTracker, n_vol: u32, n_ded: u32) {
        for i in 0..n_vol {
            jt.register_tracker(t(0), NodeId(i), 2, 2, false);
        }
        for i in n_vol..(n_vol + n_ded) {
            jt.register_tracker(t(0), NodeId(i), 2, 2, true);
        }
    }

    fn map_task(job: JobId, i: u32) -> TaskId {
        TaskId {
            job,
            kind: TaskKind::Map,
            index: i,
        }
    }

    fn reduce_task(job: JobId, i: u32) -> TaskId {
        TaskId {
            job,
            kind: TaskKind::Reduce,
            index: i,
        }
    }

    #[test]
    fn heartbeat_fills_map_slots_first() {
        let mut jt = hadoop_jt();
        cluster(&mut jt, 2, 0);
        let job = jt.submit_job(t(0), JobSpec::new(10, 4));
        let resp = jt.heartbeat(t(1), NodeId(0));
        // 2 map slots filled; reduces gated by slowstart (5% of 10 → 1 map).
        assert_eq!(resp.assignments.len(), 2);
        assert!(resp
            .assignments
            .iter()
            .all(|a| a.attempt.task.kind == TaskKind::Map));
        assert!(resp
            .assignments
            .iter()
            .all(|a| a.reason == LaunchReason::Original));
        let _ = job;
    }

    #[test]
    fn reduces_gated_by_slowstart() {
        let mut jt = hadoop_jt();
        cluster(&mut jt, 2, 0);
        let job = jt.submit_job(t(0), JobSpec::new(4, 4));
        let r0 = jt.heartbeat(t(1), NodeId(0));
        assert_eq!(r0.assignments.len(), 2, "maps only");
        // Complete one map (slowstart = ceil(0.05*4) = 1).
        jt.attempt_succeeded(r0.assignments[0].attempt);
        let r1 = jt.heartbeat(t(31), NodeId(1));
        let kinds: Vec<TaskKind> = r1.assignments.iter().map(|a| a.attempt.task.kind).collect();
        assert!(
            kinds.contains(&TaskKind::Reduce),
            "reduces now eligible: {kinds:?}"
        );
        let _ = job;
    }

    #[test]
    fn map_locality_preference() {
        let mut jt = hadoop_jt();
        cluster(&mut jt, 3, 0);
        let spec = JobSpec::new(3, 0).with_locations(vec![
            vec![NodeId(2)],
            vec![NodeId(0)],
            vec![NodeId(1)],
        ]);
        let job = jt.submit_job(t(0), spec);
        let resp = jt.heartbeat(t(1), NodeId(0));
        // First assignment to n0 must be map 1 (its input is local).
        assert_eq!(resp.assignments[0].attempt.task, map_task(job, 1));
    }

    #[test]
    fn hadoop_speculates_on_lagging_task() {
        let mut jt = hadoop_jt();
        cluster(&mut jt, 4, 0);
        let job = jt.submit_job(t(0), JobSpec::new(4, 0));
        // Launch all 4 maps across n0/n1.
        let a0 = jt.heartbeat(t(0), NodeId(0)).assignments;
        let a1 = jt.heartbeat(t(0), NodeId(1)).assignments;
        assert_eq!(a0.len() + a1.len(), 4);
        // Three run fast, one lags far behind.
        jt.report_progress(a0[0].attempt, 0.9);
        jt.report_progress(a0[1].attempt, 0.9);
        jt.report_progress(a1[0].attempt, 0.9);
        jt.report_progress(a1[1].attempt, 0.05);
        // Before 60s: no speculation.
        let r = jt.heartbeat(t(30), NodeId(2));
        assert!(r.assignments.is_empty(), "straggler rule needs 60s runtime");
        // After 60s: speculate the laggard.
        let r = jt.heartbeat(t(61), NodeId(2));
        assert_eq!(r.assignments.len(), 1);
        assert_eq!(r.assignments[0].attempt.task, a1[1].attempt.task);
        assert_eq!(r.assignments[0].reason, LaunchReason::Speculative);
        assert_eq!(r.assignments[0].attempt.attempt, 1);
        // Cap of one speculative copy: no more from another node.
        let r = jt.heartbeat(t(62), NodeId(3));
        assert!(r.assignments.is_empty());
        assert_eq!(jt.job_metrics(job).duplicated_tasks, 1);
    }

    /// Equal laggards are speculated in first-launch order, not task
    /// order: map 1 launched before map 0 (its input is local to n0),
    /// so it gets the first speculative copy.
    #[test]
    fn hadoop_speculation_ties_break_by_first_launch() {
        let mut jt = hadoop_jt();
        cluster(&mut jt, 3, 0);
        let spec = JobSpec::new(4, 0).with_locations(vec![
            vec![NodeId(1)],
            vec![NodeId(0)],
            vec![NodeId(1)],
            vec![NodeId(1)],
        ]);
        let job = jt.submit_job(t(0), spec);
        let a0 = jt.heartbeat(t(0), NodeId(0)).assignments;
        let launched: Vec<TaskId> = a0.iter().map(|a| a.attempt.task).collect();
        assert_eq!(launched, vec![map_task(job, 1), map_task(job, 0)]);
        let a1 = jt.heartbeat(t(0), NodeId(1)).assignments;
        assert_eq!(a1.len(), 2);
        for a in &a1 {
            jt.attempt_succeeded(a.attempt);
        }
        for a in &a0 {
            jt.report_progress(a.attempt, 0.1);
        }
        // n2 holds neither input, so both laggards tie on locality.
        let r = jt.heartbeat(t(61), NodeId(2)).assignments;
        assert_eq!(r[0].attempt.task, map_task(job, 1), "{r:?}");
        assert_eq!(r[0].reason, LaunchReason::Speculative);
    }

    #[test]
    fn tracker_expiry_kills_and_reschedules() {
        let mut jt = JobTracker::new(
            SchedulerPolicy::Hadoop(HadoopPolicy::with_expiry(SimDuration::from_mins(1))),
            FetchFailurePolicy::HadoopMajority,
        );
        cluster(&mut jt, 2, 0);
        let job = jt.submit_job(t(0), JobSpec::new(2, 0));
        let a = jt.heartbeat(t(0), NodeId(0)).assignments;
        assert_eq!(a.len(), 2);
        // n0 goes silent; n1 keeps beating.
        jt.heartbeat(t(30), NodeId(1));
        let sweep = jt.check_trackers(t(61));
        assert_eq!(sweep.expired, vec![NodeId(0)]);
        assert_eq!(sweep.killed.len(), 2);
        assert_eq!(jt.tracker_state(NodeId(0)), TrackerState::Dead);
        // Hadoop-mode sweep never suspends.
        assert!(sweep.suspended.is_empty());
        // The tasks are rescheduled on n1 as retries.
        let r = jt.heartbeat(t(62), NodeId(1)).assignments;
        assert_eq!(r.len(), 2);
        assert!(r.iter().all(|x| x.reason == LaunchReason::Retry));
        let m = jt.job_metrics(job);
        assert_eq!(m.killed_maps, 2);
        assert_eq!(m.duplicated_tasks, 2);
    }

    /// A sweep applies transitions in node order, not silence order:
    /// the kill list feeds the deterministic event stream.
    #[test]
    fn tracker_sweep_transitions_in_node_order() {
        let mut jt = JobTracker::new(
            SchedulerPolicy::Hadoop(HadoopPolicy::with_expiry(SimDuration::from_mins(1))),
            FetchFailurePolicy::HadoopMajority,
        );
        cluster(&mut jt, 3, 0);
        jt.submit_job(t(0), JobSpec::new(4, 0));
        let on_n2: Vec<AttemptId> = jt
            .heartbeat(t(0), NodeId(2))
            .assignments
            .iter()
            .map(|a| a.attempt)
            .collect();
        let on_n1: Vec<AttemptId> = jt
            .heartbeat(t(10), NodeId(1))
            .assignments
            .iter()
            .map(|a| a.attempt)
            .collect();
        assert_eq!((on_n1.len(), on_n2.len()), (2, 2));
        jt.heartbeat(t(70), NodeId(0));
        // n2 has been silent longer, but n1 comes first.
        let sweep = jt.check_trackers(t(75));
        assert_eq!(sweep.expired, vec![NodeId(1), NodeId(2)]);
        let mut killed = on_n1.clone();
        killed.extend(&on_n2);
        assert_eq!(sweep.killed, killed);
    }

    #[test]
    fn moon_suspension_freezes_then_new_copy() {
        let mut jt = moon_jt(false);
        cluster(&mut jt, 3, 0);
        let job = jt.submit_job(t(0), JobSpec::new(2, 0));
        let a = jt.heartbeat(t(0), NodeId(0)).assignments;
        assert_eq!(a.len(), 2);
        jt.report_progress(a[0].attempt, 0.5);
        jt.report_progress(a[1].attempt, 0.8);
        jt.heartbeat(t(55), NodeId(1));
        jt.heartbeat(t(55), NodeId(2));
        // n0 silent past the 1-minute SuspensionInterval → suspended, not dead.
        let sweep = jt.check_trackers(t(61));
        assert_eq!(sweep.suspended, vec![NodeId(0)]);
        assert!(sweep.expired.is_empty());
        assert!(sweep.killed.is_empty(), "suspension must not kill attempts");
        assert!(jt.task(a[0].attempt.task).is_frozen());
        // Frozen tasks get copies immediately, lowest progress first.
        let r = jt.heartbeat(t(62), NodeId(1)).assignments;
        assert!(!r.is_empty());
        assert_eq!(r[0].attempt.task, a[0].attempt.task, "0.5 < 0.8 → first");
        assert_eq!(r[0].reason, LaunchReason::Speculative);
        // When n0 resumes, its attempts reactivate (no kills: tasks not done).
        let resumed = jt.heartbeat(t(90), NodeId(0));
        assert!(resumed.kill.is_empty());
        assert!(!jt.task(a[0].attempt.task).is_frozen());
        let m = jt.job_metrics(job);
        assert_eq!(m.killed_maps, 0);
    }

    #[test]
    fn moon_resume_after_completion_kills_stale_attempt() {
        // Homestretch off: this test exercises the frozen-copy/resume path
        // in isolation (a 1-task job would otherwise enter homestretch
        // immediately, since 1 < 20% of the cluster's 6 map slots).
        let mut jt = JobTracker::new(
            SchedulerPolicy::Moon(MoonPolicy {
                homestretch_h_percent: 0.0,
                hybrid: false,
                ..MoonPolicy::default()
            }),
            FetchFailurePolicy::MoonQuery,
        );
        cluster(&mut jt, 3, 0);
        let _job = jt.submit_job(t(0), JobSpec::new(1, 0));
        let a = jt.heartbeat(t(0), NodeId(0)).assignments;
        jt.heartbeat(t(50), NodeId(1));
        jt.check_trackers(t(61)); // n0 suspended
        let r = jt.heartbeat(t(62), NodeId(1)).assignments; // frozen copy
        assert_eq!(r.len(), 1);
        // The frozen copy finishes first: the stale inactive attempt on the
        // suspended tracker is killed right away.
        let s = jt.attempt_succeeded(r[0].attempt);
        assert_eq!(s.kill, vec![a[0].attempt]);
        // When n0 resumes there is nothing left to kill or reactivate.
        let resumed = jt.heartbeat(t(120), NodeId(0));
        assert!(resumed.kill.is_empty());
        assert_eq!(jt.tracker_state(NodeId(0)), TrackerState::Alive);
    }

    #[test]
    fn moon_global_speculative_cap() {
        let mut jt = JobTracker::new(
            SchedulerPolicy::Moon(MoonPolicy {
                speculative_slot_fraction: 0.2,
                hybrid: false,
                ..MoonPolicy::default()
            }),
            FetchFailurePolicy::MoonQuery,
        );
        // 2 trackers alive → 8 slots total → cap = floor(0.2*8) = 1.
        cluster(&mut jt, 3, 0);
        let _job = jt.submit_job(t(0), JobSpec::new(4, 0));
        let a0 = jt.heartbeat(t(0), NodeId(0)).assignments;
        let a1 = jt.heartbeat(t(0), NodeId(1)).assignments;
        assert_eq!(a0.len() + a1.len(), 4);
        jt.heartbeat(t(55), NodeId(2));
        // Both workers go silent → all 4 tasks frozen.
        let sweep = jt.check_trackers(t(61));
        assert_eq!(sweep.suspended.len(), 2);
        // Cap: only 1 (of 4 frozen) gets a copy... cap = 0.2 * 4 slots on
        // n2 (the only alive tracker) = 0 → max(1) = 1.
        let r = jt.heartbeat(t(62), NodeId(2)).assignments;
        assert_eq!(r.len(), 1, "global cap limits frozen-task copies: {r:?}");
    }

    #[test]
    fn moon_homestretch_replicates_remaining_tasks() {
        let mut jt = JobTracker::new(
            SchedulerPolicy::Moon(MoonPolicy {
                homestretch_h_percent: 50.0, // huge H so the phase triggers
                homestretch_r: 2,
                speculative_slot_fraction: 1.0, // don't let the cap bite
                hybrid: false,
                ..MoonPolicy::default()
            }),
            FetchFailurePolicy::MoonQuery,
        );
        cluster(&mut jt, 3, 0);
        let job = jt.submit_job(t(0), JobSpec::new(2, 0));
        let a0 = jt.heartbeat(t(0), NodeId(0)).assignments;
        assert_eq!(a0.len(), 2);
        jt.report_progress(a0[0].attempt, 0.5);
        jt.report_progress(a0[1].attempt, 0.6);
        // remaining = 2 < 0.5 * 6 map slots → homestretch on; both tasks
        // have 1 running copy < R=2 → each may get one more.
        let r = jt.heartbeat(t(10), NodeId(1)).assignments;
        assert_eq!(r.len(), 2);
        assert!(r.iter().all(|x| x.reason == LaunchReason::Homestretch));
        // R satisfied: no third copies.
        let r2 = jt.heartbeat(t(11), NodeId(2)).assignments;
        assert!(r2.is_empty());
        let _ = job;
    }

    /// With a frozen task, a slow task and homestretch candidates all
    /// present, successive one-slot beats take the frozen list first,
    /// then the slow list, then the homestretch (MOON §V).
    #[test]
    fn moon_lists_take_precedence_frozen_slow_homestretch() {
        let mut jt = JobTracker::new(
            SchedulerPolicy::Moon(MoonPolicy {
                homestretch_h_percent: 100.0,
                speculative_slot_fraction: 1.0,
                hybrid: false,
                ..MoonPolicy::default()
            }),
            FetchFailurePolicy::MoonQuery,
        );
        for i in 0..4 {
            jt.register_tracker(t(0), NodeId(i), 1, 0, false);
        }
        let job = jt.submit_job(t(0), JobSpec::new(4, 0));
        let a: Vec<AttemptId> = (0..4)
            .map(|i| jt.heartbeat(t(0), NodeId(i)).assignments[0].attempt)
            .collect();
        jt.attempt_succeeded(a[3]);
        jt.report_progress(a[0], 0.5);
        jt.report_progress(a[1], 0.1);
        jt.report_progress(a[2], 0.9);
        jt.heartbeat(t(55), NodeId(1));
        jt.heartbeat(t(55), NodeId(2));
        for i in 4..7 {
            jt.register_tracker(t(56), NodeId(i), 1, 0, false);
        }
        let sweep = jt.check_trackers(t(61));
        assert_eq!(sweep.suspended, vec![NodeId(0), NodeId(3)]);
        // Map 0 is frozen, map 1 is slow (0.1 < mean 0.625 − 0.2), and
        // maps 1 and 2 are short of R = 2 running copies.
        assert!(jt.task(map_task(job, 0)).is_frozen());
        let picks: Vec<(TaskId, LaunchReason)> = (4..7)
            .map(|i| {
                let r = jt.heartbeat(t(58 + u64::from(i)), NodeId(i)).assignments;
                assert_eq!(r.len(), 1, "{r:?}");
                (r[0].attempt.task, r[0].reason)
            })
            .collect();
        assert_eq!(
            picks,
            vec![
                (map_task(job, 0), LaunchReason::Speculative),
                (map_task(job, 1), LaunchReason::Speculative),
                (map_task(job, 0), LaunchReason::Homestretch),
            ]
        );
    }

    #[test]
    fn moon_nonhybrid_gives_dedicated_no_work() {
        let mut jt = moon_jt(false);
        cluster(&mut jt, 2, 1); // n2 dedicated
        let _job = jt.submit_job(t(0), JobSpec::new(6, 0));
        let r = jt.heartbeat(t(1), NodeId(2));
        assert!(r.assignments.is_empty(), "dedicated = pure data server");
    }

    #[test]
    fn moon_hybrid_dedicated_runs_speculative_only() {
        let mut jt = moon_jt(true);
        cluster(&mut jt, 2, 1); // n2 dedicated
        let _job = jt.submit_job(t(0), JobSpec::new(2, 0));
        // Fresh tasks: dedicated node gets nothing.
        let r = jt.heartbeat(t(1), NodeId(2));
        assert!(r.assignments.is_empty());
        let a = jt.heartbeat(t(1), NodeId(0)).assignments;
        assert_eq!(a.len(), 2);
        // Freeze them.
        jt.heartbeat(t(55), NodeId(1));
        jt.heartbeat(t(55), NodeId(2));
        jt.check_trackers(t(61));
        // Now the dedicated node takes frozen-task copies.
        let r = jt.heartbeat(t(62), NodeId(2)).assignments;
        assert!(!r.is_empty());
        // And a task with a dedicated copy is skipped for more replicas:
        let r2 = jt.heartbeat(t(63), NodeId(1)).assignments;
        assert!(
            !r2.iter().any(|x| x.attempt.task == r[0].attempt.task),
            "task with dedicated copy must not receive further copies"
        );
    }

    #[test]
    fn hadoop_fetch_failure_majority_rule() {
        let mut jt = hadoop_jt();
        cluster(&mut jt, 4, 0);
        let job = jt.submit_job(t(0), JobSpec::new(1, 3));
        let a = jt.heartbeat(t(0), NodeId(0)).assignments;
        let map_a = a[0].attempt;
        jt.attempt_succeeded(map_a);
        // Start 3 reduces.
        let mut reduces = vec![];
        for n in 1..3 {
            for asg in jt.heartbeat(t(11), NodeId(n)).assignments {
                reduces.push(asg.attempt);
            }
        }
        assert_eq!(reduces.len(), 3);
        // One reporter of 3 running reduces: 1*2 > 3 is false → no reexec.
        let m = map_task(job, 0);
        assert!(!jt.report_fetch_failure(t(20), m, reduce_task(job, 0), false));
        // Second reporter: 2*2 > 3 → reexec.
        assert!(jt.report_fetch_failure(t(21), m, reduce_task(job, 1), false));
        assert_eq!(jt.job_metrics(job).map_output_relaunches, 1);
        // The map is runnable again, as a MapOutputLost launch.
        let r = jt.heartbeat(t(22), NodeId(3)).assignments;
        assert!(r
            .iter()
            .any(|x| x.attempt.task == m && x.reason == LaunchReason::MapOutputLost));
    }

    #[test]
    fn moon_fetch_failure_queries_fs() {
        let mut jt = moon_jt(false);
        cluster(&mut jt, 4, 0);
        let job = jt.submit_job(t(0), JobSpec::new(1, 3));
        let a = jt.heartbeat(t(0), NodeId(0)).assignments;
        jt.attempt_succeeded(a[0].attempt);
        let m = map_task(job, 0);
        // 3 failures but replicas still active → reduces just retry.
        assert!(!jt.report_fetch_failure(t(20), m, reduce_task(job, 0), true));
        assert!(!jt.report_fetch_failure(t(21), m, reduce_task(job, 1), true));
        assert!(!jt.report_fetch_failure(t(22), m, reduce_task(job, 2), true));
        // 3 failures and no active replica → immediate reexecution: the
        // 4th report, with no active replica, fires.
        assert!(jt.report_fetch_failure(t(23), m, reduce_task(job, 0), false));
        assert_eq!(jt.job_metrics(job).map_output_relaunches, 1);
    }

    #[test]
    fn task_failure_budget_fails_job() {
        let mut jt = hadoop_jt();
        cluster(&mut jt, 1, 0);
        let job = jt.submit_job(t(0), JobSpec::new(1, 0));
        // The job survives MAX_TASK_FAILURES failures of one task and
        // fails on the next.
        for k in 0..=MAX_TASK_FAILURES as u64 {
            assert_eq!(jt.job_status(job), JobStatus::Running, "after {k} failures");
            let r = jt.heartbeat(t(k * 10), NodeId(0)).assignments;
            assert_eq!(r.len(), 1);
            jt.attempt_failed(r[0].attempt);
        }
        assert_eq!(jt.job_status(job), JobStatus::Failed);
    }

    #[test]
    fn job_completion_and_sibling_kill() {
        let mut jt = hadoop_jt();
        cluster(&mut jt, 3, 0);
        let job = jt.submit_job(t(0), JobSpec::new(2, 1));
        let a = jt.heartbeat(t(0), NodeId(0)).assignments;
        // Lag one map, speculate it.
        jt.report_progress(a[0].attempt, 0.9);
        jt.report_progress(a[1].attempt, 0.0);
        let spec = jt.heartbeat(t(61), NodeId(1)).assignments;
        assert_eq!(spec.len(), 1);
        // Original completes first: speculative sibling is killed.
        let s = jt.attempt_succeeded(a[1].attempt);
        assert_eq!(s.kill, vec![spec[0].attempt]);
        assert!(!s.job_completed);
        jt.attempt_succeeded(a[0].attempt);
        // Reduce now eligible.
        let r = jt.heartbeat(t(72), NodeId(2)).assignments;
        let red = r
            .iter()
            .find(|x| x.attempt.task.kind == TaskKind::Reduce)
            .expect("reduce assigned");
        let s = jt.attempt_succeeded(red.attempt);
        assert!(s.job_completed);
        assert_eq!(jt.job_status(job), JobStatus::Succeeded);
        let m = jt.job_metrics(job);
        assert_eq!(m.completed_maps, 2);
        assert_eq!(m.completed_reduces, 1);
        assert_eq!(m.killed_maps, 1, "the superseded speculative copy");
    }

    #[test]
    fn fifo_drains_earlier_jobs_first() {
        let mut jt = hadoop_jt();
        cluster(&mut jt, 2, 0);
        let j0 = jt.submit_job(t(0), JobSpec::new(3, 0));
        let j1 = jt.submit_job(t(1), JobSpec::new(3, 0));
        // 2 slots on n0: both must go to j0 under FIFO.
        let r = jt.heartbeat(t(2), NodeId(0)).assignments;
        assert_eq!(r.len(), 2);
        assert!(r.iter().all(|a| a.attempt.task.job == j0), "{r:?}");
        // j0 still has a pending map, so n1's slots serve it before j1.
        let r = jt.heartbeat(t(3), NodeId(1)).assignments;
        assert_eq!(r.len(), 2);
        assert_eq!(r[0].attempt.task.job, j0);
        assert_eq!(r[1].attempt.task.job, j1);
        assert_eq!(jt.cross_job, CrossJobPolicy::Fifo);
    }

    #[test]
    fn fair_share_interleaves_concurrent_jobs() {
        let mut jt = JobTracker::new(
            SchedulerPolicy::Hadoop(HadoopPolicy::default()),
            FetchFailurePolicy::HadoopMajority,
        )
        .with_cross_job(CrossJobPolicy::FairShare);
        cluster(&mut jt, 2, 0);
        let j0 = jt.submit_job(t(0), JobSpec::new(3, 0));
        let j1 = jt.submit_job(t(1), JobSpec::new(3, 0));
        // Slot 1: both jobs have 0 live attempts → tie broken by id (j0).
        // Slot 2: j0 now has 1 live attempt → j1's turn. Each free slot
        // re-ranks, so a heartbeat's two slots alternate jobs.
        let r = jt.heartbeat(t(2), NodeId(0)).assignments;
        assert_eq!(r.len(), 2);
        assert_eq!(r[0].attempt.task.job, j0);
        assert_eq!(r[1].attempt.task.job, j1, "fair share alternates: {r:?}");
        let r = jt.heartbeat(t(3), NodeId(1)).assignments;
        assert_eq!(r[0].attempt.task.job, j0);
        assert_eq!(r[1].attempt.task.job, j1);
    }

    #[test]
    fn fair_share_prefers_starved_job_after_completions() {
        let mut jt = JobTracker::new(
            SchedulerPolicy::Hadoop(HadoopPolicy::default()),
            FetchFailurePolicy::HadoopMajority,
        )
        .with_cross_job(CrossJobPolicy::FairShare);
        cluster(&mut jt, 3, 0);
        let j0 = jt.submit_job(t(0), JobSpec::new(6, 0));
        // j0 grabs 4 slots before j1 exists.
        let a0 = jt.heartbeat(t(1), NodeId(0)).assignments;
        let a1 = jt.heartbeat(t(1), NodeId(1)).assignments;
        assert_eq!(a0.len() + a1.len(), 4);
        let j1 = jt.submit_job(t(2), JobSpec::new(6, 0));
        // j0 holds 4 live attempts, j1 zero → n2's slots both go to j1.
        let r = jt.heartbeat(t(3), NodeId(2)).assignments;
        assert_eq!(r.len(), 2);
        assert!(r.iter().all(|a| a.attempt.task.job == j1), "{r:?}");
        let _ = j0;
    }

    #[test]
    fn first_launch_times_measure_queueing_delay() {
        let mut jt = hadoop_jt();
        cluster(&mut jt, 1, 0);
        let j0 = jt.submit_job(t(0), JobSpec::new(2, 0));
        let j1 = jt.submit_job(t(0), JobSpec::new(1, 0));
        assert_eq!(jt.job_first_launch(j0), None);
        assert_eq!(jt.queued_job_count(), 2);
        // The 2 slots fill with j0; j1 keeps queueing.
        let a = jt.heartbeat(t(5), NodeId(0)).assignments;
        assert_eq!(a.len(), 2);
        assert_eq!(jt.job_first_launch(j0), Some(t(5)));
        assert_eq!(jt.job_first_launch(j1), None);
        assert_eq!(jt.queued_job_count(), 1);
        assert_eq!(jt.active_job_count(), 2);
        // j0 finishes; j1 launches on the freed slots.
        jt.attempt_succeeded(a[0].attempt);
        jt.attempt_succeeded(a[1].attempt);
        let b = jt.heartbeat(t(42), NodeId(0)).assignments;
        assert_eq!(b[0].attempt.task.job, j1);
        assert_eq!(jt.job_first_launch(j1), Some(t(42)));
        assert_eq!(jt.active_job_count(), 1);
        assert_eq!(jt.queued_job_count(), 0);
    }

    #[test]
    fn metrics_accumulate_sums_counters() {
        let a = JobMetrics {
            duplicated_tasks: 1,
            killed_maps: 2,
            killed_reduces: 3,
            killed_by_tracker_expiry: 1,
            map_output_relaunches: 4,
            completed_maps: 5,
            completed_reduces: 6,
            preempted: 7,
        };
        let mut total = JobMetrics::default();
        total.accumulate(&a);
        total.accumulate(&a);
        assert_eq!(total.duplicated_tasks, 2);
        assert_eq!(total.completed_maps, 10);
        assert_eq!(total.map_output_relaunches, 8);
        assert_eq!(total.preempted, 14);
    }

    #[test]
    fn preemption_is_off_by_default() {
        let mut jt = hadoop_jt().with_cross_job(CrossJobPolicy::StrictPriority);
        cluster(&mut jt, 1, 0);
        let low = jt.submit_job(t(0), JobSpec::new(2, 0));
        assert_eq!(jt.heartbeat(t(1), NodeId(0)).assignments.len(), 2);
        let _high = jt.submit_job(t(5), JobSpec::new(1, 0).with_priority(9));
        let r = jt.heartbeat(t(6), NodeId(0));
        assert!(r.kill.is_empty(), "{r:?}");
        assert!(r.assignments.is_empty(), "{r:?}");
        assert_eq!(jt.preempted_total(), 0);
        let _ = low;
    }

    #[test]
    fn fifo_preemption_never_fires_for_later_jobs() {
        // FIFO's guard is `challenger < victim`: a later submission can
        // never reclaim an earlier job's slot, so enabling preemption
        // under plain FIFO changes nothing for in-order arrivals.
        let mut jt = hadoop_jt().with_preemption(true);
        cluster(&mut jt, 1, 0);
        let _first = jt.submit_job(t(0), JobSpec::new(2, 0));
        assert_eq!(jt.heartbeat(t(1), NodeId(0)).assignments.len(), 2);
        let _second = jt.submit_job(t(5), JobSpec::new(1, 0));
        let r = jt.heartbeat(t(6), NodeId(0));
        assert!(r.kill.is_empty(), "{r:?}");
        assert_eq!(jt.preempted_total(), 0);
    }

    #[test]
    fn inverted_fair_share_never_preempts() {
        let mut jt = hadoop_jt()
            .with_cross_job(CrossJobPolicy::FairShareInverted)
            .with_preemption(true);
        cluster(&mut jt, 1, 0);
        let _a = jt.submit_job(t(0), JobSpec::new(4, 0));
        assert_eq!(jt.heartbeat(t(1), NodeId(0)).assignments.len(), 2);
        let _b = jt.submit_job(t(5), JobSpec::new(4, 0));
        let r = jt.heartbeat(t(6), NodeId(0));
        assert!(r.kill.is_empty(), "{r:?}");
        assert_eq!(jt.preempted_total(), 0);
    }

    #[test]
    fn fair_share_preemption_stops_at_gap_one() {
        // The fair guard (`ch + 1 < victim`) transfers exactly one slot
        // here: 2-vs-0 becomes 1-vs-1, where neither side may preempt
        // the other — no kill/relaunch ping-pong.
        let mut jt = hadoop_jt()
            .with_cross_job(CrossJobPolicy::FairShare)
            .with_preemption(true);
        cluster(&mut jt, 1, 0);
        let a = jt.submit_job(t(0), JobSpec::new(4, 0));
        assert_eq!(jt.heartbeat(t(1), NodeId(0)).assignments.len(), 2);
        let b = jt.submit_job(t(5), JobSpec::new(4, 0));
        let r = jt.heartbeat(t(6), NodeId(0));
        assert_eq!(r.kill.len(), 1, "{r:?}");
        assert_eq!(r.kill[0].task.job, a);
        assert_eq!(r.assignments.len(), 1, "{r:?}");
        assert_eq!(r.assignments[0].attempt.task.job, b);
        // Balanced now: the next round must leave the split alone.
        let r = jt.heartbeat(t(9), NodeId(0));
        assert!(r.kill.is_empty(), "{r:?}");
        assert_eq!(jt.preempted_total(), 1);
    }

    #[test]
    fn preemption_victim_is_the_youngest_attempt() {
        // Among equally ranked victims the highest attempt id — the
        // most recently launched, least progressed — is discarded.
        let mut jt = hadoop_jt()
            .with_cross_job(CrossJobPolicy::StrictPriority)
            .with_preemption(true);
        cluster(&mut jt, 1, 0);
        let low = jt.submit_job(t(0), JobSpec::new(2, 0));
        let r0 = jt.heartbeat(t(1), NodeId(0));
        assert_eq!(r0.assignments.len(), 2);
        let high = jt.submit_job(t(5), JobSpec::new(1, 0).with_priority(3));
        let r1 = jt.heartbeat(t(6), NodeId(0));
        assert_eq!(r1.kill, vec![r0.assignments[1].attempt], "{r1:?}");
        assert_eq!(r1.assignments[0].attempt.task.job, high);
        let _ = low;
    }

    #[test]
    fn tenant_floor_blocks_further_preemption() {
        // Cross-tenant preemption stops the moment the victim tenant
        // would drop below its guaranteed minimum share.
        let mut jt = hadoop_jt()
            .with_cross_job(CrossJobPolicy::TenantFair)
            .with_preemption(true)
            .with_tenants(vec![1, 1], vec![1, 1]);
        cluster(&mut jt, 1, 0);
        let a = jt.submit_job(t(0), JobSpec::new(4, 0).with_tenant(0));
        assert_eq!(jt.heartbeat(t(1), NodeId(0)).assignments.len(), 2);
        let b = jt.submit_job(t(5), JobSpec::new(4, 0).with_tenant(1));
        let r = jt.heartbeat(t(6), NodeId(0));
        // Tenant 1 (live 0, below its floor) reclaims exactly one slot;
        // tenant 0 then sits at its own floor and keeps the other.
        assert_eq!(r.kill.len(), 1, "{r:?}");
        assert_eq!(r.kill[0].task.job, a);
        assert_eq!(r.assignments.len(), 1, "{r:?}");
        assert_eq!(r.assignments[0].attempt.task.job, b);
        let r = jt.heartbeat(t(9), NodeId(0));
        assert!(r.kill.is_empty(), "{r:?}");
        assert_eq!(jt.preempted_total(), 1);
    }

    #[test]
    fn preempted_task_requeues_and_relaunches() {
        // Kill-and-requeue loses the attempt, not the task: the victim
        // re-enters the pending pool and relaunches once a slot frees.
        let mut jt = hadoop_jt()
            .with_cross_job(CrossJobPolicy::Edf)
            .with_preemption(true);
        cluster(&mut jt, 1, 0);
        let loose = jt.submit_job(t(0), JobSpec::new(2, 0).with_deadline(t(3600)));
        let r0 = jt.heartbeat(t(1), NodeId(0));
        assert_eq!(r0.assignments.len(), 2);
        let tight = jt.submit_job(t(5), JobSpec::new(2, 0).with_deadline(t(120)));
        let r1 = jt.heartbeat(t(6), NodeId(0));
        assert_eq!(r1.kill.len(), 2, "{r1:?}");
        assert!(r1.assignments.iter().all(|x| x.attempt.task.job == tight));
        assert_eq!(jt.job_metrics(loose).preempted, 2);
        // Tight job drains; the preempted tasks relaunch.
        for x in &r1.assignments {
            jt.attempt_succeeded(x.attempt);
        }
        let r2 = jt.heartbeat(t(31), NodeId(0));
        assert_eq!(r2.assignments.len(), 2, "{r2:?}");
        assert!(r2.assignments.iter().all(|x| x.attempt.task.job == loose));
        for x in &r2.assignments {
            jt.attempt_succeeded(x.attempt);
        }
        assert_eq!(jt.job_status(loose), crate::JobStatus::Succeeded);
    }

    /// The per-policy cross-job order the unified `(rank_key, JobId)`
    /// sort replaced, kept as the reference it must reproduce.
    fn reference_order(jt: &JobTracker) -> Vec<JobId> {
        let job = |&jid: &JobId| jt.job(jid);
        let mut order: Vec<JobId> = jt.running_jobs.iter().copied().collect();
        match jt.cross_job {
            CrossJobPolicy::Fifo => {}
            CrossJobPolicy::FairShare => order.sort_by_key(|j| (job(j).live_attempts, *j)),
            CrossJobPolicy::FairShareInverted => {
                order.sort_by_key(|j| (job(j).live_attempts, *j));
                order.reverse();
            }
            CrossJobPolicy::Edf => {
                order.sort_by_key(|j| (job(j).spec.deadline.is_none(), job(j).spec.deadline, *j))
            }
            CrossJobPolicy::StrictPriority => {
                order.sort_by_key(|j| (std::cmp::Reverse(job(j).spec.priority), *j))
            }
            CrossJobPolicy::TenantFair => {
                let live = reference_tenant_live(jt);
                order.sort_by_key(|j| {
                    let tenant = job(j).spec.tenant;
                    let t_live = live.get(&tenant).copied().unwrap_or(0);
                    (
                        t_live >= jt.tenant_min(tenant),
                        t_live * 1_000_000 / jt.tenant_weight(tenant),
                        job(j).live_attempts,
                        *j,
                    )
                })
            }
        }
        order
    }

    fn reference_tenant_live(jt: &JobTracker) -> BTreeMap<u32, u64> {
        let mut live = BTreeMap::new();
        for jid in &jt.running_jobs {
            let j = jt.job(*jid);
            *live.entry(j.spec.tenant).or_insert(0u64) += u64::from(j.live_attempts);
        }
        live
    }

    /// The hand-written per-policy preemption guards the derived rule
    /// replaced, kept as the reference it must reproduce.
    fn reference_may_preempt(jt: &JobTracker, challenger: JobId, victim: JobId) -> bool {
        let ch = jt.job(challenger);
        let vi = jt.job(victim);
        match jt.cross_job {
            CrossJobPolicy::Fifo => challenger < victim,
            CrossJobPolicy::FairShare => ch.live_attempts + 1 < vi.live_attempts,
            CrossJobPolicy::FairShareInverted => false,
            CrossJobPolicy::Edf => match (ch.spec.deadline, vi.spec.deadline) {
                (Some(c), Some(v)) => c < v,
                (Some(_), None) => true,
                (None, _) => false,
            },
            CrossJobPolicy::StrictPriority => ch.spec.priority > vi.spec.priority,
            CrossJobPolicy::TenantFair => {
                let (ct, vt) = (ch.spec.tenant, vi.spec.tenant);
                if ct == vt {
                    return ch.live_attempts + 1 < vi.live_attempts;
                }
                let live = reference_tenant_live(jt);
                let cl = live.get(&ct).copied().unwrap_or(0);
                let vl = live.get(&vt).copied().unwrap_or(0);
                if vl <= jt.tenant_min(vt) {
                    return false;
                }
                cl < jt.tenant_min(ct)
                    || (cl + 1) * jt.tenant_weight(vt) <= (vl - 1) * jt.tenant_weight(ct)
            }
        }
    }

    /// The single cross-job order and the guard derived from it agree
    /// with the per-policy rules they replaced, on 10k random states per
    /// policy: per-job live counts, deadlines (some `None`), priorities,
    /// tenants (one beyond the configured ones), weights (zero counts
    /// as one) and `min_slots`, over a random subset of running jobs.
    #[test]
    fn derived_guard_and_unified_order_match_the_per_policy_rules() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let policies = [
            CrossJobPolicy::Fifo,
            CrossJobPolicy::FairShare,
            CrossJobPolicy::FairShareInverted,
            CrossJobPolicy::Edf,
            CrossJobPolicy::StrictPriority,
            CrossJobPolicy::TenantFair,
        ];
        let mut rng = StdRng::seed_from_u64(0x0DE7_0C0D);
        for policy in policies {
            let mut jt = hadoop_jt().with_cross_job(policy);
            let jobs: Vec<JobId> = (0..6)
                .map(|_| jt.submit_job(t(0), JobSpec::new(1, 0)))
                .collect();
            // [allowed, refused] verdicts seen, so both sides are exercised.
            let mut seen = [0u32; 2];
            for _ in 0..10_000 {
                let n_tenants = rng.gen_range(1..=3u32);
                jt.tenant_weights = (0..n_tenants).map(|_| rng.gen_range(0..=3)).collect();
                jt.tenant_min_slots = (0..n_tenants).map(|_| rng.gen_range(0..=4)).collect();
                jt.running_jobs.clear();
                for &jid in &jobs {
                    let job = jt.job_mut(jid);
                    job.live_attempts = rng.gen_range(0..=6);
                    job.spec.deadline = rng.gen_bool(0.75).then(|| t(rng.gen_range(1..=4)));
                    job.spec.priority = rng.gen_range(-2..=2);
                    job.spec.tenant = rng.gen_range(0..=n_tenants);
                    if rng.gen_bool(0.8) {
                        jt.running_jobs.insert(jid);
                    }
                }
                let mut order = Vec::new();
                jt.pick_across_jobs(|jid, _| {
                    order.push(jid);
                    None::<()>
                });
                assert_eq!(order, reference_order(&jt), "{policy:?} pick order");
                let tenant_live = jt.tenant_live_counts();
                for &c in &jt.running_jobs {
                    for &v in jt.running_jobs.iter().filter(|&&v| v != c) {
                        let want = reference_may_preempt(&jt, c, v);
                        assert_eq!(
                            jt.may_preempt(c, v, &tenant_live),
                            want,
                            "{policy:?}: {c:?} over {v:?}, challenger {:?}, victim {:?}, \
                             weights {:?}, floors {:?}",
                            jt.job(c).spec,
                            jt.job(v).spec,
                            jt.tenant_weights,
                            jt.tenant_min_slots
                        );
                        seen[usize::from(!want)] += 1;
                    }
                }
            }
            let allowed_expected = policy != CrossJobPolicy::FairShareInverted;
            assert_eq!(seen[0] > 0, allowed_expected, "{policy:?}: {seen:?}");
            assert!(seen[1] > 0, "{policy:?}: {seen:?}");
        }
    }

    /// Randomized churn drift check: after every step of a mixed
    /// workload (job submissions, partial heartbeats, completions,
    /// suspensions, expiries, revivals) the incremental indexes —
    /// running jobs, alive-slot counters, per-job live attempts — must
    /// equal a from-scratch recomputation. Coverage flags
    /// ensure the churn actually exercised every transition.
    #[test]
    fn incremental_indexes_survive_randomized_churn() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut jt = JobTracker::new(
            SchedulerPolicy::Moon(MoonPolicy {
                tracker_expiry: SimDuration::from_secs(120),
                ..MoonPolicy::default()
            }),
            FetchFailurePolicy::MoonQuery,
        )
        .with_cross_job(CrossJobPolicy::FairShare);
        cluster(&mut jt, 9, 3); // n0..n8 volatile, n9..n11 dedicated
        let mut rng = StdRng::seed_from_u64(0xF1EE7);
        let mut now = t(0);
        // [suspended, expired, revived, job completed]
        let mut produced = [false; 4];
        for _ in 0..400 {
            now += SimDuration::from_secs(20);
            if rng.gen_range(0..10u32) == 0 {
                jt.submit_job(now, JobSpec::new(3, 1));
            }
            for i in 0..12u32 {
                if rng.gen_range(0..100u32) < 40 {
                    let was_down = jt.tracker_state(NodeId(i)) != TrackerState::Alive;
                    let resp = jt.heartbeat(now, NodeId(i));
                    produced[2] |= was_down;
                    for a in resp.assignments {
                        if rng.gen_range(0..100u32) < 50 {
                            let s = jt.attempt_succeeded(a.attempt);
                            produced[3] |= s.job_completed;
                        }
                    }
                }
            }
            let sweep = jt.check_trackers(now); // audits on entry in debug builds
            produced[0] |= !sweep.suspended.is_empty();
            produced[1] |= !sweep.expired.is_empty();
            assert_eq!(jt.audit_indexes(), Vec::<String>::new());
        }
        assert_eq!(
            produced, [true; 4],
            "churn must exercise suspension, expiry, revival and job completion \
             [suspended, expired, revived, completed] = {produced:?}"
        );
    }

    #[test]
    fn dead_tracker_reregisters_on_heartbeat() {
        let mut jt = JobTracker::new(
            SchedulerPolicy::Hadoop(HadoopPolicy::with_expiry(SimDuration::from_mins(1))),
            FetchFailurePolicy::HadoopMajority,
        );
        cluster(&mut jt, 2, 0);
        let _job = jt.submit_job(t(0), JobSpec::new(1, 0));
        jt.heartbeat(t(30), NodeId(1));
        jt.check_trackers(t(61));
        assert_eq!(jt.tracker_state(NodeId(0)), TrackerState::Dead);
        jt.heartbeat(t(90), NodeId(0));
        assert_eq!(jt.tracker_state(NodeId(0)), TrackerState::Alive);
        // It can take work again.
        let r = jt.heartbeat(t(91), NodeId(0)).assignments;
        // The single task is already running on n1 or rescheduled; either
        // way the tracker is usable (no panic) and slots report sanely.
        let _ = r;
        assert!(jt.live_attempt_count() >= 1);
    }
}
