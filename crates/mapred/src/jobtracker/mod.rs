//! The JobTracker: task bookkeeping, tracker liveness, slot assignment,
//! speculative execution, and fetch-failure handling.
//!
//! Like the NameNode, this is a pure state machine: the embedding world
//! calls [`JobTracker::heartbeat`] when a TaskTracker reports in, feeds
//! back attempt outcomes, and periodically runs
//! [`JobTracker::check_trackers`]. All policy differences between stock
//! Hadoop, MOON and MOON-Hybrid live here and in [`crate::policy`].

mod fetch;
mod jobs;
mod order;
mod pickers;
mod summary;
#[cfg(test)]
mod tests;
mod trackers;

use crate::job::{AttemptInfo, JobSpec, JobStatus, TaskState, MAX_TASK_FAILURES};
use crate::policy::{CrossJobPolicy, FetchFailurePolicy, SchedulerPolicy};
use crate::types::{
    AttemptId, AttemptState, JobId, LaunchReason, TaskAssignment, TaskId, TaskKind,
};
use dfs::NodeId;
use jobs::Job;
use simkit::SimTime;
use std::cell::RefCell;
use std::collections::BTreeSet;
use trackers::Tracker;
pub use trackers::TrackerState;

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
    /// the alive-slot counters, each job's `live_attempts`, each
    /// tracker's `running` set and each job's still-valid picker
    /// summaries — and report each discrepancy as one line (empty = no
    /// drift). Debug builds assert
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
        self.audit_summaries(&mut issues);
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
    // Job, task and attempt records
    // ------------------------------------------------------------------

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
        self.jobs.push(Job::new(id, now, spec));
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

    // ------------------------------------------------------------------
    // Attempt outcomes
    // ------------------------------------------------------------------

    /// Record a progress report for an attempt. A report that changes
    /// nothing writes nothing, so the job's picker summaries stay valid.
    pub fn report_progress(&mut self, attempt: AttemptId, progress: f64) {
        let progress = progress.clamp(0.0, 1.0);
        let info = self.attempt(attempt);
        if info.state.is_live() && info.progress.to_bits() != progress.to_bits() {
            self.attempt_mut(attempt).progress = progress;
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

    /// Total live attempts across all jobs (diagnostics). Sums the
    /// per-job maintained counters instead of walking every task.
    pub fn live_attempt_count(&self) -> usize {
        self.jobs.iter().map(|j| j.live_attempts as usize).sum()
    }
}
