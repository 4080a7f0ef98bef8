//! Per-job picker summaries: the node-independent half of every task
//! picker, computed once and reused by every heartbeat until it can
//! have changed.
//!
//! A summary of one job's tasks of one kind holds whether any task
//! needs a launch and the speculative candidates that pass every filter
//! that does not depend on the asking node, in pick order. A heartbeat
//! then applies only the node-specific filters: a live attempt on the
//! node, and Hadoop's locality preference. Nearly every beat of a large
//! fleet grants nothing, and learns so in O(1) per running job.
//!
//! A summary is keyed on what its scan read:
//! - the job's mutation epoch, bumped by [`Job::task_mut`], the only
//!   writer of a task (launch, kill, success, failure, fetch-failure
//!   re-open, suspend and revive, progress reports);
//! - the alive-slot counters, which set MOON's speculative cap and
//!   homestretch threshold;
//! - the clock: it goes stale at the earliest instant a task that is
//!   slow in all but runtime reaches [`STRAGGLER_MIN_RUNTIME`].
//!
//! The hybrid filter also reads whether the nodes hosting live attempts
//! are dedicated. That flag changes only by re-registering a node, which
//! drops the node's running set, so it cannot change under a live
//! attempt without [`JobTracker::audit_indexes`] reporting the drop.
//! The scan's floats (the job's average progress) are recomputed per
//! rebuild, never kept as running sums, so a rebuild reproduces the
//! per-beat scan it replaces bit for bit.

use super::{Job, JobTracker};
use crate::job::TaskState;
use crate::policy::SchedulerPolicy;
use crate::types::{LaunchReason, TaskId, TaskKind};
use simkit::{SimDuration, SimTime};
use std::cell::{Cell, Ref, RefCell};

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

/// Hadoop's straggler ("slow task") rule for a live, incomplete task:
/// it is under the per-task speculative cap, its best progress is more
/// than [`STRAGGLER_GAP`] below `avg` (its job's average for the task
/// kind), and its oldest live attempt has run at least
/// [`STRAGGLER_MIN_RUNTIME`]. Returns the instant the last condition
/// starts to hold, or `None` if one of the others fails.
fn straggler_from(task: &TaskState, avg: f64) -> Option<SimTime> {
    let oldest_start = task.live_attempts().map(|a| a.started).min()?;
    ((task.n_live_speculative() as u32) < MAX_SPECULATIVE_PER_TASK
        && task.best_progress() < avg - STRAGGLER_GAP)
        .then(|| oldest_start + STRAGGLER_MIN_RUNTIME)
}

/// Mean best-progress over scheduled tasks of `kind` (completed count
/// as 1.0): the baseline for the straggler rule.
fn avg_progress(job: &Job, kind: TaskKind) -> f64 {
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

/// Does some task of `kind` need a launch, past the reduce slowstart
/// gate?
fn scan_pending(job: &Job, kind: TaskKind) -> bool {
    let gate = (REDUCE_SLOWSTART * job.spec.n_maps as f64).ceil() as u32;
    let gated = kind == TaskKind::Reduce && job.metrics.completed_maps < gate.min(job.spec.n_maps);
    !gated && job.tasks(kind).iter().any(|t| t.needs_launch())
}

/// One speculative candidate. Candidates sort by `(key, task)`, which
/// is pick order: MOON's key is `(list, running copies, progress)`
/// with the frozen, slow and homestretch lists numbered 0, 1 and 2 (the
/// running-copy count orders the homestretch list only); Hadoop's is
/// `(0, first launch, 0)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) struct Candidate {
    key: (u8, u32, u64),
    pub(super) task: TaskId,
    pub(super) reason: LaunchReason,
}

/// One job's picker summary of its tasks of one kind (see the module
/// docs). Its two halves are rebuilt independently, so a beat that
/// grants a pending task never pays for the speculative scan.
#[derive(Debug, Default)]
pub(super) struct PickerSummary {
    /// `(job epoch, does some task need a launch past the reduce
    /// slowstart gate)` at the last pending scan; `None` before it.
    pub(super) pending: Cell<Option<(u64, bool)>>,
    pub(super) speculative: RefCell<Speculative>,
}

/// What the last speculative scan found.
#[derive(Debug, Default, PartialEq)]
pub(super) struct Speculative {
    /// `(job epoch, alive map slots, alive reduce slots)` at the scan;
    /// `None` before the first.
    key: Option<(u64, u32, u32)>,
    /// When the scan ran, and when a task's runtime first makes it a
    /// straggler after that ([`SimTime::MAX`] if none can).
    built_at: SimTime,
    stale_at: SimTime,
    /// Candidates in pick order, each at most once per list (a MOON
    /// task can be both slow and in the homestretch).
    pub(super) candidates: Vec<Candidate>,
}

impl JobTracker {
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

    fn speculative_key(&self, job: &Job) -> (u64, u32, u32) {
        (job.epoch(), self.alive_map_slots, self.alive_reduce_slots)
    }

    /// Does `job` have a task of `kind` to launch, past the reduce
    /// slowstart gate? O(1) until the job's next task write.
    pub(super) fn has_pending(&self, job: &Job, kind: TaskKind) -> bool {
        let cell = &job.summary(kind).pending;
        match cell.get() {
            Some((epoch, pending)) if epoch == job.epoch() => pending,
            _ => {
                let pending = scan_pending(job, kind);
                cell.set(Some((job.epoch(), pending)));
                pending
            }
        }
    }

    /// `job`'s speculative candidates of `kind` at `now`, in pick order,
    /// rescanned first if stale. Like the event loop, callers never
    /// move `now` backwards.
    pub(super) fn speculative<'j>(
        &self,
        job: &'j Job,
        kind: TaskKind,
        now: SimTime,
    ) -> Ref<'j, [Candidate]> {
        Ref::map(self.fresh_speculative(job, kind, now), |s| {
            s.candidates.as_slice()
        })
    }

    /// `job`'s speculative summary of `kind`, rescanned at `now` first
    /// if stale.
    fn fresh_speculative<'j>(
        &self,
        job: &'j Job,
        kind: TaskKind,
        now: SimTime,
    ) -> Ref<'j, Speculative> {
        let cell = &job.summary(kind).speculative;
        let fresh = {
            let s = cell.borrow();
            s.key == Some(self.speculative_key(job)) && now < s.stale_at
        };
        if !fresh {
            self.scan_speculative(job, kind, now, &mut cell.borrow_mut());
        }
        cell.borrow()
    }

    /// When would [`Self::heartbeat`] first grant anything to an idle
    /// tracker of this class — Alive, with no live attempt — if no task
    /// is written and no tracker changes liveness meanwhile? `now` if
    /// it would grant now; otherwise the earliest straggler-runtime
    /// crossing in a running job's speculative summary, the one instant
    /// the answer can turn with no such write ([`SimTime::MAX`] if
    /// none). The answer is exact per class: with no live attempt on
    /// the tracker, the only node-specific filter left is Hadoop's
    /// locality preference, which reorders candidates without dropping
    /// any. O(running jobs) on cached summaries.
    pub fn idle_grant_at(&self, dedicated: bool, now: SimTime) -> SimTime {
        let (originals, speculative) = self.serves(dedicated);
        let mut at = SimTime::MAX;
        if !speculative {
            return at;
        }
        for &jid in &self.running_jobs {
            let job = self.job(jid);
            for kind in [TaskKind::Map, TaskKind::Reduce] {
                if originals && self.has_pending(job, kind) {
                    return now;
                }
                let s = self.fresh_speculative(job, kind, now);
                if !s.candidates.is_empty() {
                    return now;
                }
                at = at.min(s.stale_at);
            }
        }
        at
    }

    /// Rescan `job`'s `kind` tasks at `now` into `s`, reusing its
    /// candidate buffer.
    fn scan_speculative(&self, job: &Job, kind: TaskKind, now: SimTime, s: &mut Speculative) {
        s.key = Some(self.speculative_key(job));
        s.built_at = now;
        s.candidates.clear();
        let mut push = |key, task: &TaskState, reason| {
            s.candidates.push(Candidate {
                key,
                task: task.id,
                reason,
            })
        };
        let mut stale_at = SimTime::MAX;
        match &self.policy {
            SchedulerPolicy::Hadoop(_) => {
                let avg = avg_progress(job, kind);
                for task in job.tasks(kind) {
                    if task.completed || task.n_live() == 0 {
                        continue;
                    }
                    match straggler_from(task, avg) {
                        Some(at) if at <= now => push(
                            (0, task.first_launch_seq, 0),
                            task,
                            LaunchReason::Speculative,
                        ),
                        Some(at) => stale_at = stale_at.min(at),
                        None => {}
                    }
                }
            }
            SchedulerPolicy::Moon(p) => {
                // Global cap on concurrent speculative instances (§V-A).
                let cap = (p.speculative_slot_fraction * self.available_slots(None) as f64).floor()
                    as u32;
                let live_speculative: u32 =
                    job.all_tasks().map(|t| t.n_live_speculative() as u32).sum();
                if live_speculative < cap.max(1) {
                    let avg = avg_progress(job, kind);
                    let tasks = job.tasks(kind);
                    let remaining = tasks.iter().filter(|t| !t.completed).count() as u32;
                    let homestretch_on = (remaining as f64)
                        < (p.homestretch_h_percent / 100.0)
                            * self.available_slots(Some(kind)) as f64;
                    for task in tasks {
                        if task.completed || task.n_live() == 0 {
                            continue;
                        }
                        // Tasks already backed by a dedicated copy have
                        // reliable backup; skip them for further
                        // replication (§V-C).
                        if p.hybrid && task.has_live_attempt_on(|n| self.tracker(n).dedicated) {
                            continue;
                        }
                        let progress = (task.best_progress() * 1e9) as u64;
                        // 1. Frozen list: all copies inactive; exempt from
                        //    the per-task cap; lowest progress first.
                        if task.is_frozen() {
                            push((0, 0, progress), task, LaunchReason::Speculative);
                            continue;
                        }
                        // 2. Slow list: Hadoop straggler criteria.
                        match straggler_from(task, avg) {
                            Some(at) if at <= now => {
                                push((1, 0, progress), task, LaunchReason::Speculative)
                            }
                            Some(at) => stale_at = stale_at.min(at),
                            None => {}
                        }
                        // 3. Homestretch: remaining tasks short of R
                        //    active copies, fewest copies first.
                        let running = task.n_running() as u32;
                        if homestretch_on && running < p.homestretch_r {
                            push((2, running, progress), task, LaunchReason::Homestretch);
                        }
                    }
                }
            }
        }
        s.stale_at = stale_at;
        s.candidates.sort_unstable_by_key(|c| (c.key, c.task));
    }

    /// Report each summary half that is still valid by its key but
    /// differs from a fresh scan (at its build time): a task write that
    /// bypassed the epoch.
    pub(super) fn audit_summaries(&self, issues: &mut Vec<String>) {
        for (jid, job) in self.job_ids().zip(&self.jobs) {
            for kind in [TaskKind::Map, TaskKind::Reduce] {
                let summary = job.summary(kind);
                let valid = summary.pending.get().filter(|&(e, _)| e == job.epoch());
                if let Some((_, pending)) = valid {
                    let fresh = scan_pending(job, kind);
                    if pending != fresh {
                        issues.push(format!(
                            "job {jid:?} {kind:?} pending summary drifted: cached {pending}, \
                             fresh scan {fresh}"
                        ));
                    }
                }
                let cached = summary.speculative.borrow();
                if cached.key == Some(self.speculative_key(job)) {
                    let mut fresh = Speculative::default();
                    self.scan_speculative(job, kind, cached.built_at, &mut fresh);
                    if *cached != fresh {
                        issues.push(format!(
                            "job {jid:?} {kind:?} speculative summary drifted: cached \
                             {cached:?}, fresh scan {fresh:?}"
                        ));
                    }
                }
            }
        }
    }
}
