//! Task pickers: pending launches and retries, then speculation under
//! Hadoop's straggler rule or MOON's frozen, slow and homestretch lists.
//! Each reads the job's picker summary (see [`super::summary`]) and
//! applies only the filters that depend on the asking node.

use super::{Job, JobTracker};
use crate::policy::SchedulerPolicy;
use crate::types::{AttemptState, LaunchReason, TaskId, TaskKind};
use dfs::NodeId;
use simkit::SimTime;

impl JobTracker {
    /// Choose the next task of `kind` for `node`, with the launch reason.
    pub(super) fn pick_task(
        &mut self,
        now: SimTime,
        node: NodeId,
        kind: TaskKind,
    ) -> Option<(TaskId, LaunchReason)> {
        let (originals, speculative) = self.serves(self.tracker(node).dedicated);
        // 1. Fresh launches and retries.
        if originals {
            if let Some(pick) = self.pick_pending(node, kind) {
                return Some(pick);
            }
        }
        // 2. Speculation.
        if speculative {
            return self.pick_speculative(now, node, kind);
        }
        None
    }

    /// Which pickers serve a tracker of this class: `(originals,
    /// speculative copies)`. MOON treats dedicated nodes as data
    /// servers; only the hybrid variant runs (speculative) tasks there
    /// (§V-C).
    pub(super) fn serves(&self, dedicated: bool) -> (bool, bool) {
        if dedicated && !self.policy.dedicated_runs_originals() {
            (false, self.policy.hybrid())
        } else {
            (true, true)
        }
    }

    /// Non-running tasks: retries first (Hadoop prioritises recently
    /// failed tasks), then unscheduled tasks — maps preferring input
    /// locality to the requesting node. Jobs are visited in cross-job
    /// policy order; the first job with any candidate wins.
    pub(super) fn pick_pending(
        &self,
        node: NodeId,
        kind: TaskKind,
    ) -> Option<(TaskId, LaunchReason)> {
        self.pick_across_jobs(
            |job| self.has_pending(job, kind),
            |_, job| self.pick_pending_in(job, node, kind),
        )
    }

    /// The per-job half of [`Self::pick_pending`]: best pending task of
    /// `kind` in one job, by (class, index). Called only for a job that
    /// [`Self::has_pending`], so it always finds one.
    pub(super) fn pick_pending_in(
        &self,
        job: &Job,
        node: NodeId,
        kind: TaskKind,
    ) -> Option<(TaskId, LaunchReason)> {
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

    /// Speculation: the first candidate of the job's summary, in pick
    /// order, with no live attempt on `node`. Hadoop takes a candidate
    /// whose input is local to `node` first; MOON ignores locality.
    pub(super) fn pick_speculative(
        &self,
        now: SimTime,
        node: NodeId,
        kind: TaskKind,
    ) -> Option<(TaskId, LaunchReason)> {
        let prefer_local = matches!(self.policy, SchedulerPolicy::Hadoop(_));
        self.pick_across_jobs(
            |job| !self.speculative(job, kind, now).is_empty(),
            |_, job| {
                let candidates = self.speculative(job, kind, now);
                let mut open = candidates
                    .iter()
                    .filter(|c| !job.task(c.task).has_live_attempt_on(|n| n == node));
                let pick = if prefer_local {
                    let local = open.clone().find(|c| job.input_local(c.task, node));
                    local.or_else(|| open.next())
                } else {
                    open.next()
                };
                pick.map(|c| (c.task, c.reason))
            },
        )
    }
}
