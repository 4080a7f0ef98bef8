//! Diagnostics: the end-of-run audit that recounts every incremental
//! index and counter from scratch. No simulation logic lives here —
//! everything is read-only over the world state.

use super::World;
use dfs::NodeId;
use mapred::{AttemptId, JobId, JobStatus};
use netsim::FlowId;
use simkit::EventId;
use std::collections::BTreeSet;

impl World {
    /// Cross-subsystem audit: re-derives every incremental counter and
    /// index from scratch (world job slots, JobTracker, NameNode),
    /// checks across the layers that the runtime attempt table holds
    /// exactly the attempts the JobTracker places on its trackers and
    /// that the flows holding a stall timer are exactly the live flows
    /// the flow network reports stalled, and
    /// — when the run succeeded — checks the terminal state is fully
    /// drained (no live attempts anywhere, no queued jobs, nothing
    /// awaiting commit). Returns one line per discrepancy; empty means
    /// the conservation invariants hold. Its recounts and the
    /// cross-layer check hold between any two events, not only at the
    /// end of a run.
    ///
    /// It never panics and is compiled in release builds, so the
    /// fuzzer can run it after every experiment and turn violations
    /// into shrinkable findings rather than campaign-aborting aborts.
    /// Debug builds also assert its recount parts mid-run: the job-slot
    /// and parked-beat counters at each commit sweep, the subsystem
    /// indexes at each liveness sweep.
    pub fn debug_final_audit(&self) -> Vec<String> {
        let mut issues = self.audit_job_counters();

        // Every committed job must be genuinely finished: the JobTracker
        // says its tasks all succeeded, and time flows forward.
        for (i, slot) in self.jobs.iter().enumerate() {
            let Some(finished) = slot.finished_at else {
                continue;
            };
            let Some(job) = slot.job else {
                issues.push(format!("slot {i} committed without a submission record"));
                continue;
            };
            let status = self.jt.job_status(job);
            if status != JobStatus::Succeeded {
                issues.push(format!("slot {i} committed but JobTracker says {status:?}"));
            }
            if finished < self.jt.job_submitted(job) {
                issues.push(format!("slot {i} committed before it was submitted"));
            }
        }

        // Cross-layer: the runtime attempt table holds exactly the
        // attempts the JobTracker places on its trackers.
        let placed: BTreeSet<AttemptId> = (0..self.nodes.len() as u32)
            .flat_map(|n| self.jt.attempts_on(NodeId(n)))
            .collect();
        let runtime: BTreeSet<AttemptId> = self.attempts.keys().copied().collect();
        if placed != runtime {
            issues.push(format!(
                "runtime attempt table drifted from the JobTracker: only placed {:?}, only runtime {:?}",
                placed.difference(&runtime).collect::<Vec<_>>(),
                runtime.difference(&placed).collect::<Vec<_>>()
            ));
        }

        // Cross-layer: a flow holds a stall timer exactly while the flow
        // network reports it stalled.
        let timed: BTreeSet<FlowId> = self.stall_timeouts.keys().copied().collect();
        let stalled: BTreeSet<FlowId> = self
            .flows
            .keys()
            .copied()
            .filter(|&f| self.net.is_stalled(f))
            .collect();
        if timed != stalled {
            issues.push(format!(
                "stall timers drifted from the flow network: only timed {:?}, only stalled {:?}",
                timed.difference(&stalled).collect::<Vec<_>>(),
                stalled.difference(&timed).collect::<Vec<_>>()
            ));
        }

        // Subsystem index audits (the non-panicking drift checks).
        issues.extend(self.jt.audit_indexes());
        issues.extend(self.nn.audit_indexes());

        // A fully-successful run must end drained: every attempt
        // terminal, no job queued or running, nothing left to commit.
        if self.job_status() == Some(JobStatus::Succeeded) {
            if !self.attempts.is_empty() {
                issues.push(format!(
                    "{} attempt(s) still live after all jobs succeeded",
                    self.attempts.len()
                ));
            }
            let live = self.jt.live_attempt_count();
            if live != 0 {
                issues.push(format!("JobTracker still counts {live} live attempt(s)"));
            }
            let queued = self.jt.queued_job_count();
            if queued != 0 {
                issues.push(format!("{queued} job(s) still queued after success"));
            }
            let active = self.jt.active_job_count();
            if active != 0 {
                issues.push(format!("{active} job(s) still running after success"));
            }
            for &slot in &self.commit_pending {
                // Name the blocks holding the commit hostage — the
                // difference between "horizon cut the run short" and
                // "this block can never reach its factor" is the whole
                // diagnosis.
                let mut blocks = String::new();
                if let Some(out) = self.jobs[slot].output_file {
                    for &b in self.nn.file_blocks(out) {
                        let holders: Vec<String> = self
                            .nn
                            .live_replicas(b)
                            .iter()
                            .map(|&n| {
                                format!(
                                    "{n:?}={:?}/{:?}",
                                    self.nn.node_class(n),
                                    self.nn.node_liveness(n)
                                )
                            })
                            .collect();
                        blocks.push_str(&format!(
                            " [{b:?} want {:?}: {}]",
                            self.nn.file_factor(out),
                            holders.join(", "),
                        ));
                    }
                }
                issues.push(format!(
                    "slot {slot} stuck awaiting commit after success:{blocks}"
                ));
            }
            if self.client_budget_total != 0 {
                issues.push(format!(
                    "{} closed-stream submission(s) still owed after success",
                    self.client_budget_total
                ));
            }
        }
        issues
    }

    /// Recount the world's job-slot counters and commit-pending set
    /// from the slots and the JobTracker's job statuses, and the
    /// parked-beat counts and the trackers' parked marks from the
    /// nodes, one line per discrepancy (empty = no drift); a parked node
    /// must hold no live attempt.
    /// Debug builds assert it is empty at each commit sweep; the
    /// end-of-run audit runs it in release builds too.
    pub(super) fn audit_job_counters(&self) -> Vec<String> {
        let mut issues = Vec::new();
        // `job_slots` lists the submitted slots in `JobId` order.
        let mut submitted: Vec<(JobId, usize)> = self
            .jobs
            .iter()
            .enumerate()
            .filter_map(|(i, s)| Some((s.job?, i)))
            .collect();
        submitted.sort_unstable();
        let by_job: Vec<usize> = submitted.into_iter().map(|(_, i)| i).collect();
        if self.job_slots != by_job {
            issues.push(format!(
                "job-slot table drifted: table {:?}, recount {by_job:?}",
                self.job_slots
            ));
        }
        let incomplete = self.jobs.iter().filter(|s| !self.tasks_done(s)).count();
        if self.n_tasks_incomplete != incomplete {
            issues.push(format!(
                "tasks-incomplete counter drifted: counter {}, recount {incomplete}",
                self.n_tasks_incomplete
            ));
        }
        let committed = self.jobs.iter().filter(|s| s.finished_at.is_some()).count();
        if self.n_committed as usize != committed {
            issues.push(format!(
                "committed-slot counter drifted: counter {}, recount {committed}",
                self.n_committed
            ));
        }
        if self.client_budget_total != self.client_budget.iter().sum::<u32>() {
            issues.push(format!(
                "closed-stream budget counter drifted: counter {}, recount {}",
                self.client_budget_total,
                self.client_budget.iter().sum::<u32>()
            ));
        }
        let pending: BTreeSet<usize> = self
            .jobs
            .iter()
            .enumerate()
            .filter(|(_, s)| self.tasks_done(s) && s.finished_at.is_none())
            .map(|(i, _)| i)
            .collect();
        if self.commit_pending != pending {
            issues.push(format!(
                "commit-pending set drifted: tracked {:?}, recount {pending:?}",
                self.commit_pending
            ));
        }
        // The parked order indexes, the trackers' parked marks, the
        // woken groups and the beat order of up nodes, from the node
        // table.
        let mut parked: [BTreeSet<_>; 2] = Default::default();
        let mut woken = [0usize; 2];
        let control = self.control_plane_active();
        for (i, rt) in (0u32..).zip(&self.nodes) {
            let class = self.class(i);
            let is_parked = self.is_parked(i as usize);
            if is_parked {
                parked[class].insert(self.beat_key(i));
                if self.jt.attempts_on(NodeId(i)).next().is_some() {
                    issues.push(format!("node {i} is parked with live attempts"));
                }
            }
            let marks = (self.nn.is_parked(NodeId(i)), self.jt.is_parked(NodeId(i)));
            if marks != (is_parked, is_parked && control) {
                issues.push(format!(
                    "node {i} parked marks (namenode, jobtracker) {marks:?}, parked {is_parked}"
                ));
            }
            if rt.woken {
                woken[class] += 1;
                if !rt.up || rt.heartbeat_ev == EventId::NONE || rt.next_beat != self.woken[class].0
                {
                    issues.push(format!(
                        "node {i} is woken but has no queued beat at its group's instant {}",
                        self.woken[class].0
                    ));
                }
            }
        }
        for class in 0..2 {
            if self.parked[class] != parked[class] {
                issues.push(format!(
                    "class {class} parked index drifted: {} indexed, {} parked",
                    self.parked[class].len(),
                    parked[class].len()
                ));
            }
            if self.woken[class].1 != woken[class] {
                issues.push(format!(
                    "class {class} woken-group counter drifted: counter {}, recount {}",
                    self.woken[class].1, woken[class]
                ));
            }
        }
        if !self.beat_order.is_empty() {
            let up: BTreeSet<_> = (0u32..)
                .zip(&self.nodes)
                .filter(|(_, rt)| rt.up)
                .map(|(i, _)| self.beat_key(i))
                .collect();
            if self.beat_order != up {
                issues.push(format!(
                    "beat order drifted: {} indexed, {} up",
                    self.beat_order.len(),
                    up.len()
                ));
            }
        }

        issues
    }
}
