//! Commit/replication subsystem: job submission, liveness sweeps, and
//! the NameNode replication scanner that also decides job completion.
//!
//! Handles `Submit`, `TrackerCheck`, and `ReplicationScan`. Submission
//! stages a job's input file and opens its opportunistic output file
//! (§IV-A); the replication scan issues re-replication flows and, once
//! a job's tasks finished and its output file reached its replication
//! factor, stamps that job's commit time. The run stops when every job
//! of the stream has committed (for the paper's single-job run: when
//! *the* job has) — closed streams inject each client's next job at
//! commit, a think-time later.

use super::{
    Ev, FlowPurpose, JobSlot, World, MAX_REPLICATION_STREAMS, REPLICATION_SCAN_INTERVAL,
    TRACKER_CHECK_INTERVAL,
};
use dfs::{FileKind, NodeId};
use mapred::JobSpec;
use simkit::{Ctx, StreamId};
use workloads::{ArrivalModel, ReduceCount};

impl World {
    pub(super) fn on_submit(&mut self, ctx: &mut Ctx<'_, Ev>, slot: u32) {
        let slot = slot as usize;
        // Stage the input file (the paper stages input before measuring).
        let input = self
            .nn
            .create_file(FileKind::Reliable, self.policy.input_factor);
        let (split, n_maps) = {
            let s = &self.jobs[slot];
            (s.workload.split_bytes(), s.workload.n_maps)
        };
        for _ in 0..n_maps {
            let b = self.nn.allocate_block(input, split);
            let plan = self.nn.choose_write_targets(
                ctx.now(),
                b,
                None,
                ctx.rng().stream(StreamId::Placement),
            );
            for t in plan.targets() {
                self.nn.commit_replica(b, t);
            }
            self.jobs[slot].input_blocks.push(b);
        }
        // Resolve the reduce count against submit-time slots (Table I's
        // 0.9 × AvailSlots rule). MOON schedules originals on volatile
        // nodes only, so only their slots count there.
        let worker_nodes = if self.policy.scheduler.dedicated_runs_originals() {
            self.cluster.n_nodes()
        } else {
            self.cluster.n_volatile
        };
        let avail_reduce_slots = worker_nodes * self.cluster.reduce_slots;
        let n_reduces = match self.jobs[slot].workload.reduces {
            ReduceCount::Fixed(n) => n,
            f @ ReduceCount::SlotsFraction(_) => f.resolve(avail_reduce_slots),
        };
        let locations: Vec<Vec<NodeId>> = self.jobs[slot]
            .input_blocks
            .iter()
            .map(|&b| self.nn.live_replicas(b))
            .collect();
        let mut spec = JobSpec::new(n_maps, n_reduces).with_locations(locations);
        // Scheduling metadata rides the stream, cycled by the same index
        // that picked the slot's workload. Relative deadlines become
        // absolute here (submission time + slack).
        if let Some(stream) = &self.stream {
            let meta = stream.meta_for(self.jobs[slot].stream_index);
            if let Some(slack) = meta.deadline {
                spec = spec.with_deadline(ctx.now().saturating_add(slack));
            }
            spec = spec.with_priority(meta.priority).with_tenant(meta.tenant);
        }
        let job = self.jt.submit_job(ctx.now(), spec);
        self.jobs[slot].job = Some(job);
        debug_assert_eq!(job.0 as usize, self.job_slots.len());
        self.job_slots.push(slot);
        self.metrics.job_submitted.get_or_insert(ctx.now());
        // Committed slots were necessarily submitted, so the active
        // (submitted, not yet committed) gauge is a counter difference.
        let active = self.job_slots.len() as u32 - self.n_committed;
        self.peak_active_jobs = self.peak_active_jobs.max(active);
        // Output file: opportunistic until commit (§IV-A).
        let out = self
            .nn
            .create_file(FileKind::Opportunistic, self.policy.output_factor);
        self.jobs[slot].output_file = Some(out);
    }

    pub(super) fn on_tracker_check(&mut self, ctx: &mut Ctx<'_, Ev>) {
        // Both sweeps skip parked nodes, whose stamps may lag (`nodes`).
        let sweep = self.jt.check_trackers(ctx.now());
        for a in sweep.killed {
            self.cancel_attempt_physical(ctx, a);
        }
        self.nn.check_liveness(ctx.now());
        ctx.schedule(TRACKER_CHECK_INTERVAL, Ev::TrackerCheck);
    }

    pub(super) fn on_replication_scan(&mut self, ctx: &mut Ctx<'_, Ev>) {
        let cmds = self.nn.replication_scan(
            ctx.now(),
            MAX_REPLICATION_STREAMS,
            ctx.rng().stream(StreamId::Placement),
        );
        for cmd in cmds {
            let path = self.transfer_path(cmd.source, cmd.target);
            let purpose = FlowPurpose::Replication {
                block: cmd.block,
                target: cmd.target,
            };
            self.open_flow(ctx, &path, cmd.size as f64, purpose);
        }

        // Output-commit check: a job is done once every output block
        // reached its replication factor (§IV-A). The run ends when the
        // whole stream has committed.
        if self.commit_finished_jobs(ctx) {
            self.metrics.job_finished = Some(ctx.now());
            ctx.stop();
            return;
        }
        ctx.schedule(REPLICATION_SCAN_INTERVAL, Ev::ReplicationScan);
    }

    /// Stamp commits for jobs whose output just reached its replication
    /// factor (spawning each closed-stream successor), and report
    /// whether the entire stream is now committed.
    fn commit_finished_jobs(&mut self, ctx: &mut Ctx<'_, Ev>) -> bool {
        debug_assert_eq!(self.audit_job_counters(), Vec::<String>::new());
        // Only slots with tasks done and output still replicating can
        // commit — the maintained pending set visits exactly those, in
        // slot order, instead of sweeping every slot each scan. The
        // snapshot keeps successors spawned below out of this sweep
        // (the old full walk bound its range before mutating, too).
        let pending: Vec<usize> = self.commit_pending.iter().copied().collect();
        for slot in pending {
            let ready = {
                let s = &self.jobs[slot];
                s.output_file
                    .is_some_and(|out| self.nn.is_fully_replicated(out))
            };
            if ready {
                self.jobs[slot].finished_at = Some(ctx.now());
                self.commit_pending.remove(&slot);
                self.n_committed += 1;
                self.spawn_closed_successor(ctx, slot);
            }
        }
        self.n_committed as usize == self.jobs.len() && !self.more_submissions_pending()
    }

    /// A closed-stream client whose job just committed submits its next
    /// one a think-time later.
    fn spawn_closed_successor(&mut self, ctx: &mut Ctx<'_, Ev>, slot: usize) {
        let Some(client) = self.jobs[slot].client else {
            return;
        };
        if self.client_budget[client as usize] == 0 {
            return;
        }
        self.client_budget[client as usize] -= 1;
        self.client_budget_total -= 1;
        let Some(stream) = &self.stream else { return };
        let ArrivalModel::Closed { think, .. } = &stream.arrivals else {
            return;
        };
        let think = think.sample(ctx.rng().stream(StreamId::JobArrival(client as u64)));
        let slot_index = self.jobs.len() as u32;
        // Cycle the workload by the client's *own* position in the
        // stream (k-th job of client c gets index c + clients·k, the
        // same stride the initial burst used), so each client's
        // sequence is fixed regardless of when other clients commit.
        // The per-client slot count is maintained at slot creation —
        // no walk over every slot per commit.
        let k = self.client_slot_count[client as usize];
        let n_clients = self.client_budget.len() as u32;
        let index = client + n_clients * k;
        let workload = stream.workload_for(index, &self.base_workload).clone();
        self.jobs.push(JobSlot::new(workload, Some(client), index));
        self.client_slot_count[client as usize] += 1;
        self.n_tasks_incomplete += 1;
        ctx.schedule(think, Ev::Submit(slot_index));
    }
}
