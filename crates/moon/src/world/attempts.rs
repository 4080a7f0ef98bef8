//! Phase I/O driver subsystem: the per-attempt state machine.
//!
//! Handles `ComputeDone`, `PhaseRetry`, `NetPoll`, and
//! `FlowStallTimeout`. Each live attempt walks a phase machine — map:
//! read → compute → write; reduce: shuffle → compute → write — where
//! read/write phases are flows in the network and compute phases are
//! [`PausableWork`] timers (paused by node outages, resumed on return).
//! `NetPoll` is the single flow-completion driver for the whole world:
//! it dispatches finished flows back to their purpose (attempt phase,
//! shuffle fetch, or replication).

use super::shuffle::ShuffleState;
use super::{Ev, FlowPurpose, World, FETCH_RETRY_DELAY};
use dfs::{BlockId, FileId, NodeId};
use mapred::{AttemptId, TaskKind};
use netsim::FlowId;
use simkit::{Ctx, EventId, PausableWork, SimDuration, SimTime, StreamId};
use std::collections::{BTreeMap, BTreeSet};

/// Delay before retrying a DFS read/write that found no usable replica.
const PHASE_RETRY_DELAY: SimDuration = SimDuration::from_secs(5);

/// What an attempt is physically doing right now.
#[derive(Debug)]
pub(super) enum Phase {
    /// Map: reading its input split.
    MapRead {
        /// The read flow (`None` while waiting for a usable replica).
        flow: Option<FlowId>,
    },
    /// Map or reduce: crunching.
    Compute {
        /// Remaining CPU work, pausable across outages.
        work: PausableWork,
        /// The pending `ComputeDone` event (`NONE` while paused).
        ev: EventId,
    },
    /// Map: writing intermediate; reduce: writing output.
    Write {
        /// The write flow (`None` while waiting for placement targets).
        flow: Option<FlowId>,
        /// Destination file.
        file: FileId,
        /// Destination block.
        block: BlockId,
        /// Pipeline targets of the in-flight write.
        targets: Vec<NodeId>,
    },
    /// Reduce: fetching map outputs.
    Shuffle(ShuffleState),
}

/// Physical state of one live attempt. Its node and launch time are the
/// JobTracker's record ([`mapred::JobTracker::attempt`]).
pub(super) struct AttemptRt {
    /// When a reduce fetched its last map output.
    pub(super) shuffle_done: Option<SimTime>,
    pub(super) phase: Phase,
}

impl World {
    // ------------------------------------------------------------------
    // Attempt lifecycle
    // ------------------------------------------------------------------

    pub(super) fn start_attempt(&mut self, ctx: &mut Ctx<'_, Ev>, id: AttemptId) {
        debug_assert!(!self.attempts.contains_key(&id), "attempt started twice");
        let n_maps = self.slot_for(id).workload.n_maps;
        let rt = AttemptRt {
            shuffle_done: None,
            phase: match id.task.kind {
                TaskKind::Map => Phase::MapRead { flow: None },
                TaskKind::Reduce => Phase::Shuffle(ShuffleState {
                    waiting: (0..n_maps).collect(),
                    inflight: BTreeMap::new(),
                    fetched: BTreeSet::new(),
                }),
            },
        };
        self.attempts.insert(id, rt);
        match id.task.kind {
            TaskKind::Map => self.begin_map_read(ctx, id),
            TaskKind::Reduce => {
                self.pump_shuffle(ctx, id);
                ctx.schedule(FETCH_RETRY_DELAY, Ev::ShuffleTick(id));
            }
        }
    }

    pub(super) fn begin_map_read(&mut self, ctx: &mut Ctx<'_, Ev>, id: AttemptId) {
        if !self.attempts.contains_key(&id) {
            return;
        }
        let node = self.jt.attempt(id).node;
        let block = self.slot_for(id).input_blocks[id.task.index as usize];
        let src =
            self.nn
                .choose_read_source(block, Some(node), ctx.rng().stream(StreamId::Placement));
        match src {
            Some(src) => {
                let path = self.transfer_path(src, node);
                let bytes = self.nn.block_size(block) as f64;
                let flow = self.open_flow(ctx, &path, bytes, FlowPurpose::Attempt(id));
                if let Some(rt) = self.attempts.get_mut(&id) {
                    rt.phase = Phase::MapRead { flow: Some(flow) };
                }
            }
            None => {
                // Input temporarily unavailable: stall the task (§IV). If
                // every replica is gone for good the task fails.
                if self.nn.live_replicas(block).is_empty() {
                    self.jt.attempt_failed(id);
                    self.attempts.remove(&id);
                    self.obs_attempt_end(id, ctx.now(), super::telemetry::ATTEMPT_FAILED);
                } else {
                    ctx.schedule(PHASE_RETRY_DELAY, Ev::PhaseRetry(id));
                }
            }
        }
    }

    pub(super) fn begin_compute(&mut self, ctx: &mut Ctx<'_, Ev>, id: AttemptId) {
        let node = self.jt.attempt(id).node;
        let workload = &self.slot_for(id).workload;
        let cpu = match id.task.kind {
            TaskKind::Map => workload
                .map_cpu
                .sample(ctx.rng().stream(StreamId::TaskDuration(node.0 as u64))),
            TaskKind::Reduce => workload
                .reduce_cpu
                .sample(ctx.rng().stream(StreamId::TaskDuration(node.0 as u64))),
        };
        let mut work = PausableWork::new(cpu);
        let up = self.node(node).up;
        let ev = if up {
            work.resume(ctx.now());
            ctx.schedule_at(work.eta(ctx.now()).unwrap(), Ev::ComputeDone(id))
        } else {
            EventId::NONE
        };
        if let Some(rt) = self.attempts.get_mut(&id) {
            rt.phase = Phase::Compute { work, ev };
        }
    }

    fn begin_write(&mut self, ctx: &mut Ctx<'_, Ev>, id: AttemptId) {
        let (file, block) = match id.task.kind {
            TaskKind::Map => {
                let bytes = self.slot_for(id).workload.map_output_bytes;
                let file = self.nn.create_file(
                    self.policy.intermediate_kind,
                    self.policy.intermediate_factor,
                );
                let block = self.nn.allocate_block(file, bytes);
                (file, block)
            }
            TaskKind::Reduce => {
                let slot = self.slot_for(id);
                let file = slot.output_file.expect("output file exists");
                let n_reduces = self.jt.job_spec(id.task.job).n_reduces;
                let bytes = slot.workload.output_bytes_per_reduce(n_reduces);
                let block = self.nn.allocate_block(file, bytes);
                (file, block)
            }
        };
        self.start_write_flow(ctx, id, file, block);
    }

    fn start_write_flow(
        &mut self,
        ctx: &mut Ctx<'_, Ev>,
        id: AttemptId,
        file: FileId,
        block: BlockId,
    ) {
        let node = self.jt.attempt(id).node;
        let plan = self.nn.choose_write_targets(
            ctx.now(),
            block,
            Some(node),
            ctx.rng().stream(StreamId::Placement),
        );
        let targets: Vec<NodeId> = plan.targets().collect();
        if targets.is_empty() {
            // Nowhere to write right now; retry shortly.
            if let Some(rt) = self.attempts.get_mut(&id) {
                rt.phase = Phase::Write {
                    flow: None,
                    file,
                    block,
                    targets: Vec::new(),
                };
            }
            ctx.schedule(PHASE_RETRY_DELAY, Ev::PhaseRetry(id));
            return;
        }
        let bytes = self.nn.block_size(block) as f64;
        let path = self.pipeline_path(node, &targets);
        let flow = self.open_flow(ctx, &path, bytes, FlowPurpose::Attempt(id));
        if let Some(rt) = self.attempts.get_mut(&id) {
            rt.phase = Phase::Write {
                flow: Some(flow),
                file,
                block,
                targets,
            };
        }
    }

    /// Abort an attempt's physical activity (flows, compute timers).
    pub(super) fn cancel_attempt_physical(&mut self, ctx: &mut Ctx<'_, Ev>, id: AttemptId) {
        let Some(rt) = self.attempts.remove(&id) else {
            return;
        };
        self.obs_attempt_end(id, ctx.now(), super::telemetry::ATTEMPT_KILLED);
        let mut flows_to_cancel: Vec<FlowId> = Vec::new();
        match rt.phase {
            Phase::MapRead { flow } => flows_to_cancel.extend(flow),
            Phase::Compute { ev, .. } => {
                ctx.cancel(ev);
            }
            Phase::Write {
                flow, file, block, ..
            } => {
                flows_to_cancel.extend(flow);
                // The aborted writer's allocation must not hold the file's
                // replication hostage (a reduce writes into the shared
                // output file; a map owns its intermediate file).
                match id.task.kind {
                    TaskKind::Map => self.nn.delete_file(file),
                    TaskKind::Reduce => self.nn.remove_block(block),
                }
            }
            Phase::Shuffle(sh) => {
                flows_to_cancel.extend(sh.inflight.keys().copied());
            }
        }
        for f in flows_to_cancel {
            self.close_flow(ctx, f);
        }
    }

    /// Current progress score of an attempt (Hadoop-style phase weights).
    pub(super) fn attempt_progress(&self, id: AttemptId, now: SimTime) -> f64 {
        let Some(rt) = self.attempts.get(&id) else {
            return 0.0;
        };
        match id.task.kind {
            TaskKind::Map => match &rt.phase {
                Phase::MapRead { .. } => 0.02,
                Phase::Compute { work, .. } => 0.05 + 0.75 * work.progress(now),
                Phase::Write { .. } => 0.85,
                Phase::Shuffle(_) => 0.0,
            },
            TaskKind::Reduce => match &rt.phase {
                Phase::Shuffle(sh) => {
                    let total = self.slot_for(id).workload.n_maps.max(1) as f64;
                    0.33 * (sh.fetched.len() as f64 / total)
                }
                Phase::Compute { work, .. } => 0.33 + 0.34 * work.progress(now),
                Phase::Write { .. } => 0.70,
                Phase::MapRead { .. } => 0.0,
            },
        }
    }

    // ------------------------------------------------------------------
    // Event handlers
    // ------------------------------------------------------------------

    pub(super) fn on_compute_done(&mut self, ctx: &mut Ctx<'_, Ev>, id: AttemptId) {
        let Some(rt) = self.attempts.get(&id) else {
            return;
        };
        match &rt.phase {
            Phase::Compute { work, .. } if work.is_complete(ctx.now()) => {
                self.begin_write(ctx, id);
            }
            _ => {} // stale event (paused/rescheduled)
        }
    }

    pub(super) fn on_phase_retry(&mut self, ctx: &mut Ctx<'_, Ev>, id: AttemptId) {
        let Some(rt) = self.attempts.get(&id) else {
            return;
        };
        match &rt.phase {
            Phase::MapRead { flow: None } => self.begin_map_read(ctx, id),
            Phase::Write {
                flow: None,
                file,
                block,
                ..
            } => {
                let (file, block) = (*file, *block);
                self.start_write_flow(ctx, id, file, block);
            }
            _ => {}
        }
    }

    // ------------------------------------------------------------------
    // Flow completion dispatch
    // ------------------------------------------------------------------

    pub(super) fn on_net_poll(&mut self, ctx: &mut Ctx<'_, Ev>) {
        let done = self.net.poll(ctx.now());
        self.net_changed(ctx);
        for flow in done {
            // An earlier completion of this poll may have closed the flow
            // (a finished attempt kills its siblings).
            let Some(purpose) = self.forget_flow(ctx, flow) else {
                continue;
            };
            match purpose {
                FlowPurpose::Attempt(id) => self.on_attempt_flow_done(ctx, id, flow),
                FlowPurpose::Fetch(id) => self.on_fetch_done(ctx, id, flow),
                FlowPurpose::Replication { block, target } => {
                    self.nn.commit_replica(block, target);
                }
            }
        }
    }

    fn on_attempt_flow_done(&mut self, ctx: &mut Ctx<'_, Ev>, id: AttemptId, flow: FlowId) {
        let Some(rt) = self.attempts.get(&id) else {
            return;
        };
        match &rt.phase {
            Phase::MapRead { flow: Some(f) } if *f == flow => {
                self.begin_compute(ctx, id);
            }
            Phase::Write {
                flow: Some(f),
                block,
                targets,
                ..
            } if *f == flow => {
                let (block, targets) = (*block, targets.clone());
                for t in &targets {
                    self.nn.commit_replica(block, *t);
                }
                self.finish_attempt(ctx, id, block);
            }
            _ => {}
        }
    }

    fn finish_attempt(&mut self, ctx: &mut Ctx<'_, Ev>, id: AttemptId, block: BlockId) {
        let rt = self.attempts.remove(&id).expect("attempt exists");
        self.obs_attempt_end(id, ctx.now(), super::telemetry::ATTEMPT_SUCCEEDED);
        let started = self.jt.attempt(id).started;
        let resp = self.jt.attempt_succeeded(id);
        for k in resp.kill {
            self.cancel_attempt_physical(ctx, k);
        }
        match id.task.kind {
            TaskKind::Map => {
                self.slot_for_mut(id).map_outputs[id.task.index as usize] = Some(block);
                self.metrics
                    .map_times
                    .record(ctx.now().since(started).as_secs_f64());
                self.notify_reduces_of_map(ctx, id.task.job, id.task.index);
            }
            TaskKind::Reduce => {
                // A reduce shuffles from its launch.
                let sh_done = rt.shuffle_done.unwrap_or(ctx.now());
                self.metrics
                    .shuffle_times
                    .record(sh_done.since(started).as_secs_f64());
                self.metrics
                    .reduce_times
                    .record(ctx.now().since(sh_done).as_secs_f64());
            }
        }
        if resp.job_completed {
            let sidx = self.slot_of(id.task.job);
            let out = self.jobs[sidx].output_file;
            if self.n_tasks_incomplete == 1 && !self.more_submissions_pending() {
                // The control plane turns off: parked beats strictly
                // before now were the last to reach the JobTracker.
                self.stamp_all_parked(ctx.now());
            }
            self.n_tasks_incomplete -= 1;
            self.commit_pending.insert(sidx);
            // Output commit: promote to reliable; the replication scanner
            // finishes the remaining copies and (once every job of the
            // stream has committed) ends the run.
            if let Some(out) = out {
                self.nn.convert_to_reliable(out);
            }
        }
    }

    pub(super) fn on_flow_stall_timeout(&mut self, ctx: &mut Ctx<'_, Ev>, flow: FlowId) {
        self.stall_timeouts.remove(&flow);
        // Only act if the flow still exists and is still stalled.
        if !self.net.is_stalled(flow) {
            return;
        }
        let Some(purpose) = self.close_flow(ctx, flow) else {
            return;
        };
        match purpose {
            FlowPurpose::Fetch(id) => self.on_fetch_timeout(ctx, id, flow),
            FlowPurpose::Attempt(id) => {
                // Restart the stalled phase with fresh placement.
                if let Some(rt) = self.attempts.get_mut(&id) {
                    match &mut rt.phase {
                        Phase::MapRead { flow: f } => {
                            *f = None;
                            self.begin_map_read(ctx, id);
                        }
                        Phase::Write {
                            flow: f,
                            file,
                            block,
                            ..
                        } => {
                            *f = None;
                            let (file, block) = (*file, *block);
                            self.start_write_flow(ctx, id, file, block);
                        }
                        _ => {}
                    }
                }
            }
            FlowPurpose::Replication { block, target } => {
                self.nn.replica_failed(block, target);
            }
        }
    }
}
