//! The composed simulation world: trace-driven node availability +
//! MOON file system + MapReduce control plane + flow-level I/O.
//!
//! One [`World`] simulates a stream of MapReduce jobs on one cluster
//! under one policy bundle. The default is the paper's single-job run:
//! the input is pre-staged, the job is submitted at t = 1 s, a monitor
//! suspends/resumes each node according to its availability trace, and
//! the run ends when the job's output reaches its replication factor
//! (or the horizon passes — a DNF, which the paper also observed for
//! plain Hadoop at high volatility). With a
//! [`workloads::JobStream`], N jobs coexist: each [`JobSlot`] below
//! tracks one job's staging, shuffle bookkeeping, and output commit,
//! while the JobTracker's cross-job policy (FIFO or fair share)
//! arbitrates slots between them.
//!
//! The world keeps physical state only: phases, flows, compute timers
//! and blocks. The JobTracker is the one record of placement and of the
//! job lifecycle — which attempt runs on which node since when, each
//! job's spec, submission time and status — and the world reads those
//! facts from it rather than keeping copies.
//!
//! ## Structure
//!
//! The world is decomposed into event-dispatched subsystems, one file
//! per subsystem, all operating on the shared [`World`] context:
//!
//! | module       | events handled                                       |
//! |--------------|------------------------------------------------------|
//! | `nodes`    | `NodeDown`, `NodeUp`, `Heartbeat`, `WakeParked`      |
//! | `attempts` | `ComputeDone`, `PhaseRetry`, `NetPoll`, `FlowStallTimeout` |
//! | `shuffle`  | `ShuffleTick` (plus fetch completion/timeout from `attempts`) |
//! | `commit`   | `Submit`, `TrackerCheck`, `ReplicationScan`          |
//!
//! [`Model::handle`] below is a dispatcher: it routes each event to its
//! subsystem, then, while beats are parked under a running job, runs
//! the wake check of `nodes`, then, if the handler touched the flow
//! network, moves the single `NetPoll` event once (its
//! `next_completion` is the one re-share of everything the handler
//! changed). Handlers touch the network only through one door in this
//! module — [`World::open_flow`], [`World::close_flow`],
//! [`World::set_node_capacity`] and the poll in `NetPoll` — which
//! keeps each flow's purpose and stall timer and marks the queued
//! `NetPoll` stale. Cross-subsystem
//! interactions (a finished map waking shuffling reduces, a heartbeat
//! starting attempts) go through `pub(super)` methods on [`World`], so
//! the seams are explicit and a future PR can shard or parallelize a
//! subsystem without touching the others.

mod attempts;
mod commit;
mod diag;
mod nodes;
mod shuffle;
mod telemetry;
#[cfg(test)]
mod tests;

use crate::config::{ClusterConfig, PolicyConfig};
use crate::metrics::RunMetrics;
use attempts::AttemptRt;
use availability::{AvailabilityTrace, TraceGenerator, Transition};
use dfs::{BlockId, FileId, NameNode, NodeClass, NodeId};
use mapred::{AttemptId, JobId, JobStatus, JobTracker};
use netsim::{Changes, FlowId, FlowNet, ResourceId};
use nodes::BeatKey;
use simkit::{Ctx, EventId, Model, SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use workloads::{ArrivalModel, JobStream, WorkloadSpec};

/// TaskTracker/DataNode heartbeat period.
const HEARTBEAT_INTERVAL: SimDuration = SimDuration::from_secs(3);
/// JobTracker tracker-liveness sweep period.
const TRACKER_CHECK_INTERVAL: SimDuration = SimDuration::from_secs(10);
/// NameNode replication-scan period.
const REPLICATION_SCAN_INTERVAL: SimDuration = SimDuration::from_secs(3);
/// Replication commands issued per scan.
const MAX_REPLICATION_STREAMS: usize = 8;
/// A shuffle fetch stalled this long reports a fetch failure.
const FETCH_TIMEOUT: SimDuration = SimDuration::from_secs(30);
/// A DFS read/write stalled this long is aborted and retried.
const IO_TIMEOUT: SimDuration = SimDuration::from_secs(30);
/// Delay before a reduce retries a failed fetch.
const FETCH_RETRY_DELAY: SimDuration = SimDuration::from_secs(10);

/// Events of the world model.
#[derive(Debug, Clone)]
pub enum Ev {
    /// A node's availability trace says it goes down now.
    NodeDown(NodeId),
    /// A node's availability trace says it comes back now.
    NodeUp(NodeId),
    /// Combined TaskTracker + DataNode heartbeat for a node.
    Heartbeat(NodeId),
    /// Periodic JobTracker tracker sweep + NameNode liveness sweep.
    TrackerCheck,
    /// Periodic NameNode replication scan (also checks job commit).
    ReplicationScan,
    /// The flow network predicts a completion at this instant.
    NetPoll,
    /// An attempt's compute phase finishes now (unless it was paused).
    ComputeDone(AttemptId),
    /// A stalled flow's patience ran out.
    FlowStallTimeout(FlowId),
    /// Periodic shuffle service tick for a reduce attempt: retries
    /// waiting fetches and reports unreachable map outputs as fetch
    /// failures (a real reducer's connection attempt fails immediately).
    ShuffleTick(AttemptId),
    /// An attempt retries a stalled read/write phase.
    PhaseRetry(AttemptId),
    /// Submit the job in this arrival slot of the world (slot indexes
    /// follow submission-schedule order).
    Submit(u32),
    /// From the next microsecond on, a straggler can make the
    /// JobTracker grant an idle node work with no task write: the check
    /// after this event wakes the parked beats before any is due then.
    WakeParked,
}

/// Per-node runtime state: liveness, the node's physical resources in
/// the flow network and its heartbeat schedule. Which attempts run on
/// the node is the JobTracker's record ([`JobTracker::attempts_on`]).
struct NodeRt {
    up: bool,
    disk: ResourceId,
    nic_up: ResourceId,
    nic_down: ResourceId,
    /// The queued `Heartbeat`, or `NONE` while the node is down or its
    /// beat is parked (see `nodes`).
    heartbeat_ev: EventId,
    /// Due time of the node's next beat, queued or parked.
    next_beat: SimTime,
    /// Rank of the node's beat among beats due at the same instant:
    /// `−id` while the node still runs the beat chain pushed at
    /// [`World::init`], a fresh increasing value from each `NodeUp`.
    /// Sorting by it reproduces the queue's FIFO order of
    /// self-rescheduled beats when parked beats are re-pushed.
    hb_key: i64,
    /// The queued beat belongs to its class's outstanding woken group
    /// (see `nodes`).
    woken: bool,
}

/// What a flow in the network is doing, keyed by [`FlowId`] in
/// [`World::flows`]. Subsystems give a purpose to [`World::open_flow`];
/// the `NetPoll` driver dispatches completions back by purpose.
#[derive(Debug)]
pub(super) enum FlowPurpose {
    /// Map-input read or intermediate/output write for an attempt.
    Attempt(AttemptId),
    /// A shuffle batch of this reduce attempt (the batch's map indexes
    /// are in its `ShuffleState::inflight`).
    Fetch(AttemptId),
    /// NameNode-ordered re-replication.
    Replication {
        /// Block being re-replicated.
        block: BlockId,
        /// Destination node.
        target: NodeId,
    },
}

/// Per-job runtime state: one submitted (or yet-to-arrive) job's
/// staging, shuffle bookkeeping, and output commit. The single-job
/// world of the paper is the one-slot special case. What the
/// JobTracker records — submission time, reduce count, task
/// completion — is read from it through `job`.
pub(super) struct JobSlot {
    pub(super) workload: WorkloadSpec,
    /// JobTracker id, assigned at submission.
    pub(super) job: Option<JobId>,
    pub(super) input_blocks: Vec<BlockId>,
    pub(super) output_file: Option<FileId>,
    /// Committed output block of each completed map task, indexed by
    /// map index.
    pub(super) map_outputs: Vec<Option<BlockId>>,
    /// When the job's output reached its replication factor.
    pub(super) finished_at: Option<SimTime>,
    /// Closed-stream client that submits its next job once this one
    /// commits (None for open/batch arrivals and single-job runs).
    pub(super) client: Option<u32>,
    /// Stream cycling index of this slot — the same index that picked
    /// its workload, reused at submit to pick its scheduling metadata.
    pub(super) stream_index: u32,
}

impl JobSlot {
    fn new(workload: WorkloadSpec, client: Option<u32>, stream_index: u32) -> Self {
        let n_maps = workload.n_maps as usize;
        JobSlot {
            workload,
            job: None,
            input_blocks: Vec::new(),
            output_file: None,
            map_outputs: vec![None; n_maps],
            finished_at: None,
            client,
            stream_index,
        }
    }
}

/// The full simulation model (implements [`simkit::Model`]).
///
/// `World` is the shared context every subsystem operates on: the
/// subsystem modules (`nodes`, `attempts`, `shuffle`, `commit`)
/// extend it with `pub(super)` handler methods, and this module owns
/// construction, the shared helpers, and the event dispatcher.
pub struct World {
    cluster: ClusterConfig,
    policy: PolicyConfig,
    /// Workload of single-job runs and the fallback for stream jobs.
    base_workload: WorkloadSpec,
    /// The arrival stream (None = the paper's single-job run).
    stream: Option<JobStream>,
    /// Per-client remaining submissions for closed streams.
    client_budget: Vec<u32>,
    traces: Vec<AvailabilityTrace>,
    nodes: Vec<NodeRt>,
    net: FlowNet,
    nn: NameNode,
    jt: JobTracker,
    /// One slot per job (created up front for batch/Poisson arrivals,
    /// incrementally for closed streams).
    jobs: Vec<JobSlot>,
    /// Slot index of each submitted job, indexed by `JobId` (the
    /// JobTracker hands ids out densely in submission order), so its
    /// length counts the submitted slots. With the counters below this
    /// makes the per-heartbeat `control_plane_active` check O(1)
    /// instead of a walk over every slot the run will ever have.
    job_slots: Vec<usize>,
    /// Slots whose tasks have not all completed yet.
    n_tasks_incomplete: usize,
    /// Slots whose output commit has been stamped.
    n_committed: u32,
    /// Sum of `client_budget` (remaining closed-stream submissions).
    client_budget_total: u32,
    /// Slots with tasks done but output not yet fully replicated — the
    /// per-scan commit sweep visits only these, in slot order.
    commit_pending: BTreeSet<usize>,
    /// Slots created per closed-stream client (the workload-cycling
    /// index for that client's next job).
    client_slot_count: Vec<u32>,
    /// Physical state of every live attempt: exactly the attempts the
    /// JobTracker lists on some tracker (`debug_final_audit` checks).
    attempts: BTreeMap<AttemptId, AttemptRt>,
    /// Purpose of every open flow. Never iterated (order-free), so a
    /// hash map keeps the per-flow bookkeeping O(1).
    flows: HashMap<FlowId, FlowPurpose>,
    /// Stall timer of every flow in `flows` that the flow network
    /// reports stalled, and of no other (`debug_final_audit` checks).
    stall_timeouts: HashMap<FlowId, EventId>,
    /// The queued `NetPoll` (`EventId::NONE` while no flow can
    /// complete), or `None` once the current handler changed the flow
    /// network: [`Model::handle`] then queues a fresh one.
    net_poll_ev: Option<EventId>,
    /// Next `NodeRt::hb_key` handed out by a `NodeUp`.
    next_hb_key: i64,
    /// Parked nodes of the volatile and of the dedicated class, by
    /// beat phase, then `hb_key`.
    parked: [BTreeSet<BeatKey>; 2],
    /// Every up node by beat phase, then `hb_key`, or empty until a
    /// wake first needs it: it finds the queued beats at a woken
    /// instant.
    beat_order: BTreeSet<BeatKey>,
    /// Each class's outstanding woken group: its instant, and how many
    /// of its beats are still queued (nodes with `NodeRt::woken`).
    woken: [(SimTime, usize); 2],
    /// The beats a wake queues, with their `hb_key`s; reused so that
    /// wakes allocate nothing.
    wake_beats: Vec<(i64, u32)>,
    /// The queued `WakeParked` and its instant, or `(MAX, NONE)`.
    wake_timer: (SimTime, EventId),
    /// A beat's local attempts, listed so that their progress reports
    /// can write the JobTracker; reused so beats allocate nothing.
    beat_attempts: Vec<AttemptId>,
    /// Peak concurrently-active (submitted, not yet committed) jobs —
    /// perf-log gauge.
    peak_active_jobs: u32,
    /// Telemetry recorder and span scratch; `None` (the default) keeps
    /// every instrumentation hook on a single null-check fast path.
    telemetry: Option<Box<telemetry::TelemetryState>>,
    /// Measured results.
    pub metrics: RunMetrics,
}

impl World {
    /// Build a single-job world — the paper's experimental setup. Call
    /// [`World::init`] on the simulation afterwards.
    pub fn new(cluster: ClusterConfig, policy: PolicyConfig, workload: WorkloadSpec) -> Self {
        Self::with_stream(cluster, policy, workload, None)
    }

    /// Build a world that serves `stream` (multi-job), or the classic
    /// single-job run when `stream` is `None`.
    pub fn with_stream(
        cluster: ClusterConfig,
        policy: PolicyConfig,
        workload: WorkloadSpec,
        stream: Option<JobStream>,
    ) -> Self {
        // The liveness sweeps skip parked nodes, whose last beat is at
        // most one period old: only sound if no deadline is that short.
        let deadlines = [
            policy.namenode.hibernate_interval,
            policy.namenode.expiry_interval,
            policy.scheduler.suspension_interval(),
            policy.scheduler.tracker_expiry(),
        ];
        assert!(
            deadlines.iter().all(|&d| d > HEARTBEAT_INTERVAL),
            "liveness deadlines {deadlines:?} must exceed the beat interval"
        );
        let nn = NameNode::new(policy.namenode.clone());
        let mut jt = JobTracker::new(policy.scheduler.clone(), policy.fetch)
            .with_cross_job(policy.cross_job)
            .with_preemption(policy.preempt);
        if let Some(s) = &stream {
            jt = jt.with_tenants(s.tenant_weights.clone(), s.tenant_min_slots.clone());
        }
        // Pre-create job slots for arrivals known up front; closed
        // streams start with one slot per client and grow on commit.
        let mut jobs = Vec::new();
        let mut client_budget = Vec::new();
        match &stream {
            None => jobs.push(JobSlot::new(workload.clone(), None, 0)),
            Some(s) => match &s.arrivals {
                ArrivalModel::Batch(offsets) => {
                    for k in 0..offsets.len() as u32 {
                        jobs.push(JobSlot::new(s.workload_for(k, &workload).clone(), None, k));
                    }
                }
                ArrivalModel::Poisson { count, .. } => {
                    for k in 0..*count {
                        jobs.push(JobSlot::new(s.workload_for(k, &workload).clone(), None, k));
                    }
                }
                ArrivalModel::Closed {
                    clients,
                    jobs_per_client,
                    ..
                } => {
                    for c in 0..*clients {
                        jobs.push(JobSlot::new(
                            s.workload_for(c, &workload).clone(),
                            Some(c),
                            c,
                        ));
                        client_budget.push(jobs_per_client.saturating_sub(1));
                    }
                }
            },
        }
        let n_slots = jobs.len();
        let client_budget_total = client_budget.iter().sum();
        let client_slot_count = vec![1; client_budget.len()];
        World {
            cluster,
            policy,
            base_workload: workload,
            stream,
            client_budget,
            traces: Vec::new(),
            nodes: Vec::new(),
            net: FlowNet::new(),
            nn,
            jt,
            jobs,
            job_slots: Vec::new(),
            n_tasks_incomplete: n_slots,
            n_committed: 0,
            client_budget_total,
            commit_pending: BTreeSet::new(),
            client_slot_count,
            attempts: BTreeMap::new(),
            flows: HashMap::new(),
            stall_timeouts: HashMap::new(),
            net_poll_ev: Some(EventId::NONE),
            next_hb_key: 1,
            parked: Default::default(),
            beat_order: BTreeSet::new(),
            woken: [(SimTime::MAX, 0); 2],
            wake_beats: Vec::new(),
            wake_timer: (SimTime::MAX, EventId::NONE),
            beat_attempts: Vec::new(),
            peak_active_jobs: 0,
            telemetry: None,
            metrics: RunMetrics::default(),
        }
    }

    /// Register nodes, stage input, and schedule the boot events.
    /// `sim` must be a fresh simulation over this world.
    pub fn init(sim: &mut simkit::Simulation<World>) {
        let n_nodes = sim.model().cluster.n_nodes();
        // Resources + traces.
        for i in 0..n_nodes {
            let (disk_bw, nic_bw) = {
                let w = sim.model();
                (w.cluster.disk_bandwidth, w.cluster.nic_bandwidth)
            };
            let trace = {
                let w = sim.model();
                if let Some(overrides) = &w.cluster.trace_overrides {
                    overrides
                        .get(i as usize)
                        .cloned()
                        .unwrap_or_else(|| AvailabilityTrace::always_available(w.cluster.horizon))
                } else if w.cluster.is_dedicated(i) || w.cluster.unavailability <= 0.0 {
                    AvailabilityTrace::always_available(w.cluster.horizon)
                } else {
                    let cfg = w.cluster.trace.clone();
                    // Per-node trace stream derived from the sim's root seed.
                    let seed = simkit::derive_seed(sim_seed(sim), 0x7000 + i as u64);
                    let mut r = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
                    TraceGenerator::poisson_insertion(&cfg, &mut r)
                }
            };
            let w = sim.model_mut();
            let disk = w.net.add_resource(disk_bw);
            let nic_up = w.net.add_resource(nic_bw);
            let nic_down = w.net.add_resource(nic_bw);
            w.nodes.push(NodeRt {
                up: true,
                disk,
                nic_up,
                nic_down,
                heartbeat_ev: EventId::NONE,
                next_beat: SimTime::ZERO,
                hb_key: -(i as i64),
                woken: false,
            });
            w.traces.push(trace);
        }
        // Register with NameNode and JobTracker.
        {
            let w = sim.model_mut();
            for i in 0..n_nodes {
                let node = NodeId(i);
                let class = if w.cluster.is_dedicated(i) {
                    NodeClass::Dedicated
                } else {
                    NodeClass::Volatile
                };
                w.nn.register_node(SimTime::ZERO, node, class);
                w.jt.register_tracker(
                    SimTime::ZERO,
                    node,
                    w.cluster.map_slots,
                    w.cluster.reduce_slots,
                    class == NodeClass::Dedicated,
                );
            }
        }
        // Schedule trace transitions.
        for i in 0..n_nodes {
            let transitions: Vec<(SimTime, Transition)> =
                sim.model().traces[i as usize].transitions().collect();
            for (at, tr) in transitions {
                match tr {
                    Transition::Down => sim.schedule_at(at, Ev::NodeDown(NodeId(i))),
                    Transition::Up => sim.schedule_at(at, Ev::NodeUp(NodeId(i))),
                };
            }
        }
        // Heartbeats, staggered so they do not all land on one instant.
        for i in 0..n_nodes {
            let at = SimTime::from_micros(50_000 * i as u64 + 1);
            let ev = sim.schedule_at(at, Ev::Heartbeat(NodeId(i)));
            let rt = &mut sim.model_mut().nodes[i as usize];
            rt.heartbeat_ev = ev;
            rt.next_beat = at;
        }
        sim.schedule(TRACKER_CHECK_INTERVAL, Ev::TrackerCheck);
        sim.schedule(REPLICATION_SCAN_INTERVAL, Ev::ReplicationScan);
        // Job submissions. The paper's single job arrives at t = 1 s;
        // stream arrivals are offsets from that base instant. Poisson
        // inter-arrival gaps derive from the root seed on a dedicated
        // key, so the jobs' own randomness (placement, task durations)
        // is untouched.
        let base = SimDuration::from_secs(1);
        let arrivals = sim.model().stream.as_ref().map(|s| s.arrivals.clone());
        match arrivals {
            None => {
                sim.schedule(base, Ev::Submit(0));
            }
            Some(ArrivalModel::Batch(offsets)) => {
                for (k, off) in offsets.iter().enumerate() {
                    sim.schedule(base + *off, Ev::Submit(k as u32));
                }
            }
            Some(ArrivalModel::Poisson {
                rate_per_hour,
                count,
            }) => {
                let seed = simkit::derive_seed(sim_seed(sim), ARRIVAL_SEED_KEY);
                let mut r = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
                let mut at = base;
                for k in 0..count {
                    sim.schedule(at, Ev::Submit(k));
                    at += ArrivalModel::sample_poisson_gap(rate_per_hour, &mut r);
                }
            }
            Some(ArrivalModel::Closed { clients, .. }) => {
                // The initial burst: one job per client at the base
                // instant; successors are scheduled on commit.
                for c in 0..clients {
                    sim.schedule(base, Ev::Submit(c));
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Shared helpers, used by every subsystem module
    // ------------------------------------------------------------------

    fn node(&self, n: NodeId) -> &NodeRt {
        &self.nodes[n.0 as usize]
    }

    /// Slot index of a submitted job.
    fn slot_of(&self, job: JobId) -> usize {
        self.job_slots[job.0 as usize]
    }

    /// The job slot an attempt belongs to.
    pub(super) fn slot_for(&self, id: AttemptId) -> &JobSlot {
        &self.jobs[self.slot_of(id.task.job)]
    }

    /// Mutable job slot for an attempt.
    pub(super) fn slot_for_mut(&mut self, id: AttemptId) -> &mut JobSlot {
        let s = self.slot_of(id.task.job);
        &mut self.jobs[s]
    }

    /// Is the MapReduce control plane live? The TaskTracker half of
    /// the heartbeat runs from the first submission until the last
    /// job's tasks complete — *including* idle gaps between stream
    /// arrivals (an unsubmitted slot or an owed closed-stream
    /// successor keeps it on). Parked beats in such a gap still count:
    /// the JobTracker's liveness sweep skips parked nodes while the
    /// control plane is on, so healthy trackers stay alive. Off before any
    /// submission and in the final output-replication tail, exactly as
    /// in the single-job run.
    pub(super) fn control_plane_active(&self) -> bool {
        !self.job_slots.is_empty()
            && (self.n_tasks_incomplete > 0 || self.more_submissions_pending())
    }

    /// Has every task of the slot's job completed? Its output commit
    /// may still be replicating.
    fn tasks_done(&self, slot: &JobSlot) -> bool {
        slot.job
            .is_some_and(|j| self.jt.job_status(j) == JobStatus::Succeeded)
    }

    /// Resource chain for a transfer src → dst (skipping the network for
    /// local transfers).
    fn transfer_path(&self, src: NodeId, dst: NodeId) -> Vec<ResourceId> {
        if src == dst {
            vec![self.node(src).disk]
        } else {
            vec![
                self.node(src).disk,
                self.node(src).nic_up,
                self.node(dst).nic_down,
                self.node(dst).disk,
            ]
        }
    }

    /// Resource chain for a replication pipeline client → t1 → t2 → …
    fn pipeline_path(&self, client: NodeId, targets: &[NodeId]) -> Vec<ResourceId> {
        let mut path = Vec::with_capacity(targets.len() * 3);
        let mut prev = client;
        for &t in targets {
            if t != prev {
                path.push(self.node(prev).nic_up);
                path.push(self.node(t).nic_down);
            }
            path.push(self.node(t).disk);
            prev = t;
        }
        if path.is_empty() {
            path.push(self.node(client).disk);
        }
        path
    }

    // ------------------------------------------------------------------
    // The door to the flow network: every world-side mutation of `net`
    // ------------------------------------------------------------------

    /// Start a flow of `bytes` over `path` for `purpose`, with a stall
    /// timer if it is born stalled.
    fn open_flow(
        &mut self,
        ctx: &mut Ctx<'_, Ev>,
        path: &[ResourceId],
        bytes: f64,
        purpose: FlowPurpose,
    ) -> FlowId {
        let (flow, changes) = self.net.start_flow(ctx.now(), path, bytes);
        self.flows.insert(flow, purpose);
        self.apply_changes(ctx, changes);
        self.net_changed(ctx);
        flow
    }

    /// Abort an open flow: forget it, then cancel it in the network.
    fn close_flow(&mut self, ctx: &mut Ctx<'_, Ev>, flow: FlowId) -> Option<FlowPurpose> {
        let purpose = self.forget_flow(ctx, flow);
        self.net.cancel_flow(ctx.now(), flow);
        self.net_changed(ctx);
        purpose
    }

    /// Drop a flow's purpose, returned, and its stall timer.
    fn forget_flow(&mut self, ctx: &mut Ctx<'_, Ev>, flow: FlowId) -> Option<FlowPurpose> {
        if let Some(ev) = self.stall_timeouts.remove(&flow) {
            ctx.cancel(ev);
        }
        self.flows.remove(&flow)
    }

    /// Take node `n`'s disk and NICs down to capacity 0, or back up to
    /// their configured bandwidths.
    fn set_node_capacity(&mut self, ctx: &mut Ctx<'_, Ev>, n: NodeId, up: bool) {
        let (disk_bw, nic_bw) = if up {
            (self.cluster.disk_bandwidth, self.cluster.nic_bandwidth)
        } else {
            (0.0, 0.0)
        };
        let rt = self.node(n);
        let caps = [
            (rt.disk, disk_bw),
            (rt.nic_up, nic_bw),
            (rt.nic_down, nic_bw),
        ];
        for (r, bw) in caps {
            let changes = self.net.set_capacity(ctx.now(), r, bw);
            self.apply_changes(ctx, changes);
        }
        self.net_changed(ctx);
    }

    /// React to flows crossing zero rate, as one flow-network mutation
    /// reported them: stop/start stall timers.
    fn apply_changes(&mut self, ctx: &mut Ctx<'_, Ev>, changes: Changes) {
        for f in changes.resumed {
            if let Some(ev) = self.stall_timeouts.remove(&f) {
                ctx.cancel(ev);
            }
        }
        for f in changes.stalled {
            if self.stall_timeouts.contains_key(&f) {
                continue;
            }
            let timeout = match self.flows.get(&f) {
                Some(FlowPurpose::Fetch(_)) => FETCH_TIMEOUT,
                Some(_) => IO_TIMEOUT,
                None => continue,
            };
            let ev = ctx.schedule(timeout, Ev::FlowStallTimeout(f));
            self.stall_timeouts.insert(f, ev);
        }
    }

    /// The flow network changed: cancel the queued `NetPoll`, whose
    /// instant may now be wrong; [`Model::handle`] queues a fresh one.
    fn net_changed(&mut self, ctx: &mut Ctx<'_, Ev>) {
        if let Some(ev) = self.net_poll_ev.take() {
            ctx.cancel(ev);
        }
    }

    // ------------------------------------------------------------------
    // Run-completion accessors used by the experiment driver
    // ------------------------------------------------------------------

    /// Overall status across the run's jobs, if any was submitted:
    /// `Failed` if any job failed, `Running` while any is incomplete
    /// (or still to arrive), `Succeeded` once every job succeeded. For
    /// a single-job run this is exactly that job's status.
    pub fn job_status(&self) -> Option<JobStatus> {
        let statuses: Vec<JobStatus> = self
            .jobs
            .iter()
            .filter_map(|s| s.job)
            .map(|j| self.jt.job_status(j))
            .collect();
        if statuses.is_empty() {
            return None;
        }
        if statuses.contains(&JobStatus::Failed) {
            Some(JobStatus::Failed)
        } else if statuses.len() == self.jobs.len()
            && !self.more_submissions_pending()
            && statuses.iter().all(|&s| s == JobStatus::Succeeded)
        {
            Some(JobStatus::Succeeded)
        } else {
            Some(JobStatus::Running)
        }
    }

    /// Aggregate JobTracker counters across the run's jobs (a
    /// single-job run reports exactly that job's counters).
    pub fn job_metrics(&self) -> Option<mapred::JobMetrics> {
        let mut total: Option<mapred::JobMetrics> = None;
        for slot in &self.jobs {
            if let Some(j) = slot.job {
                let m = self.jt.job_metrics(j);
                match &mut total {
                    None => total = Some(m),
                    Some(t) => t.accumulate(&m),
                }
            }
        }
        total
    }

    /// Closed streams keep injecting jobs after commits; is any such
    /// future submission still owed? O(1) via the maintained budget sum.
    fn more_submissions_pending(&self) -> bool {
        self.client_budget_total > 0
    }

    /// Per-job service-level rows for the run (submission, queueing
    /// delay, makespan), in submission-slot order. Empty before any
    /// job is submitted.
    pub fn job_slo_rows(&self) -> Vec<crate::metrics::JobSlo> {
        self.jobs
            .iter()
            .filter(|s| s.job.is_some())
            .map(|slot| {
                let job = slot.job.expect("filtered");
                let submitted = self.jt.job_submitted(job);
                let first_launch = self.jt.job_first_launch(job);
                let spec = self.jt.job_spec(job);
                crate::metrics::JobSlo {
                    job: job.0,
                    workload: slot.workload.name.clone(),
                    submitted,
                    first_launch,
                    finished: slot.finished_at,
                    deadline: spec.deadline,
                    priority: spec.priority,
                    tenant: spec.tenant,
                    metrics: self.jt.job_metrics(job),
                }
            })
            .collect()
    }

    /// Job gauges: (jobs submitted, peak concurrently active).
    pub fn job_gauges(&self) -> (u32, u32) {
        (self.job_slots.len() as u32, self.peak_active_jobs)
    }

    /// The NameNode (read access for tests and metrics).
    pub fn namenode(&self) -> &NameNode {
        &self.nn
    }

    /// Flow-network re-sharing counters.
    pub fn net_stats(&self) -> netsim::NetStats {
        self.net.stats()
    }
}

impl Model for World {
    type Event = Ev;

    /// Route each event to its subsystem module, then wake parked beats
    /// the event made grantable, then, if the handler changed the flow
    /// network, queue the single flow-completion poll event afresh. The
    /// handler's mutations only seeded the dirty set, so
    /// `next_completion` re-shares it once.
    fn handle(&mut self, ctx: &mut Ctx<'_, Ev>, ev: Ev) {
        // Same-instant beats ranked before this event have been served.
        let served = match ev {
            Ev::Heartbeat(n) => self.node(n).hb_key,
            _ => i64::MIN,
        };
        match ev {
            // nodes: availability transitions and heartbeats
            Ev::NodeDown(n) => self.on_node_down(ctx, n),
            Ev::NodeUp(n) => self.on_node_up(ctx, n),
            Ev::Heartbeat(n) => self.on_heartbeat(ctx, n),
            // The wake check below does the work.
            Ev::WakeParked => self.wake_timer = (SimTime::MAX, EventId::NONE),
            // attempts: phase I/O drivers
            Ev::NetPoll => self.on_net_poll(ctx),
            Ev::ComputeDone(id) => self.on_compute_done(ctx, id),
            Ev::FlowStallTimeout(f) => self.on_flow_stall_timeout(ctx, f),
            Ev::PhaseRetry(id) => self.on_phase_retry(ctx, id),
            // shuffle: fetch service
            Ev::ShuffleTick(id) => self.on_shuffle_tick(ctx, id),
            // commit: job submission, liveness sweeps, replication
            Ev::Submit(slot) => self.on_submit(ctx, slot),
            Ev::TrackerCheck => self.on_tracker_check(ctx),
            Ev::ReplicationScan => self.on_replication_scan(ctx),
        }
        // Before the `NetPoll`: a woken beat due now was queued before
        // any event this handler queued.
        if self.parked.iter().any(|p| !p.is_empty()) && self.jt.active_job_count() > 0 {
            self.wake_idle(ctx, served);
        }
        if self.net_poll_ev.is_none() {
            self.net_poll_ev = Some(match self.net.next_completion() {
                Some(at) => ctx.schedule_at(at.max(ctx.now()), Ev::NetPoll),
                None => EventId::NONE,
            });
        }
    }

    /// Telemetry gauge sampling. Disabled runs take the `None` branch
    /// and return; enabled runs sample only before the first event at
    /// or after a cadence tick, so a row holds the state after every
    /// event strictly before its tick. Runs outside the scheduling
    /// surface (no `Ctx`), so it cannot perturb the event sequence or
    /// RNG draws.
    fn observe(&mut self, stats: &simkit::DispatchStats) {
        match &self.telemetry {
            None => (),
            Some(t) if !t.rec.due(stats.next) => (),
            Some(_) => self.telemetry_sample(stats.next, stats.events_handled, stats.queue_depth),
        }
    }
}

/// The root seed of a simulation (exposed for trace derivation).
fn sim_seed(sim: &simkit::Simulation<World>) -> u64 {
    // RngPool is owned by the Simulation; we derive trace seeds from the
    // same root so runs are reproducible end to end.
    sim.root_seed()
}

/// Seed-derivation key for Poisson arrival-time precomputation.
/// Disjoint from the per-node trace keys (`0x7000 + i`), so a
/// multi-job run replays the same fleet as the single-job run.
const ARRIVAL_SEED_KEY: u64 = 0xA881_7A0B;
