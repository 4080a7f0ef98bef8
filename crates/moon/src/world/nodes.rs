//! Node lifecycle subsystem: availability transitions and heartbeats.
//!
//! Handles `NodeDown` / `NodeUp` / `Heartbeat`. A node going down zeroes
//! its disk and NIC capacities in the flow network (stalling any flow
//! through them) and pauses compute phases running on it; coming back
//! restores capacities, resumes compute, and restarts the heartbeat
//! loop. The heartbeat is the combined TaskTracker + DataNode beat:
//! bandwidth report to the NameNode, progress reports and kill/launch
//! exchange with the JobTracker.
//!
//! **Parked beats.** While no job runs, a beat of a node without local
//! attempts or an I/O throttle can only stamp `last_heartbeat` in the
//! NameNode and JobTracker. Such a node's beat is *parked*: nothing is
//! queued, and `NodeRt::next_beat` keeps its 3 s grid. The only readers
//! of the stamp are the liveness sweeps, so the beats the grid implies
//! strictly before `now` are stamped before each sweep
//! (`on_tracker_check`), when the node goes down, and at a `Submit`,
//! which then re-queues every up node's beat in `NodeRt::hb_key` order
//! — the order in which same-instant beats leave the queue had they
//! never been parked. DESIGN.md §7 gives the argument.

use super::{Ev, World, HEARTBEAT_INTERVAL};
use simkit::{Ctx, EventId, SimDuration, SimTime, StreamId};

use super::attempts::Phase;

impl World {
    pub(super) fn on_node_down(&mut self, ctx: &mut Ctx<'_, Ev>, n: dfs::NodeId) {
        if !self.node(n).up {
            return;
        }
        // A trace NodeDown was queued at init, so it leaves the queue
        // before a beat due at the same instant: only the parked beats
        // strictly before now happened.
        if self.is_parked(n.0 as usize) {
            self.stamp_parked(n, ctx.now());
        }
        let rt = &mut self.nodes[n.0 as usize];
        rt.up = false;
        ctx.cancel(rt.heartbeat_ev);
        rt.heartbeat_ev = EventId::NONE;
        self.obs_node_down(n.0, ctx.now());
        self.set_node_capacity(ctx, n, false);
        // Pause compute phases running on this node.
        for id in self.jt.attempts_on(n) {
            if let Some(rt) = self.attempts.get_mut(&id) {
                if let Phase::Compute { work, ev } = &mut rt.phase {
                    work.pause(ctx.now());
                    ctx.cancel(*ev);
                    *ev = EventId::NONE;
                }
            }
        }
    }

    pub(super) fn on_node_up(&mut self, ctx: &mut Ctx<'_, Ev>, n: dfs::NodeId) {
        let rt = &mut self.nodes[n.0 as usize];
        if rt.up {
            return;
        }
        rt.up = true;
        self.obs_node_up(n.0, ctx.now());
        self.set_node_capacity(ctx, n, true);
        // Resume compute phases.
        for id in self.jt.attempts_on(n) {
            if let Some(rt) = self.attempts.get_mut(&id) {
                if let Phase::Compute { work, ev } = &mut rt.phase {
                    work.resume(ctx.now());
                    let eta = work.eta(ctx.now()).expect("just resumed");
                    *ev = ctx.schedule_at(eta, Ev::ComputeDone(id));
                }
            }
        }
        // Restart the heartbeat loop promptly, as a new beat chain that
        // ranks after every chain already queued.
        let rt = &mut self.nodes[n.0 as usize];
        rt.hb_key = self.next_hb_key;
        self.next_hb_key += 1;
        rt.next_beat = ctx.now() + SimDuration::from_millis(500);
        rt.heartbeat_ev = ctx.schedule_at(rt.next_beat, Ev::Heartbeat(n));
    }

    pub(super) fn on_heartbeat(&mut self, ctx: &mut Ctx<'_, Ev>, n: dfs::NodeId) {
        if !self.node(n).up {
            return; // went down before the event fired; NodeUp restarts it
        }
        // DataNode heartbeat with measured I/O bandwidth (disk
        // throughput). Real bandwidth measurements jitter; Algorithm 1's
        // saturation detector depends on that jitter (an exact plateau
        // triggers neither of its branches), so apply ±5 % Gaussian
        // measurement noise. Only a throttled node's report is read,
        // and the noise stream is the node's own, so other nodes skip
        // both the measurement and the draw.
        let bw = if self.nn.needs_bandwidth(n) {
            let bw = self.net.resource_throughput(self.node(n).disk);
            let noise: f64 = {
                use rand::Rng as _;
                let r = ctx.rng().stream(StreamId::Custom(n.0 as u64));
                1.0 + 0.05 * r.sample::<f64, _>(rand_distr::StandardNormal)
            };
            (bw * noise).max(0.0)
        } else {
            0.0
        };
        self.nn.heartbeat(ctx.now(), n, bw);

        // Progress reports for local attempts.
        let mut local = std::mem::take(&mut self.beat_attempts);
        local.clear();
        local.extend(self.jt.attempts_on(n));
        for &id in &local {
            let p = self.attempt_progress(id, ctx.now());
            self.jt.report_progress(id, p);
        }
        self.beat_attempts = local;

        // TaskTracker heartbeat: receive kills and assignments.
        if self.control_plane_active() {
            let resp = self.jt.heartbeat(ctx.now(), n);
            for a in resp.kill {
                self.cancel_attempt_physical(ctx, a);
            }
            for asg in resp.assignments {
                self.start_attempt(ctx, asg.attempt);
            }
        }

        let park = self.jt.active_job_count() == 0
            && self.jt.attempts_on(n).next().is_none()
            && !self.nn.needs_bandwidth(n);
        let rt = &mut self.nodes[n.0 as usize];
        rt.next_beat = ctx.now() + HEARTBEAT_INTERVAL;
        rt.heartbeat_ev = if park {
            EventId::NONE
        } else {
            ctx.schedule_at(rt.next_beat, Ev::Heartbeat(n))
        };
    }

    /// Is `n`'s beat parked (up, but no beat queued)?
    fn is_parked(&self, n: usize) -> bool {
        let rt = &self.nodes[n];
        rt.up && rt.heartbeat_ev == EventId::NONE
    }

    /// Apply the beats a parked node `n` would have sent strictly
    /// before `now`. While no job runs they only stamp the time, so
    /// the last one suffices; `next_beat` moves past it.
    fn stamp_parked(&mut self, n: dfs::NodeId, now: SimTime) {
        let interval = HEARTBEAT_INTERVAL.as_micros();
        let due = self.nodes[n.0 as usize].next_beat.as_micros();
        if due >= now.as_micros() {
            return;
        }
        let last = due + (now.as_micros() - 1 - due) / interval * interval;
        let last = SimTime::from_micros(last);
        self.nn.stamp_heartbeat(n, last);
        // Parking needs a job-free tracker, and the control plane
        // changes only at a Submit (which unparks every node) or when a
        // job's last task completes, so it is as it was at park time.
        debug_assert_eq!(self.jt.active_job_count(), 0);
        if self.control_plane_active() {
            self.jt.stamp_heartbeat(n, last);
        }
        self.nodes[n.0 as usize].next_beat = SimTime::from_micros(last.as_micros() + interval);
    }

    /// Stamp every parked node's beats strictly before `now`: called
    /// before the liveness sweeps read `last_heartbeat`.
    pub(super) fn stamp_all_parked(&mut self, now: SimTime) {
        for i in 0..self.nodes.len() {
            if self.is_parked(i) {
                self.stamp_parked(dfs::NodeId(i as u32), now);
            }
        }
    }

    /// A Submit ends the idle period: if any beat is parked, queue
    /// every up node's next beat afresh in `hb_key` order. Same-instant
    /// beats then leave the queue in the order they would have had if
    /// none had been parked. Call after [`World::stamp_all_parked`].
    pub(super) fn unpark_all(&mut self, ctx: &mut Ctx<'_, Ev>) {
        if !(0..self.nodes.len()).any(|i| self.is_parked(i)) {
            return;
        }
        let mut up: Vec<(i64, usize)> = (0..self.nodes.len())
            .filter(|&i| self.nodes[i].up)
            .map(|i| (self.nodes[i].hb_key, i))
            .collect();
        up.sort_unstable();
        for (_, i) in up {
            let rt = &mut self.nodes[i];
            ctx.cancel(rt.heartbeat_ev);
            rt.heartbeat_ev = ctx.schedule_at(rt.next_beat, Ev::Heartbeat(dfs::NodeId(i as u32)));
        }
    }
}
