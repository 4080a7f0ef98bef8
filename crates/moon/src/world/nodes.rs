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
//! **Parked beats.** Once a job was submitted, a beat of a node with
//! no local attempt and no I/O throttle that the JobTracker would grant
//! nothing can only stamp `last_heartbeat` in the NameNode and, while
//! the control plane is active, the JobTracker. Such a node's beat is
//! *parked*: nothing is queued, and `NodeRt::next_beat` keeps its 3 s
//! grid. The only readers of the stamp are the liveness sweeps, so the
//! beats the grid implies strictly before `now` are stamped before each
//! sweep (`on_tracker_check`), when the node goes down, and when the
//! control plane turns off. After every event, [`World::wake_idle`]
//! asks the JobTracker whether an idle node of a parked class could be
//! granted work; if so, it stamps those nodes and re-queues their beats
//! in `NodeRt::hb_key` order — the order in which same-instant beats
//! leave the queue had they never been parked. DESIGN.md §7 gives the
//! argument.

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
            self.n_parked[usize::from(self.cluster.is_dedicated(n.0))] -= 1;
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

        let now = ctx.now();
        let dedicated = self.cluster.is_dedicated(n.0);
        let park = !self.job_slots.is_empty()
            && self.jt.attempts_on(n).next().is_none()
            && !self.nn.needs_bandwidth(n)
            && self.wake_at(dedicated, now) > now;
        self.n_parked[usize::from(dedicated)] += usize::from(park);
        let rt = &mut self.nodes[n.0 as usize];
        rt.next_beat = now + HEARTBEAT_INTERVAL;
        rt.heartbeat_ev = if park {
            EventId::NONE
        } else {
            ctx.schedule_at(rt.next_beat, Ev::Heartbeat(n))
        };
    }

    /// Is `n`'s beat parked (up, but no beat queued)?
    pub(super) fn is_parked(&self, n: usize) -> bool {
        let rt = &self.nodes[n];
        rt.up && rt.heartbeat_ev == EventId::NONE
    }

    /// The instant from which an idle node of this class must beat
    /// again: one microsecond before the JobTracker could first grant it
    /// anything, so that the wake precedes every beat due at that
    /// instant; [`SimTime::MAX`] if only a task write can change that.
    fn wake_at(&self, dedicated: bool, now: SimTime) -> SimTime {
        let at = self.jt.idle_grant_at(dedicated, now);
        if at == SimTime::MAX {
            at
        } else {
            SimTime::from_micros(at.as_micros().saturating_sub(1))
        }
    }

    /// Apply the beats a parked node `n` would have sent strictly
    /// before `now`. Each would only have stamped the time, so the last
    /// one suffices; `next_beat` moves past it.
    fn stamp_parked(&mut self, n: dfs::NodeId, now: SimTime) {
        let interval = HEARTBEAT_INTERVAL.as_micros();
        let due = self.nodes[n.0 as usize].next_beat.as_micros();
        if due >= now.as_micros() {
            return;
        }
        let last = due + (now.as_micros() - 1 - due) / interval * interval;
        let last = SimTime::from_micros(last);
        self.nn.stamp_heartbeat(n, last);
        // A node parks only without local attempts, and wakes at the
        // first instant the JobTracker could grant it one, so none was
        // placed meanwhile. The control plane is as it was at the last
        // stamp: it turns off only after stamping every parked node.
        debug_assert!(self.jt.attempts_on(n).next().is_none());
        if self.control_plane_active() {
            self.jt.stamp_heartbeat(n, last);
        }
        self.nodes[n.0 as usize].next_beat = SimTime::from_micros(last.as_micros() + interval);
    }

    /// Stamp every parked node's beats strictly before `now`: called
    /// before the liveness sweeps read `last_heartbeat`, and before the
    /// control plane turns off.
    pub(super) fn stamp_all_parked(&mut self, now: SimTime) {
        if self.n_parked == [0, 0] {
            return;
        }
        for i in 0..self.nodes.len() {
            if self.is_parked(i) {
                self.stamp_parked(dfs::NodeId(i as u32), now);
            }
        }
    }

    /// After each event while a job runs: wake every parked node whose
    /// class the JobTracker could grant work from the next microsecond
    /// on, and keep a timer queued at the earliest instant the answer
    /// can turn with no task write. Reads each running job's cached
    /// picker summaries, so an event that changed nothing costs
    /// O(running jobs). `served` is the `hb_key` of the beat just
    /// handled (`i64::MIN` for any other event).
    pub(super) fn wake_idle(&mut self, ctx: &mut Ctx<'_, Ev>, served: i64) {
        let now = ctx.now();
        // An idle node's answer depends only on its class.
        let mut wake = [false; 2];
        let mut next = SimTime::MAX;
        for dedicated in [false, true] {
            if self.n_parked[usize::from(dedicated)] == 0 {
                continue;
            }
            let at = self.wake_at(dedicated, now);
            wake[usize::from(dedicated)] = at <= now;
            if at > now {
                next = next.min(at);
            }
        }
        if wake.contains(&true) {
            self.requeue_beats(ctx, wake, served);
        }
        let (queued, ev) = self.wake_timer;
        if next != queued {
            ctx.cancel(ev);
            self.wake_timer = if next == SimTime::MAX {
                (next, EventId::NONE)
            } else {
                (next, ctx.schedule_at(next, Ev::WakeParked))
            };
        }
    }

    /// Wake the parked nodes of each class `wake` marks (indexed by
    /// "is dedicated"): stamp the beats they sent before the event just
    /// handled — those strictly before now, and one due now if it ranks
    /// before `served` — and queue their next grid beats. Queued beats
    /// due at the same instant as a woken beat that rank after it are
    /// queued afresh with them, all in `hb_key` order, so same-instant
    /// beats leave the queue in the order they would have had if none
    /// had been parked.
    fn requeue_beats(&mut self, ctx: &mut Ctx<'_, Ev>, wake: [bool; 2], served: i64) {
        let now = ctx.now();
        let mut woken = Vec::new();
        for i in 0..self.nodes.len() as u32 {
            if self.is_parked(i as usize) && wake[usize::from(self.cluster.is_dedicated(i))] {
                let n = dfs::NodeId(i);
                let rt = &self.nodes[i as usize];
                let upto = if rt.hb_key < served {
                    SimTime::from_micros(now.as_micros() + 1)
                } else {
                    now
                };
                self.stamp_parked(n, upto);
                woken.push(i);
            }
        }
        for (parked, woke) in self.n_parked.iter_mut().zip(wake) {
            if woke {
                *parked = 0;
            }
        }
        // Each woken beat's instant, with the least `hb_key` woken there:
        // a queued beat at that instant that ranks after it must be
        // queued again behind it; one that ranks before keeps its place.
        let mut first: Vec<(SimTime, i64)> = woken
            .iter()
            .map(|&i| {
                (
                    self.nodes[i as usize].next_beat,
                    self.nodes[i as usize].hb_key,
                )
            })
            .collect();
        first.sort_unstable();
        first.dedup_by_key(|&mut (at, _)| at);
        let mut beats: Vec<(i64, u32)> = woken
            .iter()
            .map(|&i| (self.nodes[i as usize].hb_key, i))
            .collect();
        for (i, rt) in (0u32..).zip(&self.nodes) {
            if !rt.up || rt.heartbeat_ev == EventId::NONE {
                continue;
            }
            let Ok(k) = first.binary_search_by_key(&rt.next_beat, |&(at, _)| at) else {
                continue;
            };
            if rt.hb_key > first[k].1 {
                ctx.cancel(rt.heartbeat_ev);
                beats.push((rt.hb_key, i));
            }
        }
        beats.sort_unstable();
        for (_, i) in beats {
            let rt = &mut self.nodes[i as usize];
            rt.heartbeat_ev = ctx.schedule_at(rt.next_beat, Ev::Heartbeat(dfs::NodeId(i)));
        }
    }
}
