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
//! grid. The only readers of the stamp are the liveness sweeps. A
//! parked node's last beat is at most one period old, and every sweep
//! deadline is longer (asserted in `World::with_stream`), so the sweeps
//! skip parked nodes (`on_tracker_check`) instead of stamping them. The
//! beats the grid implies strictly before `now` are stamped where the
//! stamp must be exact: when the node wakes, when it goes down, and when
//! the control plane turns off, after which the JobTracker hears no
//! beat and its sweep reads every stamp.
//!
//! **Woken one instant at a time.** Each class's parked nodes sit in
//! `World::parked` by [`BeatKey`]: a node's grid phase changes only at
//! `NodeUp`, so stamps never re-key it, and the order from `now`'s
//! phase round the grid is the order of the nodes' next beats. After
//! every event, [`World::wake_idle`] asks the JobTracker whether an
//! idle node of a parked class could be granted work. While it could,
//! the class's earliest parked instant has its beats queued, in
//! `NodeRt::hb_key` order — the order in which same-instant beats leave
//! the queue had they never been parked — and the next instant is
//! queued only once those beats have run. A beat the JobTracker would
//! not have granted anything stays parked instead of waking to park
//! again. DESIGN.md §7 gives the argument.

use super::{Ev, World, HEARTBEAT_INTERVAL};
use simkit::{Ctx, EventId, SimDuration, SimTime, StreamId};

use super::attempts::Phase;

/// A node's place in the wake order: the phase of its beats on the 3 s
/// grid, then its `hb_key`, then its id ([`World::beat_key`]).
pub(super) type BeatKey = (u64, i64, u32);

/// The keys of every node whose beats have phase `phase`.
fn phase_range(phase: u64) -> std::ops::Range<BeatKey> {
    (phase, i64::MIN, 0)..(phase + 1, i64::MIN, 0)
}

impl World {
    pub(super) fn on_node_down(&mut self, ctx: &mut Ctx<'_, Ev>, n: dfs::NodeId) {
        if !self.node(n).up {
            return;
        }
        // A trace NodeDown was queued at init, so it leaves the queue
        // before a beat due at the same instant: only the parked beats
        // strictly before now happened.
        let class = self.class(n.0);
        let key = self.beat_key(n.0);
        if self.is_parked(n.0 as usize) {
            self.stamp_parked(n, ctx.now());
            self.unpark(n);
            self.parked[class].remove(&key);
        }
        self.beat_order.remove(&key);
        let rt = &mut self.nodes[n.0 as usize];
        if std::mem::take(&mut rt.woken) {
            self.woken[class].1 -= 1;
        }
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
        if !self.beat_order.is_empty() {
            self.beat_order.insert(self.beat_key(n.0));
        }
    }

    pub(super) fn on_heartbeat(&mut self, ctx: &mut Ctx<'_, Ev>, n: dfs::NodeId) {
        if !self.node(n).up {
            return; // went down before the event fired; NodeUp restarts it
        }
        let class = self.class(n.0);
        if std::mem::take(&mut self.nodes[n.0 as usize].woken) {
            self.woken[class].1 -= 1;
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
        let park = !self.job_slots.is_empty()
            && self.jt.attempts_on(n).next().is_none()
            && !self.nn.needs_bandwidth(n)
            && self.wake_at(class == 1, now) > now;
        let rt = &mut self.nodes[n.0 as usize];
        rt.next_beat = now + HEARTBEAT_INTERVAL;
        rt.heartbeat_ev = if park {
            EventId::NONE
        } else {
            ctx.schedule_at(rt.next_beat, Ev::Heartbeat(n))
        };
        if park {
            self.parked[class].insert(self.beat_key(n.0));
            self.nn.set_parked(n, true);
            if self.control_plane_active() {
                self.jt.set_parked(n, true);
            }
        }
    }

    /// Is `n`'s beat parked (up, but no beat queued)?
    pub(super) fn is_parked(&self, n: usize) -> bool {
        let rt = &self.nodes[n];
        rt.up && rt.heartbeat_ev == EventId::NONE
    }

    /// Index of `n`'s class in `World::parked` and `World::woken`: 0
    /// for volatile nodes, 1 for dedicated ones.
    pub(super) fn class(&self, n: u32) -> usize {
        usize::from(self.cluster.is_dedicated(n))
    }

    /// `n`'s [`BeatKey`]. Stamps move `next_beat` by whole periods,
    /// so only a `NodeUp` changes it.
    pub(super) fn beat_key(&self, n: u32) -> BeatKey {
        let rt = &self.nodes[n as usize];
        (
            rt.next_beat.as_micros() % HEARTBEAT_INTERVAL.as_micros(),
            rt.hb_key,
            n,
        )
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

    /// The last beat parked node `n` would have sent strictly before
    /// `now`, or `None` if none was due since its last stamp.
    pub(super) fn parked_beat_before(&self, n: u32, now: SimTime) -> Option<SimTime> {
        let interval = HEARTBEAT_INTERVAL.as_micros();
        let due = self.nodes[n as usize].next_beat.as_micros();
        (due < now.as_micros())
            .then(|| SimTime::from_micros(due + (now.as_micros() - 1 - due) / interval * interval))
    }

    /// Apply the beats a parked node `n` would have sent strictly
    /// before `now`. Each would only have stamped the time, so the last
    /// one suffices; `next_beat` moves past it.
    fn stamp_parked(&mut self, n: dfs::NodeId, now: SimTime) {
        let Some(last) = self.parked_beat_before(n.0, now) else {
            return;
        };
        let interval = HEARTBEAT_INTERVAL.as_micros();
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

    /// Clear `n`'s parked marks: it woke or went down, and its stamps
    /// are exact.
    fn unpark(&mut self, n: dfs::NodeId) {
        self.nn.set_parked(n, false);
        self.jt.set_parked(n, false);
    }

    /// As the control plane turns off, stamp every parked node's beats
    /// strictly before `now` and clear its JobTracker mark: that
    /// tracker hears no more beats, so its sweep must read the exact
    /// last one.
    pub(super) fn stamp_all_parked(&mut self, now: SimTime) {
        let parked = std::mem::take(&mut self.parked);
        for &(_, _, i) in parked.iter().flatten() {
            self.stamp_parked(dfs::NodeId(i), now);
            self.jt.set_parked(dfs::NodeId(i), false);
        }
        self.parked = parked;
    }

    /// After each event while a job runs: for each class the JobTracker
    /// could grant work from the next microsecond on, make sure its
    /// earliest parked instant has its beats queued, unless a group it
    /// woke earlier is still queued; and keep a timer queued at the
    /// earliest instant the answer can turn with no task write. Reads
    /// each running job's cached picker summaries, so an event that
    /// changed nothing costs O(running jobs). `served` is the `hb_key`
    /// of the beat just handled (`i64::MIN` for any other event).
    pub(super) fn wake_idle(&mut self, ctx: &mut Ctx<'_, Ev>, served: i64) {
        let now = ctx.now();
        let mut next = SimTime::MAX;
        for class in 0..2 {
            if self.parked[class].is_empty() {
                continue;
            }
            // An idle node's answer depends only on its class.
            let at = self.wake_at(class == 1, now);
            if at > now {
                next = next.min(at);
            } else if self.woken[class].1 == 0 {
                self.wake_group(ctx, class, served);
            }
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

    /// Queue the beats of `class`'s earliest parked instant and make
    /// them its outstanding woken group. Parked beats due now that rank
    /// before `served` were sent before the event just handled: they
    /// are stamped, and their nodes wait for the next period. Queued
    /// beats due at the woken instant that rank after the group's first
    /// are queued afresh with it, all in `hb_key` order, so same-instant
    /// beats leave the queue in the order they would have had if none
    /// had been parked. Costs O(nodes at the woken instant's and now's
    /// phases) plus the index lookups.
    fn wake_group(&mut self, ctx: &mut Ctx<'_, Ev>, class: usize, served: i64) {
        let now = ctx.now();
        let interval = HEARTBEAT_INTERVAL.as_micros();
        let now_phase = now.as_micros() % interval;
        let mut beats = std::mem::take(&mut self.wake_beats);
        beats.clear();
        // The parked beats due now, in `hb_key` order; those ranking
        // before `served` have been sent.
        for &(_, key, i) in self.parked[class].range(phase_range(now_phase)) {
            if self.nodes[i as usize].next_beat <= now {
                beats.push((key, i));
            }
        }
        let sent = beats.partition_point(|&(key, _)| key < served);
        for (_, i) in beats.drain(..sent) {
            self.stamp_parked(dfs::NodeId(i), SimTime::from_micros(now.as_micros() + 1));
        }
        let at = if beats.is_empty() {
            // The first phase after now's round the grid; now's own
            // phase comes last, one period on.
            let &(phase, _, _) = self.parked[class]
                .range((now_phase + 1, i64::MIN, 0)..)
                .next()
                .or_else(|| self.parked[class].first())
                .expect("a class with parked nodes");
            let ahead = (phase + interval - now_phase - 1) % interval + 1;
            let at = SimTime::from_micros(now.as_micros() + ahead);
            beats.extend(
                self.parked[class]
                    .range(phase_range(phase))
                    .map(|&(_, key, i)| (key, i)),
            );
            at
        } else {
            now
        };
        for &(_, i) in &beats {
            let key = self.beat_key(i);
            self.parked[class].remove(&key);
            self.stamp_parked(dfs::NodeId(i), at);
            self.unpark(dfs::NodeId(i));
            self.nodes[i as usize].woken = true;
        }
        self.woken[class] = (at, beats.len());
        // A queued beat at the woken instant that ranks after the
        // group's first (`beats` is in `hb_key` order) must leave the
        // queue behind it; one that ranks before keeps its place.
        if self.beat_order.is_empty() {
            self.beat_order = (0..self.nodes.len() as u32)
                .filter(|&i| self.nodes[i as usize].up)
                .map(|i| self.beat_key(i))
                .collect();
        }
        let (first, _) = beats[0];
        let phase = at.as_micros() % interval;
        for &(_, key, i) in self
            .beat_order
            .range((phase, first + 1, 0)..(phase + 1, i64::MIN, 0))
        {
            let rt = &self.nodes[i as usize];
            if rt.heartbeat_ev != EventId::NONE && rt.next_beat == at {
                ctx.cancel(rt.heartbeat_ev);
                beats.push((key, i));
            }
        }
        beats.sort_unstable();
        for &(_, i) in &beats {
            let rt = &mut self.nodes[i as usize];
            rt.heartbeat_ev = ctx.schedule_at(rt.next_beat, Ev::Heartbeat(dfs::NodeId(i)));
        }
        self.wake_beats = beats;
    }
}
