//! Tracker liveness: registration, heartbeat stamps, and the periodic
//! sweep that suspends and expires silent TaskTrackers.

use super::{JobTracker, TrackerSweep};
use crate::types::{AttemptId, AttemptState};
use dfs::NodeId;
use simkit::SimTime;
use std::collections::BTreeSet;

/// Liveness of a TaskTracker as seen by the JobTracker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrackerState {
    /// Heartbeating normally.
    Alive,
    /// Silent past the suspension interval (MOON only).
    Suspended,
    /// Silent past the expiry interval; its attempts were killed.
    Dead,
}

#[derive(Debug)]
pub(super) struct Tracker {
    pub(super) dedicated: bool,
    pub(super) map_slots: u32,
    pub(super) reduce_slots: u32,
    pub(super) last_heartbeat: SimTime,
    /// The tracker's beats are parked ([`JobTracker::set_parked`]), so
    /// `last_heartbeat` may lag.
    pub(super) parked: bool,
    pub(super) state: TrackerState,
    /// Live attempts assigned to this tracker: maintained at launch and
    /// release, recounted by [`JobTracker::audit_indexes`].
    pub(super) running: BTreeSet<AttemptId>,
}

impl JobTracker {
    /// Register a TaskTracker (`dedicated` marks MOON's dedicated nodes).
    pub fn register_tracker(
        &mut self,
        now: SimTime,
        node: NodeId,
        map_slots: u32,
        reduce_slots: u32,
        dedicated: bool,
    ) {
        let i = node.0 as usize;
        if self.trackers.len() <= i {
            self.trackers.resize_with(i + 1, || None);
        }
        let tracker = Tracker {
            dedicated,
            map_slots,
            reduce_slots,
            last_heartbeat: now,
            parked: false,
            state: TrackerState::Alive,
            running: BTreeSet::new(),
        };
        if let Some(old) = self.trackers[i].replace(tracker) {
            // Re-registration: retire the old tracker's slot counts.
            if old.state == TrackerState::Alive {
                self.alive_map_slots -= old.map_slots;
                self.alive_reduce_slots -= old.reduce_slots;
            }
        }
        self.alive_map_slots += map_slots;
        self.alive_reduce_slots += reduce_slots;
    }

    pub(super) fn tracker(&self, node: NodeId) -> &Tracker {
        self.trackers[node.0 as usize]
            .as_ref()
            .expect("unknown tracker")
    }

    pub(super) fn tracker_mut(&mut self, node: NodeId) -> &mut Tracker {
        self.trackers[node.0 as usize]
            .as_mut()
            .expect("unknown tracker")
    }

    /// Current tracker state.
    pub fn tracker_state(&self, node: NodeId) -> TrackerState {
        self.tracker(node).state
    }

    /// Sweep tracker liveness (call periodically). Suspends and expires
    /// silent trackers per the policy's intervals; parked trackers are
    /// skipped ([`set_parked`](Self::set_parked)).
    pub fn check_trackers(&mut self, now: SimTime) -> TrackerSweep {
        debug_assert_eq!(self.audit_indexes(), Vec::<String>::new());
        let mut sweep = TrackerSweep::default();
        let suspension = self.policy.suspension_interval();
        let expiry = self.policy.tracker_expiry();
        // Only trackers silent past the earlier deadline can transition.
        // They are processed in ascending node order (the table's order):
        // sweep vectors and kill ordering feed the deterministic event
        // stream.
        let threshold = suspension.min(expiry);
        let nodes: Vec<NodeId> = (0u32..)
            .zip(&self.trackers)
            .filter_map(|(i, tr)| Some((NodeId(i), tr.as_ref()?)))
            .filter(|(_, tr)| tr.state != TrackerState::Dead && !tr.parked)
            .filter(|(_, tr)| now.since(tr.last_heartbeat) >= threshold)
            .map(|(node, _)| node)
            .collect();
        for node in nodes {
            let tr = self.tracker(node);
            let silent = now.since(tr.last_heartbeat);
            match tr.state {
                TrackerState::Alive if silent >= expiry => {
                    sweep.killed.extend(self.expire_tracker(node));
                    sweep.expired.push(node);
                }
                TrackerState::Alive if silent >= suspension => {
                    self.suspend_tracker(node);
                    sweep.suspended.push(node);
                }
                TrackerState::Suspended if silent >= expiry => {
                    sweep.killed.extend(self.expire_tracker(node));
                    sweep.expired.push(node);
                }
                _ => {}
            }
        }
        sweep
    }

    fn suspend_tracker(&mut self, node: NodeId) {
        let tr = self.tracker_mut(node);
        tr.state = TrackerState::Suspended;
        let (map_slots, reduce_slots) = (tr.map_slots, tr.reduce_slots);
        let attempts: Vec<AttemptId> = tr.running.iter().copied().collect();
        self.alive_map_slots -= map_slots;
        self.alive_reduce_slots -= reduce_slots;
        for a in attempts {
            let info = self.attempt_mut(a);
            if info.state == AttemptState::Running {
                info.state = AttemptState::Inactive;
            }
        }
    }

    fn expire_tracker(&mut self, node: NodeId) -> Vec<AttemptId> {
        let tr = self.tracker_mut(node);
        let was_alive = tr.state == TrackerState::Alive;
        tr.state = TrackerState::Dead;
        let (map_slots, reduce_slots) = (tr.map_slots, tr.reduce_slots);
        let attempts: Vec<AttemptId> = std::mem::take(&mut tr.running).into_iter().collect();
        if was_alive {
            self.alive_map_slots -= map_slots;
            self.alive_reduce_slots -= reduce_slots;
        }
        for &a in &attempts {
            self.kill_attempt(a);
            self.job_mut(a.task.job).metrics.killed_by_tracker_expiry += 1;
        }
        attempts
    }

    /// Record a beat at `at` of an Alive tracker that runs no attempt
    /// and would be granted nothing — all that
    /// [`heartbeat`](Self::heartbeat) does then (see
    /// [`Self::idle_grant_at`]). Lets the embedding model skip beats
    /// that only stamp the time and stamp the last one when the stamp
    /// must be exact.
    pub fn stamp_heartbeat(&mut self, node: NodeId, at: SimTime) {
        let tr = self.tracker_mut(node);
        debug_assert!(tr.state == TrackerState::Alive && at >= tr.last_heartbeat);
        tr.last_heartbeat = at;
    }

    /// Mark whether an Alive tracker's beats are *parked*: still sent,
    /// on a period shorter than both liveness intervals, but held back
    /// by the embedding model, which stamps them only when the stamp
    /// must be exact. The sweep cannot act on a parked tracker, so it
    /// skips it instead of reading its lagging stamp.
    pub fn set_parked(&mut self, node: NodeId, parked: bool) {
        let tr = self.tracker_mut(node);
        debug_assert!(!parked || tr.state == TrackerState::Alive);
        tr.parked = parked;
    }

    /// Is the tracker's beat marked parked?
    pub fn is_parked(&self, node: NodeId) -> bool {
        self.tracker(node).parked
    }

    /// Time of the tracker's last heartbeat.
    pub fn last_heartbeat(&self, node: NodeId) -> SimTime {
        self.tracker(node).last_heartbeat
    }

    /// Live attempts assigned to the tracker on `node`, ascending.
    pub fn attempts_on(&self, node: NodeId) -> impl Iterator<Item = AttemptId> + '_ {
        self.tracker(node).running.iter().copied()
    }
}
