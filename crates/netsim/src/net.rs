//! The flow network engine: resources (NICs, disks) with time-varying
//! capacity and flows that receive max-min fair rates over them.
//!
//! The engine is *host-driven*: a discrete-event model embeds a
//! [`FlowNet`], asks it for [`FlowNet::next_completion`], schedules an
//! event at that instant, and calls [`FlowNet::poll`] when the event
//! fires. Flows that stall (a resource on their path drops to capacity
//! 0 — a node suspended) and resume are reported as [`Changes`], so the
//! host can run stall timeouts (fetch failures in MapReduce terms).
//!
//! ## Batched mutations, lazy solves
//!
//! A mutation — [`start_flow`](FlowNet::start_flow),
//! [`cancel_flow`](FlowNet::cancel_flow),
//! [`set_capacity`](FlowNet::set_capacity), [`poll`](FlowNet::poll) —
//! only advances time, changes the slab and seeds the *dirty set*. The
//! next read ([`next_completion`](FlowNet::next_completion),
//! [`rate`](FlowNet::rate),
//! [`resource_throughput`](FlowNet::resource_throughput)) or time
//! advance re-shares the union of the dirty components at once, so a
//! host that makes several mutations at one instant (a node going down
//! zeroes three resources; a finished fetch starts the next) pays for
//! one solve, not one per mutation. Rates between two mutations of one
//! instant are never charged to any flow, so nothing is lost by not
//! computing them.
//!
//! Stalls and resumes need no solve: a flow is stalled exactly while it
//! has bytes left and its path crosses a zero-capacity resource. So the
//! mutation that changes that reports it at once — a kill or a revival
//! in `set_capacity`, a `start_flow` over a dead resource — and the
//! host's stall timers start and stop where they would have had every
//! mutation re-shared.
//!
//! ## Incremental sharing
//!
//! Flows live in a slab (`Vec` slots + free list, handles tagged with a
//! monotone serial so stale [`FlowId`]s never alias a reused slot), and
//! every resource keeps the list of live flows crossing it. Disjoint
//! connected components of the *sharing graph* have independent max-min
//! allocations, so a solve re-solves only the components its batch
//! touched: a bipartite BFS from the seeded resources collects them
//! into persistent scratch buffers and a reusable
//! [`maxmin::Solver`](crate::maxmin::Solver) re-runs progressive filling
//! on just that slice of the network, with zero steady-state allocation.
//! Paths are deduplicated once at [`start_flow`](FlowNet::start_flow),
//! never per solve.
//!
//! The sharing graph links running flows to live resources. A stalled
//! flow's rate is 0, it takes no capacity, and so it is left out of the
//! graph (it stays in the slab and its resources' lists). Killing a
//! resource stalls its running flows directly and seeds only what they
//! freed; starting, cancelling or completing a stalled flow seeds
//! nothing.
//!
//! Rates, stall transitions, and completion order match a from-scratch
//! global solve because component flows are processed in flow-creation
//! order and untouched components would re-derive exactly the same rates
//! from unchanged inputs. The match is bit-for-bit except for near-ties
//! *across* components solved apart: two components whose bottleneck
//! shares lie within the solver's relative freeze tolerance (1e-12)
//! without being equal each keep their own share when solved in
//! different batches, where one solve freezes both at the smaller one.
//! See `DESIGN.md` §5 for the argument.

use crate::maxmin::Solver;
use simkit::{SimDuration, SimTime};

/// Bytes below which a flow counts as finished (guards f64 rounding).
const EPS_BYTES: f64 = 1e-3;

/// Handle to a capacity resource (one NIC direction or one disk).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ResourceId(u32);

/// Handle to an in-flight transfer.
///
/// Ordered by creation: a flow started later compares greater, exactly
/// like the pre-slab monotone ids, so host-side ordered maps keyed by
/// `FlowId` still iterate in creation order. The slot half of the handle
/// is an O(1) index into the flow slab; the serial half guards against a
/// stale handle aliasing a reused slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId {
    serial: u64,
    slot: u32,
}

#[derive(Debug)]
struct Resource {
    capacity: f64,
    /// Slots of live flows whose path crosses this resource, in flow
    /// creation order (new flows have the largest serial, so insertion
    /// is a push; removal keeps the order). Creation order makes
    /// [`FlowNet::resource_throughput`] sum in the same order as a scan
    /// of all flows, hence bit-identical.
    flows: Vec<u32>,
    /// Dirty-set / component-BFS stamp (`== FlowNet::epoch` when in the
    /// current batch's dirty set).
    mark: u32,
    /// Dense index handed to the solver while visited.
    local: u32,
}

#[derive(Debug)]
struct FlowSlot {
    /// Serial of the current (or, if `live` is false, the most recent)
    /// occupant; `FlowId` lookups validate against it.
    serial: u64,
    /// Deduplicated, sorted resource indices (computed once at start).
    path: Vec<u32>,
    remaining: f64,
    /// Rate of the last solve (0 from a kill or a start until the next).
    rate: f64,
    live: bool,
    /// Component-BFS visit stamp (`== FlowNet::epoch` when visited).
    mark: u32,
}

/// Stall and resume transitions of flows, reported by the mutation that
/// causes them.
///
/// A flow is stalled exactly while it has bytes left and its path
/// crosses a zero-capacity resource. `stalled` lists the flows that a
/// kill in [`FlowNet::set_capacity`] or a [`FlowNet::start_flow`] over a
/// dead resource puts in that state; `resumed` lists the flows that a
/// revival in [`FlowNet::set_capacity`] takes out of it. Each list is in
/// flow creation order, and no call reports both transitions of one
/// flow. A flow born running is never "resumed", and a flow that
/// completes or is cancelled reports nothing.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Changes {
    /// Flows that stalled (a resource on the path went dead).
    pub stalled: Vec<FlowId>,
    /// Flows that resumed (their whole path is live again).
    pub resumed: Vec<FlowId>,
}

impl Changes {
    /// True if no flow crossed zero.
    pub fn is_empty(&self) -> bool {
        self.stalled.is_empty() && self.resumed.is_empty()
    }
}

/// Counters describing how much re-sharing work a [`FlowNet`] performed
/// (exposed for benches: `perfbench --trace 1` reports them per workload).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NetStats {
    /// Solves of a dirty set that holds a running flow: one each time a
    /// read or a time advance finds such a batch pending. A batch of
    /// mutations that touch only stalled flows (starting, cancelling or
    /// completing a flow over a dead resource, killing a resource with
    /// no running flows) seeds nothing, and one whose dirty components
    /// hold no running flow (the last flow on a resource completing or
    /// cancelled, a capacity change on a resource no flow crosses) finds
    /// nothing to solve; neither costs a solve.
    pub reshares: u64,
    /// Total running flows solved across all solves (stalled flows are
    /// outside the sharing graph and never visited). Divide by
    /// `reshares` for the mean dirty-component size; compare against
    /// `peak_live_flows` to see what a full recompute would have cost.
    pub reshare_flow_visits: u64,
    /// High-water mark of concurrently live flows.
    pub peak_live_flows: u64,
}

/// A flow-level bandwidth simulator with max-min fair sharing.
pub struct FlowNet {
    resources: Vec<Resource>,
    slots: Vec<FlowSlot>,
    /// Free slot indices (LIFO reuse keeps the slab compact).
    free: Vec<u32>,
    next_serial: u64,
    n_live: usize,
    last_advance: SimTime,
    /// Current batch epoch: resources marked with it are in the dirty
    /// set; during a solve, flows marked with it are visited.
    epoch: u32,
    solver: Solver,
    /// The dirty set: seeded resources in seeding order, then, during a
    /// solve, the rest of their components in BFS order.
    comp_res: Vec<u32>,
    /// Scratch: flow slots of the dirty components, sorted by serial
    /// before solving.
    comp_flows: Vec<u32>,
    /// Flows that crossed the completion threshold but have not been
    /// returned by [`poll`](Self::poll) yet, as (slot, serial) pairs
    /// validated at drain time (a cancel or slot reuse invalidates an
    /// entry).
    finished: Vec<(u32, u64)>,
    stats: NetStats,
}

impl Default for FlowNet {
    fn default() -> Self {
        Self::new()
    }
}

impl FlowNet {
    /// An empty network at t = 0.
    pub fn new() -> Self {
        FlowNet {
            resources: Vec::new(),
            slots: Vec::new(),
            free: Vec::new(),
            next_serial: 0,
            n_live: 0,
            last_advance: SimTime::ZERO,
            // New resources and slots start at mark 0, outside any batch.
            epoch: 1,
            solver: Solver::new(),
            comp_res: Vec::new(),
            comp_flows: Vec::new(),
            finished: Vec::new(),
            stats: NetStats::default(),
        }
    }

    /// Register a resource with the given capacity (bytes/sec).
    pub fn add_resource(&mut self, capacity: f64) -> ResourceId {
        assert!(capacity >= 0.0 && capacity.is_finite());
        let id = ResourceId(self.resources.len() as u32);
        self.resources.push(Resource {
            capacity,
            flows: Vec::new(),
            mark: 0,
            local: 0,
        });
        id
    }

    /// Change a resource's capacity (0 pauses all flows through it).
    ///
    /// A kill (positive to 0) returns the flows it stalls and a revival
    /// (0 to positive) the flows it resumes — those whose path it leaves
    /// live — each in creation order; any other change returns no
    /// transition.
    pub fn set_capacity(&mut self, now: SimTime, r: ResourceId, capacity: f64) -> Changes {
        assert!(capacity >= 0.0 && capacity.is_finite());
        self.advance(now);
        let mut changes = Changes::default();
        let ri = r.0 as usize;
        let was_dead = self.resources[ri].capacity <= 0.0;
        if capacity <= 0.0 && !was_dead {
            // The resource dies: its running flows stall here, leaving the
            // sharing graph, and the capacity they held on the rest of
            // their paths is seeded for re-sharing. "Running" is a live
            // path, not a positive rate: a flow started or revived earlier
            // in this batch has no rate yet.
            for k in 0..self.resources[ri].flows.len() {
                let s = self.resources[ri].flows[k];
                if crosses_dead(&self.resources, &self.slots[s as usize].path) {
                    continue;
                }
                self.seed_path(s);
                let f = &mut self.slots[s as usize];
                f.rate = 0.0;
                if f.remaining > EPS_BYTES {
                    changes.stalled.push(FlowId {
                        serial: f.serial,
                        slot: s,
                    });
                }
            }
            self.resources[ri].capacity = capacity;
        } else {
            self.seed_resource(r.0);
            self.resources[ri].capacity = capacity;
            if was_dead && capacity > 0.0 {
                // The resource revives: its flows whose path is now live
                // resume (the solve gives them their rates).
                for &s in &self.resources[ri].flows {
                    let f = &self.slots[s as usize];
                    if f.remaining > EPS_BYTES && !crosses_dead(&self.resources, &f.path) {
                        changes.resumed.push(FlowId {
                            serial: f.serial,
                            slot: s,
                        });
                    }
                }
            }
        }
        changes
    }

    /// Start a transfer of `bytes` across `path`. The flow exists until it
    /// completes (returned by [`poll`](Self::poll)) or is cancelled. Its
    /// rate is set by the next solve.
    ///
    /// A flow created over a dead resource is *born stalled* and is
    /// reported in `Changes::stalled` immediately, so the host can start
    /// its timeout just as for a flow that stalls later.
    pub fn start_flow(
        &mut self,
        now: SimTime,
        path: &[ResourceId],
        bytes: f64,
    ) -> (FlowId, Changes) {
        assert!(!path.is_empty(), "flow must traverse at least one resource");
        assert!(bytes >= 0.0 && bytes.is_finite());
        self.advance(now);
        let serial = self.next_serial;
        self.next_serial += 1;
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                self.slots.push(FlowSlot {
                    serial: 0,
                    path: Vec::new(),
                    remaining: 0.0,
                    rate: 0.0,
                    live: false,
                    mark: 0,
                });
                (self.slots.len() - 1) as u32
            }
        };
        {
            let f = &mut self.slots[slot as usize];
            f.serial = serial;
            f.remaining = bytes;
            f.rate = 0.0;
            f.live = true;
            // Deduplicate the path once, here — the resource lists, the
            // solver, and throughput sums all assume unique entries.
            f.path.clear();
            f.path.extend(path.iter().map(|r| r.0));
            f.path.sort_unstable();
            f.path.dedup();
        }
        self.n_live += 1;
        self.stats.peak_live_flows = self.stats.peak_live_flows.max(self.n_live as u64);
        // Register with each crossed resource (new serial is the largest,
        // so pushing keeps the list in creation order).
        for &r in &self.slots[slot as usize].path {
            self.resources[r as usize].flows.push(slot);
        }
        let id = FlowId { serial, slot };
        if bytes <= EPS_BYTES {
            // Zero-byte flows complete at the next poll without ever
            // advancing; queue them as completion candidates now.
            self.finished.push((slot, serial));
        }
        let mut changes = Changes::default();
        if !crosses_dead(&self.resources, &self.slots[slot as usize].path) {
            self.seed_path(slot);
        } else if bytes > EPS_BYTES {
            changes.stalled.push(id);
        }
        (id, changes)
    }

    /// Abort a flow, discarding its remaining bytes. Returns false if the
    /// flow no longer exists.
    pub fn cancel_flow(&mut self, now: SimTime, id: FlowId) -> bool {
        self.advance(now);
        if !self.is_live(id) {
            return false;
        }
        self.seed_path(id.slot);
        self.unlink_flow(id.slot);
        true
    }

    /// Advance to `now` and collect flows that have finished, removing
    /// them, in flow creation order.
    pub fn poll(&mut self, now: SimTime) -> Vec<FlowId> {
        self.advance(now);
        if self.finished.is_empty() {
            return Vec::new();
        }
        let mut done: Vec<FlowId> = Vec::new();
        for &(slot, serial) in &self.finished {
            let f = &self.slots[slot as usize];
            if f.live && f.serial == serial {
                debug_assert!(f.remaining <= EPS_BYTES, "finished candidate regressed");
                done.push(FlowId { serial, slot });
            }
        }
        self.finished.clear();
        // Report completions in flow creation order, like a scan of an
        // ordered flow map would.
        done.sort_unstable();
        for id in &done {
            self.seed_path(id.slot);
            self.unlink_flow(id.slot);
        }
        done
    }

    /// Earliest instant at which some flow completes, assuming no further
    /// mutations. `None` if no flow can finish (all stalled or no flows).
    /// Solves a pending batch first.
    pub fn next_completion(&mut self) -> Option<SimTime> {
        self.reshare();
        let mut best: Option<SimTime> = None;
        for f in &self.slots {
            if !f.live {
                continue;
            }
            let eta = if f.remaining <= EPS_BYTES {
                self.last_advance
            } else if f.rate > 0.0 {
                // Ceil to the µs grid: by the event instant the flow's
                // remaining bytes are within the completion epsilon.
                let secs = f.remaining / f.rate;
                let us = (secs * 1e6).ceil() as u64;
                self.last_advance + SimDuration::from_micros(us)
            } else {
                continue;
            };
            best = Some(best.map_or(eta, |b| b.min(eta)));
        }
        best
    }

    /// Rate of a flow (bytes/sec), if it exists. Solves a pending batch
    /// first.
    pub fn rate(&mut self, id: FlowId) -> Option<f64> {
        self.reshare();
        self.is_live(id).then(|| self.slots[id.slot as usize].rate)
    }

    /// True if `id` is live and stalled: it has bytes left and its path
    /// crosses a zero-capacity resource. Needs no solve.
    pub fn is_stalled(&self, id: FlowId) -> bool {
        self.is_live(id) && {
            let f = &self.slots[id.slot as usize];
            f.remaining > EPS_BYTES && crosses_dead(&self.resources, &f.path)
        }
    }

    /// Bytes left to transfer, if the flow exists.
    pub fn remaining_bytes(&self, id: FlowId) -> Option<f64> {
        self.is_live(id)
            .then(|| self.slots[id.slot as usize].remaining)
    }

    /// Number of in-flight flows.
    pub fn n_flows(&self) -> usize {
        self.n_live
    }

    /// Sum of flow rates through a resource (bytes/sec). Solves a pending
    /// batch first.
    pub fn resource_throughput(&mut self, r: ResourceId) -> f64 {
        self.reshare();
        // The per-resource list is in creation order, so this adds the
        // same terms in the same order as a filtered scan of all flows.
        self.resources[r.0 as usize]
            .flows
            .iter()
            .map(|&s| self.slots[s as usize].rate)
            .sum()
    }

    /// Re-sharing work counters for perf logging and benches.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// True if `id` refers to a live flow (slot occupied by this serial).
    fn is_live(&self, id: FlowId) -> bool {
        self.slots
            .get(id.slot as usize)
            .is_some_and(|f| f.live && f.serial == id.serial)
    }

    /// Charge progress up to `now`. A batch pending from an earlier instant
    /// is solved first: its rates hold from there on.
    fn advance(&mut self, now: SimTime) {
        debug_assert!(now >= self.last_advance, "FlowNet time went backwards");
        if now == self.last_advance {
            return;
        }
        self.reshare();
        let dt = now.since(self.last_advance).as_secs_f64();
        let finished = &mut self.finished;
        for (i, f) in self.slots.iter_mut().enumerate() {
            if f.live && f.rate > 0.0 {
                let before = f.remaining;
                f.remaining = (f.remaining - f.rate * dt).max(0.0);
                if before > EPS_BYTES && f.remaining <= EPS_BYTES {
                    finished.push((i as u32, f.serial));
                }
            }
        }
        self.last_advance = now;
    }

    /// Remove a flow from the slab and all resource lists. The slot keeps
    /// its path allocation for reuse.
    fn unlink_flow(&mut self, slot: u32) {
        let FlowNet {
            resources, slots, ..
        } = self;
        let f = &slots[slot as usize];
        for &r in &f.path {
            let flows = &mut resources[r as usize].flows;
            // The list is sorted by occupant serial (creation order).
            let pos = flows
                .binary_search_by_key(&f.serial, |&s| slots[s as usize].serial)
                .expect("flow missing from resource list");
            flows.remove(pos);
        }
        let f = &mut slots[slot as usize];
        f.live = false;
        f.rate = 0.0;
        self.free.push(slot);
        self.n_live -= 1;
    }

    // ------------------------------------------------------------------
    // Incremental resharing
    // ------------------------------------------------------------------

    /// Add a resource (and transitively its component) to the dirty set.
    fn seed_resource(&mut self, r: u32) {
        let res = &mut self.resources[r as usize];
        if res.mark != self.epoch {
            res.mark = self.epoch;
            self.comp_res.push(r);
        }
    }

    /// Add every resource on a flow's path to the dirty set, unless the
    /// flow is stalled: it crosses a dead resource, holds no capacity, and
    /// so is outside the sharing graph.
    fn seed_path(&mut self, slot: u32) {
        let path = &self.slots[slot as usize].path;
        if crosses_dead(&self.resources, path) {
            return;
        }
        for &r in path {
            let res = &mut self.resources[r as usize];
            if res.mark != self.epoch {
                res.mark = self.epoch;
                self.comp_res.push(r);
            }
        }
    }

    /// Expand the dirty set to its full connected component(s) in the
    /// sharing graph (running flows ↔ live resources), solve max-min on
    /// that subproblem, apply the rates, and open the next batch. A
    /// dirty set that is empty, or whose components hold no running
    /// flow, is no reshare at all.
    fn reshare(&mut self) {
        if self.comp_res.is_empty() {
            return;
        }
        let FlowNet {
            resources,
            slots,
            comp_res,
            comp_flows,
            solver,
            epoch,
            stats,
            ..
        } = self;
        let epoch = *epoch;

        // Two-cursor bipartite BFS: resources pull in their flows, flows
        // pull in the rest of their path. Stalled flows are not part of
        // the graph: a dead resource pulls in nothing, and a flow crossing
        // one is marked but neither solved nor expanded, so it never
        // joins two otherwise separate components.
        let mut ri = 0;
        let mut fi = 0;
        while ri < comp_res.len() || fi < comp_flows.len() {
            if ri < comp_res.len() {
                let r = comp_res[ri] as usize;
                ri += 1;
                if resources[r].capacity <= 0.0 {
                    continue;
                }
                for &s in &resources[r].flows {
                    let f = &mut slots[s as usize];
                    if f.mark != epoch {
                        f.mark = epoch;
                        if !crosses_dead(resources, &f.path) {
                            comp_flows.push(s);
                        }
                    }
                }
            } else {
                let s = comp_flows[fi] as usize;
                fi += 1;
                for &r in &slots[s].path {
                    let res = &mut resources[r as usize];
                    if res.mark != epoch {
                        res.mark = epoch;
                        comp_res.push(r);
                    }
                }
            }
        }

        if comp_flows.is_empty() {
            // No running flow to re-rate: skip the solver.
            self.begin_batch();
            return;
        }

        // Solve in flow creation order: the freeze-round arithmetic below
        // interleaves remaining-capacity subtractions across flows, so
        // order is observable in the rate bits; creation order is exactly
        // the order a from-scratch solve over an ordered flow map uses.
        comp_flows.sort_unstable_by_key(|&s| slots[s as usize].serial);

        stats.reshares += 1;
        stats.reshare_flow_visits += comp_flows.len() as u64;

        solver.reset();
        for &r in comp_res.iter() {
            let res = &mut resources[r as usize];
            res.local = solver.add_resource(res.capacity);
        }
        for &s in comp_flows.iter() {
            solver.add_flow(
                slots[s as usize]
                    .path
                    .iter()
                    .map(|&r| resources[r as usize].local),
            );
        }
        let rates = solver.solve();

        for (k, &s) in comp_flows.iter().enumerate() {
            let f = &mut slots[s as usize];
            // Progressive filling gives every flow over a live path a
            // positive share, so a solve never stalls a flow.
            debug_assert!(rates[k] > 0.0, "live path solved to rate 0");
            f.rate = rates[k];
        }
        self.begin_batch();
    }

    /// Open a fresh batch: an empty dirty set, all visit marks stale.
    fn begin_batch(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Epoch wrapped: clear stale marks so none alias the new epoch.
            for r in &mut self.resources {
                r.mark = 0;
            }
            for f in &mut self.slots {
                f.mark = 0;
            }
            self.epoch = 1;
        }
        self.comp_res.clear();
        self.comp_flows.clear();
    }
}

/// True if `path` crosses a zero-capacity resource, i.e. a flow over it
/// is stalled.
fn crosses_dead(resources: &[Resource], path: &[u32]) -> bool {
    path.iter().any(|&r| resources[r as usize].capacity <= 0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn single_flow_completes_analytically() {
        let mut net = FlowNet::new();
        let nic = net.add_resource(100.0); // 100 B/s
        let (id, ch) = net.start_flow(t(0), &[nic], 1000.0);
        assert!(ch.is_empty(), "a flow born running reports nothing");
        let eta = net.next_completion().unwrap();
        // 1000 B at 100 B/s = exactly 10 s on the µs grid.
        assert_eq!(eta, t(10));
        assert_eq!(net.poll(eta), vec![id]);
        assert_eq!(net.n_flows(), 0);
    }

    #[test]
    fn two_flows_share_then_speed_up() {
        let mut net = FlowNet::new();
        let nic = net.add_resource(100.0);
        let (a, _) = net.start_flow(t(0), &[nic], 500.0);
        let (b, _) = net.start_flow(t(0), &[nic], 1500.0);
        assert_eq!(net.rate(a), Some(50.0));
        assert_eq!(net.rate(b), Some(50.0));
        // a finishes at 10s; b then gets the full 100 B/s.
        let eta_a = net.next_completion().unwrap();
        assert_eq!(net.poll(eta_a), vec![a]);
        assert_eq!(net.rate(b), Some(100.0));
        // b had 1500-500=1000 left at t≈10, so finishes ≈ t=20.
        let eta_b = net.next_completion().unwrap();
        assert!(eta_b >= t(20) && eta_b <= t(20) + SimDuration::from_millis(1));
    }

    #[test]
    fn capacity_zero_stalls_and_resume_restores() {
        let mut net = FlowNet::new();
        let nic = net.add_resource(100.0);
        let (id, _) = net.start_flow(t(0), &[nic], 1000.0);
        let ch = net.set_capacity(t(5), nic, 0.0);
        assert_eq!(ch.stalled, vec![id], "a stall is reported by the kill");
        assert!(ch.resumed.is_empty());
        assert!(net.is_stalled(id));
        assert!(net.next_completion().is_none(), "stalled flow has no ETA");
        // 500 B were transferred before the stall.
        assert!((net.remaining_bytes(id).unwrap() - 500.0).abs() < 1e-6);
        // No progress while stalled.
        assert!(net.poll(t(60)).is_empty());
        assert!((net.remaining_bytes(id).unwrap() - 500.0).abs() < 1e-6);
        let ch = net.set_capacity(t(60), nic, 100.0);
        assert_eq!(ch.resumed, vec![id], "a resume is reported by the revival");
        assert!(ch.stalled.is_empty());
        assert!(!net.is_stalled(id));
        let eta = net.next_completion().unwrap();
        assert!(eta >= t(65) && eta <= t(65) + SimDuration::from_millis(1));
    }

    #[test]
    fn multi_hop_flow_is_bottlenecked_by_slowest() {
        let mut net = FlowNet::new();
        let src_disk = net.add_resource(60.0);
        let src_nic = net.add_resource(117.0);
        let dst_nic = net.add_resource(117.0);
        let (id, _) = net.start_flow(t(0), &[src_disk, src_nic, dst_nic], 600.0);
        assert_eq!(net.rate(id), Some(60.0));
    }

    #[test]
    fn cancel_frees_bandwidth() {
        let mut net = FlowNet::new();
        let nic = net.add_resource(100.0);
        let (a, _) = net.start_flow(t(0), &[nic], 1e9);
        let (b, _) = net.start_flow(t(0), &[nic], 1e9);
        assert_eq!(net.rate(b), Some(50.0));
        assert!(net.cancel_flow(t(1), a));
        assert_eq!(net.rate(b), Some(100.0));
        assert!(!net.cancel_flow(t(1), a), "double cancel");
    }

    #[test]
    fn zero_byte_flow_completes_immediately() {
        let mut net = FlowNet::new();
        let nic = net.add_resource(100.0);
        let (id, _) = net.start_flow(t(3), &[nic], 0.0);
        assert_eq!(net.next_completion(), Some(t(3)));
        assert_eq!(net.poll(t(3)), vec![id]);
    }

    #[test]
    fn throughput_accounting() {
        let mut net = FlowNet::new();
        let nic = net.add_resource(90.0);
        net.start_flow(t(0), &[nic], 1e9);
        net.start_flow(t(0), &[nic], 1e9);
        net.start_flow(t(0), &[nic], 1e9);
        assert!((net.resource_throughput(nic) - 90.0).abs() < 1e-9);
    }

    #[test]
    fn flow_born_on_dead_resource_reports_stalled() {
        let mut net = FlowNet::new();
        let nic = net.add_resource(100.0);
        net.set_capacity(t(0), nic, 0.0);
        let (id, ch) = net.start_flow(t(1), &[nic], 500.0);
        assert_eq!(ch.stalled, vec![id], "born-stalled flow must be reported");
        // A zero-byte flow on a dead resource still completes (no stall),
        // so the revival does not resume it.
        let (_z, ch) = net.start_flow(t(1), &[nic], 0.0);
        assert!(ch.stalled.is_empty());
        assert_eq!(net.set_capacity(t(1), nic, 100.0).resumed, vec![id]);
    }

    #[test]
    fn departure_resumes_starved_flow() {
        // A flow through a shared resource and a leaf; the leaf dies and
        // the flow stalls; when the leaf comes back the stall clears.
        let mut net = FlowNet::new();
        let shared = net.add_resource(100.0);
        let leaf = net.add_resource(100.0);
        let (a, _) = net.start_flow(t(0), &[shared, leaf], 1e6);
        assert_eq!(net.set_capacity(t(1), leaf, 0.0).stalled, vec![a]);
        assert_eq!(net.set_capacity(t(2), leaf, 50.0).resumed, vec![a]);
        assert_eq!(net.rate(a), Some(50.0));
    }

    #[test]
    fn eta_is_exact_ceil_to_microsecond_grid() {
        // Regression for the old `+ 1 µs` fudge: an exactly-divisible
        // transfer must complete exactly on its analytic instant, not one
        // tick later.
        let mut net = FlowNet::new();
        let nic = net.add_resource(100.0);
        let (id, _) = net.start_flow(t(0), &[nic], 1000.0);
        let eta = net.next_completion().unwrap();
        assert_eq!(eta, t(10), "eta must be the exact ceil to the µs grid");
        // Polling at the predicted instant — never one tick later — must
        // yield the completion.
        assert_eq!(net.poll(eta), vec![id], "completion polled late");

        // Non-divisible case: eta is the ceil, and polling there
        // completes the flow too.
        let mut net = FlowNet::new();
        let nic = net.add_resource(3.0);
        let (id, _) = net.start_flow(t(0), &[nic], 1000.0);
        let eta = net.next_completion().unwrap();
        let exact: f64 = 1000.0 / 3.0 * 1e6; // µs, non-integral
        let eta_us = eta.since(SimTime::ZERO).as_micros();
        assert_eq!(eta_us, exact.ceil() as u64);
        assert_eq!(net.poll(eta), vec![id], "completion polled late");
    }

    #[test]
    fn stale_ids_do_not_alias_reused_slots() {
        let mut net = FlowNet::new();
        let nic = net.add_resource(100.0);
        let (a, _) = net.start_flow(t(0), &[nic], 1000.0);
        net.cancel_flow(t(1), a);
        // The freed slot is reused by the next flow; the old handle must
        // stay dead.
        let (b, _) = net.start_flow(t(1), &[nic], 500.0);
        assert_eq!(net.rate(a), None, "stale id resolved after slot reuse");
        assert!(!net.cancel_flow(t(2), a));
        assert_eq!(net.rate(b), Some(100.0));
        assert!(a < b, "creation order must be preserved by FlowId ordering");
    }

    #[test]
    fn disjoint_components_reshare_independently() {
        // Mutating one component must not disturb the other's rates, and
        // the stats must show the small dirty component, not the world.
        let mut net = FlowNet::new();
        let nic_a = net.add_resource(100.0);
        let nic_b = net.add_resource(80.0);
        let (a1, _) = net.start_flow(t(0), &[nic_a], 1e9);
        let (a2, _) = net.start_flow(t(0), &[nic_a], 1e9);
        let (b1, _) = net.start_flow(t(0), &[nic_b], 1e9);
        assert_eq!(net.rate(b1), Some(80.0));
        let visits_before = net.stats().reshare_flow_visits;
        assert!(net.set_capacity(t(1), nic_b, 40.0).is_empty());
        assert_eq!(net.rate(a1), Some(50.0));
        let visits = net.stats().reshare_flow_visits - visits_before;
        assert_eq!(visits, 1, "dirty component is just b1");
        assert_eq!(net.rate(a2), Some(50.0));
        assert_eq!(net.rate(b1), Some(40.0));
    }

    #[test]
    fn stalled_flow_does_not_join_components() {
        // `s` crosses a dead resource between two live ones. It takes no
        // capacity, so it must not glue the two sides into one component.
        let mut net = FlowNet::new();
        let nic_a = net.add_resource(100.0);
        let dead = net.add_resource(0.0);
        let nic_b = net.add_resource(80.0);
        let (a1, _) = net.start_flow(t(0), &[nic_a], 1e9);
        let (b1, _) = net.start_flow(t(0), &[nic_b], 1e9);
        let (b2, _) = net.start_flow(t(0), &[nic_b], 1e9);
        let (s, _) = net.start_flow(t(0), &[nic_a, dead, nic_b], 1e9);
        assert_eq!(net.rate(a1), Some(100.0));
        let visits_before = net.stats().reshare_flow_visits;
        assert!(net.set_capacity(t(1), nic_b, 40.0).is_empty());
        assert_eq!(net.rate(b1), Some(20.0));
        let visits = net.stats().reshare_flow_visits - visits_before;
        assert_eq!(visits, 2, "dirty component is just b1 and b2");
        assert_eq!(net.rate(a1), Some(100.0));
        assert_eq!(net.rate(b2), Some(20.0));
        assert_eq!(net.rate(s), Some(0.0));
    }

    #[test]
    fn stalled_flows_cost_no_reshare() {
        let mut net = FlowNet::new();
        let nic = net.add_resource(100.0);
        let dead = net.add_resource(0.0);
        net.start_flow(t(0), &[nic], 1e9);
        net.next_completion();
        let before = net.stats().reshares;
        // Born stalled over a dead resource.
        let (s, ch) = net.start_flow(t(1), &[nic, dead], 500.0);
        assert_eq!(ch.stalled, vec![s]);
        net.next_completion();
        assert_eq!(net.stats().reshares, before, "start over a dead resource");
        // Cancelled while stalled.
        assert!(net.cancel_flow(t(2), s));
        net.next_completion();
        assert_eq!(net.stats().reshares, before, "cancel of a stalled flow");
        // A zero-byte flow born on a dead resource, polled to completion.
        let (z, ch) = net.start_flow(t(3), &[dead], 0.0);
        assert!(ch.is_empty());
        assert_eq!(net.poll(t(3)), vec![z]);
        net.next_completion();
        assert_eq!(net.stats().reshares, before, "poll of a stalled flow");
        // The last flow on a resource completes, or is cancelled: its
        // path is dirty, but no running flow is left to re-rate.
        let disk = net.add_resource(50.0);
        let (d, _) = net.start_flow(t(4), &[disk], 50.0);
        assert_eq!(net.next_completion(), Some(t(5)));
        let before = net.stats().reshares;
        assert_eq!(net.poll(t(5)), vec![d]);
        net.next_completion();
        assert_eq!(net.stats().reshares, before, "last flow completes");
        let (c, _) = net.start_flow(t(6), &[disk], 50.0);
        net.next_completion();
        let before = net.stats().reshares;
        assert!(net.cancel_flow(t(6), c));
        net.next_completion();
        assert_eq!(net.stats().reshares, before, "last flow cancelled");
        // A capacity change on a resource no flow crosses.
        net.set_capacity(t(7), disk, 25.0);
        assert!(net.set_capacity(t(7), dead, 10.0).is_empty());
        net.next_completion();
        assert_eq!(net.stats().reshares, before, "capacity of an idle resource");
    }

    #[test]
    fn restore_resumes_only_fully_alive_paths() {
        let mut net = FlowNet::new();
        let x = net.add_resource(90.0);
        let y = net.add_resource(90.0);
        let (f1, _) = net.start_flow(t(0), &[x], 1e9);
        let (f2, _) = net.start_flow(t(0), &[x, y], 1e9);
        let (f3, _) = net.start_flow(t(0), &[x], 1e9);
        assert_eq!(net.set_capacity(t(1), y, 0.0).stalled, vec![f2]);
        assert_eq!(net.rate(f1), Some(45.0), "freed capacity re-shared");
        let ch = net.set_capacity(t(2), x, 0.0);
        assert_eq!(ch.stalled, vec![f1, f3], "creation order");
        let ch = net.set_capacity(t(3), x, 90.0);
        assert_eq!(ch.resumed, vec![f1, f3], "f2 still crosses dead y");
        assert!(ch.stalled.is_empty());
        assert_eq!(net.rate(f2), Some(0.0));
        assert_eq!(net.rate(f3), Some(45.0));
        assert_eq!(net.set_capacity(t(4), y, 90.0).resumed, vec![f2]);
        assert_eq!(net.rate(f2), Some(30.0));
    }

    #[test]
    fn near_tie_across_components_is_solved_per_component() {
        // The one case where rates depend on how mutations are batched:
        // bottleneck shares within the solver's freeze tolerance (1e-12
        // relative) in *different* components. One solve freezes both in
        // one round at the smaller share, like the global solve; each
        // component solved alone keeps its own.
        let caps = [100.0, 100.0 * (1.0 + 1e-13)];
        let global = crate::maxmin_rates(&caps, &[vec![0], vec![1]]);
        assert_eq!(global, vec![100.0, 100.0]);

        let mut net = FlowNet::new();
        let a = net.add_resource(caps[0]);
        let b = net.add_resource(caps[1]);
        let (fa, _) = net.start_flow(t(0), &[a], 1e9);
        assert_eq!(net.rate(fa), Some(100.0));
        let (fb, _) = net.start_flow(t(0), &[b], 1e9);
        assert_eq!(net.rate(fb), Some(100.00000000000999));
        assert_eq!(net.rate(fa), Some(100.0));

        let mut net = FlowNet::new();
        let a = net.add_resource(caps[0]);
        let b = net.add_resource(caps[1]);
        let (fa, _) = net.start_flow(t(0), &[a], 1e9);
        let (fb, _) = net.start_flow(t(0), &[b], 1e9);
        assert_eq!(net.rate(fa), Some(global[0]));
        assert_eq!(net.rate(fb), Some(global[1]));
    }

    #[test]
    fn stats_count_reshares() {
        let mut net = FlowNet::new();
        let nic = net.add_resource(100.0);
        let disk = net.add_resource(60.0);
        let (a, _) = net.start_flow(t(0), &[nic], 1000.0);
        let (b, _) = net.start_flow(t(0), &[nic, disk], 1000.0);
        net.set_capacity(t(0), nic, 50.0);
        net.cancel_flow(t(0), a);
        assert_eq!(net.stats().reshares, 0, "mutations only seed");
        assert_eq!(net.rate(b), Some(50.0));
        assert_eq!(net.resource_throughput(nic), 50.0);
        let stats = net.stats();
        assert_eq!(
            stats.reshares, 1,
            "one solve for the batch, none for an empty one"
        );
        assert_eq!(stats.reshare_flow_visits, 1);
        assert_eq!(stats.peak_live_flows, 2);
    }

    #[test]
    fn kill_stalls_a_flow_started_in_the_same_batch() {
        // The flow has no rate yet; its live path is what makes it
        // running, so the kill must report it.
        let mut net = FlowNet::new();
        let nic = net.add_resource(100.0);
        let (a, ch) = net.start_flow(t(0), &[nic], 1000.0);
        assert!(ch.is_empty());
        assert_eq!(net.set_capacity(t(0), nic, 0.0).stalled, vec![a]);
        assert_eq!(net.rate(a), Some(0.0));
    }

    #[test]
    fn pending_resume_is_reported_when_the_batch_ends_it() {
        // A stalled flow revived and then killed again in one batch, with
        // no solve in between: the revival reports the resume and the
        // kill the new stall, each by itself.
        let mut net = FlowNet::new();
        let nic = net.add_resource(100.0);
        let (a, _) = net.start_flow(t(0), &[nic], 1000.0);
        assert_eq!(net.set_capacity(t(1), nic, 0.0).stalled, vec![a]);
        let ch = net.set_capacity(t(2), nic, 100.0);
        assert_eq!((ch.resumed, ch.stalled), (vec![a], vec![]));
        let ch = net.set_capacity(t(2), nic, 0.0);
        assert_eq!((ch.resumed, ch.stalled), (vec![], vec![a]));
        // Revived and then cancelled: nothing is owed to the host.
        assert_eq!(net.set_capacity(t(3), nic, 100.0).resumed, vec![a]);
        assert!(net.cancel_flow(t(3), a));
        assert!(!net.is_stalled(a));
        assert_eq!(net.next_completion(), None);
    }

    #[test]
    fn a_time_advance_settles_the_pending_batch() {
        // Progress is charged at the batch's rates, solved by the advance
        // itself, with no read in between.
        let mut net = FlowNet::new();
        let nic = net.add_resource(100.0);
        let (a, _) = net.start_flow(t(0), &[nic], 1000.0);
        net.set_capacity(t(1), nic, 0.0);
        assert_eq!(net.set_capacity(t(2), nic, 100.0).resumed, vec![a]);
        assert!(net.poll(t(3)).is_empty());
        assert!((net.remaining_bytes(a).unwrap() - 800.0).abs() < 1e-6);
    }
}
