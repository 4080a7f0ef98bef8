//! Property test for the incremental flow-sharing engine: thousands of
//! random mutations (start / cancel / set_capacity / poll) against a
//! shadow model, asserting after every step that
//!
//! * every live flow's rate is **bit-identical** to a from-scratch
//!   [`maxmin_rates`] solve of the whole network (the oracle the
//!   component-dirtying engine must be indistinguishable from),
//! * every mutation's [`Changes`] lists exactly the oracle's zero
//!   crossings, in creation order: `stalled` holds the flows whose rate
//!   fell from positive to 0 with bytes left, `resumed` those whose rate
//!   rose from 0 (a new flow is reported as resumed if it is born
//!   running and as stalled if it is born stalled with bytes to send),
//! * no resource is oversubscribed (capacity conservation on the slab
//!   path),
//! * the slab never resurrects a stale [`FlowId`] after slot reuse.

use netsim::{maxmin_rates, Changes, FlowId, FlowNet, ResourceId};
use rand::{rngs::StdRng, Rng, SeedableRng};
use simkit::{SimDuration, SimTime};

/// One live flow in the shadow model, in creation order.
struct ShadowFlow {
    id: FlowId,
    path: Vec<usize>,
    /// Oracle rate after the previous mutation (`None` before the first
    /// solve that includes the flow).
    rate: Option<f64>,
}

struct Harness {
    net: FlowNet,
    resources: Vec<ResourceId>,
    caps: Vec<f64>,
    live: Vec<ShadowFlow>,
    dead: Vec<FlowId>,
    now: SimTime,
}

impl Harness {
    fn new(n_res: usize, rng: &mut StdRng) -> Self {
        let mut net = FlowNet::new();
        let mut resources = Vec::new();
        let mut caps = Vec::new();
        for _ in 0..n_res {
            let cap = rng.gen_range(10.0..200.0);
            resources.push(net.add_resource(cap));
            caps.push(cap);
        }
        Harness {
            net,
            resources,
            caps,
            live: Vec::new(),
            dead: Vec::new(),
            now: SimTime::ZERO,
        }
    }

    fn random_path(&self, rng: &mut StdRng) -> Vec<usize> {
        let k = rng.gen_range(1..=4.min(self.resources.len()));
        let mut rs: Vec<usize> = (0..self.resources.len()).collect();
        for i in (1..rs.len()).rev() {
            let j = rng.gen_range(0..=i);
            rs.swap(i, j);
        }
        rs.truncate(k);
        rs
    }

    /// Compare the engine against a from-scratch global solve, and the
    /// zero crossings the last mutation reported against the oracle's.
    fn check_against_oracle(&mut self, step: usize, changes: &Changes) {
        assert_eq!(self.net.n_flows(), self.live.len(), "live count diverged");
        let paths: Vec<Vec<usize>> = self.live.iter().map(|f| f.path.clone()).collect();
        let oracle = maxmin_rates(&self.caps, &paths);
        let mut stalled = Vec::new();
        let mut resumed = Vec::new();
        for (f, &want) in self.live.iter_mut().zip(&oracle) {
            let remaining = self.net.remaining_bytes(f.id).unwrap_or(0.0);
            if f.rate.is_none_or(|r| r > 0.0) && want <= 0.0 && remaining > 1e-3 {
                stalled.push(f.id);
            } else if f.rate.is_none_or(|r| r <= 0.0) && want > 0.0 {
                resumed.push(f.id);
            }
            f.rate = Some(want);
        }
        assert_eq!(changes.stalled, stalled, "step {step}: stalled diverged");
        assert_eq!(changes.resumed, resumed, "step {step}: resumed diverged");
        for (f, want) in self.live.iter().zip(&oracle) {
            let got = self
                .net
                .rate(f.id)
                .unwrap_or_else(|| panic!("step {step}: live flow {:?} lost", f.id));
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "step {step}: flow {:?} rate {got} != oracle {want}",
                f.id
            );
        }
        // Capacity conservation on the slab path.
        for (r, (&rid, &cap)) in self.resources.iter().zip(&self.caps).enumerate() {
            let used = self.net.resource_throughput(rid);
            assert!(
                used <= cap * (1.0 + 1e-6) + 1e-9,
                "step {step}: resource {r} oversubscribed: {used} > {cap}"
            );
        }
        // Stale handles must stay dead (slot reuse must not alias).
        for id in self.dead.iter().rev().take(8) {
            assert!(self.net.rate(*id).is_none(), "stale id {id:?} resurrected");
        }
    }

    /// Apply one random mutation and return the changes it reported.
    fn step(&mut self, rng: &mut StdRng) -> Changes {
        match rng.gen_range(0..100u32) {
            // Start a flow (sometimes zero-byte, sometimes over a path
            // with duplicate entries to exercise start-time dedup).
            0..=39 => {
                let mut path = self.random_path(rng);
                if rng.gen_range(0..8u32) == 0 {
                    path.push(path[0]);
                }
                let bytes = if rng.gen_range(0..10u32) == 0 {
                    0.0
                } else {
                    rng.gen_range(1.0..50_000.0)
                };
                let rpath: Vec<ResourceId> = path.iter().map(|&r| self.resources[r]).collect();
                let (id, ch) = self.net.start_flow(self.now, &rpath, bytes);
                self.push_shadow(id, path);
                ch
            }
            // Cancel a random live flow.
            40..=59 => {
                if self.live.is_empty() {
                    return Changes::default();
                }
                let k = rng.gen_range(0..self.live.len());
                let f = self.live.remove(k);
                self.dead.push(f.id);
                self.net
                    .cancel_flow(self.now, f.id)
                    .expect("cancel of live flow failed")
            }
            // Change a capacity (sometimes to zero — a node outage).
            60..=79 => {
                let r = rng.gen_range(0..self.resources.len());
                let cap = if rng.gen_range(0..3u32) == 0 {
                    0.0
                } else {
                    rng.gen_range(10.0..200.0)
                };
                self.caps[r] = cap;
                self.net.set_capacity(self.now, self.resources[r], cap)
            }
            // Advance time and poll: sometimes exactly at the predicted
            // completion, sometimes at a random instant.
            _ => {
                let target = if rng.gen_range(0..2u32) == 0 {
                    self.net.next_completion()
                } else {
                    None
                };
                let target = target
                    .unwrap_or_else(|| {
                        self.now + SimDuration::from_micros(rng.gen_range(1..3_000_000))
                    })
                    .max(self.now);
                self.now = target;
                self.poll()
            }
        }
    }

    /// Track a newly started flow. The shadow keeps the deduped path (the
    /// oracle dedups anyway; dedup here keeps capacity-conservation sums
    /// honest).
    fn push_shadow(&mut self, id: FlowId, mut path: Vec<usize>) {
        path.sort_unstable();
        path.dedup();
        self.live.push(ShadowFlow {
            id,
            path,
            rate: None,
        });
    }

    /// Poll at the current instant and retire the completed flows.
    fn poll(&mut self) -> Changes {
        let (done, ch) = self.net.poll(self.now);
        for id in done {
            let k = self
                .live
                .iter()
                .position(|f| f.id == id)
                .expect("completed flow unknown to shadow");
            self.live.remove(k);
            self.dead.push(id);
        }
        ch
    }
}

#[test]
fn incremental_rates_match_fresh_solve_under_churn() {
    for seed in [11u64, 12, 13] {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut h = Harness::new(rng.gen_range(3..12), &mut rng);
        for step in 0..1500 {
            let ch = h.step(&mut rng);
            h.check_against_oracle(step, &ch);
        }
        // The engine must actually have exercised slot reuse.
        assert!(!h.dead.is_empty(), "seed {seed}: no flow ever retired");
    }
}

#[test]
fn completion_drains_network() {
    // Drive a fixed workload to completion purely via next_completion /
    // poll and confirm the slab fully drains with conserved capacity.
    let mut rng = StdRng::seed_from_u64(99);
    let mut h = Harness::new(5, &mut rng);
    for i in 0..40 {
        let path = h.random_path(&mut rng);
        let rpath: Vec<ResourceId> = path.iter().map(|&r| h.resources[r]).collect();
        let bytes = rng.gen_range(1.0..10_000.0);
        let (id, ch) = h.net.start_flow(h.now, &rpath, bytes);
        h.push_shadow(id, path);
        h.check_against_oracle(i, &ch);
    }
    let mut polls = 0;
    while let Some(eta) = h.net.next_completion() {
        h.now = eta.max(h.now);
        let ch = h.poll();
        h.check_against_oracle(polls, &ch);
        polls += 1;
        assert!(polls < 10_000, "network failed to drain");
    }
    assert_eq!(h.net.n_flows(), 0, "flows left behind");
}
