//! Property tests for the batched, incremental flow-sharing engine.
//! Random mutation streams (start / cancel / set_capacity / poll) are
//! checked three ways.
//!
//! * **Against the definition of a stall, exactly.** After every
//!   mutation, the host view built by applying each reported
//!   [`Changes`] — every stall and resume a real transition, each list in
//!   creation order — holds exactly the live flows that have bytes left
//!   and a path across a zero-capacity resource, and
//!   [`FlowNet::is_stalled`] agrees flow by flow.
//! * **Against a from-scratch oracle.** After every solve — one per
//!   mutation, or one per random batch of mutations — every live flow's
//!   rate is **bit-identical** to a [`maxmin_rates`] solve of the whole
//!   network; a flow is stalled in the host view exactly when its rate is
//!   0 with bytes left; no resource is oversubscribed; and the slab never
//!   resurrects a stale [`FlowId`].
//! * **Differentially.** One stream fed to a net that solves after every
//!   mutation and to one that solves once per random batch gives the
//!   same rates bit for bit and the same stall and resume lists in the
//!   same order. (`DESIGN.md` §5 exempts near-ties across components;
//!   capacities drawn from a continuous range do not produce them, and
//!   the unit test `near_tie_across_components_is_solved_per_component`
//!   pins the case.) A host that only starts, kills, restores, reads
//!   `next_completion` and polls completes the same flows at the same
//!   instants as one that solves after every mutation.

use netsim::{maxmin_rates, Changes, FlowId, FlowNet, ResourceId};
use rand::{rngs::StdRng, Rng, SeedableRng};
use simkit::{SimDuration, SimTime};

/// Bytes below which a flow counts as finished (the engine's epsilon).
const EPS_BYTES: f64 = 1e-3;

/// One mutation of a random stream.
#[derive(Debug, Clone)]
enum Op {
    Start(Vec<usize>, f64),
    Cancel(FlowId),
    SetCapacity(usize, f64),
    Poll(SimTime),
}

/// One live flow in the shadow model, in creation order.
struct ShadowFlow {
    id: FlowId,
    /// Deduplicated path (the oracle dedups anyway; dedup here keeps
    /// capacity-conservation sums honest).
    path: Vec<usize>,
    /// The host's view: reported stalled, and no resume reported since.
    stalled: bool,
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
        Self::with_caps((0..n_res).map(|_| rng.gen_range(10.0..200.0)).collect())
    }

    fn with_caps(caps: Vec<f64>) -> Self {
        let mut net = FlowNet::new();
        let resources = caps.iter().map(|&c| net.add_resource(c)).collect();
        Harness {
            net,
            resources,
            caps,
            live: Vec::new(),
            dead: Vec::new(),
            now: SimTime::ZERO,
        }
    }

    /// A second harness over an identical network.
    fn twin(&self) -> Self {
        Self::with_caps(self.caps.clone())
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

    /// Draw one mutation. A poll target may come from `next_completion`,
    /// which solves a pending batch — the implicit path under test too.
    fn random_op(&mut self, rng: &mut StdRng) -> Op {
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
                Op::Start(path, bytes)
            }
            // Cancel a random live flow.
            40..=59 if !self.live.is_empty() => {
                Op::Cancel(self.live[rng.gen_range(0..self.live.len())].id)
            }
            40..=59 => Op::Poll(self.now),
            // Change a capacity (sometimes to zero — a node outage).
            60..=79 => {
                let r = rng.gen_range(0..self.resources.len());
                let cap = if rng.gen_range(0..3u32) == 0 {
                    0.0
                } else {
                    rng.gen_range(10.0..200.0)
                };
                Op::SetCapacity(r, cap)
            }
            // Advance time and poll: sometimes exactly at the predicted
            // completion, sometimes at a random instant.
            _ => {
                let target = if rng.gen_range(0..2u32) == 0 {
                    self.net.next_completion()
                } else {
                    None
                };
                let target = target.unwrap_or_else(|| {
                    self.now + SimDuration::from_micros(rng.gen_range(1..3_000_000))
                });
                Op::Poll(target.max(self.now))
            }
        }
    }

    /// Apply one mutation to the net and the shadow, and check the host
    /// view against the definition of a stall; returns the changes it
    /// reported and, for a poll, the completed flows.
    fn apply(&mut self, op: &Op) -> (Changes, Vec<FlowId>) {
        let out = self.mutate(op);
        self.check_stalls(op);
        out
    }

    fn mutate(&mut self, op: &Op) -> (Changes, Vec<FlowId>) {
        match op {
            Op::Start(path, bytes) => {
                let rpath: Vec<ResourceId> = path.iter().map(|&r| self.resources[r]).collect();
                let (id, ch) = self.net.start_flow(self.now, &rpath, *bytes);
                let mut path = path.clone();
                path.sort_unstable();
                path.dedup();
                self.live.push(ShadowFlow {
                    id,
                    path,
                    stalled: false,
                });
                self.observe(&ch);
                (ch, Vec::new())
            }
            Op::Cancel(id) => {
                assert!(self.net.cancel_flow(self.now, *id), "cancel of live flow");
                let k = self.live.iter().position(|f| f.id == *id).unwrap();
                self.live.remove(k);
                self.dead.push(*id);
                (Changes::default(), Vec::new())
            }
            Op::SetCapacity(r, cap) => {
                self.caps[*r] = *cap;
                let ch = self.net.set_capacity(self.now, self.resources[*r], *cap);
                self.observe(&ch);
                (ch, Vec::new())
            }
            Op::Poll(at) => {
                self.now = *at;
                let done = self.net.poll(self.now);
                for id in &done {
                    let k = self
                        .live
                        .iter()
                        .position(|f| f.id == *id)
                        .expect("completed flow unknown to shadow");
                    assert!(
                        !self.live.remove(k).stalled,
                        "stalled flow {id:?} completed"
                    );
                    self.dead.push(*id);
                }
                (Changes::default(), done)
            }
        }
    }

    /// Solve a pending batch, as any read does.
    fn solve(&mut self) {
        self.net.next_completion();
    }

    /// Apply reported transitions to the host view and assert each is a
    /// real transition of a live flow, each list in creation order.
    fn observe(&mut self, ch: &Changes) {
        for (list, to) in [(&ch.resumed, false), (&ch.stalled, true)] {
            assert!(
                list.windows(2).all(|w| w[0] < w[1]),
                "not in creation order: {list:?}"
            );
            for id in list {
                let f = self.live.iter_mut().find(|f| f.id == *id);
                let f = f.unwrap_or_else(|| panic!("transition of unknown flow {id:?}"));
                assert_ne!(f.stalled, to, "not a transition: {id:?} to stalled={to}");
                f.stalled = to;
            }
        }
    }

    /// After a mutation: the host view is stalled exactly for the live
    /// flows with bytes left whose path crosses a zero-capacity resource.
    fn check_stalls(&self, op: &Op) {
        for f in &self.live {
            let want = self.net.remaining_bytes(f.id).unwrap() > EPS_BYTES
                && f.path.iter().any(|&r| self.caps[r] <= 0.0);
            assert_eq!(f.stalled, want, "after {op:?}: host view of {:?}", f.id);
            assert_eq!(
                self.net.is_stalled(f.id),
                want,
                "after {op:?}: is_stalled({:?})",
                f.id
            );
        }
        for id in &self.dead {
            assert!(
                !self.net.is_stalled(*id),
                "after {op:?}: gone flow {id:?} stalled"
            );
        }
    }

    /// Compare the engine (whose first read solves a pending batch)
    /// against a from-scratch global solve, and the host's stall view
    /// against the oracle's rates.
    fn check_against_oracle(&mut self, step: usize) {
        assert_eq!(self.net.n_flows(), self.live.len(), "live count diverged");
        let paths: Vec<Vec<usize>> = self.live.iter().map(|f| f.path.clone()).collect();
        let oracle = maxmin_rates(&self.caps, &paths);
        for (f, &want) in self.live.iter().zip(&oracle) {
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
            let remaining = self.net.remaining_bytes(f.id).unwrap();
            assert_eq!(
                f.stalled,
                want <= 0.0 && remaining > EPS_BYTES,
                "step {step}: host view of {:?} diverged",
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
}

#[test]
fn incremental_rates_match_fresh_solve_under_churn() {
    for seed in [11u64, 12, 13] {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut h = Harness::new(rng.gen_range(3..12), &mut rng);
        for step in 0..1500 {
            let op = h.random_op(&mut rng);
            h.apply(&op);
            h.check_against_oracle(step);
        }
        // The engine must actually have exercised slot reuse.
        assert!(!h.dead.is_empty(), "seed {seed}: no flow ever retired");
    }
}

#[test]
fn random_batches_match_fresh_solve() {
    for seed in [21u64, 22, 23, 24] {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut h = Harness::new(rng.gen_range(3..12), &mut rng);
        for batch in 0..300 {
            for _ in 0..rng.gen_range(1..=8) {
                let op = h.random_op(&mut rng);
                h.apply(&op);
            }
            h.check_against_oracle(batch);
        }
        assert!(!h.dead.is_empty(), "seed {seed}: no flow ever retired");
    }
}

#[test]
fn batched_settles_match_settling_every_mutation() {
    for seed in [31u64, 32, 33, 34] {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut eager = Harness::new(rng.gen_range(3..12), &mut rng);
        let mut batched = eager.twin();
        let (mut stalls, mut resumes) = (0, 0);
        for batch in 0..300 {
            let mut eager_stalled = Vec::new();
            let mut eager_resumed = Vec::new();
            let mut batched_stalled = Vec::new();
            let mut batched_resumed = Vec::new();
            for _ in 0..rng.gen_range(1..=8) {
                // The stream is drawn from the eager net alone, so the
                // batched one sees only the mutations.
                let op = eager.random_op(&mut rng);
                let (ch, done) = eager.apply(&op);
                eager.solve();
                eager_stalled.extend(ch.stalled);
                eager_resumed.extend(ch.resumed);
                let (ch, batched_done) = batched.apply(&op);
                batched_stalled.extend(ch.stalled);
                batched_resumed.extend(ch.resumed);
                assert_eq!(done, batched_done, "batch {batch}: completions diverged");
            }
            assert_eq!(
                eager_stalled, batched_stalled,
                "batch {batch}: stalls diverged"
            );
            assert_eq!(
                eager_resumed, batched_resumed,
                "batch {batch}: resumes diverged"
            );
            stalls += eager_stalled.len();
            resumes += eager_resumed.len();
            assert_eq!(eager.live.len(), batched.live.len());
            for (e, b) in eager.live.iter().zip(&batched.live) {
                assert_eq!(e.id, b.id);
                let (er, br) = (
                    eager.net.rate(e.id).unwrap(),
                    batched.net.rate(b.id).unwrap(),
                );
                assert_eq!(
                    er.to_bits(),
                    br.to_bits(),
                    "batch {batch}: rate of {:?}",
                    e.id
                );
                let (el, bl) = (
                    eager.net.remaining_bytes(e.id).unwrap(),
                    batched.net.remaining_bytes(b.id).unwrap(),
                );
                assert_eq!(
                    el.to_bits(),
                    bl.to_bits(),
                    "batch {batch}: bytes of {:?}",
                    e.id
                );
            }
        }
        assert!(stalls > 0 && resumes > 0, "seed {seed}: no transitions");
        assert!(
            batched.net.stats().reshares < eager.net.stats().reshares,
            "seed {seed}: batching saved no solve"
        );
    }
}

#[test]
fn host_that_never_settles_completes_the_same_flows() {
    // The pattern of a host that drives the net directly: fill to a
    // target, kill and restore resources, and otherwise only ask for the
    // next completion and poll there. It never reads a rate, so its only
    // solves are those `next_completion` and time advances make.
    let mut rng = StdRng::seed_from_u64(41);
    let mut eager = Harness::new(9, &mut rng);
    let mut lazy = eager.twin();
    let mut completed = 0;
    for turn in 0..2000 {
        let op = if turn % 4 == 0 {
            let r = rng.gen_range(0..eager.resources.len());
            let cap = if eager.caps[r] > 0.0 {
                0.0
            } else {
                rng.gen_range(10.0..200.0)
            };
            Op::SetCapacity(r, cap)
        } else if eager.live.len() < 12 {
            let path = eager.random_path(&mut rng);
            Op::Start(path, rng.gen_range(1.0..50_000.0))
        } else {
            match eager.net.next_completion() {
                Some(at) => Op::Poll(at.max(eager.now)),
                None => continue,
            }
        };
        if let Op::Poll(at) = op {
            assert_eq!(
                lazy.net.next_completion().map(|t| t.max(lazy.now)),
                Some(at),
                "turn {turn}: next completion diverged"
            );
        }
        let (ch, done) = eager.apply(&op);
        eager.solve();
        let (lazy_ch, lazy_done) = lazy.apply(&op);
        assert_eq!(ch, lazy_ch, "turn {turn}: transitions diverged");
        assert_eq!(done, lazy_done, "turn {turn}: completions diverged");
        completed += done.len();
    }
    assert!(completed > 100, "only {completed} flows completed");
    let stats = lazy.net.stats();
    assert!(stats.reshares > 0 && stats.reshare_flow_visits > 0);
}

#[test]
fn completion_drains_network() {
    // Drive a fixed workload to completion purely via next_completion /
    // poll and confirm the slab fully drains with conserved capacity.
    let mut rng = StdRng::seed_from_u64(99);
    let mut h = Harness::new(5, &mut rng);
    for i in 0..40 {
        let path = h.random_path(&mut rng);
        let bytes = rng.gen_range(1.0..10_000.0);
        h.apply(&Op::Start(path, bytes));
        h.check_against_oracle(i);
    }
    let mut polls = 0;
    while let Some(eta) = h.net.next_completion() {
        h.apply(&Op::Poll(eta.max(h.now)));
        h.check_against_oracle(polls);
        polls += 1;
        assert!(polls < 10_000, "network failed to drain");
    }
    assert_eq!(h.net.n_flows(), 0, "flows left behind");
}
