//! Max-min fair rate allocation by progressive filling.
//!
//! Given resources with capacities and flows that each traverse a set of
//! resources, progressive filling raises every flow's rate together until
//! some resource saturates, freezes the flows through it, and repeats.
//! The result is the unique max-min fair allocation: no flow's rate can be
//! raised without lowering a flow with an equal-or-smaller rate.
//!
//! Two entry points share the same arithmetic:
//!
//! * [`maxmin_rates`] — the from-scratch convenience function (and the
//!   oracle the incremental engine is property-tested against). It
//!   defensively clones and dedups every path on every call.
//! * [`Solver`] — a reusable scratch-buffer solver for hot paths: the
//!   caller streams in one (sub)problem per [`Solver::reset`], paths are
//!   expected pre-deduplicated, and no allocation happens once the
//!   buffers have grown to the problem's high-water mark. [`FlowNet`]
//!   feeds it the dirty connected components of one batch instead of
//!   the whole network.
//!
//! [`FlowNet`]: crate::FlowNet

/// Compute max-min fair rates.
///
/// * `capacities[r]` — capacity of resource `r` (units/sec, ≥ 0).
/// * `flow_resources[f]` — indices of resources flow `f` traverses
///   (must be non-empty for every flow).
///
/// Returns the rate of each flow. Flows through any zero-capacity resource
/// get rate 0.
pub fn maxmin_rates(capacities: &[f64], flow_resources: &[Vec<usize>]) -> Vec<f64> {
    if flow_resources.is_empty() {
        return Vec::new();
    }

    // A resource appearing twice on a path still constrains the flow only
    // once at flow level (the flow does not consume double bandwidth), so
    // deduplicate defensively.
    let deduped: Vec<Vec<usize>> = flow_resources
        .iter()
        .map(|path| {
            let mut p = path.clone();
            p.sort_unstable();
            p.dedup();
            p
        })
        .collect();

    let mut solver = Solver::new();
    solver.reset();
    for &cap in capacities {
        solver.add_resource(cap);
    }
    for path in &deduped {
        solver.add_flow(path.iter().map(|&r| r as u32));
    }
    solver.solve().to_vec()
}

/// Reusable progressive-filling solver over persistent scratch buffers.
///
/// Usage per solve: [`reset`](Self::reset), then
/// [`add_resource`](Self::add_resource) for every resource (capturing the
/// returned dense index), then [`add_flow`](Self::add_flow) with each
/// flow's **deduplicated** resource indices, then
/// [`solve`](Self::solve). Rates come back in `add_flow` order.
///
/// The freeze order inside one filling round follows `add_flow` order,
/// and that order is observable in the result bits when several flows
/// saturate a resource in the same round (the remaining-capacity
/// subtractions interleave). Callers that need reproducible results must
/// therefore add flows in a canonical order — [`FlowNet`] uses flow
/// creation order, which also makes the incremental component solve
/// bit-identical to a from-scratch solve of the whole network, up to
/// near-ties across components (see `DESIGN.md` §5).
///
/// [`FlowNet`]: crate::FlowNet
#[derive(Debug, Default)]
pub struct Solver {
    /// Remaining capacity per resource (starts at the full capacity).
    rem_cap: Vec<f64>,
    /// Unfrozen flows crossing each resource.
    count: Vec<u32>,
    /// Flattened flow paths (dense resource indices).
    path: Vec<u32>,
    /// `path` offsets; flow `f` traverses `path[path_start[f]..path_start[f + 1]]`.
    path_start: Vec<u32>,
    frozen: Vec<bool>,
    rates: Vec<f64>,
    /// Round-loop worklist: still-unfrozen flows, in `add_flow` order.
    active_flows: Vec<u32>,
    /// Round-loop worklist: resources with unfrozen flows left.
    active_res: Vec<u32>,
}

impl Solver {
    /// A solver with empty scratch buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Begin a new problem, retaining buffer capacity from prior solves.
    pub fn reset(&mut self) {
        self.rem_cap.clear();
        self.count.clear();
        self.path.clear();
        self.path_start.clear();
        self.path_start.push(0);
        self.frozen.clear();
        self.rates.clear();
        self.active_flows.clear();
        self.active_res.clear();
    }

    /// Register a resource; returns its dense index for `add_flow`.
    pub fn add_resource(&mut self, capacity: f64) -> u32 {
        debug_assert!(capacity >= 0.0 && capacity.is_finite());
        let idx = self.rem_cap.len() as u32;
        self.rem_cap.push(capacity);
        self.count.push(0);
        idx
    }

    /// Register a flow crossing the given resources (pre-deduplicated
    /// dense indices from `add_resource`). Must not be empty.
    pub fn add_flow<I: IntoIterator<Item = u32>>(&mut self, path: I) {
        let start = self.path.len();
        for r in path {
            self.path.push(r);
            self.count[r as usize] += 1;
        }
        debug_assert!(self.path.len() > start, "flow traverses no resources");
        self.path_start.push(self.path.len() as u32);
        self.frozen.push(false);
        self.rates.push(0.0);
    }

    /// Number of flows added since the last `reset`.
    pub fn n_flows(&self) -> usize {
        self.rates.len()
    }

    fn flow_range(path_start: &[u32], f: usize) -> std::ops::Range<usize> {
        path_start[f] as usize..path_start[f + 1] as usize
    }

    /// Run progressive filling; returns the rate per flow in `add_flow`
    /// order. Flows through any zero-capacity resource get rate 0.
    pub fn solve(&mut self) -> &[f64] {
        let n_res = self.rem_cap.len();
        let n_flows = self.rates.len();

        // Flows through a dead (zero-capacity) resource are stuck at rate
        // 0. (`rem_cap` still equals the original capacities here.)
        for f in 0..n_flows {
            let range = Self::flow_range(&self.path_start, f);
            if self.path[range.clone()]
                .iter()
                .any(|&r| self.rem_cap[r as usize] <= 0.0)
            {
                self.frozen[f] = true;
                self.rates[f] = 0.0;
                for &r in &self.path[range] {
                    self.count[r as usize] -= 1;
                }
            }
        }

        // Round worklists: walking only still-unfrozen flows (in add
        // order) and still-constrained resources keeps late rounds cheap;
        // the arithmetic and freeze order are unchanged.
        self.active_flows.clear();
        self.active_flows
            .extend((0..n_flows as u32).filter(|&f| !self.frozen[f as usize]));
        self.active_res.clear();
        self.active_res
            .extend((0..n_res as u32).filter(|&r| self.count[r as usize] > 0));
        let mut n_unfrozen = self.active_flows.len();
        while n_unfrozen > 0 {
            // The bottleneck is the resource offering the smallest equal
            // share.
            let mut best_share = f64::INFINITY;
            for &r in &self.active_res {
                let r = r as usize;
                if self.count[r] > 0 {
                    let share = self.rem_cap[r].max(0.0) / self.count[r] as f64;
                    if share < best_share {
                        best_share = share;
                    }
                }
            }
            if !best_share.is_finite() {
                // No constrained resource left; cannot happen because every
                // flow traverses at least one resource.
                break;
            }
            // Freeze every unfrozen flow passing through a bottleneck
            // resource. Flows frozen earlier in this same round update
            // the shares later flows compare against, so iteration stays
            // in add order over the pre-round worklist.
            let mut froze_any = false;
            for i in 0..self.active_flows.len() {
                let f = self.active_flows[i] as usize;
                if self.frozen[f] {
                    continue;
                }
                let range = Self::flow_range(&self.path_start, f);
                let bottlenecked = self.path[range.clone()].iter().any(|&r| {
                    let r = r as usize;
                    self.count[r] > 0
                        && (self.rem_cap[r].max(0.0) / self.count[r] as f64)
                            <= best_share * (1.0 + 1e-12)
                });
                if bottlenecked {
                    self.frozen[f] = true;
                    self.rates[f] = best_share;
                    for &r in &self.path[range] {
                        self.rem_cap[r as usize] -= best_share;
                        self.count[r as usize] -= 1;
                    }
                    n_unfrozen -= 1;
                    froze_any = true;
                }
            }
            debug_assert!(froze_any, "progressive filling made no progress");
            if !froze_any {
                break;
            }
            let frozen = &self.frozen;
            self.active_flows.retain(|&f| !frozen[f as usize]);
            let count = &self.count;
            self.active_res.retain(|&r| count[r as usize] > 0);
        }
        &self.rates
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-9, "{a} != {b}");
    }

    #[test]
    fn single_flow_gets_full_capacity() {
        let rates = maxmin_rates(&[100.0], &[vec![0]]);
        assert_close(rates[0], 100.0);
    }

    #[test]
    fn equal_flows_split_evenly() {
        let rates = maxmin_rates(&[90.0], &[vec![0], vec![0], vec![0]]);
        for r in rates {
            assert_close(r, 30.0);
        }
    }

    #[test]
    fn classic_maxmin_example() {
        // Two links: L0 cap 10, L1 cap 8.
        // f0: L0 only. f1: L0+L1. f2: L1 only.
        // Fair: f1 and f2 first constrained by L1 (4 each)? Progressive
        // filling: shares L0=10/2=5, L1=8/2=4 → bottleneck L1 at 4:
        // f1=f2=4. Then L0 has 10-4=6 left for f0 → f0=6.
        let rates = maxmin_rates(&[10.0, 8.0], &[vec![0], vec![0, 1], vec![1]]);
        assert_close(rates[0], 6.0);
        assert_close(rates[1], 4.0);
        assert_close(rates[2], 4.0);
    }

    #[test]
    fn zero_capacity_stalls_flows() {
        let rates = maxmin_rates(&[0.0, 100.0], &[vec![0, 1], vec![1]]);
        assert_close(rates[0], 0.0);
        assert_close(rates[1], 100.0);
    }

    #[test]
    fn multi_resource_path_takes_min() {
        // A flow through a fast NIC and a slow disk is disk-bound.
        let rates = maxmin_rates(&[117e6, 60e6], &[vec![0, 1]]);
        assert_close(rates[0], 60e6);
    }

    #[test]
    fn no_flows() {
        assert!(maxmin_rates(&[5.0], &[]).is_empty());
    }

    #[test]
    fn duplicate_path_entries_constrain_once() {
        // A resource listed twice must not be double-charged.
        let rates = maxmin_rates(&[100.0], &[vec![0, 0], vec![0]]);
        assert_close(rates[0], 50.0);
        assert_close(rates[1], 50.0);
    }

    #[test]
    fn solver_reuse_is_equivalent_to_fresh_solves() {
        // Back-to-back problems through one Solver must match the
        // convenience function bit for bit (stale scratch state would
        // show up here).
        let problems: Vec<(Vec<f64>, Vec<Vec<usize>>)> = vec![
            (vec![10.0, 8.0], vec![vec![0], vec![0, 1], vec![1]]),
            (vec![90.0], vec![vec![0], vec![0], vec![0]]),
            (vec![0.0, 100.0], vec![vec![0, 1], vec![1]]),
            (vec![60e6, 117e6, 117e6], vec![vec![0, 1, 2]]),
        ];
        let mut solver = Solver::new();
        for (caps, flows) in &problems {
            solver.reset();
            for &c in caps {
                solver.add_resource(c);
            }
            for p in flows {
                solver.add_flow(p.iter().map(|&r| r as u32));
            }
            let got = solver.solve().to_vec();
            let want = maxmin_rates(caps, flows);
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.to_bits(), w.to_bits(), "{g} != {w}");
            }
        }
    }

    #[test]
    fn capacity_conservation_randomised() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for _ in 0..50 {
            let n_res = rng.gen_range(1..6);
            let caps: Vec<f64> = (0..n_res).map(|_| rng.gen_range(0.0..100.0)).collect();
            let n_flows = rng.gen_range(0..12);
            let flows: Vec<Vec<usize>> = (0..n_flows)
                .map(|_| {
                    let k = rng.gen_range(1..=n_res);
                    let mut rs: Vec<usize> = (0..n_res).collect();
                    // random subset of size k
                    for i in (1..rs.len()).rev() {
                        let j = rng.gen_range(0..=i);
                        rs.swap(i, j);
                    }
                    rs.truncate(k);
                    rs
                })
                .collect();
            let rates = maxmin_rates(&caps, &flows);
            // No resource oversubscribed.
            for (r, &cap) in caps.iter().enumerate() {
                let used: f64 = flows
                    .iter()
                    .zip(&rates)
                    .filter(|(f, _)| f.contains(&r))
                    .map(|(_, &rate)| rate)
                    .sum();
                assert!(
                    used <= cap * (1.0 + 1e-6) + 1e-9,
                    "resource {r} oversubscribed: {used} > {cap}"
                );
            }
            // All rates non-negative and finite.
            for &r in &rates {
                assert!(r.is_finite() && r >= 0.0);
            }
        }
    }
}
