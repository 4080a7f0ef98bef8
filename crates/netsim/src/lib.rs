//! # netsim — flow-level bandwidth simulation for NICs and disks
//!
//! Models data transfers in the simulated MOON cluster at *flow level*:
//! instead of packets, each transfer is a fluid flow that receives a
//! max-min fair share of every resource on its path (source disk, source
//! NIC, destination NIC, destination disk). This is the standard
//! abstraction for datacenter-scale simulation — accurate enough to
//! reproduce contention effects (e.g. dedicated-node saturation in the
//! MOON paper's Figure 7) at a tiny fraction of packet-level cost.
//!
//! Node outages map to setting the node's resource capacities to zero,
//! which stalls (but does not destroy) in-flight flows — exactly the
//! paper's suspend/resume emulation semantics. Stall transitions are
//! reported to the host so it can model fetch timeouts.
//!
//! Re-sharing is *batched* and *incremental*. A mutation (start, cancel,
//! capacity change, completion) only seeds a dirty set; the next read
//! ([`FlowNet::next_completion`], [`FlowNet::rate`],
//! [`FlowNet::resource_throughput`]) or time advance then re-solves the
//! connected components of the sharing graph (running flows and live
//! resources; stalled flows are outside it) that the batch touched,
//! through the reusable scratch-buffer [`Solver`] — zero steady-state
//! allocation, bit-identical to a from-scratch [`maxmin_rates`] solve
//! except when bottleneck shares in different components lie within the
//! solver's 1e-12 freeze tolerance without being equal (see `DESIGN.md`
//! §5). Stalls and resumes need no solve and are reported by the
//! mutation that causes them. [`FlowNet::stats`] exposes the re-share
//! work counters the benchmark reports.
//!
//! ## Example
//!
//! ```
//! use netsim::FlowNet;
//! use simkit::SimTime;
//!
//! let mut net = FlowNet::new();
//! let nic_a = net.add_resource(100.0); // 100 B/s
//! let nic_b = net.add_resource(100.0);
//! let (flow, _) = net.start_flow(SimTime::ZERO, &[nic_a, nic_b], 1_000.0);
//! // The read re-shares once for everything changed since the last one.
//! assert_eq!(net.rate(flow), Some(100.0));
//! let eta = net.next_completion().unwrap();
//! assert_eq!(eta.as_secs_f64(), 10.0);
//! assert_eq!(net.poll(eta), vec![flow]);
//! ```

#![warn(missing_docs)]

mod maxmin;
mod net;

pub use maxmin::{maxmin_rates, Solver};
pub use net::{Changes, FlowId, FlowNet, NetStats, ResourceId};
