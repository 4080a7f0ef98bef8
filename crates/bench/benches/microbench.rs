//! Component microbenchmarks: the hot paths of the simulator substrate.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use netsim::{FlowNet, ResourceId};
use rand::SeedableRng;
use simkit::{EventQueue, PausableWork, SimDuration, SimTime};

fn bench_event_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue");
    for n in [1_000u64, 10_000] {
        g.bench_with_input(BenchmarkId::new("push_pop", n), &n, |b, &n| {
            b.iter(|| {
                let mut q = EventQueue::new();
                for i in 0..n {
                    q.push(SimTime::from_micros((i * 7919) % 1_000_000), i);
                }
                let mut sum = 0u64;
                while let Some((_, _, v)) = q.pop() {
                    sum = sum.wrapping_add(v);
                }
                black_box(sum)
            })
        });
        // The stall-timeout pattern: most scheduled events are cancelled
        // before firing, stressing tombstone skimming and the dense
        // state window.
        g.bench_with_input(BenchmarkId::new("push_cancel_pop", n), &n, |b, &n| {
            b.iter(|| {
                let mut q = EventQueue::new();
                let mut ids = Vec::with_capacity(n as usize);
                for i in 0..n {
                    ids.push(q.push(SimTime::from_micros((i * 7919) % 1_000_000), i));
                }
                for (k, id) in ids.iter().enumerate() {
                    if k % 4 != 0 {
                        q.cancel(*id);
                    }
                }
                let mut sum = 0u64;
                while let Some((_, _, v)) = q.pop() {
                    sum = sum.wrapping_add(v);
                }
                black_box(sum)
            })
        });
    }
    g.finish();
}

fn bench_maxmin(c: &mut Criterion) {
    let mut g = c.benchmark_group("maxmin");
    for (n_res, n_flows) in [(50usize, 100usize), (200, 400)] {
        let caps: Vec<f64> = (0..n_res).map(|i| 50.0 + (i % 7) as f64 * 10.0).collect();
        let flows: Vec<Vec<usize>> = (0..n_flows)
            .map(|f| vec![f % n_res, (f * 13 + 1) % n_res, (f * 31 + 2) % n_res])
            .collect();
        g.bench_with_input(
            BenchmarkId::new("progressive_filling", format!("{n_res}r_{n_flows}f")),
            &(caps, flows),
            |b, (caps, flows)| b.iter(|| black_box(netsim::maxmin_rates(caps, flows))),
        );
    }
    g.finish();
}

/// A MOON-shaped cluster: 3 resources per node (disk, NIC up, NIC down).
fn cluster_net(nodes: usize, cap: f64) -> (FlowNet, Vec<ResourceId>) {
    let mut net = FlowNet::new();
    let res: Vec<ResourceId> = (0..nodes * 3).map(|_| net.add_resource(cap)).collect();
    (net, res)
}

fn bench_flownet(c: &mut Criterion) {
    let mut g = c.benchmark_group("flownet");
    // Steady-state reshare cost: F flows across a 66-node cluster, then
    // capacity toggles (the node suspend/resume hot path). Components
    // stay small, so cost tracks the dirty slice, not the fleet.
    for n_flows in [64usize, 256] {
        g.bench_with_input(
            BenchmarkId::new("reshare_capacity_toggle", n_flows),
            &n_flows,
            |b, &n_flows| {
                let (mut net, res) = cluster_net(66, 100.0);
                let t = SimTime::ZERO;
                for f in 0..n_flows {
                    let src = (f * 7) % 66;
                    let dst = (f * 13 + 1) % 66;
                    let path = [
                        res[src * 3],
                        res[src * 3 + 1],
                        res[dst * 3 + 2],
                        res[dst * 3],
                    ];
                    net.start_flow(t, &path, 1e12);
                }
                let mut k = 0usize;
                b.iter(|| {
                    let node = (k * 31 + 7) % 66;
                    k += 1;
                    let down = net.set_capacity(t, res[node * 3], 0.0);
                    let up = net.set_capacity(t, res[node * 3], 100.0);
                    black_box((down, up))
                })
            },
        );
    }
    // Full lifecycle churn: start, progress, complete, with the event
    // queue-style next_completion scan in the loop.
    g.bench_function("start_poll_cancel_churn", |b| {
        b.iter(|| {
            let (mut net, res) = cluster_net(16, 100.0);
            let mut now = SimTime::ZERO;
            let mut open = Vec::new();
            for f in 0..200usize {
                let src = (f * 5) % 16;
                let dst = (f * 11 + 1) % 16;
                let path = [
                    res[src * 3],
                    res[src * 3 + 1],
                    res[dst * 3 + 2],
                    res[dst * 3],
                ];
                let (id, _) = net.start_flow(now, &path, 1_000.0 + f as f64);
                open.push(id);
                if f % 3 == 0 {
                    if let Some(eta) = net.next_completion() {
                        now = eta.max(now);
                        let (done, _) = net.poll(now);
                        open.retain(|o| !done.contains(o));
                    }
                }
                if f % 7 == 0 && !open.is_empty() {
                    let id = open.swap_remove(f % open.len());
                    net.cancel_flow(now, id);
                }
            }
            black_box(net.n_flows())
        })
    });
    g.finish();
}

fn bench_trace_gen(c: &mut Criterion) {
    let cfg = availability::TraceGenConfig::paper(0.4);
    c.bench_function("trace_gen/poisson_8h", |b| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        b.iter(|| {
            black_box(availability::TraceGenerator::poisson_insertion(
                &cfg, &mut rng,
            ))
        })
    });
}

fn bench_pausable_work(c: &mut Criterion) {
    c.bench_function("pausable_work/1000_cycles", |b| {
        b.iter(|| {
            let mut w = PausableWork::new(SimDuration::from_secs(100_000));
            for k in 0..1000u64 {
                w.resume(SimTime::from_secs(2 * k));
                w.pause(SimTime::from_secs(2 * k + 1));
            }
            black_box(w.done(SimTime::from_secs(3000)))
        })
    });
}

fn bench_namenode(c: &mut Criterion) {
    use dfs::{FileKind, NameNode, NameNodeConfig, NodeClass, NodeId, ReplicationFactor};
    c.bench_function("namenode/heartbeat_plus_scan_66_nodes", |b| {
        let mut nn = NameNode::new(NameNodeConfig::default());
        for i in 0..66 {
            let class = if i >= 60 {
                NodeClass::Dedicated
            } else {
                NodeClass::Volatile
            };
            nn.register_node(SimTime::ZERO, NodeId(i), class);
        }
        let f = nn.create_file(FileKind::Reliable, ReplicationFactor::new(1, 3));
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for _ in 0..384 {
            let blk = nn.allocate_block(f, 64 << 20);
            let plan = nn.choose_write_targets(SimTime::ZERO, blk, None, &mut rng);
            for t in plan.targets() {
                nn.commit_replica(blk, t);
            }
        }
        let mut t = 1u64;
        b.iter(|| {
            for i in 0..66 {
                nn.heartbeat(SimTime::from_secs(t), NodeId(i), 1e6);
            }
            let cmds = nn.replication_scan(SimTime::from_secs(t), 8, &mut rng);
            t += 3;
            black_box(cmds)
        })
    });
}

/// Fleet-scale hot path: a replication pick whose cost must track the
/// active candidate set as the node count grows from the paper's 66 to
/// 1k/10k fleets.
fn bench_scale(c: &mut Criterion) {
    use dfs::{FileKind, NameNode, NameNodeConfig, NodeClass, NodeId, ReplicationFactor};

    let mut g = c.benchmark_group("scale");
    for &n in &[66u32, 1_066, 10_066] {
        let n_volatile = n - 6;
        // Replication-scan pick on a big live fleet: queue one block
        // (an opportunistic output escalated to reliable) and place its
        // copies. Cost tracks the active candidate set and reuses the
        // scan's scratch exclude set — no per-block allocations.
        g.bench_with_input(BenchmarkId::new("replication_scan_pick", n), &n, |b, &n| {
            let mut nn = NameNode::new(NameNodeConfig::default());
            for i in 0..n {
                let class = if i >= n_volatile {
                    NodeClass::Dedicated
                } else {
                    NodeClass::Volatile
                };
                nn.register_node(SimTime::ZERO, NodeId(i), class);
            }
            for i in 0..n {
                nn.heartbeat(SimTime::from_secs(1), NodeId(i), 1e6);
            }
            let mut rng = rand::rngs::StdRng::seed_from_u64(11);
            b.iter(|| {
                let f = nn.create_file(FileKind::Opportunistic, ReplicationFactor::new(1, 3));
                let blk = nn.allocate_block(f, 64 << 20);
                nn.commit_replica(blk, NodeId(0));
                nn.convert_to_reliable(f);
                black_box(nn.replication_scan(SimTime::from_secs(1), 8, &mut rng))
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_maxmin,
    bench_flownet,
    bench_trace_gen,
    bench_pausable_work,
    bench_namenode,
    bench_scale
);
criterion_main!(benches);
