//! Unit tests for the composed world, carried over intact from the
//! pre-split `world.rs` so the refactor is verifiably behavior-neutral.

use super::*;
use crate::config::{ClusterConfig, PolicyConfig};
use crate::experiment::Experiment;
use workloads::WorkloadSpec;

fn quick() -> WorkloadSpec {
    crate::quick_workload()
}

#[test]
fn stable_cluster_completes_job() {
    let r = Experiment {
        cluster: ClusterConfig::small(0.0),
        policy: PolicyConfig::moon_hybrid(),
        workload: quick(),
        seed: 1,
    }
    .run();
    assert!(
        r.job_time.is_some(),
        "job must finish on a stable cluster: {r:?}"
    );
    let t = r.job_time.unwrap().as_secs_f64();
    assert!(t > 10.0 && t < 600.0, "implausible job time {t}");
    assert_eq!(r.job.completed_maps, 16);
    assert_eq!(r.job.completed_reduces, 4);
}

#[test]
fn stable_cluster_hadoop_policy_completes_job() {
    let r = Experiment {
        cluster: ClusterConfig::small(0.0),
        policy: PolicyConfig::hadoop(SimDuration::from_mins(10), 3),
        workload: quick(),
        seed: 2,
    }
    .run();
    assert!(r.job_time.is_some(), "{r:?}");
}

#[test]
fn runs_are_deterministic() {
    let run = |seed| {
        Experiment {
            cluster: ClusterConfig::small(0.3),
            policy: PolicyConfig::moon_hybrid(),
            workload: quick(),
            seed,
        }
        .run()
    };
    let a = run(7);
    let b = run(7);
    assert_eq!(a.job_secs().to_bits(), b.job_secs().to_bits());
    assert_eq!(a.events, b.events);
    assert_eq!(a.job.duplicated_tasks, b.job.duplicated_tasks);
    let c = run(8);
    assert!(a.events != c.events || a.job_secs() != c.job_secs());
}

#[test]
fn closed_stream_clients_keep_their_own_workloads() {
    use workloads::{ArrivalModel, DurationModel, JobStream};
    // Client 0 runs a slow app, client 1 a fast one. The fast client
    // commits (and resubmits) while the slow job is still running; its
    // successor must still be *its* app — cycling is by the client's
    // own position in the stream, not by global commit order.
    let mut slow = crate::quick_workload();
    slow.name = "app-slow".into();
    slow.map_cpu = DurationModel::Fixed(SimDuration::from_secs(120));
    let mut fast = crate::quick_workload();
    fast.name = "app-fast".into();
    fast.map_cpu = DurationModel::Fixed(SimDuration::from_secs(2));
    let r = Experiment {
        cluster: ClusterConfig::small(0.0),
        policy: PolicyConfig::moon_hybrid(),
        workload: quick(),
        seed: 3,
    }
    .run_with_limits(
        Some(JobStream {
            workloads: vec![slow, fast],
            ..JobStream::new(ArrivalModel::Closed {
                clients: 2,
                jobs_per_client: 2,
                think: DurationModel::Fixed(SimDuration::from_secs(5)),
            })
        }),
        None,
        crate::RunLimits::default(),
    );
    let rows = r.jobs.as_ref().expect("stream run");
    assert_eq!(rows.len(), 4, "{rows:?}");
    let names: Vec<&str> = rows.iter().map(|j| j.workload.as_str()).collect();
    // Initial burst: client 0 → slow, client 1 → fast. The first
    // successor submitted (slot 2) belongs to the fast client — under
    // global-index cycling it would wrongly flip to app-slow.
    assert_eq!(names[0], "app-slow");
    assert_eq!(names[1], "app-fast");
    assert_eq!(names[2], "app-fast", "fast client keeps its app: {names:?}");
    assert_eq!(names[3], "app-slow", "slow client keeps its app: {names:?}");
    assert!(rows.iter().all(|j| j.finished.is_some()), "{rows:?}");
}

#[test]
fn volatile_cluster_moon_completes_job() {
    let r = Experiment {
        cluster: ClusterConfig::small(0.3),
        policy: PolicyConfig::moon_hybrid(),
        workload: quick(),
        seed: 11,
    }
    .run();
    assert!(r.job_time.is_some(), "MOON should survive p=0.3: {r:?}");
}

mod failure_path_tests {
    use super::*;
    use availability::{AvailabilityTrace, Outage};

    /// All holders of volatile-only intermediate data go down mid-job:
    /// the MOON fetch rule must re-execute maps and the job must still
    /// finish (the paper's livelock scenario, solved).
    #[test]
    fn map_outputs_lost_triggers_reexecution_not_livelock() {
        let horizon = SimTime::from_secs(8 * 3600);
        // 10 volatile nodes: 0..5 vanish for a long stretch after maps
        // complete; intermediate is volatile-only with a single copy.
        let mut traces = Vec::new();
        for i in 0..12u32 {
            if i < 5 {
                traces.push(AvailabilityTrace::new(
                    vec![Outage {
                        start: SimTime::from_secs(25),
                        end: SimTime::from_secs(5000),
                    }],
                    horizon,
                ));
            } else {
                traces.push(AvailabilityTrace::always_available(horizon));
            }
        }
        let mut cluster = ClusterConfig::small(0.3);
        cluster.n_volatile = 10;
        cluster.n_dedicated = 2;
        cluster.trace_overrides = Some(traces);
        // Three map waves (~45 s) so the t=25 outage strikes while the
        // reduces still need outputs stored on the vanishing nodes.
        let workload = workloads::WorkloadSpec {
            n_maps: 48,
            input_bytes: 48 * 16 * (1 << 20),
            ..crate::quick_workload()
        };
        let r = Experiment {
            cluster,
            policy: PolicyConfig::vo_intermediate(1),
            workload,
            seed: 13,
        }
        .run();
        assert!(r.job_time.is_some(), "must not livelock: {r:?}");
        let t = r.job_time.unwrap().as_secs_f64();
        assert!(
            t < 4900.0,
            "job ({t}s) should finish via re-execution well before the \
             nodes return at t=5000s"
        );
        assert!(
            r.job.map_output_relaunches > 0,
            "lost outputs must be regenerated: {r:?}"
        );
    }

    /// With a dedicated copy (HA-{1,1}), the same outage needs no map
    /// re-execution at all.
    #[test]
    fn dedicated_intermediate_copy_prevents_reexecution() {
        let horizon = SimTime::from_secs(8 * 3600);
        let mut traces = Vec::new();
        for i in 0..12u32 {
            if i < 5 {
                traces.push(AvailabilityTrace::new(
                    vec![Outage {
                        start: SimTime::from_secs(25),
                        end: SimTime::from_secs(5000),
                    }],
                    horizon,
                ));
            } else {
                traces.push(AvailabilityTrace::always_available(horizon));
            }
        }
        let mut cluster = ClusterConfig::small(0.3);
        cluster.n_volatile = 10;
        cluster.n_dedicated = 2;
        cluster.trace_overrides = Some(traces);
        let workload = workloads::WorkloadSpec {
            n_maps: 48,
            input_bytes: 48 * 16 * (1 << 20),
            ..crate::quick_workload()
        };
        let r = Experiment {
            cluster,
            policy: PolicyConfig::ha_intermediate(1),
            workload,
            seed: 13,
        }
        .run();
        assert!(r.job_time.is_some());
        assert_eq!(
            r.job.map_output_relaunches, 0,
            "dedicated copies keep outputs reachable: {r:?}"
        );
    }

    /// A short blip (shorter than the suspension interval) must not cost
    /// MOON any task kills at all.
    #[test]
    fn short_blip_is_absorbed_without_kills() {
        let horizon = SimTime::from_secs(8 * 3600);
        let mut traces = Vec::new();
        for i in 0..12u32 {
            if i < 6 {
                traces.push(AvailabilityTrace::new(
                    vec![Outage {
                        start: SimTime::from_secs(40),
                        end: SimTime::from_secs(70),
                    }],
                    horizon,
                ));
            } else {
                traces.push(AvailabilityTrace::always_available(horizon));
            }
        }
        let mut cluster = ClusterConfig::small(0.0);
        cluster.n_volatile = 10;
        cluster.n_dedicated = 2;
        cluster.trace_overrides = Some(traces);
        let r = Experiment {
            cluster,
            policy: PolicyConfig::moon_hybrid(),
            workload: crate::quick_workload(),
            seed: 2,
        }
        .run();
        assert!(r.job_time.is_some());
        // Homestretch copies are killed benignly when a sibling finishes;
        // what a 30-second blip must NOT cause is tracker-expiry kills.
        assert_eq!(r.job.killed_by_tracker_expiry, 0, "{r:?}");
    }
}

/// Second job of [`idle_gap_sim`] arrives this long after the first:
/// longer than every hibernate, suspend and expiry deadline of MOON.
const IDLE_GAP: SimDuration = SimDuration::from_mins(50);

/// A stable 64 + 2 node cluster serving two quick jobs [`IDLE_GAP`]
/// apart, with optional per-node trace overrides.
fn idle_gap_sim(traces: Option<Vec<AvailabilityTrace>>) -> simkit::Simulation<World> {
    let mut cluster = ClusterConfig {
        n_volatile: 64,
        n_dedicated: 2,
        unavailability: 0.0,
        ..ClusterConfig::default()
    };
    cluster.trace_overrides = traces;
    let stream = workloads::JobStream::new(ArrivalModel::Batch(vec![SimDuration::ZERO, IDLE_GAP]));
    let world = World::with_stream(cluster, PolicyConfig::moon_hybrid(), quick(), Some(stream));
    let mut sim = simkit::Simulation::new(world, 3);
    World::init(&mut sim);
    sim
}

/// Node `i`'s last beat on its initial 3 s grid (first beat at
/// 50 ms·i + 1 µs) strictly before `t`.
fn grid_beat_before(i: u32, t: SimTime) -> SimTime {
    let first = 50_000 * i as u64 + 1;
    let k = (t.as_micros() - 1 - first) / 3_000_000;
    SimTime::from_micros(first + k * 3_000_000)
}

/// A 10 s sweep inside an idle gap longer than every liveness deadline
/// must see each parked node's last grid beat, so nothing is suspended,
/// hibernated or expired, and the job after the gap finds every stamp
/// on the grid.
#[test]
fn parked_beats_keep_idle_nodes_alive() {
    let mut sim = idle_gap_sim(None);
    let submit = SimTime::from_secs(1) + IDLE_GAP;
    let mut parked_seen = 0;
    let mut sweep = SimTime::from_secs(300);
    while sweep < submit {
        sim.run_until(sweep);
        let w = sim.model();
        assert!(w.jobs[0].finished_at.is_some(), "first job still running");
        for i in 0..w.nodes.len() as u32 {
            let n = NodeId(i);
            assert_eq!(
                w.nn.node_liveness(n),
                dfs::NodeLiveness::Active,
                "{n} at {sweep}"
            );
            assert_eq!(
                w.jt.tracker_state(n),
                mapred::TrackerState::Alive,
                "{n} at {sweep}"
            );
            let beat = grid_beat_before(i, sweep);
            assert_eq!(
                w.nn.last_heartbeat(n),
                beat,
                "{n} namenode stamp at {sweep}"
            );
            assert_eq!(w.jt.last_heartbeat(n), beat, "{n} tracker stamp at {sweep}");
            if w.nodes[i as usize].heartbeat_ev == EventId::NONE {
                parked_seen += 1;
            }
        }
        sweep += SimDuration::from_secs(10);
    }
    assert!(parked_seen > 0, "no beat was parked during the gap");
    sim.run_until(submit);
    let w = sim.model();
    assert!(w.jobs[1].job.is_some());
    for (i, rt) in w.nodes.iter().enumerate() {
        let n = NodeId(i as u32);
        assert_ne!(
            rt.heartbeat_ev,
            EventId::NONE,
            "{n} still parked after the submit"
        );
        let beat = grid_beat_before(n.0, submit);
        assert_eq!(w.nn.last_heartbeat(n), beat, "{n} namenode stamp at submit");
        assert_eq!(w.jt.last_heartbeat(n), beat, "{n} tracker stamp at submit");
    }
}

/// A node that goes down while its beat is parked falls silent from
/// its last grid beat strictly before the NodeDown — the trace event
/// leaves the queue before a beat due at the same microsecond — and is
/// hibernated, suspended and expired at exactly the sweeps that beat
/// implies.
#[test]
fn node_down_while_parked_is_silent_from_its_last_grid_beat() {
    const N: u32 = 5;
    let horizon = ClusterConfig::default().horizon;
    // On node 5's grid: the beat due at the NodeDown instant never fires.
    let down = SimTime::from_micros(50_000 * N as u64 + 1 + 200 * 3_000_000);
    let mut traces = vec![AvailabilityTrace::always_available(horizon); 66];
    traces[N as usize] = AvailabilityTrace::new(
        vec![availability::Outage {
            start: down,
            end: down + SimDuration::from_mins(40),
        }],
        horizon,
    );
    let mut sim = idle_gap_sim(Some(traces));
    let n = NodeId(N);
    let last = grid_beat_before(N, down);
    sim.run_until(down);
    let w = sim.model();
    assert!(w.jobs[0].finished_at.is_some(), "first job still running");
    assert_eq!(w.nn.last_heartbeat(n), last);
    assert_eq!(w.jt.last_heartbeat(n), last);
    let mut sweep = SimTime::from_secs(down.as_micros() / 10_000_000 * 10 + 10);
    let end = last + SimDuration::from_mins(32);
    while sweep < end {
        sim.run_until(sweep);
        let w = sim.model();
        let silent = sweep.since(last);
        let (liveness, tracker) = if silent >= SimDuration::from_mins(30) {
            (dfs::NodeLiveness::Dead, mapred::TrackerState::Dead)
        } else if silent >= SimDuration::from_mins(1) {
            (
                dfs::NodeLiveness::Hibernated,
                mapred::TrackerState::Suspended,
            )
        } else {
            (dfs::NodeLiveness::Active, mapred::TrackerState::Alive)
        };
        assert_eq!(w.nn.node_liveness(n), liveness, "namenode at {sweep}");
        assert_eq!(w.jt.tracker_state(n), tracker, "tracker at {sweep}");
        sweep += SimDuration::from_secs(10);
    }
}

/// The end-of-run audit, run at every 10 s boundary of volatile runs:
/// its cross-layer check (runtime attempt table = the attempts the
/// JobTracker places) and the JobTracker's index recounts hold while
/// attempts are live and trackers are suspended, expired and revived,
/// not only once a completed run has drained.
#[test]
fn audit_holds_at_every_mid_run_boundary() {
    use workloads::DurationModel;
    let policies = [
        PolicyConfig::hadoop(SimDuration::from_mins(1), 3),
        PolicyConfig::moon(),
        PolicyConfig::moon_hybrid(),
    ];
    for policy in policies {
        let moon = matches!(policy.scheduler, mapred::SchedulerPolicy::Moon(_));
        for seed in [3, 5] {
            let mut workload = quick();
            workload.n_maps = 48;
            workload.map_cpu = DurationModel::around(SimDuration::from_secs(120));
            let cluster = ClusterConfig::small(0.5);
            let horizon = cluster.horizon;
            let world = World::new(cluster, policy.clone(), workload);
            let mut sim = simkit::Simulation::new(world, seed);
            World::init(&mut sim);
            let (mut live, mut off_alive) = (0, 0);
            let mut t = SimTime::ZERO;
            let mut outcome = simkit::RunOutcome::HorizonReached;
            while outcome == simkit::RunOutcome::HorizonReached && t < horizon {
                t += SimDuration::from_secs(10);
                outcome = sim.run_until(t);
                let w = sim.model();
                let run = format!("{} seed {seed} at {t}", policy.label);
                assert_eq!(w.debug_final_audit(), Vec::<String>::new(), "{run}");
                live += usize::from(!w.attempts.is_empty());
                off_alive += usize::from(w.attempts.keys().any(|&id| {
                    w.jt.tracker_state(w.jt.attempt(id).node) != mapred::TrackerState::Alive
                }));
            }
            assert!(
                live > 0,
                "{} seed {seed}: no boundary had live attempts",
                policy.label
            );
            if moon {
                assert!(
                    off_alive > 0,
                    "{} seed {seed}: no boundary had attempts on a suspended tracker",
                    policy.label
                );
            }
        }
    }
}

/// `NetPoll` moves only when the handler changed the flow network: a
/// `ReplicationScan` that issues no command leaves the queued poll's
/// `EventId` as it was, one that starts a pipeline moves it. Scans run
/// at whole multiples of 3 s, off the heartbeat grid; instants where
/// anything else also fires are skipped.
#[test]
fn replication_scan_moves_net_poll_only_when_it_starts_a_pipeline() {
    let mut workload = quick();
    workload.n_maps = 48;
    workload.map_cpu = workloads::DurationModel::around(SimDuration::from_secs(120));
    let policy = PolicyConfig::hadoop(SimDuration::from_mins(1), 3);
    let world = World::new(ClusterConfig::small(0.5), policy, workload);
    let mut sim = simkit::Simulation::new(world, 5);
    World::init(&mut sim);
    let (mut idle, mut started) = (0, 0);
    for k in 1..1_000 {
        let at = SimTime::from_secs(3 * k);
        sim.run_until(SimTime::from_micros(at.as_micros() - 1));
        let w = sim.model();
        let before = w.net_poll_ev.expect("set after every event");
        let open: BTreeSet<FlowId> = w.flows.keys().copied().collect();
        let events = sim.events_handled();
        sim.run_until(at);
        if sim.events_handled() != events + 1 {
            continue;
        }
        let w = sim.model();
        let after = w.net_poll_ev.expect("set after every event");
        let new: Vec<FlowId> = w
            .flows
            .keys()
            .copied()
            .filter(|f| !open.contains(f))
            .collect();
        for f in &new {
            assert!(matches!(w.flows[f], FlowPurpose::Replication { .. }));
        }
        // A running pipeline completes some time, so a poll is queued.
        if new.iter().any(|&f| !w.net.is_stalled(f)) {
            assert_ne!(after, before, "scan at {at} started a pipeline");
            started += 1;
        } else if new.is_empty() && before != EventId::NONE {
            assert_eq!(after, before, "scan at {at} issued nothing");
            idle += 1;
        }
    }
    assert!(idle > 0 && started > 0, "idle {idle}, started {started}");
}
