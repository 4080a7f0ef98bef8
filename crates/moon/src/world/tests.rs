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

/// A node's last beat as the sweeps at `t` see it: a parked node's
/// stamp plus the beats its grid implies strictly before `t`.
fn effective_beats(w: &World, i: u32, t: SimTime) -> (SimTime, SimTime) {
    let n = NodeId(i);
    let stored = (w.nn.last_heartbeat(n), w.jt.last_heartbeat(n));
    match w.is_parked(i as usize).then(|| w.parked_beat_before(i, t)) {
        Some(Some(beat)) => (beat, beat),
        _ => stored,
    }
}

/// A 10 s sweep, while the first job runs and inside the idle gap
/// after it (longer than every liveness deadline), must find each
/// node's last grid beat, stamped or implied by its parked grid, so
/// nothing is suspended, hibernated or expired; the sweeps stamp no
/// parked node, so most stamps fall far behind. The job after the gap
/// wakes only the parked nodes due first, stamped at their last grid
/// beat, and the sweep after it still finds every beat on the grid.
#[test]
fn parked_beats_keep_idle_nodes_alive() {
    let mut sim = idle_gap_sim(None);
    let submit = SimTime::from_secs(1) + IDLE_GAP;
    // Parked beats seen while the first job runs, and in the gap, and
    // how many of them carried a stamp older than a minute.
    let mut parked_seen = [0, 0];
    let mut stale = 0;
    let mut sweep = SimTime::from_secs(10);
    while sweep < submit {
        sim.run_until(sweep);
        let w = sim.model();
        let gap = w.jobs[0].finished_at.is_some();
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
            assert_eq!(effective_beats(w, i, sweep), (beat, beat), "{n} at {sweep}");
            if w.is_parked(i as usize) {
                parked_seen[usize::from(gap)] += 1;
                stale +=
                    usize::from(sweep.since(w.nn.last_heartbeat(n)) > SimDuration::from_mins(1));
            }
        }
        sweep += SimDuration::from_secs(10);
    }
    assert!(
        parked_seen.iter().all(|&n| n > 0),
        "[while the job ran, in the gap]: {parked_seen:?}"
    );
    assert!(stale > 0, "no parked stamp fell behind a sweep deadline");
    // The submit wakes the parked volatile nodes due first after it,
    // stamped at their last grid beat; the rest wait their turn.
    sim.run_until(submit);
    let w = sim.model();
    assert!(w.jobs[1].job.is_some());
    let (at, queued) = w.woken[0];
    assert!(queued > 0 && at > submit && at <= submit + HEARTBEAT_INTERVAL);
    for (i, rt) in (0..).zip(&w.nodes).filter(|(_, rt)| rt.woken) {
        let n = NodeId(i);
        assert_eq!(rt.next_beat, at, "{n} woken off its group's instant");
        let beat = grid_beat_before(i, submit);
        assert_eq!(w.nn.last_heartbeat(n), beat, "{n} namenode stamp at submit");
        assert_eq!(w.jt.last_heartbeat(n), beat, "{n} tracker stamp at submit");
    }
    assert!(w.nodes.iter().any(|rt| rt.heartbeat_ev == EventId::NONE));
    // The next sweep still finds every beat on the grid.
    let sweep = SimTime::from_secs(submit.as_micros() / 10_000_000 * 10 + 10);
    sim.run_until(sweep);
    let w = sim.model();
    for i in 0..w.nodes.len() as u32 {
        let beat = grid_beat_before(i, sweep);
        assert_eq!(
            effective_beats(w, i, sweep),
            (beat, beat),
            "n{i} at {sweep}"
        );
    }
}

/// A queued beat at a woken instant that ranks after the woken one is
/// queued again behind it. Node 61 of [`idle_gap_sim`] comes back from
/// an outage 0.5 s before parked node 20's beat at 3001.000001 s, so
/// its first beat, with a fresh `hb_key`, is queued at that instant
/// before the second job's submit wakes node 20 there. Had node 20
/// never been parked, its beat would go first, as it does here: node
/// 20 takes map 0, and node 61 then maps 1 and 2.
#[test]
fn a_woken_beat_leaves_the_queue_before_later_ranked_beats_at_its_instant() {
    let horizon = ClusterConfig::default().horizon;
    let at = SimTime::from_micros(3_001_000_001);
    let mut traces = vec![AvailabilityTrace::always_available(horizon); 66];
    traces[61] = AvailabilityTrace::new(
        vec![availability::Outage {
            start: SimTime::from_secs(2990),
            end: SimTime::from_micros(at.as_micros() - 500_000),
        }],
        horizon,
    );
    let mut sim = idle_gap_sim(Some(traces));
    sim.run_until(SimTime::from_micros(at.as_micros() - 1));
    let w = sim.model();
    assert!(w.nodes[20].woken && w.nodes[61].hb_key > w.nodes[20].hb_key);
    assert_eq!(w.nodes[61].next_beat, at);
    sim.run_until(at);
    let w = sim.model();
    let maps = |i: u32| -> Vec<u32> {
        let mut v: Vec<u32> = w.jt.attempts_on(NodeId(i)).map(|a| a.task.index).collect();
        v.sort_unstable();
        v
    };
    assert_eq!((maps(20), maps(61)), (vec![0, 9], vec![1, 2]));
}

/// DESIGN.md §7's residual tie (1): the second job of [`idle_gap_sim`]
/// finds every node parked, and its 16 maps outlast the beats of one
/// instant, so parked volatile nodes wake one instant at a time — node
/// 20 at 3001.000001 s, then node 21 at 3001.050001 s, queued only once
/// node 20's beat has run. An event due at node 21's microsecond and
/// queued between the submit and that wake (a `NodeDown` here, so that
/// the order shows in its stamp; a `NetPoll` or `ComputeDone` whose
/// time lands there ties the same way) leaves the queue before node
/// 21's beat. Woken at the submit, the beat would have gone first.
/// The cancelled woken beat leaves the group bookkeeping consistent,
/// and the wake moves on to node 22.
#[test]
fn an_event_queued_before_a_lazy_wake_precedes_the_woken_beat() {
    let mut sim = idle_gap_sim(None);
    let submit = SimTime::from_secs(1) + IDLE_GAP;
    let first = SimTime::from_micros(submit.as_micros() + 1);
    let second = SimTime::from_micros(first.as_micros() + 50_000);
    sim.run_until(submit);
    let w = sim.model();
    assert_eq!(w.woken[0], (first, 1));
    assert!(w.nodes[20].woken);
    assert!(w.is_parked(21), "node 21 woken with node 20");
    sim.schedule_at(second, Ev::NodeDown(NodeId(21)));
    sim.run_until(first);
    let w = sim.model();
    assert_eq!(w.jt.attempts_on(NodeId(20)).count(), 2);
    assert_eq!(w.woken[0], (second, 1));
    assert!(w.nodes[21].woken);
    sim.run_until(second);
    let w = sim.model();
    let n = NodeId(21);
    assert!(!w.nodes[21].up);
    let beat = grid_beat_before(21, second);
    assert_eq!(w.nn.last_heartbeat(n), beat, "{n} beat at {second}");
    assert_eq!(w.jt.last_heartbeat(n), beat, "{n} beat at {second}");
    assert_eq!(w.jt.attempts_on(n).count(), 0);
    let third = SimTime::from_micros(second.as_micros() + 50_000);
    assert_eq!(w.woken[0], (third, 1));
    assert!(w.nodes[22].woken);
    assert_eq!(w.audit_job_counters(), Vec::<String>::new());
}

/// A node that goes down while its beat is parked under a running job
/// falls silent from its last grid beat strictly before the NodeDown —
/// the trace event leaves the queue before a beat due at the same
/// microsecond — and is hibernated, suspended and expired at exactly
/// the sweeps that beat implies.
#[test]
fn node_down_while_parked_is_silent_from_its_last_grid_beat() {
    const N: u32 = 5;
    let horizon = ClusterConfig::default().horizon;
    // On node 5's grid: the beat due at the NodeDown instant never fires.
    let down = SimTime::from_micros(50_000 * N as u64 + 1 + 5 * 3_000_000);
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
    sim.run_until(SimTime::from_micros(down.as_micros() - 1));
    let w = sim.model();
    assert!(w.jobs[0].finished_at.is_none(), "first job already done");
    assert_eq!(w.jt.active_job_count(), 1);
    assert!(w.is_parked(N as usize), "{n} beats at {down}");
    sim.run_until(down);
    let w = sim.model();
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

/// `maps` maps of `map_cpu` each and one reduce under Hadoop (1 min
/// expiry) on 8 stable volatile nodes with `map_slots` map slots, with
/// optional per-node trace overrides. Nodes beat on a 50 ms stagger, so
/// the first maps go to nodes 0, 1, ... on their first beats after the
/// 1 s submit.
fn hadoop_sim(
    maps: u32,
    map_slots: u32,
    map_cpu: SimDuration,
    traces: Option<Vec<AvailabilityTrace>>,
) -> simkit::Simulation<World> {
    let cluster = ClusterConfig {
        n_volatile: 8,
        n_dedicated: 0,
        map_slots,
        unavailability: 0.0,
        trace_overrides: traces,
        ..ClusterConfig::default()
    };
    let workload = WorkloadSpec {
        input_bytes: 64 * workloads::MB * u64::from(maps),
        n_maps: maps,
        reduces: workloads::ReduceCount::Fixed(1),
        map_cpu: workloads::DurationModel::Fixed(map_cpu),
        ..quick()
    };
    let policy = PolicyConfig::hadoop(SimDuration::from_mins(1), 3);
    let mut sim = simkit::Simulation::new(World::new(cluster, policy, workload), 3);
    World::init(&mut sim);
    sim
}

/// One 150 s map: while it runs, every other node is idle and parks.
fn single_map_sim(traces: Option<Vec<AvailabilityTrace>>) -> simkit::Simulation<World> {
    hadoop_sim(1, 2, SimDuration::from_secs(150), traces)
}

/// Node `n` of 8 is down from `at` for 40 minutes.
fn outage(n: usize, at: SimTime) -> Vec<AvailabilityTrace> {
    let horizon = ClusterConfig::default().horizon;
    let mut traces = vec![AvailabilityTrace::always_available(horizon); 8];
    traces[n] = AvailabilityTrace::new(
        vec![availability::Outage {
            start: at,
            end: at + SimDuration::from_mins(40),
        }],
        horizon,
    );
    traces
}

/// The map's node goes down at 20 s; the 80 s sweep expires its
/// tracker and re-opens the map. Every other node is parked then, and
/// the first one due after the sweep — node 1 at 81.05 s — wakes and is
/// granted the retry on that beat.
#[test]
fn node_down_releases_a_task_to_the_first_parked_beat_after_the_sweep() {
    let map = mapred::TaskId {
        job: JobId(0),
        kind: mapred::TaskKind::Map,
        index: 0,
    };
    let first = mapred::AttemptId {
        task: map,
        attempt: 0,
    };
    let mut sim = single_map_sim(Some(outage(0, SimTime::from_secs(20))));
    let sweep = SimTime::from_secs(80);
    sim.run_until(SimTime::from_micros(sweep.as_micros() - 1));
    let w = sim.model();
    let host = w.jt.attempt(first);
    assert_eq!(
        (host.node, host.state),
        (NodeId(0), mapred::AttemptState::Running)
    );
    for i in 1..8 {
        assert!(w.is_parked(i), "node {i} beats before the sweep");
    }
    sim.run_until(sweep);
    let w = sim.model();
    assert_eq!(w.jt.attempt(first).state, mapred::AttemptState::Killed);
    assert!(w.jt.task(map).needs_launch());
    let granted = SimTime::from_micros(81_050_001);
    sim.run_until(SimTime::from_micros(granted.as_micros() - 1));
    assert_eq!(sim.model().jt.task(map).attempts.len(), 1);
    sim.run_until(granted);
    let retry = &sim.model().jt.task(map).attempts[1];
    assert_eq!(
        (retry.node, retry.started, retry.reason),
        (NodeId(1), granted, mapred::LaunchReason::Retry)
    );
}

/// Two 40 s maps start on nodes 0 and 1 at 3.000001 and 3.050001 s
/// (one map slot each). Node 1 goes down at 23 s, its map's progress
/// stuck near half; node 0's map completes and node 0 takes the
/// reduce. At 63.050001 s the stuck map has run 60 s and becomes a
/// straggler: no task write marks that instant and no event falls
/// between it and parked node 2's beat at 63.100001 s, so only the
/// wake timer lets node 2 take the speculative copy there.
#[test]
fn a_straggler_instant_wakes_parked_beats_with_no_event_at_it() {
    let stuck = mapred::TaskId {
        job: JobId(0),
        kind: mapred::TaskKind::Map,
        index: 1,
    };
    let traces = outage(1, SimTime::from_secs(23));
    let mut sim = hadoop_sim(2, 1, SimDuration::from_secs(40), Some(traces));
    let straggler = SimTime::from_micros(63_050_001);
    sim.run_until(SimTime::from_micros(straggler.as_micros() - 2));
    let w = sim.model();
    let original = &w.jt.task(stuck).attempts[0];
    assert_eq!(
        (original.node, original.started),
        (NodeId(1), SimTime::from_micros(3_050_001))
    );
    assert_eq!(original.state, mapred::AttemptState::Running);
    assert!(w.is_parked(2), "node 2 beats before the straggler instant");
    let copy_at = SimTime::from_micros(63_100_001);
    sim.run_until(copy_at);
    let copy = sim.model().jt.task(stuck).attempts.get(1).cloned();
    assert_eq!(
        copy.map(|a| (a.node, a.started, a.reason)),
        Some((NodeId(2), copy_at, mapred::LaunchReason::Speculative))
    );
}

/// A straggler instant learned less than one period before it: the
/// wake must still precede every beat due then. Under MOON-Hybrid with
/// the homestretch off, 5 + 1 nodes with one map slot each: maps B and
/// C start on nodes 0 and 1 at 3.000001 and 3.050001 s. Parked volatile
/// node 2 and the throttled dedicated node 5 (which never parks) are
/// moved onto node 0's grid by short outages, node 2 first, so at
/// 63.000001 s node 2 ranks first. Node 0 goes down at 22 s, B's
/// progress stuck at its 21 s report; C's report at 60.05 s lifts the
/// average enough to make B a straggler at 63.000001 s, its 60 s mark.
/// Without parking, node 2 beats first then and takes the copy; a wake
/// at that instant would come after node 5's beat, queued at 60 s.
#[test]
fn a_straggler_instant_learned_late_is_woken_before_its_beats() {
    let horizon = ClusterConfig::default().horizon;
    let down = |from: f64, to_us: u64| {
        AvailabilityTrace::new(
            vec![availability::Outage {
                start: SimTime::from_secs_f64(from),
                end: SimTime::from_micros(to_us),
            }],
            horizon,
        )
    };
    let mut traces = vec![AvailabilityTrace::always_available(horizon); 6];
    traces[0] = down(22.0, horizon.as_micros() - 1);
    traces[2] = down(5.0, 5_500_001);
    traces[5] = down(10.0, 11_500_001);
    let cluster = ClusterConfig {
        n_volatile: 5,
        n_dedicated: 1,
        map_slots: 1,
        unavailability: 0.0,
        trace_overrides: Some(traces),
        ..ClusterConfig::default()
    };
    let workload = WorkloadSpec {
        input_bytes: 128 * workloads::MB,
        n_maps: 2,
        reduces: workloads::ReduceCount::Fixed(1),
        map_cpu: workloads::DurationModel::Fixed(SimDuration::from_secs(70)),
        ..quick()
    };
    let mut policy = PolicyConfig::moon_hybrid();
    if let mapred::SchedulerPolicy::Moon(p) = &mut policy.scheduler {
        p.homestretch_h_percent = 0.0;
    }
    let mut sim = simkit::Simulation::new(World::new(cluster, policy, workload), 3);
    World::init(&mut sim);
    let b = mapred::TaskId {
        job: JobId(0),
        kind: mapred::TaskKind::Map,
        index: 0,
    };
    let straggler = SimTime::from_micros(63_000_001);
    sim.run_until(SimTime::from_micros(straggler.as_micros() - 2));
    let w = sim.model();
    let original = &w.jt.task(b).attempts[0];
    assert_eq!(
        (original.node, original.started),
        (NodeId(0), SimTime::from_micros(3_000_001))
    );
    assert_eq!(w.jt.task(b).attempts.len(), 1);
    assert!(w.is_parked(2), "node 2 beats before the straggler instant");
    assert!(!w.is_parked(5), "the throttled node parks");
    sim.run_until(straggler);
    let copy = sim.model().jt.task(b).attempts.get(1).cloned();
    assert_eq!(
        copy.map(|a| (a.node, a.started, a.reason)),
        Some((NodeId(2), straggler, mapred::LaunchReason::Speculative))
    );
}

/// When the last task completes, the control plane turns off with
/// nodes parked: each parked node's NameNode and JobTracker stamps
/// equal its last grid beat strictly before that instant, and the
/// JobTracker's stay there to the end of the run.
#[test]
fn control_plane_off_stamps_parked_beats_in_both_trackers() {
    let mut sim = single_map_sim(None);
    while !sim.model().tasks_done(&sim.model().jobs[0]) {
        assert!(sim.step(), "queue drained before the job completed");
    }
    let done = sim.now();
    let w = sim.model();
    assert!(!w.control_plane_active());
    let parked: Vec<u32> = (0..8).filter(|&i| w.is_parked(i as usize)).collect();
    assert!(parked.len() >= 6, "parked at {done}: {parked:?}");
    for &i in &parked {
        let n = NodeId(i);
        let beat = grid_beat_before(i, done);
        assert_eq!(w.nn.last_heartbeat(n), beat, "{n} namenode stamp");
        assert_eq!(w.jt.last_heartbeat(n), beat, "{n} tracker stamp");
    }
    // The JobTracker hears no more beats; the run ends at the commit.
    assert_eq!(sim.run(), simkit::RunOutcome::Stopped);
    let w = sim.model();
    for &i in &parked {
        let n = NodeId(i);
        assert!(w.is_parked(i as usize), "{n} beats after the job");
        assert_eq!(w.jt.last_heartbeat(n), grid_beat_before(i, done));
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
