//! Scheduler conformance suite for the cross-job layer: pins the
//! semantics of the deadline- (EDF), priority-, and tenant-aware
//! rankings and of kill-and-requeue preemption, end to end through
//! [`moon::Experiment`] and directly against [`mapred::JobTracker`].
//!
//! Every end-to-end case runs on a churn-free cluster with
//! fixed-duration tasks, so the assertions are about the *scheduling
//! policy*, not noise: which job launches, who gets preempted, and
//! which deadlines are met are all deterministic.

use dfs::NodeId;
use mapred::{
    CrossJobPolicy, FetchFailurePolicy, HadoopPolicy, JobSpec, JobTracker, SchedulerPolicy,
    TaskKind,
};
use moon::{ClusterConfig, Experiment, JobSlo, PolicyConfig, RunResult};
use simkit::{SimDuration, SimTime};
use workloads::{ArrivalModel, DurationModel, JobStream, ReduceCount, WorkloadSpec, MB};

fn t(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

fn d(s: u64) -> SimDuration {
    SimDuration::from_secs(s)
}

/// A slot-filling workload with fixed task durations: `n_maps` maps of
/// `map_secs` each, one quick reduce. On the churn-free small cluster
/// (12 volatile + 2 dedicated, 2 map slots each) 28+ maps saturate
/// every map slot.
fn slab(name: &str, n_maps: u32, map_secs: u64) -> WorkloadSpec {
    WorkloadSpec {
        name: name.into(),
        input_bytes: 64 * MB,
        n_maps,
        reduces: ReduceCount::Fixed(1),
        map_cpu: DurationModel::Fixed(d(map_secs)),
        map_output_bytes: MB,
        reduce_cpu: DurationModel::Fixed(d(1)),
        output_bytes: MB,
    }
}

/// Run `stream` on the churn-free small cluster under `policy`.
fn run(policy: PolicyConfig, stream: JobStream) -> RunResult {
    Experiment {
        cluster: ClusterConfig::small(0.0),
        policy,
        workload: moon::quick_workload(),
        seed: 42,
    }
    .run_with_limits(Some(stream), None, moon::RunLimits::default())
}

fn rows(r: &RunResult) -> &[JobSlo] {
    r.jobs.as_deref().expect("stream run carries SLO rows")
}

fn preempted_total(r: &RunResult) -> u64 {
    rows(r).iter().map(|j| u64::from(j.metrics.preempted)).sum()
}

/// EDF conformance: on the same deadline-carrying stream, preemptive
/// EDF never misses a deadline FIFO meets — and here it strictly wins,
/// meeting the tight deadline FIFO cannot. A 32-map bulk job saturates
/// the cluster with 120 s maps; an urgent 4-map job arrives 10 s later
/// with a 60 s relative deadline. FIFO makes it wait for bulk's first
/// map wave (120 s), missing; EDF preempts bulk and meets it.
#[test]
fn edf_never_misses_a_deadline_fifo_meets() {
    let stream = || JobStream {
        workloads: vec![slab("bulk", 32, 120), slab("urgent", 4, 5)],
        deadlines: vec![d(3600), d(60)],
        ..JobStream::new(ArrivalModel::Batch(vec![
            SimDuration::ZERO,
            SimDuration::from_secs(10),
        ]))
    };
    let fifo = run(PolicyConfig::moon_hybrid(), stream());
    let edf = run(
        PolicyConfig::moon_hybrid()
            .with_cross_job(CrossJobPolicy::Edf)
            .with_preemption(),
        stream(),
    );
    for r in [&fifo, &edf] {
        assert!(
            rows(r).iter().all(|j| j.finished.is_some()),
            "all jobs must commit: {:?}",
            rows(r)
        );
    }
    // EDF's misses are a subset of FIFO's.
    for (f, e) in rows(&fifo).iter().zip(rows(&edf)) {
        assert_eq!(f.job, e.job);
        assert!(
            e.deadline_missed() <= f.deadline_missed(),
            "EDF missed job {}'s deadline where FIFO met it",
            e.job
        );
    }
    // And strictly wins here: FIFO misses the urgent deadline, EDF
    // meets it, paying with preempted bulk attempts.
    assert!(rows(&fifo)[1].deadline_missed(), "FIFO must miss: {fifo:?}");
    assert!(!rows(&edf)[1].deadline_missed(), "EDF must meet: {edf:?}");
    assert_eq!(preempted_total(&fifo), 0, "FIFO never preempts");
    assert!(preempted_total(&edf) > 0, "EDF won by preempting");
}

/// Strict-priority conformance: high-priority jobs preempt and finish
/// ahead of the low tier, while equal-priority jobs never preempt each
/// other — starvation flows strictly down the tiers.
#[test]
fn strict_priority_starves_only_lower_tiers() {
    let stream = JobStream {
        workloads: vec![slab("slab", 28, 60)],
        priorities: vec![0, 5, 5],
        ..JobStream::new(ArrivalModel::Batch(vec![
            SimDuration::ZERO,
            SimDuration::from_secs(5),
            SimDuration::from_secs(6),
        ]))
    };
    let r = run(
        PolicyConfig::moon_hybrid()
            .with_cross_job(CrossJobPolicy::StrictPriority)
            .with_preemption(),
        stream,
    );
    let js = rows(&r);
    assert!(js.iter().all(|j| j.finished.is_some()), "{js:?}");
    assert_eq!(js[0].priority, 0);
    assert_eq!(js[1].priority, 5);
    assert_eq!(js[2].priority, 5);
    // Both high-priority jobs finish before the starved low tier, even
    // though it arrived first and had already launched.
    assert!(js[1].finished < js[0].finished, "{js:?}");
    assert!(js[2].finished < js[0].finished, "{js:?}");
    // Only the lower tier loses attempts: equal tiers never preempt
    // each other.
    assert!(js[0].metrics.preempted > 0, "{js:?}");
    assert_eq!(js[1].metrics.preempted, 0, "{js:?}");
    assert_eq!(js[2].metrics.preempted, 0, "{js:?}");
}

/// Tenant max-min conformance: a tenant below its minimum share
/// reclaims a slot immediately via preemption, instead of waiting for
/// the saturating tenant's 60 s maps to drain.
#[test]
fn tenant_fair_honors_minimum_shares() {
    let stream = JobStream {
        workloads: vec![slab("slab", 28, 60)],
        tenants: vec![0, 0, 1],
        tenant_weights: vec![2, 1],
        tenant_min_slots: vec![1, 1],
        ..JobStream::new(ArrivalModel::Batch(vec![
            SimDuration::ZERO,
            SimDuration::from_secs(1),
            SimDuration::from_secs(30),
        ]))
    };
    let r = run(
        PolicyConfig::moon_hybrid()
            .with_cross_job(CrossJobPolicy::TenantFair)
            .with_preemption(),
        stream,
    );
    let js = rows(&r);
    assert!(js.iter().all(|j| j.finished.is_some()), "{js:?}");
    assert_eq!(js[2].tenant, 1);
    // Tenant 1 arrives at t=30 into a cluster tenant 0 saturated with
    // 60 s maps (launched within the first heartbeats): no slot frees
    // naturally before ~60 s, so a launch earlier than that proves the
    // minimum share was honored by preemption.
    let launch = js[2].first_launch.expect("tenant 1 must launch");
    assert!(
        launch < t(55),
        "tenant 1 below min share must reclaim a slot promptly, launched at {launch:?}"
    );
    assert!(preempted_total(&r) > 0);
    // The guaranteed share is a floor, not a takeover: tenant 0's jobs
    // still commit.
    assert!(js[0].finished.is_some() && js[1].finished.is_some());
}

/// Work conservation at the tracker level: the heartbeat that kills a
/// victim re-grants the reclaimed slot to the challenger in the *same*
/// response — never a round later.
#[test]
fn preemption_regrants_the_slot_in_the_same_round() {
    let mut jt = JobTracker::new(
        SchedulerPolicy::Hadoop(HadoopPolicy::default()),
        FetchFailurePolicy::HadoopMajority,
    )
    .with_cross_job(CrossJobPolicy::StrictPriority)
    .with_preemption(true);
    jt.register_tracker(t(0), NodeId(0), 2, 2, false);

    let low = jt.submit_job(t(0), JobSpec::new(4, 0));
    let r0 = jt.heartbeat(t(1), NodeId(0));
    assert_eq!(r0.assignments.len(), 2, "low fills both map slots");
    assert!(r0.kill.is_empty());

    let high = jt.submit_job(t(5), JobSpec::new(2, 0).with_priority(5));
    let r1 = jt.heartbeat(t(6), NodeId(0));
    // Same response: victims killed AND the challenger granted their
    // slots. One kill per reclaimed slot, nothing banked for later.
    assert_eq!(r1.kill.len(), 2, "{r1:?}");
    assert!(r1.kill.iter().all(|a| a.task.job == low), "{r1:?}");
    assert_eq!(r1.assignments.len(), 2, "{r1:?}");
    assert!(
        r1.assignments.iter().all(|a| a.attempt.task.job == high),
        "{r1:?}"
    );
    assert_eq!(jt.preempted_total(), 2);

    // The requeued victims relaunch once the high-priority job drains —
    // kill-and-requeue loses the attempt, never the task.
    for a in &r1.assignments {
        jt.attempt_succeeded(a.attempt);
    }
    let r2 = jt.heartbeat(t(31), NodeId(0));
    assert_eq!(r2.assignments.len(), 2, "{r2:?}");
    assert!(
        r2.assignments.iter().all(|a| a.attempt.task.job == low),
        "{r2:?}"
    );
}

/// EDF ordering at the tracker level: among queued jobs, the nearest
/// absolute deadline launches first; deadline-less jobs rank last.
#[test]
fn edf_picks_nearest_deadline_first() {
    let mut jt = JobTracker::new(
        SchedulerPolicy::Hadoop(HadoopPolicy::default()),
        FetchFailurePolicy::HadoopMajority,
    )
    .with_cross_job(CrossJobPolicy::Edf);
    jt.register_tracker(t(0), NodeId(0), 2, 2, false);

    let far = jt.submit_job(t(0), JobSpec::new(2, 0).with_deadline(t(300)));
    let none = jt.submit_job(t(0), JobSpec::new(2, 0));
    let near = jt.submit_job(t(0), JobSpec::new(2, 0).with_deadline(t(100)));

    let launched = |jt: &mut JobTracker, now: SimTime| {
        let r = jt.heartbeat(now, NodeId(0));
        let jobs: Vec<_> = r
            .assignments
            .iter()
            .filter(|a| a.attempt.task.kind == TaskKind::Map)
            .map(|a| a.attempt.task.job)
            .collect();
        for a in r.assignments {
            jt.attempt_succeeded(a.attempt);
        }
        jobs
    };
    assert_eq!(launched(&mut jt, t(1)), vec![near, near]);
    assert_eq!(launched(&mut jt, t(10)), vec![far, far]);
    assert_eq!(launched(&mut jt, t(20)), vec![none, none]);
}
