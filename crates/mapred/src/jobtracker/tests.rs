use super::*;
use crate::policy::{HadoopPolicy, MoonPolicy};
use simkit::SimDuration;
use std::collections::BTreeMap;

fn t(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

fn hadoop_jt() -> JobTracker {
    JobTracker::new(
        SchedulerPolicy::Hadoop(HadoopPolicy::default()),
        FetchFailurePolicy::HadoopMajority,
    )
}

fn moon_jt(hybrid: bool) -> JobTracker {
    let p = if hybrid {
        MoonPolicy::default()
    } else {
        MoonPolicy::without_hybrid()
    };
    JobTracker::new(SchedulerPolicy::Moon(p), FetchFailurePolicy::MoonQuery)
}

/// Register `n_vol` volatile (n0..) and `n_ded` dedicated trackers,
/// 2 map + 2 reduce slots each.
fn cluster(jt: &mut JobTracker, n_vol: u32, n_ded: u32) {
    for i in 0..n_vol {
        jt.register_tracker(t(0), NodeId(i), 2, 2, false);
    }
    for i in n_vol..(n_vol + n_ded) {
        jt.register_tracker(t(0), NodeId(i), 2, 2, true);
    }
}

fn map_task(job: JobId, i: u32) -> TaskId {
    TaskId {
        job,
        kind: TaskKind::Map,
        index: i,
    }
}

fn reduce_task(job: JobId, i: u32) -> TaskId {
    TaskId {
        job,
        kind: TaskKind::Reduce,
        index: i,
    }
}

#[test]
fn heartbeat_fills_map_slots_first() {
    let mut jt = hadoop_jt();
    cluster(&mut jt, 2, 0);
    let job = jt.submit_job(t(0), JobSpec::new(10, 4));
    let resp = jt.heartbeat(t(1), NodeId(0));
    // 2 map slots filled; reduces gated by slowstart (5% of 10 → 1 map).
    assert_eq!(resp.assignments.len(), 2);
    assert!(resp
        .assignments
        .iter()
        .all(|a| a.attempt.task.kind == TaskKind::Map));
    assert!(resp
        .assignments
        .iter()
        .all(|a| a.reason == LaunchReason::Original));
    let _ = job;
}

#[test]
fn reduces_gated_by_slowstart() {
    let mut jt = hadoop_jt();
    cluster(&mut jt, 2, 0);
    let job = jt.submit_job(t(0), JobSpec::new(4, 4));
    let r0 = jt.heartbeat(t(1), NodeId(0));
    assert_eq!(r0.assignments.len(), 2, "maps only");
    // Complete one map (slowstart = ceil(0.05*4) = 1).
    jt.attempt_succeeded(r0.assignments[0].attempt);
    let r1 = jt.heartbeat(t(31), NodeId(1));
    let kinds: Vec<TaskKind> = r1.assignments.iter().map(|a| a.attempt.task.kind).collect();
    assert!(
        kinds.contains(&TaskKind::Reduce),
        "reduces now eligible: {kinds:?}"
    );
    let _ = job;
}

#[test]
fn map_locality_preference() {
    let mut jt = hadoop_jt();
    cluster(&mut jt, 3, 0);
    let spec =
        JobSpec::new(3, 0).with_locations(vec![vec![NodeId(2)], vec![NodeId(0)], vec![NodeId(1)]]);
    let job = jt.submit_job(t(0), spec);
    let resp = jt.heartbeat(t(1), NodeId(0));
    // First assignment to n0 must be map 1 (its input is local).
    assert_eq!(resp.assignments[0].attempt.task, map_task(job, 1));
}

#[test]
fn hadoop_speculates_on_lagging_task() {
    let mut jt = hadoop_jt();
    cluster(&mut jt, 4, 0);
    let job = jt.submit_job(t(0), JobSpec::new(4, 0));
    // Launch all 4 maps across n0/n1.
    let a0 = jt.heartbeat(t(0), NodeId(0)).assignments;
    let a1 = jt.heartbeat(t(0), NodeId(1)).assignments;
    assert_eq!(a0.len() + a1.len(), 4);
    // Three run fast, one lags far behind.
    jt.report_progress(a0[0].attempt, 0.9);
    jt.report_progress(a0[1].attempt, 0.9);
    jt.report_progress(a1[0].attempt, 0.9);
    jt.report_progress(a1[1].attempt, 0.05);
    // Before 60s: no speculation.
    let r = jt.heartbeat(t(30), NodeId(2));
    assert!(r.assignments.is_empty(), "straggler rule needs 60s runtime");
    // After 60s: speculate the laggard.
    let r = jt.heartbeat(t(61), NodeId(2));
    assert_eq!(r.assignments.len(), 1);
    assert_eq!(r.assignments[0].attempt.task, a1[1].attempt.task);
    assert_eq!(r.assignments[0].reason, LaunchReason::Speculative);
    assert_eq!(r.assignments[0].attempt.attempt, 1);
    // Cap of one speculative copy: no more from another node.
    let r = jt.heartbeat(t(62), NodeId(3));
    assert!(r.assignments.is_empty());
    assert_eq!(jt.job_metrics(job).duplicated_tasks, 1);
}

/// Equal laggards are speculated in first-launch order, not task
/// order: map 1 launched before map 0 (its input is local to n0),
/// so it gets the first speculative copy.
#[test]
fn hadoop_speculation_ties_break_by_first_launch() {
    let mut jt = hadoop_jt();
    cluster(&mut jt, 3, 0);
    let spec = JobSpec::new(4, 0).with_locations(vec![
        vec![NodeId(1)],
        vec![NodeId(0)],
        vec![NodeId(1)],
        vec![NodeId(1)],
    ]);
    let job = jt.submit_job(t(0), spec);
    let a0 = jt.heartbeat(t(0), NodeId(0)).assignments;
    let launched: Vec<TaskId> = a0.iter().map(|a| a.attempt.task).collect();
    assert_eq!(launched, vec![map_task(job, 1), map_task(job, 0)]);
    let a1 = jt.heartbeat(t(0), NodeId(1)).assignments;
    assert_eq!(a1.len(), 2);
    for a in &a1 {
        jt.attempt_succeeded(a.attempt);
    }
    for a in &a0 {
        jt.report_progress(a.attempt, 0.1);
    }
    // n2 holds neither input, so both laggards tie on locality.
    let r = jt.heartbeat(t(61), NodeId(2)).assignments;
    assert_eq!(r[0].attempt.task, map_task(job, 1), "{r:?}");
    assert_eq!(r[0].reason, LaunchReason::Speculative);
}

#[test]
fn tracker_expiry_kills_and_reschedules() {
    let mut jt = JobTracker::new(
        SchedulerPolicy::Hadoop(HadoopPolicy::with_expiry(SimDuration::from_mins(1))),
        FetchFailurePolicy::HadoopMajority,
    );
    cluster(&mut jt, 2, 0);
    let job = jt.submit_job(t(0), JobSpec::new(2, 0));
    let a = jt.heartbeat(t(0), NodeId(0)).assignments;
    assert_eq!(a.len(), 2);
    // n0 goes silent; n1 keeps beating.
    jt.heartbeat(t(30), NodeId(1));
    let sweep = jt.check_trackers(t(61));
    assert_eq!(sweep.expired, vec![NodeId(0)]);
    assert_eq!(sweep.killed.len(), 2);
    assert_eq!(jt.tracker_state(NodeId(0)), TrackerState::Dead);
    // Hadoop-mode sweep never suspends.
    assert!(sweep.suspended.is_empty());
    // The tasks are rescheduled on n1 as retries.
    let r = jt.heartbeat(t(62), NodeId(1)).assignments;
    assert_eq!(r.len(), 2);
    assert!(r.iter().all(|x| x.reason == LaunchReason::Retry));
    let m = jt.job_metrics(job);
    assert_eq!(m.killed_maps, 2);
    assert_eq!(m.duplicated_tasks, 2);
}

#[test]
fn sweep_skips_parked_trackers_until_they_are_unparked() {
    let mut jt = JobTracker::new(
        SchedulerPolicy::Moon(MoonPolicy::default()),
        FetchFailurePolicy::HadoopMajority,
    );
    cluster(&mut jt, 2, 0);
    jt.set_parked(NodeId(0), true);
    jt.heartbeat(t(60), NodeId(1));
    let sweep = jt.check_trackers(t(61));
    assert!(sweep.suspended.is_empty() && sweep.expired.is_empty());
    assert!(jt.is_parked(NodeId(0)));
    // Unparked with its stamp still at 0 s: the sweep reads it.
    jt.set_parked(NodeId(0), false);
    let sweep = jt.check_trackers(t(61));
    assert_eq!(sweep.suspended, vec![NodeId(0)]);
}

/// A sweep applies transitions in node order, not silence order:
/// the kill list feeds the deterministic event stream.
#[test]
fn tracker_sweep_transitions_in_node_order() {
    let mut jt = JobTracker::new(
        SchedulerPolicy::Hadoop(HadoopPolicy::with_expiry(SimDuration::from_mins(1))),
        FetchFailurePolicy::HadoopMajority,
    );
    cluster(&mut jt, 3, 0);
    jt.submit_job(t(0), JobSpec::new(4, 0));
    let on_n2: Vec<AttemptId> = jt
        .heartbeat(t(0), NodeId(2))
        .assignments
        .iter()
        .map(|a| a.attempt)
        .collect();
    let on_n1: Vec<AttemptId> = jt
        .heartbeat(t(10), NodeId(1))
        .assignments
        .iter()
        .map(|a| a.attempt)
        .collect();
    assert_eq!((on_n1.len(), on_n2.len()), (2, 2));
    jt.heartbeat(t(70), NodeId(0));
    // n2 has been silent longer, but n1 comes first.
    let sweep = jt.check_trackers(t(75));
    assert_eq!(sweep.expired, vec![NodeId(1), NodeId(2)]);
    let mut killed = on_n1.clone();
    killed.extend(&on_n2);
    assert_eq!(sweep.killed, killed);
}

#[test]
fn moon_suspension_freezes_then_new_copy() {
    let mut jt = moon_jt(false);
    cluster(&mut jt, 3, 0);
    let job = jt.submit_job(t(0), JobSpec::new(2, 0));
    let a = jt.heartbeat(t(0), NodeId(0)).assignments;
    assert_eq!(a.len(), 2);
    jt.report_progress(a[0].attempt, 0.5);
    jt.report_progress(a[1].attempt, 0.8);
    jt.heartbeat(t(55), NodeId(1));
    jt.heartbeat(t(55), NodeId(2));
    // n0 silent past the 1-minute SuspensionInterval → suspended, not dead.
    let sweep = jt.check_trackers(t(61));
    assert_eq!(sweep.suspended, vec![NodeId(0)]);
    assert!(sweep.expired.is_empty());
    assert!(sweep.killed.is_empty(), "suspension must not kill attempts");
    assert!(jt.task(a[0].attempt.task).is_frozen());
    // Frozen tasks get copies immediately, lowest progress first.
    let r = jt.heartbeat(t(62), NodeId(1)).assignments;
    assert!(!r.is_empty());
    assert_eq!(r[0].attempt.task, a[0].attempt.task, "0.5 < 0.8 → first");
    assert_eq!(r[0].reason, LaunchReason::Speculative);
    // When n0 resumes, its attempts reactivate (no kills: tasks not done).
    let resumed = jt.heartbeat(t(90), NodeId(0));
    assert!(resumed.kill.is_empty());
    assert!(!jt.task(a[0].attempt.task).is_frozen());
    let m = jt.job_metrics(job);
    assert_eq!(m.killed_maps, 0);
}

#[test]
fn moon_resume_after_completion_kills_stale_attempt() {
    // Homestretch off: this test exercises the frozen-copy/resume path
    // in isolation (a 1-task job would otherwise enter homestretch
    // immediately, since 1 < 20% of the cluster's 6 map slots).
    let mut jt = JobTracker::new(
        SchedulerPolicy::Moon(MoonPolicy {
            homestretch_h_percent: 0.0,
            hybrid: false,
            ..MoonPolicy::default()
        }),
        FetchFailurePolicy::MoonQuery,
    );
    cluster(&mut jt, 3, 0);
    let _job = jt.submit_job(t(0), JobSpec::new(1, 0));
    let a = jt.heartbeat(t(0), NodeId(0)).assignments;
    jt.heartbeat(t(50), NodeId(1));
    jt.check_trackers(t(61)); // n0 suspended
    let r = jt.heartbeat(t(62), NodeId(1)).assignments; // frozen copy
    assert_eq!(r.len(), 1);
    // The frozen copy finishes first: the stale inactive attempt on the
    // suspended tracker is killed right away.
    let s = jt.attempt_succeeded(r[0].attempt);
    assert_eq!(s.kill, vec![a[0].attempt]);
    // When n0 resumes there is nothing left to kill or reactivate.
    let resumed = jt.heartbeat(t(120), NodeId(0));
    assert!(resumed.kill.is_empty());
    assert_eq!(jt.tracker_state(NodeId(0)), TrackerState::Alive);
}

#[test]
fn moon_global_speculative_cap() {
    let mut jt = JobTracker::new(
        SchedulerPolicy::Moon(MoonPolicy {
            speculative_slot_fraction: 0.2,
            hybrid: false,
            ..MoonPolicy::default()
        }),
        FetchFailurePolicy::MoonQuery,
    );
    // 2 trackers alive → 8 slots total → cap = floor(0.2*8) = 1.
    cluster(&mut jt, 3, 0);
    let _job = jt.submit_job(t(0), JobSpec::new(4, 0));
    let a0 = jt.heartbeat(t(0), NodeId(0)).assignments;
    let a1 = jt.heartbeat(t(0), NodeId(1)).assignments;
    assert_eq!(a0.len() + a1.len(), 4);
    jt.heartbeat(t(55), NodeId(2));
    // Both workers go silent → all 4 tasks frozen.
    let sweep = jt.check_trackers(t(61));
    assert_eq!(sweep.suspended.len(), 2);
    // Cap: only 1 (of 4 frozen) gets a copy... cap = 0.2 * 4 slots on
    // n2 (the only alive tracker) = 0 → max(1) = 1.
    let r = jt.heartbeat(t(62), NodeId(2)).assignments;
    assert_eq!(r.len(), 1, "global cap limits frozen-task copies: {r:?}");
}

#[test]
fn moon_homestretch_replicates_remaining_tasks() {
    let mut jt = JobTracker::new(
        SchedulerPolicy::Moon(MoonPolicy {
            homestretch_h_percent: 50.0, // huge H so the phase triggers
            homestretch_r: 2,
            speculative_slot_fraction: 1.0, // don't let the cap bite
            hybrid: false,
            ..MoonPolicy::default()
        }),
        FetchFailurePolicy::MoonQuery,
    );
    cluster(&mut jt, 3, 0);
    let job = jt.submit_job(t(0), JobSpec::new(2, 0));
    let a0 = jt.heartbeat(t(0), NodeId(0)).assignments;
    assert_eq!(a0.len(), 2);
    jt.report_progress(a0[0].attempt, 0.5);
    jt.report_progress(a0[1].attempt, 0.6);
    // remaining = 2 < 0.5 * 6 map slots → homestretch on; both tasks
    // have 1 running copy < R=2 → each may get one more.
    let r = jt.heartbeat(t(10), NodeId(1)).assignments;
    assert_eq!(r.len(), 2);
    assert!(r.iter().all(|x| x.reason == LaunchReason::Homestretch));
    // R satisfied: no third copies.
    let r2 = jt.heartbeat(t(11), NodeId(2)).assignments;
    assert!(r2.is_empty());
    let _ = job;
}

/// With a frozen task, a slow task and homestretch candidates all
/// present, successive one-slot beats take the frozen list first,
/// then the slow list, then the homestretch (MOON §V).
#[test]
fn moon_lists_take_precedence_frozen_slow_homestretch() {
    let mut jt = JobTracker::new(
        SchedulerPolicy::Moon(MoonPolicy {
            homestretch_h_percent: 100.0,
            speculative_slot_fraction: 1.0,
            hybrid: false,
            ..MoonPolicy::default()
        }),
        FetchFailurePolicy::MoonQuery,
    );
    for i in 0..4 {
        jt.register_tracker(t(0), NodeId(i), 1, 0, false);
    }
    let job = jt.submit_job(t(0), JobSpec::new(4, 0));
    let a: Vec<AttemptId> = (0..4)
        .map(|i| jt.heartbeat(t(0), NodeId(i)).assignments[0].attempt)
        .collect();
    jt.attempt_succeeded(a[3]);
    jt.report_progress(a[0], 0.5);
    jt.report_progress(a[1], 0.1);
    jt.report_progress(a[2], 0.9);
    jt.heartbeat(t(55), NodeId(1));
    jt.heartbeat(t(55), NodeId(2));
    for i in 4..7 {
        jt.register_tracker(t(56), NodeId(i), 1, 0, false);
    }
    let sweep = jt.check_trackers(t(61));
    assert_eq!(sweep.suspended, vec![NodeId(0), NodeId(3)]);
    // Map 0 is frozen, map 1 is slow (0.1 < mean 0.625 − 0.2), and
    // maps 1 and 2 are short of R = 2 running copies.
    assert!(jt.task(map_task(job, 0)).is_frozen());
    let picks: Vec<(TaskId, LaunchReason)> = (4..7)
        .map(|i| {
            let r = jt.heartbeat(t(58 + u64::from(i)), NodeId(i)).assignments;
            assert_eq!(r.len(), 1, "{r:?}");
            (r[0].attempt.task, r[0].reason)
        })
        .collect();
    assert_eq!(
        picks,
        vec![
            (map_task(job, 0), LaunchReason::Speculative),
            (map_task(job, 1), LaunchReason::Speculative),
            (map_task(job, 0), LaunchReason::Homestretch),
        ]
    );
}

#[test]
fn moon_nonhybrid_gives_dedicated_no_work() {
    let mut jt = moon_jt(false);
    cluster(&mut jt, 2, 1); // n2 dedicated
    let _job = jt.submit_job(t(0), JobSpec::new(6, 0));
    let r = jt.heartbeat(t(1), NodeId(2));
    assert!(r.assignments.is_empty(), "dedicated = pure data server");
}

#[test]
fn moon_hybrid_dedicated_runs_speculative_only() {
    let mut jt = moon_jt(true);
    cluster(&mut jt, 2, 1); // n2 dedicated
    let _job = jt.submit_job(t(0), JobSpec::new(2, 0));
    // Fresh tasks: dedicated node gets nothing.
    let r = jt.heartbeat(t(1), NodeId(2));
    assert!(r.assignments.is_empty());
    let a = jt.heartbeat(t(1), NodeId(0)).assignments;
    assert_eq!(a.len(), 2);
    // Freeze them.
    jt.heartbeat(t(55), NodeId(1));
    jt.heartbeat(t(55), NodeId(2));
    jt.check_trackers(t(61));
    // Now the dedicated node takes frozen-task copies.
    let r = jt.heartbeat(t(62), NodeId(2)).assignments;
    assert!(!r.is_empty());
    // And a task with a dedicated copy is skipped for more replicas:
    let r2 = jt.heartbeat(t(63), NodeId(1)).assignments;
    assert!(
        !r2.iter().any(|x| x.attempt.task == r[0].attempt.task),
        "task with dedicated copy must not receive further copies"
    );
}

#[test]
fn hadoop_fetch_failure_majority_rule() {
    let mut jt = hadoop_jt();
    cluster(&mut jt, 4, 0);
    let job = jt.submit_job(t(0), JobSpec::new(1, 3));
    let a = jt.heartbeat(t(0), NodeId(0)).assignments;
    let map_a = a[0].attempt;
    jt.attempt_succeeded(map_a);
    // Start 3 reduces.
    let mut reduces = vec![];
    for n in 1..3 {
        for asg in jt.heartbeat(t(11), NodeId(n)).assignments {
            reduces.push(asg.attempt);
        }
    }
    assert_eq!(reduces.len(), 3);
    // One reporter of 3 running reduces: 1*2 > 3 is false → no reexec.
    let m = map_task(job, 0);
    assert!(!jt.report_fetch_failure(t(20), m, reduce_task(job, 0), false));
    // Second reporter: 2*2 > 3 → reexec.
    assert!(jt.report_fetch_failure(t(21), m, reduce_task(job, 1), false));
    assert_eq!(jt.job_metrics(job).map_output_relaunches, 1);
    // The map is runnable again, as a MapOutputLost launch.
    let r = jt.heartbeat(t(22), NodeId(3)).assignments;
    assert!(r
        .iter()
        .any(|x| x.attempt.task == m && x.reason == LaunchReason::MapOutputLost));
}

#[test]
fn moon_fetch_failure_queries_fs() {
    let mut jt = moon_jt(false);
    cluster(&mut jt, 4, 0);
    let job = jt.submit_job(t(0), JobSpec::new(1, 3));
    let a = jt.heartbeat(t(0), NodeId(0)).assignments;
    jt.attempt_succeeded(a[0].attempt);
    let m = map_task(job, 0);
    // 3 failures but replicas still active → reduces just retry.
    assert!(!jt.report_fetch_failure(t(20), m, reduce_task(job, 0), true));
    assert!(!jt.report_fetch_failure(t(21), m, reduce_task(job, 1), true));
    assert!(!jt.report_fetch_failure(t(22), m, reduce_task(job, 2), true));
    // 3 failures and no active replica → immediate reexecution: the
    // 4th report, with no active replica, fires.
    assert!(jt.report_fetch_failure(t(23), m, reduce_task(job, 0), false));
    assert_eq!(jt.job_metrics(job).map_output_relaunches, 1);
}

#[test]
fn task_failure_budget_fails_job() {
    let mut jt = hadoop_jt();
    cluster(&mut jt, 1, 0);
    let job = jt.submit_job(t(0), JobSpec::new(1, 0));
    // The job survives MAX_TASK_FAILURES failures of one task and
    // fails on the next.
    for k in 0..=MAX_TASK_FAILURES as u64 {
        assert_eq!(jt.job_status(job), JobStatus::Running, "after {k} failures");
        let r = jt.heartbeat(t(k * 10), NodeId(0)).assignments;
        assert_eq!(r.len(), 1);
        jt.attempt_failed(r[0].attempt);
    }
    assert_eq!(jt.job_status(job), JobStatus::Failed);
}

#[test]
fn job_completion_and_sibling_kill() {
    let mut jt = hadoop_jt();
    cluster(&mut jt, 3, 0);
    let job = jt.submit_job(t(0), JobSpec::new(2, 1));
    let a = jt.heartbeat(t(0), NodeId(0)).assignments;
    // Lag one map, speculate it.
    jt.report_progress(a[0].attempt, 0.9);
    jt.report_progress(a[1].attempt, 0.0);
    let spec = jt.heartbeat(t(61), NodeId(1)).assignments;
    assert_eq!(spec.len(), 1);
    // Original completes first: speculative sibling is killed.
    let s = jt.attempt_succeeded(a[1].attempt);
    assert_eq!(s.kill, vec![spec[0].attempt]);
    assert!(!s.job_completed);
    jt.attempt_succeeded(a[0].attempt);
    // Reduce now eligible.
    let r = jt.heartbeat(t(72), NodeId(2)).assignments;
    let red = r
        .iter()
        .find(|x| x.attempt.task.kind == TaskKind::Reduce)
        .expect("reduce assigned");
    let s = jt.attempt_succeeded(red.attempt);
    assert!(s.job_completed);
    assert_eq!(jt.job_status(job), JobStatus::Succeeded);
    let m = jt.job_metrics(job);
    assert_eq!(m.completed_maps, 2);
    assert_eq!(m.completed_reduces, 1);
    assert_eq!(m.killed_maps, 1, "the superseded speculative copy");
}

#[test]
fn fifo_drains_earlier_jobs_first() {
    let mut jt = hadoop_jt();
    cluster(&mut jt, 2, 0);
    let j0 = jt.submit_job(t(0), JobSpec::new(3, 0));
    let j1 = jt.submit_job(t(1), JobSpec::new(3, 0));
    // 2 slots on n0: both must go to j0 under FIFO.
    let r = jt.heartbeat(t(2), NodeId(0)).assignments;
    assert_eq!(r.len(), 2);
    assert!(r.iter().all(|a| a.attempt.task.job == j0), "{r:?}");
    // j0 still has a pending map, so n1's slots serve it before j1.
    let r = jt.heartbeat(t(3), NodeId(1)).assignments;
    assert_eq!(r.len(), 2);
    assert_eq!(r[0].attempt.task.job, j0);
    assert_eq!(r[1].attempt.task.job, j1);
    assert_eq!(jt.cross_job, CrossJobPolicy::Fifo);
}

#[test]
fn fair_share_interleaves_concurrent_jobs() {
    let mut jt = JobTracker::new(
        SchedulerPolicy::Hadoop(HadoopPolicy::default()),
        FetchFailurePolicy::HadoopMajority,
    )
    .with_cross_job(CrossJobPolicy::FairShare);
    cluster(&mut jt, 2, 0);
    let j0 = jt.submit_job(t(0), JobSpec::new(3, 0));
    let j1 = jt.submit_job(t(1), JobSpec::new(3, 0));
    // Slot 1: both jobs have 0 live attempts → tie broken by id (j0).
    // Slot 2: j0 now has 1 live attempt → j1's turn. Each free slot
    // re-ranks, so a heartbeat's two slots alternate jobs.
    let r = jt.heartbeat(t(2), NodeId(0)).assignments;
    assert_eq!(r.len(), 2);
    assert_eq!(r[0].attempt.task.job, j0);
    assert_eq!(r[1].attempt.task.job, j1, "fair share alternates: {r:?}");
    let r = jt.heartbeat(t(3), NodeId(1)).assignments;
    assert_eq!(r[0].attempt.task.job, j0);
    assert_eq!(r[1].attempt.task.job, j1);
}

#[test]
fn fair_share_prefers_starved_job_after_completions() {
    let mut jt = JobTracker::new(
        SchedulerPolicy::Hadoop(HadoopPolicy::default()),
        FetchFailurePolicy::HadoopMajority,
    )
    .with_cross_job(CrossJobPolicy::FairShare);
    cluster(&mut jt, 3, 0);
    let j0 = jt.submit_job(t(0), JobSpec::new(6, 0));
    // j0 grabs 4 slots before j1 exists.
    let a0 = jt.heartbeat(t(1), NodeId(0)).assignments;
    let a1 = jt.heartbeat(t(1), NodeId(1)).assignments;
    assert_eq!(a0.len() + a1.len(), 4);
    let j1 = jt.submit_job(t(2), JobSpec::new(6, 0));
    // j0 holds 4 live attempts, j1 zero → n2's slots both go to j1.
    let r = jt.heartbeat(t(3), NodeId(2)).assignments;
    assert_eq!(r.len(), 2);
    assert!(r.iter().all(|a| a.attempt.task.job == j1), "{r:?}");
    let _ = j0;
}

#[test]
fn first_launch_times_measure_queueing_delay() {
    let mut jt = hadoop_jt();
    cluster(&mut jt, 1, 0);
    let j0 = jt.submit_job(t(0), JobSpec::new(2, 0));
    let j1 = jt.submit_job(t(0), JobSpec::new(1, 0));
    assert_eq!(jt.job_first_launch(j0), None);
    assert_eq!(jt.queued_job_count(), 2);
    // The 2 slots fill with j0; j1 keeps queueing.
    let a = jt.heartbeat(t(5), NodeId(0)).assignments;
    assert_eq!(a.len(), 2);
    assert_eq!(jt.job_first_launch(j0), Some(t(5)));
    assert_eq!(jt.job_first_launch(j1), None);
    assert_eq!(jt.queued_job_count(), 1);
    assert_eq!(jt.active_job_count(), 2);
    // j0 finishes; j1 launches on the freed slots.
    jt.attempt_succeeded(a[0].attempt);
    jt.attempt_succeeded(a[1].attempt);
    let b = jt.heartbeat(t(42), NodeId(0)).assignments;
    assert_eq!(b[0].attempt.task.job, j1);
    assert_eq!(jt.job_first_launch(j1), Some(t(42)));
    assert_eq!(jt.active_job_count(), 1);
    assert_eq!(jt.queued_job_count(), 0);
}

#[test]
fn metrics_accumulate_sums_counters() {
    let a = JobMetrics {
        duplicated_tasks: 1,
        killed_maps: 2,
        killed_reduces: 3,
        killed_by_tracker_expiry: 1,
        map_output_relaunches: 4,
        completed_maps: 5,
        completed_reduces: 6,
        preempted: 7,
    };
    let mut total = JobMetrics::default();
    total.accumulate(&a);
    total.accumulate(&a);
    assert_eq!(total.duplicated_tasks, 2);
    assert_eq!(total.completed_maps, 10);
    assert_eq!(total.map_output_relaunches, 8);
    assert_eq!(total.preempted, 14);
}

#[test]
fn preemption_is_off_by_default() {
    let mut jt = hadoop_jt().with_cross_job(CrossJobPolicy::StrictPriority);
    cluster(&mut jt, 1, 0);
    let low = jt.submit_job(t(0), JobSpec::new(2, 0));
    assert_eq!(jt.heartbeat(t(1), NodeId(0)).assignments.len(), 2);
    let _high = jt.submit_job(t(5), JobSpec::new(1, 0).with_priority(9));
    let r = jt.heartbeat(t(6), NodeId(0));
    assert!(r.kill.is_empty(), "{r:?}");
    assert!(r.assignments.is_empty(), "{r:?}");
    assert_eq!(jt.preempted_total(), 0);
    let _ = low;
}

#[test]
fn fifo_preemption_never_fires_for_later_jobs() {
    // FIFO's guard is `challenger < victim`: a later submission can
    // never reclaim an earlier job's slot, so enabling preemption
    // under plain FIFO changes nothing for in-order arrivals.
    let mut jt = hadoop_jt().with_preemption(true);
    cluster(&mut jt, 1, 0);
    let _first = jt.submit_job(t(0), JobSpec::new(2, 0));
    assert_eq!(jt.heartbeat(t(1), NodeId(0)).assignments.len(), 2);
    let _second = jt.submit_job(t(5), JobSpec::new(1, 0));
    let r = jt.heartbeat(t(6), NodeId(0));
    assert!(r.kill.is_empty(), "{r:?}");
    assert_eq!(jt.preempted_total(), 0);
}

#[test]
fn inverted_fair_share_never_preempts() {
    let mut jt = hadoop_jt()
        .with_cross_job(CrossJobPolicy::FairShareInverted)
        .with_preemption(true);
    cluster(&mut jt, 1, 0);
    let _a = jt.submit_job(t(0), JobSpec::new(4, 0));
    assert_eq!(jt.heartbeat(t(1), NodeId(0)).assignments.len(), 2);
    let _b = jt.submit_job(t(5), JobSpec::new(4, 0));
    let r = jt.heartbeat(t(6), NodeId(0));
    assert!(r.kill.is_empty(), "{r:?}");
    assert_eq!(jt.preempted_total(), 0);
}

#[test]
fn fair_share_preemption_stops_at_gap_one() {
    // The fair guard (`ch + 1 < victim`) transfers exactly one slot
    // here: 2-vs-0 becomes 1-vs-1, where neither side may preempt
    // the other — no kill/relaunch ping-pong.
    let mut jt = hadoop_jt()
        .with_cross_job(CrossJobPolicy::FairShare)
        .with_preemption(true);
    cluster(&mut jt, 1, 0);
    let a = jt.submit_job(t(0), JobSpec::new(4, 0));
    assert_eq!(jt.heartbeat(t(1), NodeId(0)).assignments.len(), 2);
    let b = jt.submit_job(t(5), JobSpec::new(4, 0));
    let r = jt.heartbeat(t(6), NodeId(0));
    assert_eq!(r.kill.len(), 1, "{r:?}");
    assert_eq!(r.kill[0].task.job, a);
    assert_eq!(r.assignments.len(), 1, "{r:?}");
    assert_eq!(r.assignments[0].attempt.task.job, b);
    // Balanced now: the next round must leave the split alone.
    let r = jt.heartbeat(t(9), NodeId(0));
    assert!(r.kill.is_empty(), "{r:?}");
    assert_eq!(jt.preempted_total(), 1);
}

#[test]
fn preemption_victim_is_the_youngest_attempt() {
    // Among equally ranked victims the highest attempt id — the
    // most recently launched, least progressed — is discarded.
    let mut jt = hadoop_jt()
        .with_cross_job(CrossJobPolicy::StrictPriority)
        .with_preemption(true);
    cluster(&mut jt, 1, 0);
    let low = jt.submit_job(t(0), JobSpec::new(2, 0));
    let r0 = jt.heartbeat(t(1), NodeId(0));
    assert_eq!(r0.assignments.len(), 2);
    let high = jt.submit_job(t(5), JobSpec::new(1, 0).with_priority(3));
    let r1 = jt.heartbeat(t(6), NodeId(0));
    assert_eq!(r1.kill, vec![r0.assignments[1].attempt], "{r1:?}");
    assert_eq!(r1.assignments[0].attempt.task.job, high);
    let _ = low;
}

#[test]
fn tenant_floor_blocks_further_preemption() {
    // Cross-tenant preemption stops the moment the victim tenant
    // would drop below its guaranteed minimum share.
    let mut jt = hadoop_jt()
        .with_cross_job(CrossJobPolicy::TenantFair)
        .with_preemption(true)
        .with_tenants(vec![1, 1], vec![1, 1]);
    cluster(&mut jt, 1, 0);
    let a = jt.submit_job(t(0), JobSpec::new(4, 0).with_tenant(0));
    assert_eq!(jt.heartbeat(t(1), NodeId(0)).assignments.len(), 2);
    let b = jt.submit_job(t(5), JobSpec::new(4, 0).with_tenant(1));
    let r = jt.heartbeat(t(6), NodeId(0));
    // Tenant 1 (live 0, below its floor) reclaims exactly one slot;
    // tenant 0 then sits at its own floor and keeps the other.
    assert_eq!(r.kill.len(), 1, "{r:?}");
    assert_eq!(r.kill[0].task.job, a);
    assert_eq!(r.assignments.len(), 1, "{r:?}");
    assert_eq!(r.assignments[0].attempt.task.job, b);
    let r = jt.heartbeat(t(9), NodeId(0));
    assert!(r.kill.is_empty(), "{r:?}");
    assert_eq!(jt.preempted_total(), 1);
}

#[test]
fn preempted_task_requeues_and_relaunches() {
    // Kill-and-requeue loses the attempt, not the task: the victim
    // re-enters the pending pool and relaunches once a slot frees.
    let mut jt = hadoop_jt()
        .with_cross_job(CrossJobPolicy::Edf)
        .with_preemption(true);
    cluster(&mut jt, 1, 0);
    let loose = jt.submit_job(t(0), JobSpec::new(2, 0).with_deadline(t(3600)));
    let r0 = jt.heartbeat(t(1), NodeId(0));
    assert_eq!(r0.assignments.len(), 2);
    let tight = jt.submit_job(t(5), JobSpec::new(2, 0).with_deadline(t(120)));
    let r1 = jt.heartbeat(t(6), NodeId(0));
    assert_eq!(r1.kill.len(), 2, "{r1:?}");
    assert!(r1.assignments.iter().all(|x| x.attempt.task.job == tight));
    assert_eq!(jt.job_metrics(loose).preempted, 2);
    // Tight job drains; the preempted tasks relaunch.
    for x in &r1.assignments {
        jt.attempt_succeeded(x.attempt);
    }
    let r2 = jt.heartbeat(t(31), NodeId(0));
    assert_eq!(r2.assignments.len(), 2, "{r2:?}");
    assert!(r2.assignments.iter().all(|x| x.attempt.task.job == loose));
    for x in &r2.assignments {
        jt.attempt_succeeded(x.attempt);
    }
    assert_eq!(jt.job_status(loose), crate::JobStatus::Succeeded);
}

/// The per-policy cross-job order the unified `(rank_key, JobId)`
/// sort replaced, kept as the reference it must reproduce.
fn reference_order(jt: &JobTracker) -> Vec<JobId> {
    let job = |&jid: &JobId| jt.job(jid);
    let mut order: Vec<JobId> = jt.running_jobs.iter().copied().collect();
    match jt.cross_job {
        CrossJobPolicy::Fifo => {}
        CrossJobPolicy::FairShare => order.sort_by_key(|j| (job(j).live_attempts, *j)),
        CrossJobPolicy::FairShareInverted => {
            order.sort_by_key(|j| (job(j).live_attempts, *j));
            order.reverse();
        }
        CrossJobPolicy::Edf => {
            order.sort_by_key(|j| (job(j).spec.deadline.is_none(), job(j).spec.deadline, *j))
        }
        CrossJobPolicy::StrictPriority => {
            order.sort_by_key(|j| (std::cmp::Reverse(job(j).spec.priority), *j))
        }
        CrossJobPolicy::TenantFair => {
            let live = reference_tenant_live(jt);
            order.sort_by_key(|j| {
                let tenant = job(j).spec.tenant;
                let t_live = live.get(&tenant).copied().unwrap_or(0);
                (
                    t_live >= jt.tenant_min(tenant),
                    t_live * 1_000_000 / jt.tenant_weight(tenant),
                    job(j).live_attempts,
                    *j,
                )
            })
        }
    }
    order
}

fn reference_tenant_live(jt: &JobTracker) -> BTreeMap<u32, u64> {
    let mut live = BTreeMap::new();
    for jid in &jt.running_jobs {
        let j = jt.job(*jid);
        *live.entry(j.spec.tenant).or_insert(0u64) += u64::from(j.live_attempts);
    }
    live
}

/// The hand-written per-policy preemption guards the derived rule
/// replaced, kept as the reference it must reproduce.
fn reference_may_preempt(jt: &JobTracker, challenger: JobId, victim: JobId) -> bool {
    let ch = jt.job(challenger);
    let vi = jt.job(victim);
    match jt.cross_job {
        CrossJobPolicy::Fifo => challenger < victim,
        CrossJobPolicy::FairShare => ch.live_attempts + 1 < vi.live_attempts,
        CrossJobPolicy::FairShareInverted => false,
        CrossJobPolicy::Edf => match (ch.spec.deadline, vi.spec.deadline) {
            (Some(c), Some(v)) => c < v,
            (Some(_), None) => true,
            (None, _) => false,
        },
        CrossJobPolicy::StrictPriority => ch.spec.priority > vi.spec.priority,
        CrossJobPolicy::TenantFair => {
            let (ct, vt) = (ch.spec.tenant, vi.spec.tenant);
            if ct == vt {
                return ch.live_attempts + 1 < vi.live_attempts;
            }
            let live = reference_tenant_live(jt);
            let cl = live.get(&ct).copied().unwrap_or(0);
            let vl = live.get(&vt).copied().unwrap_or(0);
            if vl <= jt.tenant_min(vt) {
                return false;
            }
            cl < jt.tenant_min(ct)
                || (cl + 1) * jt.tenant_weight(vt) <= (vl - 1) * jt.tenant_weight(ct)
        }
    }
}

/// The single cross-job order and the guard derived from it agree
/// with the per-policy rules they replaced, on 10k random states per
/// policy: per-job live counts, deadlines (some `None`), priorities,
/// tenants (one beyond the configured ones), weights (zero counts
/// as one) and `min_slots`, over a random subset of running jobs.
#[test]
fn derived_guard_and_unified_order_match_the_per_policy_rules() {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let policies = [
        CrossJobPolicy::Fifo,
        CrossJobPolicy::FairShare,
        CrossJobPolicy::FairShareInverted,
        CrossJobPolicy::Edf,
        CrossJobPolicy::StrictPriority,
        CrossJobPolicy::TenantFair,
    ];
    let mut rng = StdRng::seed_from_u64(0x0DE7_0C0D);
    for policy in policies {
        let mut jt = hadoop_jt().with_cross_job(policy);
        let jobs: Vec<JobId> = (0..6)
            .map(|_| jt.submit_job(t(0), JobSpec::new(1, 0)))
            .collect();
        // [allowed, refused] verdicts seen, so both sides are exercised.
        let mut seen = [0u32; 2];
        for _ in 0..10_000 {
            let n_tenants = rng.gen_range(1..=3u32);
            jt.tenant_weights = (0..n_tenants).map(|_| rng.gen_range(0..=3)).collect();
            jt.tenant_min_slots = (0..n_tenants).map(|_| rng.gen_range(0..=4)).collect();
            jt.running_jobs.clear();
            for &jid in &jobs {
                let job = jt.job_mut(jid);
                job.live_attempts = rng.gen_range(0..=6);
                job.spec.deadline = rng.gen_bool(0.75).then(|| t(rng.gen_range(1..=4)));
                job.spec.priority = rng.gen_range(-2..=2);
                job.spec.tenant = rng.gen_range(0..=n_tenants);
                if rng.gen_bool(0.8) {
                    jt.running_jobs.insert(jid);
                }
            }
            let mut order = Vec::new();
            jt.pick_across_jobs(
                |_| true,
                |jid, _| {
                    order.push(jid);
                    None::<()>
                },
            );
            assert_eq!(order, reference_order(&jt), "{policy:?} pick order");
            let tenant_live = jt.tenant_live_counts();
            for &c in &jt.running_jobs {
                for &v in jt.running_jobs.iter().filter(|&&v| v != c) {
                    let want = reference_may_preempt(&jt, c, v);
                    assert_eq!(
                        jt.may_preempt(c, v, &tenant_live),
                        want,
                        "{policy:?}: {c:?} over {v:?}, challenger {:?}, victim {:?}, \
                         weights {:?}, floors {:?}",
                        jt.job(c).spec,
                        jt.job(v).spec,
                        jt.tenant_weights,
                        jt.tenant_min_slots
                    );
                    seen[usize::from(!want)] += 1;
                }
            }
        }
        let allowed_expected = policy != CrossJobPolicy::FairShareInverted;
        assert_eq!(seen[0] > 0, allowed_expected, "{policy:?}: {seen:?}");
        assert!(seen[1] > 0, "{policy:?}: {seen:?}");
    }
}

/// Randomized churn drift check: after every step of a mixed
/// workload (job submissions, partial heartbeats, completions,
/// suspensions, expiries, revivals) the incremental indexes —
/// running jobs, alive-slot counters, per-job live attempts — must
/// equal a from-scratch recomputation. Coverage flags
/// ensure the churn actually exercised every transition.
#[test]
fn incremental_indexes_survive_randomized_churn() {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let mut jt = JobTracker::new(
        SchedulerPolicy::Moon(MoonPolicy {
            tracker_expiry: SimDuration::from_secs(120),
            ..MoonPolicy::default()
        }),
        FetchFailurePolicy::MoonQuery,
    )
    .with_cross_job(CrossJobPolicy::FairShare);
    cluster(&mut jt, 9, 3); // n0..n8 volatile, n9..n11 dedicated
    let mut rng = StdRng::seed_from_u64(0xF1EE7);
    let mut now = t(0);
    // [suspended, expired, revived, job completed]
    let mut produced = [false; 4];
    for _ in 0..400 {
        now += SimDuration::from_secs(20);
        if rng.gen_range(0..10u32) == 0 {
            jt.submit_job(now, JobSpec::new(3, 1));
        }
        for i in 0..12u32 {
            if rng.gen_range(0..100u32) < 40 {
                let was_down = jt.tracker_state(NodeId(i)) != TrackerState::Alive;
                let resp = jt.heartbeat(now, NodeId(i));
                produced[2] |= was_down;
                for a in resp.assignments {
                    if rng.gen_range(0..100u32) < 50 {
                        let s = jt.attempt_succeeded(a.attempt);
                        produced[3] |= s.job_completed;
                    }
                }
            }
        }
        let sweep = jt.check_trackers(now); // audits on entry in debug builds
        produced[0] |= !sweep.suspended.is_empty();
        produced[1] |= !sweep.expired.is_empty();
        assert_eq!(jt.audit_indexes(), Vec::<String>::new());
    }
    assert_eq!(
        produced, [true; 4],
        "churn must exercise suspension, expiry, revival and job completion \
         [suspended, expired, revived, completed] = {produced:?}"
    );
}

#[test]
fn dead_tracker_reregisters_on_heartbeat() {
    let mut jt = JobTracker::new(
        SchedulerPolicy::Hadoop(HadoopPolicy::with_expiry(SimDuration::from_mins(1))),
        FetchFailurePolicy::HadoopMajority,
    );
    cluster(&mut jt, 2, 0);
    let _job = jt.submit_job(t(0), JobSpec::new(1, 0));
    jt.heartbeat(t(30), NodeId(1));
    jt.check_trackers(t(61));
    assert_eq!(jt.tracker_state(NodeId(0)), TrackerState::Dead);
    jt.heartbeat(t(90), NodeId(0));
    assert_eq!(jt.tracker_state(NodeId(0)), TrackerState::Alive);
    // It can take work again.
    let r = jt.heartbeat(t(91), NodeId(0)).assignments;
    // The single task is already running on n1 or rescheduled; either
    // way the tracker is usable (no panic) and slots report sanely.
    let _ = r;
    assert!(jt.live_attempt_count() >= 1);
}

// The per-beat scans that the picker summaries replaced, kept as the
// reference the cached pickers must reproduce.

fn reference_is_straggler(task: &TaskState, now: SimTime, avg: f64) -> bool {
    let oldest_start = || task.live_attempts().map(|a| a.started).min().unwrap_or(now);
    (task.n_live_speculative() as u32) < 1
        && now.since(oldest_start()) >= SimDuration::from_secs(60)
        && task.best_progress() < avg - 0.2
}

fn reference_avg_progress(job: &Job, kind: TaskKind) -> f64 {
    let mut sum = 0.0;
    let mut n = 0u32;
    for t in job.tasks(kind) {
        if t.completed {
            sum += 1.0;
            n += 1;
        } else if t.n_live() > 0 {
            sum += t.best_progress();
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

fn reference_pick_pending(
    jt: &JobTracker,
    node: NodeId,
    kind: TaskKind,
) -> Option<(TaskId, LaunchReason)> {
    jt.pick_across_jobs(
        |_| true,
        |_, job| {
            if kind == TaskKind::Reduce {
                let gate = (0.05 * job.spec.n_maps as f64).ceil() as u32;
                if job.metrics.completed_maps < gate.min(job.spec.n_maps) {
                    return None;
                }
            }
            jt.pick_pending_in(job, node, kind)
        },
    )
}

fn reference_pick_speculative(
    jt: &JobTracker,
    now: SimTime,
    node: NodeId,
    kind: TaskKind,
) -> Option<(TaskId, LaunchReason)> {
    match &jt.policy {
        SchedulerPolicy::Hadoop(_) => jt.pick_across_jobs(
            |_| true,
            |_, job| {
                let avg = reference_avg_progress(job, kind);
                let mut best: Option<(bool, u32, TaskId)> = None;
                for task in job.tasks(kind) {
                    if task.completed
                        || task.n_live() == 0
                        || task.has_live_attempt_on(|n| n == node)
                        || !reference_is_straggler(task, now, avg)
                    {
                        continue;
                    }
                    let non_local = !job.input_local(task.id, node);
                    let cand = (non_local, task.first_launch_seq, task.id);
                    best = Some(best.map_or(cand, |b| b.min(cand)));
                }
                best.map(|(_, _, tid)| (tid, LaunchReason::Speculative))
            },
        ),
        SchedulerPolicy::Moon(p) => jt.pick_across_jobs(
            |_| true,
            |_, job| {
                let slots = jt.alive_map_slots + jt.alive_reduce_slots;
                let cap = (p.speculative_slot_fraction * slots as f64).floor() as u32;
                let live_speculative: u32 =
                    job.all_tasks().map(|t| t.n_live_speculative() as u32).sum();
                if live_speculative >= cap.max(1) {
                    return None;
                }
                let avg = reference_avg_progress(job, kind);
                let tasks = job.tasks(kind);
                let kind_slots = match kind {
                    TaskKind::Map => jt.alive_map_slots,
                    TaskKind::Reduce => jt.alive_reduce_slots,
                };
                let remaining = tasks.iter().filter(|t| !t.completed).count() as u32;
                let homestretch_on =
                    (remaining as f64) < (p.homestretch_h_percent / 100.0) * kind_slots as f64;
                let mut frozen: Option<(u64, TaskId)> = None;
                let mut slow: Option<(u64, TaskId)> = None;
                let mut homestretch: Option<(u32, u64, TaskId)> = None;
                for task in tasks {
                    if task.completed || task.n_live() == 0 {
                        continue;
                    }
                    if task.has_live_attempt_on(|n| n == node) {
                        continue;
                    }
                    if p.hybrid && task.has_live_attempt_on(|n| jt.tracker(n).dedicated) {
                        continue;
                    }
                    let progress_key = (task.best_progress() * 1e9) as u64;
                    if task.is_frozen() {
                        let cand = (progress_key, task.id);
                        frozen = Some(frozen.map_or(cand, |b| b.min(cand)));
                        continue;
                    }
                    if reference_is_straggler(task, now, avg) {
                        let cand = (progress_key, task.id);
                        slow = Some(slow.map_or(cand, |b| b.min(cand)));
                    }
                    if homestretch_on && (task.n_running() as u32) < p.homestretch_r {
                        let cand = (task.n_running() as u32, progress_key, task.id);
                        homestretch = Some(homestretch.map_or(cand, |b| b.min(cand)));
                    }
                }
                frozen
                    .or(slow)
                    .map(|(_, tid)| (tid, LaunchReason::Speculative))
                    .or(homestretch.map(|(_, _, tid)| (tid, LaunchReason::Homestretch)))
            },
        ),
    }
}

/// Compare every cached picker with its reference scan, for every
/// registered node and both kinds; returns how many picks were `Some`
/// as `[pending, speculative]`.
fn assert_pickers_match(jt: &JobTracker, now: SimTime, ctx: &str) -> [u32; 2] {
    let mut found = [0u32; 2];
    for i in 0..jt.trackers.len() as u32 {
        let node = NodeId(i);
        for kind in [TaskKind::Map, TaskKind::Reduce] {
            let pending = jt.pick_pending(node, kind);
            assert_eq!(
                pending,
                reference_pick_pending(jt, node, kind),
                "{ctx}: pending pick for {node:?}, {kind}"
            );
            let speculative = jt.pick_speculative(now, node, kind);
            assert_eq!(
                speculative,
                reference_pick_speculative(jt, now, node, kind),
                "{ctx}: speculative pick for {node:?}, {kind}"
            );
            found[0] += u32::from(pending.is_some());
            found[1] += u32::from(speculative.is_some());
        }
    }
    assert_eq!(jt.audit_indexes(), Vec::<String>::new(), "{ctx}");
    found
}

/// Running jobs with their epochs, and the alive map and reduce slots.
type SummaryKeys = (Vec<(JobId, u64)>, u32, u32);

/// What every summary key reads, for all running jobs: their ids and
/// mutation epochs, and the alive-slot counters. While it holds still,
/// no task was written and no tracker changed liveness.
fn summary_keys(jt: &JobTracker) -> SummaryKeys {
    let jobs = jt
        .running_jobs
        .iter()
        .map(|&jid| (jid, jt.job(jid).epoch()))
        .collect();
    (jobs, jt.alive_map_slots, jt.alive_reduce_slots)
}

/// The idle-class query against the reference pickers: for every Alive
/// tracker with no live attempt, [`JobTracker::idle_grant_at`] says
/// "now" exactly when a reference pick of either kind finds a task for
/// it. `last` holds, per class, the instant the query last named with
/// the summary keys it saw then; while those keys hold still, the
/// answer turns to "now" exactly at that instant, never before or
/// after. Returns how many idle trackers were granted something.
fn assert_idle_query_matches(
    jt: &JobTracker,
    now: SimTime,
    last: &mut [Option<(SimTime, SummaryKeys)>; 2],
    ctx: &str,
) -> u32 {
    let keys = summary_keys(jt);
    let mut granted = 0;
    for dedicated in [false, true] {
        let at = jt.idle_grant_at(dedicated, now);
        assert!(at >= now, "{ctx}: dedicated={dedicated} named {at:?}");
        let grants = at == now;
        for i in 0..jt.trackers.len() as u32 {
            let node = NodeId(i);
            let tr = jt.tracker(node);
            if tr.dedicated != dedicated
                || tr.state != TrackerState::Alive
                || !tr.running.is_empty()
            {
                continue;
            }
            let originals = !dedicated || jt.policy.dedicated_runs_originals();
            let speculative = originals || jt.policy.hybrid();
            let reference = [TaskKind::Map, TaskKind::Reduce].into_iter().any(|kind| {
                (originals && reference_pick_pending(jt, node, kind).is_some())
                    || (speculative && reference_pick_speculative(jt, now, node, kind).is_some())
            });
            assert_eq!(
                grants, reference,
                "{ctx}: idle {node:?} (dedicated={dedicated})"
            );
            granted += u32::from(grants);
        }
        let slot = &mut last[usize::from(dedicated)];
        if let Some((named, _)) = slot.as_ref().filter(|(_, then)| *then == keys) {
            assert_eq!(
                grants,
                now >= *named,
                "{ctx}: dedicated={dedicated} named {named:?} with no write since; now {now:?}"
            );
        }
        *slot = (!grants).then(|| (at, keys.clone()));
    }
    granted
}

/// Seeded churn under Hadoop, MOON and MOON-Hybrid with fair-share
/// preemption: submissions, launching heartbeats, progress reports,
/// successes, failures, fetch-failure re-opens, silences that suspend
/// or expire trackers, revivals and clock advances. After every step
/// each cached picker must equal the per-beat scan it replaced, and
/// the idle-class query must match the reference pickers on every idle
/// tracker (see [`assert_idle_query_matches`]); clock advances land on
/// the instant the query named whenever they would pass it. The
/// coverage counts make sure every transition, both non-empty picks,
/// idle grants and stale instants reached with no write happened.
#[test]
fn cached_pickers_match_reference_scans_under_churn() {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let expiry = SimDuration::from_secs(150);
    let policies = [
        (
            "Hadoop",
            SchedulerPolicy::Hadoop(HadoopPolicy::with_expiry(expiry)),
            FetchFailurePolicy::HadoopMajority,
        ),
        (
            "MOON",
            SchedulerPolicy::Moon(MoonPolicy {
                tracker_expiry: expiry,
                ..MoonPolicy::without_hybrid()
            }),
            FetchFailurePolicy::MoonQuery,
        ),
        (
            "MOON-Hybrid",
            SchedulerPolicy::Moon(MoonPolicy {
                tracker_expiry: expiry,
                ..MoonPolicy::default()
            }),
            FetchFailurePolicy::MoonQuery,
        ),
    ];
    // Clock steps stopped at a named instant with the keys unchanged.
    let mut reached = 0;
    for (name, policy, fetch) in policies {
        let moon = matches!(policy, SchedulerPolicy::Moon(_));
        let mut jt = JobTracker::new(policy, fetch)
            .with_cross_job(CrossJobPolicy::FairShare)
            .with_preemption(true);
        cluster(&mut jt, 8, 2); // n0..n7 volatile, n8..n9 dedicated
        let nodes = 10u32;
        let mut rng = StdRng::seed_from_u64(0x5EED_CAC4E);
        let mut now = t(0);
        // [launched, succeeded, failed, re-opened, suspended, expired,
        //  revived, killed by preemption or sibling]
        let mut seen = [0u32; 8];
        let mut picked = [0u32; 2];
        let mut last = [None, None];
        let mut idle_granted = 0;
        for step in 0..1500 {
            let live: Vec<AttemptId> = (0..nodes)
                .flat_map(|i| jt.attempts_on(NodeId(i)).collect::<Vec<_>>())
                .collect();
            match rng.gen_range(0..12u32) {
                0 if jt.active_job_count() < 4 => {
                    let (maps, reduces) = (rng.gen_range(2..8u32), rng.gen_range(1..3u32));
                    let locations = (0..maps)
                        .map(|_| vec![NodeId(rng.gen_range(0..nodes))])
                        .collect();
                    jt.submit_job(now, JobSpec::new(maps, reduces).with_locations(locations));
                }
                1..=3 => {
                    let node = NodeId(rng.gen_range(0..nodes));
                    let revived = jt.tracker_state(node) != TrackerState::Alive;
                    let resp = jt.heartbeat(now, node);
                    seen[0] += resp.assignments.len() as u32;
                    seen[6] += u32::from(revived);
                    seen[7] += resp.kill.len() as u32;
                }
                4 | 5 if !live.is_empty() => {
                    let a = live[rng.gen_range(0..live.len())];
                    jt.report_progress(a, rng.gen_range(0.0..1.0));
                }
                6 if !live.is_empty() => {
                    let a = live[rng.gen_range(0..live.len())];
                    let resp = jt.attempt_succeeded(a);
                    seen[1] += 1;
                    seen[7] += resp.kill.len() as u32;
                }
                7 if !live.is_empty() => {
                    jt.attempt_failed(live[rng.gen_range(0..live.len())]);
                    seen[2] += 1;
                }
                8 => {
                    let running: Vec<JobId> = jt.running_jobs.iter().copied().collect();
                    if let Some(&jid) = running.get(rng.gen_range(0..running.len().max(1))) {
                        let job = jt.job(jid);
                        let map = rng.gen_range(0..job.spec.n_maps);
                        let reduce = rng.gen_range(0..job.spec.n_reduces);
                        // MOON re-opens after three reports in a window.
                        for _ in 0..rng.gen_range(1..=3) {
                            let reopened = jt.report_fetch_failure(
                                now,
                                map_task(jid, map),
                                reduce_task(jid, reduce),
                                rng.gen_bool(0.2),
                            );
                            seen[3] += u32::from(reopened);
                        }
                    }
                }
                _ => {
                    // Sub-second steps land between straggler crossings;
                    // a step that would pass a named instant stops on it.
                    let to = now + SimDuration::from_micros(rng.gen_range(1..20_000_000));
                    let named = last.iter().flatten().map(|&(at, _)| at).min();
                    now = match named {
                        Some(at) if at <= to => {
                            let keys = summary_keys(&jt);
                            reached += u32::from(last.iter().flatten().any(|(_, k)| *k == keys));
                            at
                        }
                        _ => to,
                    };
                    let sweep = jt.check_trackers(now);
                    seen[4] += sweep.suspended.len() as u32;
                    seen[5] += sweep.expired.len() as u32;
                }
            }
            let ctx = format!("{name} step {step}");
            let found = assert_pickers_match(&jt, now, &ctx);
            picked[0] += found[0];
            picked[1] += found[1];
            idle_granted += assert_idle_query_matches(&jt, now, &mut last, &ctx);
        }
        let want_suspended = u32::from(moon);
        assert!(
            seen.iter()
                .enumerate()
                .all(|(i, &n)| i == 4 && n >= want_suspended || n > 0),
            "{name}: churn must exercise every transition \
             [launched, succeeded, failed, re-opened, suspended, expired, revived, killed] \
             = {seen:?}"
        );
        assert!(
            picked.iter().all(|&n| n > 0),
            "{name}: [pending, speculative] picks found {picked:?}"
        );
        assert!(
            idle_granted > 0,
            "{name}: no idle tracker was granted anything"
        );
    }
    // Mostly Hadoop's: MOON's slow list rarely outlives a task write.
    assert!(
        reached > 0,
        "no clock step reached a named instant unwritten"
    );
}

/// A task turns into a straggler exactly when its attempt has run
/// `STRAGGLER_MIN_RUNTIME`, with no task write in between: the summary
/// built earlier must go stale at that microsecond, not later.
#[test]
fn cached_picker_sees_a_straggler_at_the_exact_microsecond() {
    for mut jt in [hadoop_jt(), moon_jt(false)] {
        cluster(&mut jt, 4, 0);
        let job = jt.submit_job(t(0), JobSpec::new(4, 0));
        jt.heartbeat(t(0), NodeId(0));
        jt.heartbeat(t(0), NodeId(1));
        for (i, p) in [0.9, 0.9, 0.9, 0.05].into_iter().enumerate() {
            let a = AttemptId {
                task: map_task(job, i as u32),
                attempt: 0,
            };
            jt.report_progress(a, p);
        }
        // Built at 30 s; valid until the laggard's 60 s mark.
        assert!(jt.heartbeat(t(30), NodeId(2)).assignments.is_empty());
        let just_before = SimTime::from_micros(t(60).as_micros() - 1);
        assert!(jt.heartbeat(just_before, NodeId(2)).assignments.is_empty());
        let r = jt.heartbeat(t(60), NodeId(2)).assignments;
        assert_eq!(r.len(), 1, "the laggard is speculated at exactly 60 s");
        assert_eq!(r[0].attempt.task, map_task(job, 3));
        assert_eq!(r[0].reason, LaunchReason::Speculative);
    }
}

/// `audit_indexes` reports a summary that is valid by its key but no
/// longer matches a fresh scan, and stops once a task write makes it
/// stale.
#[test]
fn audit_reports_a_summary_that_differs_from_a_fresh_scan() {
    let mut jt = hadoop_jt();
    cluster(&mut jt, 4, 0);
    let job = jt.submit_job(t(0), JobSpec::new(4, 0));
    let a0 = jt.heartbeat(t(0), NodeId(0)).assignments;
    let a1 = jt.heartbeat(t(0), NodeId(1)).assignments;
    for (a, p) in a0.iter().chain(&a1).zip([0.9, 0.9, 0.9, 0.05]) {
        jt.report_progress(a.attempt, p);
    }
    // Both halves cached: nothing pending, one straggler.
    assert!(jt.pick_pending(NodeId(2), TaskKind::Map).is_none());
    assert!(jt
        .pick_speculative(t(61), NodeId(2), TaskKind::Map)
        .is_some());
    assert_eq!(jt.audit_indexes(), Vec::<String>::new());
    let summary = jt.job(job).summary(TaskKind::Map);
    summary.pending.set(Some((jt.job(job).epoch(), true)));
    summary.speculative.borrow_mut().candidates.clear();
    let issues = jt.audit_indexes();
    assert_eq!(issues.len(), 2, "{issues:?}");
    assert!(
        issues[0].contains("Map pending summary drifted"),
        "{issues:?}"
    );
    assert!(
        issues[1].contains("Map speculative summary drifted"),
        "{issues:?}"
    );
    // Any task write bumps the epoch: the summary is stale, not drifted.
    jt.job_mut(job).task_mut(map_task(job, 0));
    assert_eq!(jt.audit_indexes(), Vec::<String>::new());
}
