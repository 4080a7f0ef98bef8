//! Determinism regression test for the world refactor: the same seed
//! must produce bit-identical `RunMetrics` (and derived results), run
//! after run. This is the safety net behind the `world/` subsystem
//! split and any future resequencing of its internals — if a refactor
//! introduces iteration-order or RNG-stream dependence, this fails.

use moon::{ClusterConfig, Experiment, PolicyConfig, RunResult};
use rayon::prelude::*;

fn quickstart_run(seed: u64, rate: f64) -> RunResult {
    Experiment {
        cluster: ClusterConfig::small(rate),
        policy: PolicyConfig::moon_hybrid(),
        workload: moon::quick_workload(),
        seed,
    }
    .run()
}

/// Compare every measured field of two runs, bit-exact for floats —
/// including the per-job SLO rows of multi-job runs.
fn assert_identical(a: &RunResult, b: &RunResult) {
    match (&a.jobs, &b.jobs) {
        (None, None) => {}
        (Some(x), Some(y)) => {
            assert_eq!(x.len(), y.len(), "job-stream row counts diverged");
            for (ja, jb) in x.iter().zip(y) {
                assert_eq!(ja.job, jb.job);
                assert_eq!(ja.workload, jb.workload);
                assert_eq!(ja.submitted, jb.submitted, "job {} arrival", ja.job);
                assert_eq!(ja.first_launch, jb.first_launch, "job {} launch", ja.job);
                assert_eq!(ja.finished, jb.finished, "job {} commit", ja.job);
                assert_eq!(ja.deadline, jb.deadline, "job {} deadline", ja.job);
                assert_eq!(ja.priority, jb.priority, "job {} priority", ja.job);
                assert_eq!(ja.tenant, jb.tenant, "job {} tenant", ja.job);
                // Whole per-job counter block, preemption included.
                assert_eq!(ja.metrics, jb.metrics, "job {} counters", ja.job);
            }
        }
        _ => panic!("one run has SLO rows, the other does not"),
    }
    assert_eq!(a.events, b.events, "event counts diverged");
    assert_eq!(
        a.job_secs().to_bits(),
        b.job_secs().to_bits(),
        "job time diverged: {} vs {}",
        a.job_secs(),
        b.job_secs()
    );
    assert_eq!(a.fetch_failures, b.fetch_failures);
    assert_eq!(a.job.completed_maps, b.job.completed_maps);
    assert_eq!(a.job.completed_reduces, b.job.completed_reduces);
    assert_eq!(a.job.duplicated_tasks, b.job.duplicated_tasks);
    assert_eq!(a.job.killed_maps, b.job.killed_maps);
    assert_eq!(a.job.killed_reduces, b.job.killed_reduces);
    assert_eq!(a.job.map_output_relaunches, b.job.map_output_relaunches);
    assert_eq!(
        a.job.killed_by_tracker_expiry,
        b.job.killed_by_tracker_expiry
    );
    assert_eq!(
        a.profile.avg_map_time.to_bits(),
        b.profile.avg_map_time.to_bits()
    );
    assert_eq!(
        a.profile.avg_shuffle_time.to_bits(),
        b.profile.avg_shuffle_time.to_bits()
    );
    assert_eq!(
        a.profile.avg_reduce_time.to_bits(),
        b.profile.avg_reduce_time.to_bits()
    );
    // The end-of-run conservation audit must agree — and hold — on
    // both runs; a drifted counter here is a world bug, not noise.
    assert_eq!(a.audit, b.audit, "audit findings diverged");
    assert!(a.audit.is_empty(), "audit: {:?}", a.audit);
}

#[test]
fn quickstart_workload_is_deterministic_per_seed() {
    // Stable and volatile clusters: volatility exercises the outage /
    // pause / retry / re-replication paths, where hidden nondeterminism
    // (hash-map iteration, stream reuse) would most likely hide.
    for rate in [0.0, 0.3] {
        for seed in [1u64, 7, 99] {
            let a = quickstart_run(seed, rate);
            let b = quickstart_run(seed, rate);
            assert_identical(&a, &b);
        }
    }
}

/// Thread-count independence: the grid's (point, seed) cells fanned out
/// over an N-thread pool, as the campaign's cell loop fans them out,
/// must produce per-seed results bit-identical to the same sweep
/// executed serially on one thread, in grid order. Each task is an independent
/// fully-seeded experiment, so the pool may only affect *where* a run
/// executes, never *what* it computes — this pins that invariant
/// against future shared-state creep (caches, memo tables, global RNG).
#[test]
fn parallel_sweep_matches_single_thread_sweep() {
    // Force a real multi-worker pool even on a 1-core runner. First
    // configuration wins process-wide; this binary's other tests don't
    // touch the pool, so this cannot race.
    let _ = rayon::ThreadPoolBuilder::new()
        .num_threads(4)
        .build_global();

    // Multiple seeds per point, so the (point, seed) flattening and the
    // cell loop's grid-order regrouping are exercised for real — with
    // one seed they degenerate to the old per-point loop. Passed
    // explicitly (not via MOON_SEEDS) so no test thread mutates process
    // environment.
    let seeds: Vec<u64> = vec![42, 1042, 2042];
    let mut points = Vec::new();
    for policy in [
        PolicyConfig::moon_hybrid(),
        PolicyConfig::hadoop(simkit::SimDuration::from_mins(1), 3),
    ] {
        for rate in [0.0, 0.3, 0.5] {
            points.push(scenarios::Point {
                policy: policy.clone(),
                cluster: ClusterConfig::small(rate),
                workload: moon::quick_workload(),
                jobs: None,
                telemetry: None,
            });
        }
    }
    // Multi-job points: every arrival model under both cross-job
    // policies, so concurrent-jobs bookkeeping (per-slot shuffle state,
    // closed-stream think-time sampling, Poisson arrival derivation)
    // is pinned to be thread-placement-independent too.
    for (policy, stream) in [
        (
            PolicyConfig::moon_hybrid(),
            workloads::JobStream::new(workloads::ArrivalModel::Poisson {
                rate_per_hour: 240.0,
                count: 5,
            }),
        ),
        (
            PolicyConfig::moon_hybrid().with_fair_share(),
            workloads::JobStream::new(workloads::ArrivalModel::Batch(vec![
                simkit::SimDuration::ZERO,
                simkit::SimDuration::from_secs(20),
                simkit::SimDuration::from_secs(40),
            ])),
        ),
        (
            PolicyConfig::hadoop(simkit::SimDuration::from_mins(1), 3),
            workloads::JobStream::new(workloads::ArrivalModel::Closed {
                clients: 2,
                jobs_per_client: 2,
                think: workloads::DurationModel::Fixed(simkit::SimDuration::from_secs(15)),
            }),
        ),
    ] {
        points.push(scenarios::Point {
            policy,
            cluster: ClusterConfig::small(0.3),
            workload: moon::quick_workload(),
            jobs: Some(stream),
            telemetry: None,
        });
    }
    // Preemption-heavy points: overlapping jobs with scheduling
    // metadata under every deadline-/priority-/tenant-aware ranking,
    // kill-and-requeue on, under churn — pinning the preemption path
    // (victim ranking, kill-before-assign ordering, requeue) to be
    // thread-placement-independent and bit-identical per seed.
    let burst = || {
        workloads::ArrivalModel::Batch(vec![
            simkit::SimDuration::ZERO,
            simkit::SimDuration::from_secs(5),
            simkit::SimDuration::from_secs(10),
        ])
    };
    for (policy, stream) in [
        (
            PolicyConfig::moon_hybrid()
                .with_cross_job(mapred::CrossJobPolicy::Edf)
                .with_preemption(),
            workloads::JobStream {
                deadlines: vec![
                    simkit::SimDuration::from_secs(60),
                    simkit::SimDuration::from_secs(600),
                ],
                ..workloads::JobStream::new(burst())
            },
        ),
        (
            PolicyConfig::moon_hybrid()
                .with_cross_job(mapred::CrossJobPolicy::StrictPriority)
                .with_preemption(),
            workloads::JobStream {
                priorities: vec![0, 5, 2],
                ..workloads::JobStream::new(workloads::ArrivalModel::Closed {
                    clients: 3,
                    jobs_per_client: 2,
                    think: workloads::DurationModel::Fixed(simkit::SimDuration::from_secs(5)),
                })
            },
        ),
        (
            PolicyConfig::moon_hybrid()
                .with_cross_job(mapred::CrossJobPolicy::TenantFair)
                .with_preemption(),
            workloads::JobStream {
                tenants: vec![0, 1],
                tenant_weights: vec![2, 1],
                tenant_min_slots: vec![1, 1],
                ..workloads::JobStream::new(burst())
            },
        ),
        (
            PolicyConfig::moon_hybrid()
                .with_fair_share()
                .with_preemption(),
            workloads::JobStream::new(burst()),
        ),
    ] {
        points.push(scenarios::Point {
            policy,
            cluster: ClusterConfig::small(0.3),
            workload: moon::quick_workload(),
            jobs: Some(stream),
            telemetry: None,
        });
    }

    // Serial reference: the exact sweep the cell loop performs, one
    // task at a time on this thread, in grid order.
    let serial: Vec<Vec<RunResult>> = points
        .iter()
        .map(|pt| {
            seeds
                .iter()
                .map(|&seed| {
                    Experiment {
                        cluster: pt.cluster.clone(),
                        policy: pt.policy.clone(),
                        workload: pt.workload.clone(),
                        seed,
                    }
                    .run_with_limits(
                        pt.jobs.clone(),
                        None,
                        moon::RunLimits::default(),
                    )
                })
                .collect()
        })
        .collect();

    let cells: Vec<(usize, u64)> = (0..points.len())
        .flat_map(|p| seeds.iter().map(move |&seed| (p, seed)))
        .collect();
    let mut flat = cells
        .into_par_iter()
        .map(|(p, seed)| points[p].run(seed, moon::RunLimits::default()))
        .collect::<Vec<RunResult>>()
        .into_iter();
    let parallel: Vec<Vec<RunResult>> = points
        .iter()
        .map(|_| seeds.iter().map(|_| flat.next().unwrap()).collect())
        .collect();

    assert_eq!(parallel.len(), serial.len(), "grid shape diverged");
    for (pi, (par_point, ser_point)) in parallel.iter().zip(&serial).enumerate() {
        assert_eq!(par_point.len(), ser_point.len(), "seed count diverged");
        for (si, (p, s)) in par_point.iter().zip(ser_point).enumerate() {
            assert_eq!(p.seed, s.seed, "seed order diverged at point {pi}");
            assert_eq!(p.label, s.label, "grid order diverged at point {pi}");
            assert_eq!(
                p.unavailability, s.unavailability,
                "grid order diverged at point {pi}"
            );
            eprintln!("point {pi} seed {si}: parallel == serial check");
            assert_identical(p, s);
        }
    }
}

/// Fleet-scale determinism: a 4-thread sweep over the `fleet-1k`
/// scenario (trimmed to two load columns and a shorter horizon so the
/// debug-build test stays fast) must be bit-identical to the same grid
/// run serially. This drives the fleet-scale paths — the liveness
/// sweeps, maintained slot counters, and per-column scaled arrival
/// streams — at 1000-node scale, where any
/// iteration-order or shared-state dependence they introduced would
/// surface as cross-thread divergence.
#[test]
fn fleet_scale_parallel_sweep_matches_serial() {
    let _ = rayon::ThreadPoolBuilder::new()
        .num_threads(4)
        .build_global();

    let mut spec = scenarios::registry::find("fleet-1k").expect("registered");
    let scenarios::Axis::Load(ref mut l) = spec.axis else {
        panic!("fleet-1k sweeps a load axis");
    };
    l.points = vec![120.0, 480.0];
    spec.horizon_secs = Some(1200);
    if let Some(jobs) = &mut spec.jobs {
        jobs.arrivals = scenarios::ArrivalSpec::Poisson {
            rate_per_hour: 120.0,
            count: 4,
        };
    }
    let plan = scenarios::expand(&spec).expect("fleet spec expands");
    assert_eq!(plan.points.len(), 4, "2 policies x 2 load columns");
    assert!(plan.points.iter().all(|p| p.cluster.n_volatile == 1_000));

    let seeds = vec![42u64];
    let serial: Vec<Vec<RunResult>> = plan
        .points
        .iter()
        .map(|pt| {
            seeds
                .iter()
                .map(|&seed| {
                    Experiment {
                        cluster: pt.cluster.clone(),
                        policy: pt.policy.clone(),
                        workload: pt.workload.clone(),
                        seed,
                    }
                    .run_with_limits(
                        pt.jobs.clone(),
                        None,
                        moon::RunLimits::default(),
                    )
                })
                .collect()
        })
        .collect();

    let parallel = bench::run_spec(&spec, Some(seeds.clone()))
        .expect("fleet spec runs")
        .results;
    assert_eq!(parallel.len(), serial.len(), "grid shape diverged");
    for (pi, (par_point, ser_point)) in parallel.iter().zip(&serial).enumerate() {
        for (p, s) in par_point.iter().zip(ser_point) {
            eprintln!("fleet point {pi}: parallel == serial check");
            assert_identical(p, s);
        }
    }
}

#[test]
fn job_stream_runs_are_deterministic_per_seed() {
    let run = |seed| {
        Experiment {
            cluster: ClusterConfig::small(0.3),
            policy: PolicyConfig::moon_hybrid().with_fair_share(),
            workload: moon::quick_workload(),
            seed,
        }
        .run_with_limits(
            Some(workloads::JobStream::new(
                workloads::ArrivalModel::Poisson {
                    rate_per_hour: 240.0,
                    count: 4,
                },
            )),
            None,
            moon::RunLimits::default(),
        )
    };
    let a = run(7);
    let b = run(7);
    assert_identical(&a, &b);
    let rows = a.jobs.as_ref().expect("stream runs carry SLO rows");
    assert_eq!(rows.len(), 4, "all four jobs submitted: {rows:?}");
}

#[test]
fn different_seeds_actually_differ() {
    // Guard against the degenerate "deterministic because the seed is
    // ignored" failure mode.
    let a = quickstart_run(1, 0.3);
    let b = quickstart_run(2, 0.3);
    assert!(
        a.events != b.events || a.job_secs() != b.job_secs(),
        "seeds 1 and 2 produced identical runs — seed plumbed through?"
    );
}

/// FNV-1a over a run's result JSON with its `"events"` line removed:
/// the event count is the one field that may move when the simulator
/// drops events that change nothing.
fn result_digest(r: &RunResult) -> u64 {
    let row = moon::report::json::result_row(r);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for line in row.lines().filter(|l| !l.contains("\"events\"")) {
        for b in line.bytes().chain([b'\n']) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// One golden row: a run and the digest recorded for it.
struct Golden {
    name: &'static str,
    run: fn() -> RunResult,
    digest: u64,
    /// The event count recorded with the digest before a change that
    /// must remove idle beats from the run — parking beats while jobs
    /// run, or waking parked beats one instant at a time: the golden
    /// then shows that it exercises that change.
    events_before: Option<u64>,
}

/// A single job under a catalog policy on the small 12 + 2 cluster.
fn catalog_run(policy: &str, workload: workloads::WorkloadSpec, rate: f64) -> RunResult {
    Experiment {
        cluster: ClusterConfig::small(rate),
        policy: scenarios::policy::resolve(policy).expect("catalog id"),
        workload,
        seed: 3,
    }
    .run()
}

/// The quick workload with 150 s maps: long enough for MOON's slow
/// list (the 60 s straggler rule and the per-task speculation cap) to
/// pick tasks, which the 10 s quick maps never reach.
fn long_maps() -> workloads::WorkloadSpec {
    workloads::WorkloadSpec {
        map_cpu: workloads::DurationModel::around(simkit::SimDuration::from_secs(150)),
        ..moon::quick_workload()
    }
}

/// A Poisson stream with idle gaps between jobs on 74 nodes. Beats of
/// nodes i and i + 60 share an instant (50 ms stagger, 3 s period), so
/// the run pins the order in which same-instant beats are served when
/// a job arrives after an idle gap, not only which beats happen.
fn idle_gap_stream() -> RunResult {
    let r = Experiment {
        cluster: ClusterConfig {
            n_volatile: 70,
            n_dedicated: 4,
            ..ClusterConfig::paper(0.3)
        },
        policy: PolicyConfig::moon_hybrid(),
        workload: moon::quick_workload(),
        seed: 11,
    }
    .run_with_limits(
        Some(workloads::JobStream::new(
            workloads::ArrivalModel::Poisson {
                rate_per_hour: 12.0,
                count: 5,
            },
        )),
        None,
        moon::RunLimits::default(),
    );
    let rows = r.jobs.as_ref().expect("stream runs carry SLO rows");
    assert_eq!(rows.len(), 5, "{rows:?}");
    r
}

/// A stream run on `n_volatile` + 6 nodes at unavailability 0.3.
fn stream_run(
    n_volatile: u32,
    policy: PolicyConfig,
    workload: workloads::WorkloadSpec,
    stream: workloads::JobStream,
) -> RunResult {
    Experiment {
        cluster: ClusterConfig {
            n_volatile,
            ..ClusterConfig::paper(0.3)
        },
        policy,
        workload,
        seed: 5,
    }
    .run_with_limits(Some(stream), None, moon::RunLimits::default())
}

/// Two Hadoop jobs of 150 s maps on 110 nodes, the second submitted
/// while the first runs. Most nodes idle while a job runs, and the
/// 60 s straggler rule makes tasks speculable at instants no task
/// write marks.
fn hadoop_long_maps_stream() -> RunResult {
    let secs = simkit::SimDuration::from_secs;
    stream_run(
        104,
        scenarios::policy::resolve("hadoop-1min").expect("catalog id"),
        long_maps(),
        workloads::JobStream::new(workloads::ArrivalModel::Batch(vec![secs(0), secs(40)])),
    )
}

/// A Poisson stream under MOON-Hybrid, whose throttled dedicated
/// nodes beat on while the volatile ones idle.
fn hybrid_stream() -> RunResult {
    stream_run(
        60,
        PolicyConfig::moon_hybrid(),
        moon::quick_workload(),
        workloads::JobStream::new(workloads::ArrivalModel::Poisson {
            rate_per_hour: 60.0,
            count: 3,
        }),
    )
}

/// A closed stream under fair share with preemption.
fn fair_preempt_closed_stream() -> RunResult {
    stream_run(
        60,
        PolicyConfig::moon().with_fair_share().with_preemption(),
        moon::quick_workload(),
        workloads::JobStream::new(workloads::ArrivalModel::Closed {
            clients: 3,
            jobs_per_client: 2,
            think: workloads::DurationModel::Fixed(simkit::SimDuration::from_secs(20)),
        }),
    )
}

/// Four jobs of 48 maps on 186 nodes, each submitted while the one
/// before runs. About three parked nodes share each beat instant, so
/// the tasks a `Submit` releases outlast one instant's beats and the
/// wake reaches several instants in turn.
fn wide_release_stream() -> RunResult {
    let secs = simkit::SimDuration::from_secs;
    stream_run(
        180,
        PolicyConfig::moon_hybrid(),
        workloads::WorkloadSpec {
            n_maps: 48,
            ..moon::quick_workload()
        },
        workloads::JobStream::new(workloads::ArrivalModel::Batch(vec![
            secs(0),
            secs(25),
            secs(50),
            secs(75),
        ])),
    )
}

/// Golden digests of the policy families: the idle-gap stream (recorded
/// before idle beats were parked), then one quick job per scheduler
/// family — Hadoop's straggler rule, MOON with and without hybrid
/// placement — the Figure 4 reliable-intermediate setup, MOON's slow
/// list on long maps, three streams recorded before beats were
/// parked while jobs run: Hadoop's straggler instants on 110 nodes,
/// MOON-Hybrid's throttled dedicated nodes, and fair share with
/// preemption under a closed stream, and a stream whose submissions
/// wake parked beats over several instants. Every field but the event
/// count must match.
#[test]
fn runs_match_recorded_digests() {
    let goldens = [
        Golden {
            name: "idle-gap stream",
            run: idle_gap_stream,
            digest: 0x182a_c836_6c73_4441,
            events_before: None,
        },
        Golden {
            name: "hadoop-1min p=0.5",
            run: || catalog_run("hadoop-1min", moon::quick_workload(), 0.5),
            digest: 0xd37b_2e02_2379_773d,
            events_before: None,
        },
        Golden {
            name: "moon p=0.5",
            run: || catalog_run("moon", moon::quick_workload(), 0.5),
            digest: 0x8a91_6adf_95bf_a1a4,
            events_before: None,
        },
        Golden {
            name: "moon-hybrid p=0.5",
            run: || catalog_run("moon-hybrid", moon::quick_workload(), 0.5),
            digest: 0x6b8d_dca8_b1cd_9b99,
            events_before: None,
        },
        Golden {
            name: "ha-v1+reliable p=0.3",
            run: || catalog_run("ha-v1+reliable", moon::quick_workload(), 0.3),
            digest: 0x99f0_9d34_be9c_2e4a,
            events_before: None,
        },
        Golden {
            name: "moon-hybrid long maps p=0.5",
            run: || catalog_run("moon-hybrid", long_maps(), 0.5),
            digest: 0xd8cb_7702_b78a_0fdd,
            events_before: None,
        },
        Golden {
            name: "hadoop long-map stream, 110 nodes",
            run: hadoop_long_maps_stream,
            digest: 0x5424_3954_c079_a991,
            events_before: Some(31_399),
        },
        Golden {
            name: "moon-hybrid poisson stream",
            run: hybrid_stream,
            digest: 0x8466_5211_db40_2fb6,
            events_before: Some(2_189),
        },
        Golden {
            name: "fair+preempt closed stream",
            run: fair_preempt_closed_stream,
            // 4,002 events before beats were parked while jobs run.
            digest: 0xf291_5fd3_b160_2ca3,
            events_before: None,
        },
        Golden {
            name: "wide-release stream, 186 nodes",
            run: wide_release_stream,
            digest: 0x2045_926c_0714_48fe,
            events_before: Some(4_027),
        },
    ];
    let mut wrong = Vec::new();
    for g in &goldens {
        let r = (g.run)();
        let digest = result_digest(&r);
        if digest != g.digest {
            wrong.push(format!("{}: {digest:#018x}", g.name));
        }
        if let Some(before) = g.events_before {
            assert!(r.events < before, "{}: {} events", g.name, r.events);
        }
    }
    assert!(wrong.is_empty(), "digests moved: {wrong:?}");
}
