//! Property-based tests over the core data structures and invariants.
//!
//! The build environment has no crate registry, so instead of proptest
//! these properties run over a deterministic, seeded case generator
//! (the vendored `rand` shim): each test draws a few hundred random
//! inputs and asserts the invariant on every one. No shrinking, but
//! every failure reports the case index and is exactly reproducible.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simkit::{EventQueue, PausableWork, SimDuration, SimTime};

/// Number of random cases per property.
const CASES: usize = 200;

fn rng_for(test: &str, case: usize) -> StdRng {
    // Stable per-(test, case) seed so any failure names its case.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in test.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
    StdRng::seed_from_u64(h.wrapping_add(case as u64))
}

// ---------------------------------------------------------------------
// netsim: max-min fairness invariants
// ---------------------------------------------------------------------

#[test]
fn maxmin_never_oversubscribes_and_is_work_conserving() {
    for case in 0..CASES {
        let mut rng = rng_for("maxmin", case);
        let n_res = rng.gen_range(1usize..8);
        let caps: Vec<f64> = (0..n_res).map(|_| rng.gen_range(0.0..1000.0)).collect();
        let n_flows = rng.gen_range(0usize..20);
        let flows: Vec<Vec<usize>> = (0..n_flows)
            .map(|_| {
                let seed = rng.gen_range(0usize..1000);
                let k = rng.gen_range(1usize..4);
                (0..k.min(n_res)).map(|j| (seed + j * 7) % n_res).collect()
            })
            .collect();
        let rates = netsim::maxmin_rates(&caps, &flows);
        assert_eq!(rates.len(), flows.len(), "case {case}");
        // 1. No resource oversubscribed.
        for (r, &cap) in caps.iter().enumerate() {
            let used: f64 = flows
                .iter()
                .zip(&rates)
                .filter(|(f, _)| f.contains(&r))
                .map(|(_, &x)| x)
                .sum();
            assert!(used <= cap * (1.0 + 1e-6) + 1e-9, "case {case}");
        }
        // 2. All rates finite and non-negative.
        for &x in &rates {
            assert!(x.is_finite() && x >= 0.0, "case {case}");
        }
        // 3. Work conservation / max-min property: every flow is either
        //    stalled by a dead resource or bottlenecked by some resource
        //    that is (nearly) fully used.
        for (f, &rate) in flows.iter().zip(&rates) {
            if f.iter().any(|&r| caps[r] <= 0.0) {
                assert_eq!(rate, 0.0, "case {case}");
                continue;
            }
            let has_tight_resource = f.iter().any(|&r| {
                let used: f64 = flows
                    .iter()
                    .zip(&rates)
                    .filter(|(g, _)| g.contains(&r))
                    .map(|(_, &x)| x)
                    .sum();
                used >= caps[r] * (1.0 - 1e-6) - 1e-9
            });
            assert!(
                has_tight_resource,
                "case {case}: flow with rate {rate} has slack on every resource"
            );
        }
    }
}

// ---------------------------------------------------------------------
// simkit: event queue ordering, pausable work conservation
// ---------------------------------------------------------------------

#[test]
fn event_queue_pops_sorted_and_complete() {
    for case in 0..CASES {
        let mut rng = rng_for("event_queue", case);
        let n = rng.gen_range(0usize..200);
        let times: Vec<u64> = (0..n).map(|_| rng.gen_range(0u64..1_000_000)).collect();
        let mut q = EventQueue::new();
        let ids: Vec<_> = times
            .iter()
            .map(|&t| q.push(SimTime::from_micros(t), t))
            .collect();
        let mut cancelled = 0;
        for id in &ids {
            if rng.gen_bool(0.5) && q.cancel(*id) {
                cancelled += 1;
            }
        }
        let mut popped = Vec::new();
        while let Some((at, _, v)) = q.pop() {
            assert_eq!(at.as_micros(), v, "case {case}");
            popped.push(v);
        }
        assert_eq!(popped.len() + cancelled, times.len(), "case {case}");
        let mut sorted = popped.clone();
        sorted.sort();
        assert_eq!(popped, sorted, "case {case}");
    }
}

#[test]
fn pausable_work_conserves_active_time() {
    for case in 0..CASES {
        let mut rng = rng_for("pausable_work", case);
        let total_s = rng.gen_range(1u64..10_000);
        let n_intervals = rng.gen_range(1usize..40);
        let mut w = PausableWork::new(SimDuration::from_secs(total_s));
        let mut now = 0u64;
        let mut active = 0u64;
        for _ in 0..n_intervals {
            let gap = rng.gen_range(0u64..100);
            let run = rng.gen_range(1u64..100);
            now += gap;
            w.resume(SimTime::from_secs(now));
            now += run;
            w.pause(SimTime::from_secs(now));
            active += run;
        }
        let done = w.done(SimTime::from_secs(now)).as_micros();
        let expected = active.min(total_s) * 1_000_000;
        assert_eq!(done, expected, "case {case}");
        assert_eq!(
            w.is_complete(SimTime::from_secs(now)),
            active >= total_s,
            "case {case}"
        );
    }
}

// ---------------------------------------------------------------------
// availability: generator invariants
// ---------------------------------------------------------------------

#[test]
fn generated_traces_are_wellformed_and_on_target() {
    for case in 0..64 {
        let mut rng = rng_for("trace_gen", case);
        let p = rng.gen_range(0.05f64..0.6);
        let seed: u64 = rng.gen();
        let cfg = availability::TraceGenConfig::paper(p);
        let mut rng = StdRng::seed_from_u64(seed);
        let tr = availability::TraceGenerator::poisson_insertion(&cfg, &mut rng);
        // Outages sorted, disjoint, within horizon (the constructor
        // asserts this; verify the exported view too).
        let mut prev_end = SimTime::ZERO;
        for o in tr.outages() {
            assert!(o.start >= prev_end, "case {case}");
            assert!(o.end > o.start, "case {case}");
            assert!(o.end <= tr.horizon(), "case {case}");
            prev_end = o.end;
        }
        // Rate within tolerance of the target. A low-rate trace can
        // legitimately sample zero outages (the Poisson arrival count is
        // itself random); the exact-rate rescale only applies when there
        // is something to rescale.
        if tr.n_outages() > 0 {
            assert!(
                (tr.unavailability() - p).abs() < 0.05,
                "case {case}: target {p}, got {}",
                tr.unavailability()
            );
        }
    }
}

#[test]
fn estimator_always_in_unit_interval() {
    use availability::SlidingWindowEstimator;
    for case in 0..CASES {
        let mut rng = rng_for("estimator", case);
        let n_obs = rng.gen_range(1usize..50);
        let mut obs: Vec<(u64, usize, usize)> = (0..n_obs)
            .map(|_| {
                (
                    rng.gen_range(0u64..10_000),
                    rng.gen_range(0usize..50),
                    rng.gen_range(1usize..50),
                )
            })
            .collect();
        obs.sort_by_key(|&(t, _, _)| t);
        let mut est = SlidingWindowEstimator::new(SimDuration::from_secs(600), 0.3);
        for &(t, down, total) in &obs {
            let down = down.min(total);
            est.observe(SimTime::from_secs(t), down, total);
            let e = est.estimate(SimTime::from_secs(t + 1));
            assert!(
                (0.0..=1.0).contains(&e),
                "case {case}: estimate {e} out of range"
            );
        }
    }
}

// ---------------------------------------------------------------------
// availability: trace-file format round-trips
// ---------------------------------------------------------------------

/// Build a random well-formed fleet: each node gets sorted, disjoint
/// outages within a shared horizon; some nodes have none.
fn random_fleet<R: Rng>(rng: &mut R) -> Vec<availability::AvailabilityTrace> {
    let horizon_us = rng.gen_range(1_000_000u64..50_000_000_000);
    let n_nodes = rng.gen_range(0usize..12);
    (0..n_nodes)
        .map(|_| {
            let mut outages = Vec::new();
            let mut t = 0u64;
            loop {
                let gap = rng.gen_range(1u64..horizon_us / 4 + 2);
                let dur = rng.gen_range(1u64..horizon_us / 4 + 2);
                let start = t + gap;
                let end = start.saturating_add(dur).min(horizon_us);
                if start >= horizon_us || end <= start {
                    break;
                }
                outages.push(availability::Outage {
                    start: SimTime::from_micros(start),
                    end: SimTime::from_micros(end),
                });
                t = end;
                if rng.gen_bool(0.3) {
                    break;
                }
            }
            availability::AvailabilityTrace::new(outages, SimTime::from_micros(horizon_us))
        })
        .collect()
}

#[test]
fn trace_file_round_trips_any_wellformed_fleet() {
    for case in 0..CASES {
        let mut rng = rng_for("trace_file_roundtrip", case);
        let fleet = random_fleet(&mut rng);
        let mut buf = Vec::new();
        availability::write_fleet(&mut buf, &fleet).expect("in-memory write");
        let back =
            availability::read_fleet(buf.as_slice()).unwrap_or_else(|e| panic!("case {case}: {e}"));
        // Horizon normalizes to the fleet-wide max on save; empty
        // fleets aside, ours share one horizon, so equality is exact.
        assert_eq!(fleet, back, "case {case}");
    }
}

/// The fuzzer's trace-file axis writes generator-produced fleets
/// ([`scenarios::fuzz`] → `save_fleet`) and reloads them for the run:
/// the codec must round-trip those fleets exactly, and an overlapping
/// interval smuggled into such a file must be rejected with the exact
/// line it sits on — that is what makes a hand-edited repro debuggable.
#[test]
fn generated_trace_fleets_round_trip_and_reject_overlaps() {
    for case in 0..16u64 {
        let mut rng = rng_for("trace_gen_fleet", case as usize);
        let mut cfg = availability::TraceGenConfig::paper(rng.gen_range(0.05f64..0.35));
        cfg.horizon = SimTime::from_secs(rng.gen_range(2400u64..7200));
        let fleet: Vec<_> = (0..6)
            .map(|_| availability::TraceGenerator::poisson_insertion(&cfg, &mut rng))
            .collect();
        let mut buf = Vec::new();
        availability::write_fleet(&mut buf, &fleet).expect("in-memory write");
        let back =
            availability::read_fleet(buf.as_slice()).unwrap_or_else(|e| panic!("case {case}: {e}"));
        assert_eq!(fleet, back, "case {case}");

        // Duplicate a node's outage line: the second copy overlaps the
        // first (same interval), and the error must name its line.
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let Some(victim) =
            (0..lines.len()).find(|&i| !lines[i].starts_with('#') && !lines[i].is_empty())
        else {
            continue; // low-rate draw with zero outages fleet-wide
        };
        let mut doctored: Vec<String> = lines.iter().map(|s| s.to_string()).collect();
        doctored.insert(victim + 1, lines[victim].to_string());
        let e = availability::read_fleet(doctored.join("\n").as_bytes())
            .expect_err("overlapping intervals must be rejected");
        assert_eq!(e.line, victim + 2, "case {case}: {e}");
        assert!(e.to_string().contains("overlaps"), "case {case}: {e}");
    }
}

#[test]
fn trace_file_errors_name_lines_on_corrupted_input() {
    for case in 0..64 {
        let mut rng = rng_for("trace_file_errors", case);
        let fleet = loop {
            let f = random_fleet(&mut rng);
            if f.iter().map(|t| t.n_outages()).sum::<usize>() > 0 {
                break f;
            }
        };
        let mut buf = Vec::new();
        availability::write_fleet(&mut buf, &fleet).expect("in-memory write");
        let text = String::from_utf8(buf).unwrap();
        // Corrupt one random data line (drop a field, or scramble a
        // number) and check the error points at exactly that line.
        let lines: Vec<&str> = text.lines().collect();
        let data_lines: Vec<usize> = (0..lines.len())
            .filter(|&i| !lines[i].starts_with('#') && !lines[i].is_empty())
            .collect();
        let victim = data_lines[rng.gen_range(0..data_lines.len())];
        let mut corrupted: Vec<String> = lines.iter().map(|s| s.to_string()).collect();
        corrupted[victim] = if rng.gen_bool(0.5) {
            // Two fields instead of three.
            let parts: Vec<&str> = lines[victim].split(',').collect();
            format!("{},{}", parts[0], parts[1])
        } else {
            format!("{},junk", lines[victim])
        };
        let e = availability::read_fleet(corrupted.join("\n").as_bytes())
            .expect_err("corruption must be detected");
        assert_eq!(e.line, victim + 1, "case {case}: {e}");
        assert!(
            e.to_string().contains(&format!("line {}", victim + 1)),
            "case {case}: {e}"
        );
    }
}

// ---------------------------------------------------------------------
// scenarios: spec codec round-trips
// ---------------------------------------------------------------------

/// Draw a random (syntactically arbitrary, semantically unchecked)
/// scenario spec — parse/serialize must round-trip it regardless of
/// whether the names would resolve.
fn random_spec<R: Rng>(rng: &mut R) -> scenarios::ScenarioSpec {
    const WORDS: [&str; 6] = ["sort", "word count", "quick", "sleep(sort)", "x y", "a\"b"];
    let word = |rng: &mut R| WORDS[rng.gen_range(0..WORDS.len())].to_string();
    let n_panels = rng.gen_range(1usize..4);
    let axis = match rng.gen_range(0u8..4) {
        0 => scenarios::Axis::Rates(
            (0..rng.gen_range(0usize..5))
                .map(|i| i as f64 / 7.0)
                .collect(),
        ),
        1 => scenarios::Axis::Correlated(scenarios::CorrelatedAxis {
            points: (0..rng.gen_range(1usize..4))
                .map(|i| 0.25 * (i + 1) as f64)
                .collect(),
            knob: if rng.gen_bool(0.5) {
                scenarios::CorrelatedKnob::SessionsPerHour
            } else {
                scenarios::CorrelatedKnob::SessionFraction
            },
            sessions_per_hour: rng.gen_range(0.1..3.0),
            session_fraction: rng.gen_range(0.05..0.9),
            background: rng.gen_range(0.0..0.5),
            diurnal: rng.gen_bool(0.5),
        }),
        2 => scenarios::Axis::Load(scenarios::LoadAxis {
            points: (0..rng.gen_range(1usize..4))
                .map(|i| 15.0 * (i + 1) as f64)
                .collect(),
            rate: rng.gen_range(0.05..0.6),
            n_volatile: rng.gen_bool(0.5).then(|| rng.gen_range(8u32..2000)),
        }),
        _ => scenarios::Axis::TraceFile {
            path: format!("data/traces/{}.trace", rng.gen_range(0..100)),
        },
    };
    let tables = (0..rng.gen_range(1usize..3))
        .map(|i| scenarios::TableSpec {
            kind: [
                scenarios::TableKind::Time,
                scenarios::TableKind::Duplicates,
                scenarios::TableKind::Profile,
                scenarios::TableKind::Detail,
                scenarios::TableKind::Catalog,
                scenarios::TableKind::Jobs,
            ][rng.gen_range(0..6)],
            title: format!("T{i} {{panel}} of {}", word(rng)),
        })
        .collect();
    let jobs = rng.gen_bool(0.5).then(|| scenarios::JobStreamSpec {
        arrivals: match rng.gen_range(0u8..3) {
            0 => scenarios::ArrivalSpec::Batch {
                offsets_secs: (0..rng.gen_range(1usize..5))
                    .map(|i| i as f64 * 30.0)
                    .collect(),
            },
            1 => scenarios::ArrivalSpec::Poisson {
                rate_per_hour: rng.gen_range(1.0..200.0),
                count: rng.gen_range(1u32..20),
            },
            _ => scenarios::ArrivalSpec::Closed {
                clients: rng.gen_range(1u32..5),
                jobs_per_client: rng.gen_range(1u32..4),
                think_secs: rng.gen_range(5.0..300.0),
            },
        },
        workloads: (0..rng.gen_range(0usize..3)).map(|_| word(rng)).collect(),
        deadlines_secs: (0..rng.gen_range(0usize..3))
            .map(|i| 120.0 * (i + 1) as f64)
            .collect(),
        priorities: (0..rng.gen_range(0usize..3))
            .map(|_| rng.gen_range(-5i64..=5))
            .collect(),
        tenants: (0..rng.gen_range(0usize..3))
            .map(|_| rng.gen_range(0u32..3))
            .collect(),
        tenant_weights: (0..rng.gen_range(0usize..3))
            .map(|_| rng.gen_range(1u32..5))
            .collect(),
        tenant_min_slots: (0..rng.gen_range(0usize..3))
            .map(|_| rng.gen_range(0u32..4))
            .collect(),
    });
    scenarios::ScenarioSpec {
        name: format!("spec-{}", rng.gen_range(0..1000)),
        title: word(rng),
        workloads: (0..n_panels).map(|_| word(rng)).collect(),
        panels: (0..n_panels).map(|i| format!("({i})")).collect(),
        policies: (0..rng.gen_range(0usize..5))
            .map(|i| scenarios::PolicyRef {
                id: format!("policy-{i}"),
                label: rng.gen_bool(0.5).then(|| word(rng)),
                dedicated: rng.gen_bool(0.3).then(|| rng.gen_range(1u32..8)),
            })
            .collect(),
        axis,
        dedicated: rng.gen_range(1u32..8),
        n_volatile: rng.gen_bool(0.3).then(|| rng.gen_range(4u32..64)),
        seeds: rng.gen_bool(0.5).then(|| {
            (0..rng.gen_range(1usize..4))
                .map(|i| 42 + i as u64)
                .collect()
        }),
        horizon_secs: rng.gen_bool(0.3).then(|| rng.gen_range(600u64..30_000)),
        jobs,
        telemetry: rng.gen_bool(0.3).then(|| scenarios::TelemetrySpec {
            sample_every_secs: rng.gen_range(1u32..600) as f64 / 2.0,
            span_capacity: rng.gen_range(0u32..100_000),
        }),
        tables,
    }
}

#[test]
fn scenario_spec_serialize_parse_round_trips() {
    for case in 0..CASES {
        let mut rng = rng_for("spec_roundtrip", case);
        let spec = random_spec(&mut rng);
        let text = scenarios::codec::to_string(&spec);
        let back = scenarios::codec::from_str(&text)
            .unwrap_or_else(|e| panic!("case {case}: {e}\n---\n{text}"));
        assert_eq!(back, spec, "case {case}\n---\n{text}");
    }
}

#[test]
fn scenario_parse_errors_carry_line_numbers() {
    // Corrupt a known-good spec at a random line; the reported line
    // must be at or after the corruption point (later keys can only
    // fail once the parser reaches them), and parseable prefixes must
    // fail with a key-level message instead.
    for case in 0..64 {
        let mut rng = rng_for("spec_errors", case);
        let spec = random_spec(&mut rng);
        let text = scenarios::codec::to_string(&spec);
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        let candidates: Vec<usize> = (0..lines.len())
            .filter(|&i| lines[i].contains('='))
            .collect();
        let victim = candidates[rng.gen_range(0..candidates.len())];
        let eq = lines[victim].find('=').unwrap();
        lines[victim].truncate(eq + 1); // "key =" with no value
        let e = scenarios::codec::from_str(&lines.join("\n"))
            .expect_err("truncated value must not parse");
        let line = e
            .line
            .unwrap_or_else(|| panic!("case {case}: no line in `{e}`"));
        assert_eq!(line, victim + 1, "case {case}: {e}");
    }
}

// ---------------------------------------------------------------------
// dfs: adaptive replication math
// ---------------------------------------------------------------------

#[test]
fn adaptive_degree_is_minimal_and_sufficient() {
    for case in 0..CASES {
        let mut rng = rng_for("adaptive_degree", case);
        let p = rng.gen_range(0.01f64..0.95);
        let goal = rng.gen_range(0.5f64..0.999);
        let v = dfs::replication::adaptive_volatile_degree(p, goal, 100);
        assert!(v >= 1, "case {case}");
        if v < 100 {
            assert!(
                dfs::replication::volatile_availability(p, v) >= goal - 1e-9,
                "case {case}: v={v} misses goal {goal} at p={p}"
            );
        }
        if v > 1 {
            assert!(
                dfs::replication::volatile_availability(p, v - 1) < goal + 1e-9,
                "case {case}: v−1 already meets the goal; v={v} not minimal at p={p}"
            );
        }
    }
}

#[test]
fn throttle_state_machine_never_panics_and_hysteresis_holds() {
    for case in 0..CASES {
        let mut rng = rng_for("throttle", case);
        let n_bws = rng.gen_range(1usize..200);
        let window = rng.gen_range(1usize..10);
        let tb = rng.gen_range(0.01f64..0.5);
        let mut t = dfs::IoThrottle::new(window, tb);
        for _ in 0..n_bws {
            t.update(rng.gen_range(0.0f64..1000.0));
        }
        // Hysteresis: once the window is entirely a constant plateau,
        // further identical measurements must not change the state
        // (bw == avg exercises neither branch of Algorithm 1).
        for _ in 0..=window {
            t.update(500.0);
        }
        let s1 = t.state();
        let s2 = t.update(500.0);
        assert_eq!(s1, s2, "case {case}");
    }
}
