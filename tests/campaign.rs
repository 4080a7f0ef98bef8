//! Integration tests for the checkpointed campaign runner
//! ([`bench::campaign`]): kill-and-resume byte-identity (tables, JSON
//! report, telemetry artifacts) past torn, non-UTF-8 and older-format
//! checkpoint lines, campaign-key verification, per-cell panic
//! containment that is bit-identical serial vs pooled, livelock
//! containment into the checkpoint's failed cells (the DLQ `dlq list`
//! reads), bounded `dlq retry` attempts, and the same containment for
//! sweeps run without a checkpoint.
//!
//! The global worker pool is pinned to 4 threads (this test binary is
//! its own process), and every "serial" reference below is computed by
//! running the same cells directly in a plain loop — no pool — so the
//! comparisons pin exactly the property the campaign layer promises:
//! artifacts do not depend on scheduling, interruption, or thread
//! count.

use bench::campaign::{self, list_failed};
use bench::{run_campaign, CampaignConfig, CampaignOutcome};
use moon::{Experiment, Outcome, RunLimits, RunResult};
use std::path::PathBuf;

fn pool4() {
    let _ = rayon::ThreadPoolBuilder::new()
        .num_threads(4)
        .build_global();
}

/// A fresh scratch directory for one test's checkpoints.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("moon-campaign-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A 3-point × 1-seed scenario small enough to run in seconds:
/// one policy over three unavailability rates on a shrunken fleet.
fn small_spec(telemetry: bool) -> scenarios::ScenarioSpec {
    let mut spec = scenarios::registry::find("fig4").expect("registered");
    spec.policies.truncate(1);
    spec.workloads = vec!["quick".into()];
    spec.panels.truncate(1);
    spec.axis = scenarios::Axis::Rates(vec![0.1, 0.3, 0.5]);
    spec.n_volatile = Some(12);
    spec.dedicated = 2;
    spec.horizon_secs = Some(1800);
    spec.seeds = Some(vec![42]);
    spec.telemetry = telemetry.then(scenarios::TelemetrySpec::default);
    spec
}

/// Run every cell of the spec directly — no pool, no checkpoint — and
/// return grid-ordered results, exactly what the campaign's stitched
/// grid must reproduce.
fn serial_results(
    spec: &scenarios::ScenarioSpec,
    seeds: &[u64],
    limits: RunLimits,
    replace: Option<(usize, RunResult)>,
) -> (scenarios::Plan, Vec<Vec<RunResult>>) {
    let plan = scenarios::expand(spec).unwrap();
    let mut results = Vec::new();
    for (p, point) in plan.points.iter().enumerate() {
        let mut per_point = Vec::new();
        for &seed in seeds {
            if let Some((cell, r)) = &replace {
                if *cell == p * seeds.len() + (per_point.len()) {
                    per_point.push(r.clone());
                    continue;
                }
            }
            let exp = Experiment {
                cluster: point.cluster.clone(),
                policy: point.policy.clone(),
                workload: point.workload.clone(),
                seed,
            };
            let mut r = exp.run_with_limits(point.jobs.clone(), None, limits);
            r.telemetry = None;
            per_point.push(r);
        }
        results.push(per_point);
    }
    (plan, results)
}

fn run(spec: &scenarios::ScenarioSpec, cfg: &CampaignConfig) -> CampaignOutcome {
    run_campaign(spec, None, cfg).expect("campaign runs")
}

#[test]
fn resumed_campaign_is_byte_identical_including_torn_tail() {
    pool4();
    let dir = scratch("resume");
    let spec = small_spec(true);
    let ckpt = dir.join("sweep.ckpt.jsonl");

    // Uninterrupted reference campaign (telemetry on, so all three
    // artifact kinds are exercised).
    let full = run(&spec, &CampaignConfig::new(ckpt.clone()));
    assert_eq!(full.restored, 0);
    assert_eq!(full.executed, 3);
    assert!(full.failed.is_empty());
    assert!(!full.metrics_jsonl.is_empty());

    // The campaign artifacts must equal the plain (non-campaign) path
    // byte for byte — campaigns are a superset, not a dialect.
    let plain = bench::run_spec(&spec, None).unwrap();
    assert_eq!(full.run.tables, plain.tables);
    assert_eq!(full.run.report_json, plain.report_json);
    assert_eq!(full.metrics_jsonl, bench::obs::metrics_jsonl(&plain));
    assert_eq!(full.chrome_trace, bench::obs::chrome_trace(&plain));

    // Keep the header and cell 0's record, then damage cell 1's the
    // ways a resume must survive: a SIGKILL mid-`write` (ASCII, or in
    // the middle of the `—` the trace fragment's process names carry),
    // or a line from an older format that lacks a counter. The bad line
    // is ignored and its cell re-runs with the lost one.
    let text = std::fs::read_to_string(&ckpt).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    let record = |cell: usize| -> &str {
        let prefix = format!("{{\"cell\":{cell},");
        lines[1..].iter().find(|l| l.starts_with(&prefix)).unwrap()
    };
    let cell1 = record(1).as_bytes();
    let dash = cell1
        .windows(3)
        .position(|w| w == "—".as_bytes())
        .expect("a trace fragment names its processes with `—`");
    let older = record(1).replacen(",\"preempted\":0}", "}", 1);
    assert_ne!(older, record(1), "the record carries `preempted`");
    let bad_lines: [(&str, &[u8]); 3] = [
        ("torn write", b"{\"cell\":1,\"status\":\"ok\",\"att"),
        ("torn inside a UTF-8 character", &cell1[..dash + 1]),
        ("record without `preempted`", older.as_bytes()),
    ];
    let mut cfg = CampaignConfig::new(ckpt.clone());
    cfg.resume = true;
    for (what, bad) in bad_lines {
        let mut damaged = format!("{}\n{}\n", lines[0], record(0)).into_bytes();
        damaged.extend_from_slice(bad);
        std::fs::write(&ckpt, damaged).unwrap();
        let resumed = run(&spec, &cfg);
        assert_eq!(resumed.restored, 1, "{what}: the surviving cell is reused");
        assert_eq!(resumed.executed, 2, "{what}: only the lost cells re-run");
        assert_eq!(resumed.run.tables, full.run.tables, "{what}");
        assert_eq!(resumed.run.report_json, full.run.report_json, "{what}");
        assert_eq!(resumed.metrics_jsonl, full.metrics_jsonl, "{what}");
        assert_eq!(resumed.chrome_trace, full.chrome_trace, "{what}");
    }

    // Resuming a complete checkpoint runs nothing and still stitches
    // identical artifacts.
    let again = run(&spec, &cfg);
    assert_eq!(again.restored, 3);
    assert_eq!(again.executed, 0);
    assert_eq!(again.run.report_json, full.run.report_json);
    assert_eq!(again.metrics_jsonl, full.metrics_jsonl);
}

#[test]
fn resume_refuses_a_mismatched_campaign_key() {
    pool4();
    let dir = scratch("key");
    let spec = small_spec(false);
    let ckpt = dir.join("sweep.ckpt.jsonl");
    run(&spec, &CampaignConfig::new(ckpt.clone()));

    // Same checkpoint, different seeds => different campaign key.
    let mut other = spec.clone();
    other.seeds = Some(vec![43]);
    let mut cfg = CampaignConfig::new(ckpt);
    cfg.resume = true;
    let err = run_campaign(&other, None, &cfg).expect_err("key mismatch must refuse");
    let msg = format!("{err}");
    assert!(msg.contains("campaign key mismatch"), "{msg}");
}

/// A checkpoint line of 100,000 nested `[` is one more unreadable line:
/// resume skips it, re-runs the cell it displaced, and reproduces the
/// uninterrupted report instead of overflowing the stack.
#[test]
fn resume_skips_a_deep_nested_checkpoint_line() {
    pool4();
    let dir = scratch("deep-nest");
    let spec = small_spec(false);
    let ckpt = dir.join("sweep.ckpt.jsonl");
    let full = run(&spec, &CampaignConfig::new(ckpt.clone()));

    let text = std::fs::read_to_string(&ckpt).unwrap();
    let mut lines: Vec<String> = text.lines().map(String::from).collect();
    assert_eq!(lines.len(), 4, "header + 3 cells");
    lines[1] = format!("{{\"cell\":{}", "[".repeat(100_000));
    std::fs::write(&ckpt, lines.join("\n") + "\n").unwrap();

    let mut cfg = CampaignConfig::new(ckpt);
    cfg.resume = true;
    let resumed = run(&spec, &cfg);
    assert_eq!(resumed.restored, 2);
    assert_eq!(resumed.executed, 1, "only the displaced cell re-runs");
    assert_eq!(resumed.run.tables, full.run.tables);
    assert_eq!(resumed.run.report_json, full.run.report_json);
}

/// A checkpoint whose records also carry the `"status"` key that older
/// builds wrote resumes as one without it: every cell is restored, the
/// failed cell keeps its `panic` fate, and the artifacts match.
#[test]
fn checkpoint_records_with_a_status_key_still_resume() {
    pool4();
    let dir = scratch("status-key");
    let spec = small_spec(false);
    let ckpt = dir.join("sweep.ckpt.jsonl");
    let mut cfg = CampaignConfig::new(ckpt.clone());
    cfg.inject_panic = Some(1);
    let full = run(&spec, &cfg);
    assert_eq!(full.failed.len(), 1);

    let text = std::fs::read_to_string(&ckpt).unwrap();
    let mut lines: Vec<String> = text.lines().map(String::from).collect();
    assert_eq!(lines.len(), 4, "header + 3 cells");
    for line in &mut lines[1..] {
        assert!(!line.contains("\"status\""), "{line}");
        let status = if line.starts_with("{\"cell\":1,") {
            "panic"
        } else {
            "ok"
        };
        let (cell, rest) = line.split_once(',').unwrap();
        *line = format!("{cell},\"status\":\"{status}\",{rest}");
    }
    std::fs::write(&ckpt, lines.join("\n") + "\n").unwrap();

    cfg.inject_panic = None;
    cfg.resume = true;
    let resumed = run(&spec, &cfg);
    assert_eq!(resumed.restored, 3);
    assert_eq!(resumed.executed, 0);
    assert_eq!(resumed.failed, full.failed);
    assert_eq!(list_failed(&spec, &ckpt).unwrap(), full.failed);
    assert_eq!(resumed.run.tables, full.run.tables);
    assert_eq!(resumed.run.report_json, full.run.report_json);
}

#[test]
fn panicking_cell_is_contained_and_bit_identical_to_serial() {
    pool4();
    let dir = scratch("panic");
    let spec = small_spec(false);
    let ckpt = dir.join("sweep.ckpt.jsonl");

    let mut cfg = CampaignConfig::new(ckpt.clone());
    cfg.inject_panic = Some(1);
    let outcome = run(&spec, &cfg);

    // The panic is contained: exactly one failed cell, every other
    // cell completed normally.
    assert_eq!(outcome.failed.len(), 1);
    let entry = &outcome.failed[0];
    assert_eq!(entry.cell, 1);
    assert_eq!(entry.reason, "panic");
    assert_eq!(entry.attempts, 1);
    assert!(entry.detail.contains("injected fault"), "{}", entry.detail);
    let flat: Vec<&RunResult> = outcome.run.results.iter().flatten().collect();
    assert_eq!(flat.len(), 3);
    assert_eq!(flat[1].outcome, Outcome::Crashed);
    assert!(flat[0].outcome != Outcome::Crashed);
    assert!(flat[2].outcome != Outcome::Crashed);
    assert!(outcome.run.tables.contains("DNF"), "{}", outcome.run.tables);

    // `dlq list` reads the same row back from the checkpoint, the only
    // file the campaign wrote.
    assert_eq!(list_failed(&spec, &ckpt).unwrap(), outcome.failed);
    let files: Vec<PathBuf> = tree(&dir).into_iter().map(|(f, _)| f).collect();
    assert_eq!(files, vec![ckpt.clone()]);
    // A missing checkpoint lists nothing; one of another grid is refused.
    assert!(list_failed(&spec, &dir.join("none.ckpt.jsonl"))
        .unwrap()
        .is_empty());
    let mut other = spec.clone();
    other.axis = scenarios::Axis::Rates(vec![0.1, 0.3]);
    let err = list_failed(&other, &ckpt).expect_err("a grid mismatch must refuse");
    assert!(format!("{err}").contains("which has 2 points"), "{err}");

    // Bit-identical serial vs 4-thread: rebuild the whole grid in a
    // plain loop, with the panicked cell's documented placeholder
    // (grid coordinates, zeroed counters, outcome `crashed`).
    let plan = scenarios::expand(&spec).unwrap();
    let placeholder = RunResult {
        label: plan.points[1].policy.label.clone(),
        workload: plan.points[1].workload.name.clone(),
        unavailability: plan.points[1].cluster.unavailability,
        job_time: None,
        outcome: Outcome::Crashed,
        job: Default::default(),
        profile: Default::default(),
        fetch_failures: 0,
        events: 0,
        seed: 42,
        jobs: None,
        audit: Vec::new(),
        telemetry: None,
    };
    let (plan, serial) = serial_results(&spec, &[42], RunLimits::default(), Some((1, placeholder)));
    assert_eq!(outcome.run.tables, scenarios::render_tables(&plan, &serial));
    assert_eq!(
        outcome.run.report_json,
        scenarios::report_json(&plan, &serial, &[42])
    );
}

/// Every file under `dir` with its size, sorted (empty if `dir` does
/// not exist).
fn tree(dir: &std::path::Path) -> Vec<(PathBuf, u64)> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for e in entries.flatten() {
            let meta = e.metadata().unwrap();
            if meta.is_dir() {
                stack.push(e.path());
            } else {
                out.push((e.path(), meta.len()));
            }
        }
    }
    out.sort();
    out
}

#[test]
fn sweep_without_checkpoint_is_contained_and_writes_nothing() {
    pool4();
    let mut spec = small_spec(false);
    // A name no other run uses, so its default campaign paths are
    // known to be absent beforehand.
    spec.name = format!("no-checkpoint-{}", std::process::id());
    let default_ckpt = campaign::default_checkpoint_path(&spec.name);
    let results_dir = PathBuf::from("bench_results");
    let before = tree(&results_dir);

    let cfg = CampaignConfig {
        inject_panic: Some(1),
        ..CampaignConfig::default()
    };
    let outcome = run_campaign(&spec, None, &cfg).expect("a contained panic is not an error");
    assert_eq!(outcome.failed.len(), 1);
    assert_eq!(outcome.failed[0].cell, 1);
    assert_eq!(outcome.failed[0].reason, "panic");
    assert_eq!(outcome.executed, 3);
    assert_eq!(outcome.restored, 0);
    assert!(!default_ckpt.exists());
    assert_eq!(
        tree(&results_dir),
        before,
        "an in-memory sweep wrote a file"
    );

    // Same tables and report as a checkpointed run with the same
    // injected fault.
    let dir = scratch("no-ckpt");
    let mut ckpt_cfg = CampaignConfig::new(dir.join("sweep.ckpt.jsonl"));
    ckpt_cfg.inject_panic = Some(1);
    let checkpointed = run(&spec, &ckpt_cfg);
    assert_eq!(checkpointed.failed, outcome.failed);
    assert_eq!(outcome.run.tables, checkpointed.run.tables);
    assert_eq!(outcome.run.report_json, checkpointed.run.report_json);
}

#[test]
fn livelocked_cells_land_in_dlq_and_retry_is_bounded() {
    pool4();
    let dir = scratch("livelock");
    let spec = small_spec(false);
    let ckpt = dir.join("sweep.ckpt.jsonl");

    // An absurdly small event budget livelocks every cell.
    let mut cfg = CampaignConfig::new(ckpt.clone());
    cfg.limits.event_budget = 10;
    let starved = run(&spec, &cfg);
    assert_eq!(starved.failed.len(), 3);
    assert!(starved.failed.iter().all(|e| e.reason == "livelock"));
    assert!(starved.failed.iter().all(|e| e.attempts == 1));
    assert!(starved
        .failed
        .iter()
        .all(|e| e.detail.contains("event budget 10")));
    // Livelocked cells must not leak partial rows: every table kind
    // renders them DNF (the render-layer rule), visible here as a
    // fully-DNF sweep.
    assert!(starved.run.tables.contains("DNF"));
    assert_eq!(list_failed(&spec, &ckpt).unwrap(), starved.failed);

    // Retry with the same starvation budget: attempts increment.
    cfg.retry_failed = true;
    cfg.max_attempts = 2;
    let retried = run(&spec, &cfg);
    assert_eq!(retried.executed, 3);
    assert!(retried.failed.iter().all(|e| e.attempts == 2));

    // At the attempt bound nothing re-runs; the DLQ is stable.
    let capped = run(&spec, &cfg);
    assert_eq!(capped.executed, 0);
    assert_eq!(capped.restored, 3);
    assert!(capped.failed.iter().all(|e| e.attempts == 2));

    // Raising the budget and the bound heals the campaign, and the
    // healed artifacts are byte-identical to a never-starved run.
    cfg.limits = RunLimits::default();
    cfg.max_attempts = 3;
    let healed = run(&spec, &cfg);
    assert!(healed.failed.is_empty());
    assert!(list_failed(&spec, &ckpt).unwrap().is_empty());
    let fresh = run(
        &spec,
        &CampaignConfig::new(dir.join("reference.ckpt.jsonl")),
    );
    assert_eq!(healed.run.tables, fresh.run.tables);
    assert_eq!(healed.run.report_json, fresh.run.report_json);
}

#[test]
fn wall_deadline_classifies_cells_as_deadline() {
    pool4();
    let dir = scratch("deadline");
    let spec = small_spec(false);
    let mut cfg = CampaignConfig::new(dir.join("sweep.ckpt.jsonl"));
    cfg.limits.wall_deadline = Some(std::time::Duration::ZERO);
    let outcome = run(&spec, &cfg);
    assert_eq!(outcome.failed.len(), 3);
    assert!(outcome.failed.iter().all(|e| e.reason == "deadline"));
    assert!(outcome.run.tables.contains("DNF"));

    // Deadline cells are kept (not re-run) on a plain resume — burning
    // bounded retry attempts is `dlq retry`'s job, not `--resume`'s.
    cfg.resume = true;
    let resumed = run(&spec, &cfg);
    assert_eq!(resumed.executed, 0);
    assert_eq!(resumed.failed.len(), 3);
}

#[test]
fn default_checkpoint_path_is_conventional() {
    assert_eq!(
        campaign::default_checkpoint_path("fleet-1k"),
        PathBuf::from("bench_results/campaigns/fleet-1k.ckpt.jsonl")
    );
}
