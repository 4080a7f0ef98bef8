//! End-to-end checks of the `moon-cli` binary: exit status and
//! artifacts of a run with a failed cell and `dlq list` of it, the
//! removed `--strict` flag, rejected `--seeds 0` and deep-nested
//! scenario files, and `fig1`.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn moon_cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_moon-cli"))
        .args(args)
        .env("MOON_QUICK", "1")
        .env("MOON_THREADS", "2")
        .output()
        .expect("moon-cli runs")
}

fn repo_file(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel)
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("moon-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A run with a failed cell still prints its tables and writes its
/// report and telemetry artifacts, then exits 1; `dlq list` then reads
/// the cell back from the checkpoint.
#[test]
fn failed_cell_writes_artifacts_then_exits_1() {
    let dir = scratch("failed-cell");
    let spec = repo_file("data/scenarios/campaign-demo.toml");
    let (report, metrics) = (dir.join("demo.json"), dir.join("demo.metrics.jsonl"));
    let ckpt = dir.join("demo.ckpt.jsonl");
    let (spec, ckpt) = (spec.to_str().unwrap(), ckpt.to_str().unwrap());
    let out = moon_cli(&[
        "run",
        spec,
        "--inject-panic",
        "1",
        "--checkpoint",
        ckpt,
        "--out",
        report.to_str().unwrap(),
        "--metrics-out",
        metrics.to_str().unwrap(),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("DNF"));
    assert!(stderr.contains("failed cell 1"), "{stderr}");
    let json = std::fs::read_to_string(&report).expect("report written");
    assert!(json.contains("\"outcome\": \"crashed\""), "{json}");
    assert!(!std::fs::read_to_string(&metrics).unwrap().is_empty());

    // One row: cell, point, panel, policy, column, seed, reason,
    // attempts, detail.
    let out = moon_cli(&["dlq", "list", spec, "--checkpoint", ckpt]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let rows: Vec<Vec<&str>> = stdout
        .lines()
        .skip(1)
        .map(|l| l.split('\t').collect())
        .collect();
    assert_eq!(rows.len(), 1, "{stdout}");
    assert_eq!(
        rows[0][..8],
        ["1", "1", "", "MOON-Hybrid", "p=0.3", "42", "panic", "1"],
        "{stdout}"
    );
}

#[test]
fn strict_flag_is_gone() {
    let out = moon_cli(&["run", "table1", "--strict"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag `--strict`"));
}

/// `--seeds 0` is a usage error, for `run` and for `dlq retry`, not a
/// silent one-seed run.
#[test]
fn zero_seeds_is_a_usage_error() {
    for args in [
        &["run", "table1", "--seeds", "0"][..],
        &["dlq", "retry", "table1", "--seeds", "0"],
    ] {
        let out = moon_cli(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("--seeds needs a positive integer"));
        assert!(out.stdout.is_empty(), "{args:?} ran anyway");
    }
}

/// Zero event budgets, cell deadlines and retry caps are usage errors
/// too: each would fail or skip every cell.
#[test]
fn zero_campaign_limits_are_usage_errors() {
    for (cmd, flag) in [
        ("run", "--event-budget"),
        ("run", "--cell-deadline-secs"),
        ("dlq retry", "--max-attempts"),
    ] {
        let mut args: Vec<&str> = cmd.split(' ').collect();
        args.extend(["table1", flag, "0"]);
        let out = moon_cli(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("{flag} needs a positive integer")),
            "{stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} ran anyway");
    }
}

/// A scenario file of 100,000 nested `[` is a line-numbered error and
/// exit 2, not a stack overflow that aborts the process.
#[test]
fn deep_nested_scenario_file_is_an_error_not_an_abort() {
    let spec = scratch("deep-nest").join("evil.toml");
    std::fs::write(
        &spec,
        format!("name = \"evil\"\npoints = {}\n", "[".repeat(100_000)),
    )
    .unwrap();
    let out = moon_cli(&["run", spec.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("line 2: arrays and inline tables nest deeper than 64"),
        "{stderr}"
    );
}

/// `fig1 --save-trace` prints the figure's table and writes the
/// committed trace byte for byte.
#[test]
fn fig1_prints_the_table_and_saves_the_committed_trace() {
    let trace = scratch("fig1").join("lab-day.trace");
    let out = moon_cli(&["fig1", "--save-trace", trace.to_str().unwrap()]);
    assert!(out.status.success());
    let table = String::from_utf8(out.stdout).unwrap();
    assert!(table.starts_with("# Figure 1 — % unavailable resources"));
    assert!(table.contains("interval\tDAY1\tDAY2\tDAY3\tDAY4\tDAY5\tDAY6\tDAY7\n"));
    assert!(table.contains("# average unavailability over 7 days: "));
    assert!(
        std::fs::read(&trace).unwrap()
            == std::fs::read(repo_file("data/traces/lab-day.trace")).unwrap()
    );
}
