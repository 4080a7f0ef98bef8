//! The sweep runner: per-cell fault containment, plus optional
//! checkpoints for resumable sweeps.
//!
//! Every scenario sweep runs here, one (point, seed) **cell** per item
//! of a parallel `map`, in one contained cell loop. The rayon shim runs
//! that map on scoped worker threads that claim cells from an atomic
//! cursor (inline on the caller at `MOON_THREADS=1`). A *campaign* is a
//! sweep with durability: it gets a deterministic key
//! ([`scenarios::codec::content_key`]: hash of the canonical spec +
//! seed list + quick-mode flag), and every cell that finishes on a
//! worker is appended to a checkpoint file as one self-contained
//! JSONL record — attempt count, the full
//! [`RunResult`] round-trip plus the cell's pre-rendered telemetry
//! fragments. Killing the process loses at most the in-flight cells;
//! `moon-cli run --resume` verifies the key, restores completed cells,
//! runs only the rest, and stitches tables/JSON/telemetry artifacts
//! **byte-identical** to an uninterrupted run at any `MOON_THREADS`.
//!
//! Byte-identity holds because nothing in the artifacts depends on
//! *when* a cell ran:
//!
//! - results are assembled in grid order (cell index = `point_idx *
//!   n_seeds + seed_idx`), the same order the live parallel collect uses;
//! - every `RunResult` field round-trips losslessly through the
//!   checkpoint codec (times as integer microseconds, floats via
//!   Rust's shortest round-trip `Display`, seeds as raw `u64` text —
//!   see [`moon::report::json::parse`]);
//! - telemetry artifacts are concatenative per run, so the checkpoint
//!   stores each cell's pre-rendered fragment
//!   ([`obs::run_metrics_fragment`], [`obs::run_trace_fragment`]) and
//!   restored cells splice in exactly the bytes a live recorder would
//!   have produced.
//!
//! Fault containment wraps each cell, with or without a checkpoint:
//! `catch_unwind` turns a panic into a recorded `crashed` cell
//! (deterministic placeholder result) instead of a sweep abort, and
//! [`RunLimits`] (event budget, optional wall deadline) turns livelocks
//! into `event_limit` / `wall_deadline` cells. All three are reported
//! in [`CampaignOutcome::failed`]. In a checkpointed campaign the
//! failed records *are* the dead-letter queue: [`list_failed`] reads
//! them back as [`FailedCell`] rows for `moon-cli dlq list`, and
//! `moon-cli dlq retry --max-attempts N` re-runs them, counting
//! attempts in the same records.
//!
//! Without a checkpoint nothing is read or written, and the results
//! keep their live telemetry recorders.

use crate::{obs, ScenarioRun};
use moon::report::json::{self, escape, Value};
use moon::{JobSlo, Outcome, RunLimits, RunResult};
use rayon::prelude::*;
use scenarios::{Plan, Point, ScenarioError, ScenarioSpec};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Checkpoint format version (the header's `"v"` field).
const CKPT_VERSION: u64 = 1;

/// How a sweep executes: where the checkpoint lives, if anywhere, and
/// how cells are contained. [`Default`] is an in-memory sweep with
/// default containment.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Checkpoint file (append-only JSONL, atomically compacted on
    /// open). `None` runs the sweep without reading or writing any
    /// file.
    pub checkpoint: Option<PathBuf>,
    /// Restore completed cells from an existing checkpoint instead of
    /// starting over. The campaign key must match.
    pub resume: bool,
    /// Re-run failed cells whose attempt count is still below
    /// [`CampaignConfig::max_attempts`] (the `dlq retry` mode —
    /// implies `resume`).
    pub retry_failed: bool,
    /// Attempt bound for `retry_failed`; cells at the bound stay
    /// failed.
    pub max_attempts: u32,
    /// Per-cell containment limits (event budget, wall deadline).
    pub limits: RunLimits,
    /// Test/CI fault injection: this flat cell index panics instead of
    /// running, exercising the containment path end to end.
    pub inject_panic: Option<usize>,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            checkpoint: None,
            resume: false,
            retry_failed: false,
            max_attempts: 3,
            limits: RunLimits::default(),
            inject_panic: None,
        }
    }
}

impl CampaignConfig {
    /// A fresh (non-resuming) checkpointed campaign with default
    /// containment.
    pub fn new(checkpoint: PathBuf) -> Self {
        CampaignConfig {
            checkpoint: Some(checkpoint),
            ..Self::default()
        }
    }
}

/// The conventional checkpoint location for a named scenario.
pub fn default_checkpoint_path(scenario: &str) -> PathBuf {
    PathBuf::from(format!("bench_results/campaigns/{scenario}.ckpt.jsonl"))
}

/// Where older builds wrote a checkpoint's dead-letter file:
/// `<x>.ckpt.jsonl` → `<x>.dlq.jsonl` (any other name just gains a
/// `.dlq.jsonl` suffix). Nothing writes that file any more; the
/// benchmark harness still derives the name to delete a stale copy,
/// and the function goes once that call does.
pub fn dlq_path_for(checkpoint: &Path) -> PathBuf {
    let s = checkpoint.to_string_lossy();
    match s.strip_suffix(".ckpt.jsonl") {
        Some(stem) => PathBuf::from(format!("{stem}.dlq.jsonl")),
        None => PathBuf::from(format!("{s}.dlq.jsonl")),
    }
}

/// A failed cell as `moon-cli dlq list` shows it: the checkpoint
/// record's fate placed on the plan's grid.
#[derive(Debug, Clone, PartialEq)]
pub struct FailedCell {
    /// Flat cell index (`point * n_seeds + seed_idx`).
    pub cell: usize,
    /// Grid point index.
    pub point: usize,
    /// Root seed of the run.
    pub seed: u64,
    /// Panel name (may be empty for single-panel scenarios).
    pub panel: String,
    /// Policy row label.
    pub policy: String,
    /// Workload name.
    pub workload: String,
    /// Axis column label (e.g. `p=0.5`, `jobs/h=240`).
    pub column: String,
    /// Failure class: `panic`, `livelock`, or `deadline`.
    pub reason: String,
    /// Human-readable detail (panic message, exhausted budget).
    pub detail: String,
    /// Attempts made so far.
    pub attempts: u32,
}

/// Everything a finished campaign hands back to the CLI.
#[derive(Debug)]
pub struct CampaignOutcome {
    /// The stitched scenario run (grid results, tables, JSON report) —
    /// byte-identical whether or not the sweep was checkpointed,
    /// interrupted or resumed.
    pub run: ScenarioRun,
    /// The campaign key.
    pub campaign: String,
    /// Cells restored from the checkpoint.
    pub restored: usize,
    /// Cells executed this invocation.
    pub executed: usize,
    /// Currently-failed cells, in grid order.
    pub failed: Vec<FailedCell>,
    /// The stitched metrics JSONL artifact (empty without telemetry).
    pub metrics_jsonl: String,
    /// The stitched Chrome-trace artifact.
    pub chrome_trace: String,
}

/// One checkpointed cell: attempt count, the (possibly partial)
/// result, and the cell's pre-rendered telemetry fragments. `result`
/// is `None` only for panicked cells, whose placeholder is synthesized
/// deterministically at assembly time.
#[derive(Debug, Clone)]
struct CellRecord {
    cell: usize,
    attempts: u32,
    detail: String,
    result: Option<RunResult>,
    metrics_frag: Option<String>,
    trace_frag: Option<String>,
}

// ---------------------------------------------------------------------
// Lossless value codecs (no serde in this workspace — DESIGN.md §4).

/// Encode an `f64` losslessly: Rust's `Display` prints the shortest
/// decimal that parses back to the same bits; non-finite values (JSON
/// can't carry them) become tagged strings.
fn enc_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else if x.is_nan() {
        "\"nan\"".into()
    } else if x > 0.0 {
        "\"inf\"".into()
    } else {
        "\"-inf\"".into()
    }
}

fn dec_f64(v: &Value) -> Result<f64, String> {
    match v {
        Value::Num(raw) => raw.parse().map_err(|_| format!("bad number {raw:?}")),
        Value::Str(s) => match s.as_str() {
            "nan" => Ok(f64::NAN),
            "inf" => Ok(f64::INFINITY),
            "-inf" => Ok(f64::NEG_INFINITY),
            _ => Err(format!("bad float tag {s:?}")),
        },
        _ => Err("expected number".into()),
    }
}

fn field<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    v.get(key).ok_or_else(|| format!("missing `{key}`"))
}

fn dec_u64(v: &Value, key: &str) -> Result<u64, String> {
    field(v, key)?
        .as_u64()
        .ok_or_else(|| format!("`{key}` is not a u64"))
}

fn dec_u32(v: &Value, key: &str) -> Result<u32, String> {
    u32::try_from(dec_u64(v, key)?).map_err(|_| format!("`{key}` exceeds u32"))
}

fn dec_str(v: &Value, key: &str) -> Result<String, String> {
    Ok(field(v, key)?
        .as_str()
        .ok_or_else(|| format!("`{key}` is not a string"))?
        .to_string())
}

/// `Some(micros)` ⇄ integer, `None` ⇄ `null`.
fn enc_opt_micros(us: Option<u64>) -> String {
    us.map(|u| u.to_string()).unwrap_or_else(|| "null".into())
}

fn dec_opt_micros(v: &Value, key: &str) -> Result<Option<u64>, String> {
    match field(v, key)? {
        Value::Null => Ok(None),
        n => n
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("`{key}` is not micros or null")),
    }
}

fn encode_job_metrics(m: &mapred::JobMetrics) -> String {
    format!(
        concat!(
            "{{\"duplicated_tasks\":{},\"killed_maps\":{},\"killed_reduces\":{},",
            "\"killed_by_tracker_expiry\":{},\"map_output_relaunches\":{},",
            "\"completed_maps\":{},\"completed_reduces\":{},\"preempted\":{}}}"
        ),
        m.duplicated_tasks,
        m.killed_maps,
        m.killed_reduces,
        m.killed_by_tracker_expiry,
        m.map_output_relaunches,
        m.completed_maps,
        m.completed_reduces,
        m.preempted,
    )
}

fn decode_job_metrics(v: &Value) -> Result<mapred::JobMetrics, String> {
    Ok(mapred::JobMetrics {
        duplicated_tasks: dec_u32(v, "duplicated_tasks")?,
        killed_maps: dec_u32(v, "killed_maps")?,
        killed_reduces: dec_u32(v, "killed_reduces")?,
        killed_by_tracker_expiry: dec_u32(v, "killed_by_tracker_expiry")?,
        map_output_relaunches: dec_u32(v, "map_output_relaunches")?,
        completed_maps: dec_u32(v, "completed_maps")?,
        completed_reduces: dec_u32(v, "completed_reduces")?,
        preempted: dec_u32(v, "preempted")?,
    })
}

fn encode_slo(j: &JobSlo) -> String {
    format!(
        concat!(
            "{{\"job\":{},\"workload\":\"{}\",\"submitted_us\":{},",
            "\"first_launch_us\":{},\"finished_us\":{},\"deadline_us\":{},",
            "\"priority\":{},\"tenant\":{},\"metrics\":{}}}"
        ),
        j.job,
        escape(&j.workload),
        j.submitted.since(simkit::SimTime::ZERO).as_micros(),
        enc_opt_micros(
            j.first_launch
                .map(|t| t.since(simkit::SimTime::ZERO).as_micros())
        ),
        enc_opt_micros(
            j.finished
                .map(|t| t.since(simkit::SimTime::ZERO).as_micros())
        ),
        enc_opt_micros(
            j.deadline
                .map(|t| t.since(simkit::SimTime::ZERO).as_micros())
        ),
        j.priority,
        j.tenant,
        encode_job_metrics(&j.metrics),
    )
}

fn decode_slo(v: &Value) -> Result<JobSlo, String> {
    let time = simkit::SimTime::from_micros;
    Ok(JobSlo {
        job: dec_u32(v, "job")?,
        workload: dec_str(v, "workload")?,
        submitted: time(dec_u64(v, "submitted_us")?),
        first_launch: dec_opt_micros(v, "first_launch_us")?.map(time),
        finished: dec_opt_micros(v, "finished_us")?.map(time),
        deadline: dec_opt_micros(v, "deadline_us")?.map(time),
        priority: field(v, "priority")?
            .as_i64()
            .and_then(|i| i32::try_from(i).ok())
            .ok_or("`priority` is not an i32")?,
        tenant: dec_u32(v, "tenant")?,
        metrics: decode_job_metrics(field(v, "metrics")?)?,
    })
}

fn encode_result(r: &RunResult) -> String {
    let jobs = match &r.jobs {
        None => "null".to_string(),
        Some(js) => {
            let rows: Vec<String> = js.iter().map(encode_slo).collect();
            format!("[{}]", rows.join(","))
        }
    };
    let audit: Vec<String> = r
        .audit
        .iter()
        .map(|a| format!("\"{}\"", escape(a)))
        .collect();
    format!(
        concat!(
            "{{\"label\":\"{}\",\"workload\":\"{}\",\"unavailability\":{},",
            "\"job_time_us\":{},\"outcome\":\"{}\",\"job\":{},",
            "\"profile\":{{\"avg_map_time\":{},\"avg_shuffle_time\":{},",
            "\"avg_reduce_time\":{},\"killed_maps\":{},\"killed_reduces\":{}}},",
            "\"fetch_failures\":{},\"events\":{},\"seed\":{},\"jobs\":{},\"audit\":[{}]}}"
        ),
        escape(&r.label),
        escape(&r.workload),
        enc_f64(r.unavailability),
        enc_opt_micros(r.job_time.map(|d| d.as_micros())),
        r.outcome.as_str(),
        encode_job_metrics(&r.job),
        enc_f64(r.profile.avg_map_time),
        enc_f64(r.profile.avg_shuffle_time),
        enc_f64(r.profile.avg_reduce_time),
        r.profile.killed_maps,
        r.profile.killed_reduces,
        r.fetch_failures,
        r.events,
        r.seed,
        jobs,
        audit.join(","),
    )
}

fn decode_result(v: &Value) -> Result<RunResult, String> {
    let profile = field(v, "profile")?;
    let jobs = match field(v, "jobs")? {
        Value::Null => None,
        Value::Arr(items) => Some(
            items
                .iter()
                .map(decode_slo)
                .collect::<Result<Vec<_>, _>>()?,
        ),
        _ => return Err("`jobs` is not an array or null".into()),
    };
    let audit = field(v, "audit")?
        .as_arr()
        .ok_or("`audit` is not an array")?
        .iter()
        .map(|a| {
            a.as_str()
                .map(String::from)
                .ok_or_else(|| "audit entry is not a string".to_string())
        })
        .collect::<Result<Vec<_>, _>>()?;
    let outcome_name = dec_str(v, "outcome")?;
    Ok(RunResult {
        label: dec_str(v, "label")?,
        workload: dec_str(v, "workload")?,
        unavailability: dec_f64(field(v, "unavailability")?)?,
        job_time: dec_opt_micros(v, "job_time_us")?.map(simkit::SimDuration::from_micros),
        outcome: Outcome::from_name(&outcome_name)
            .ok_or_else(|| format!("unknown outcome {outcome_name:?}"))?,
        job: decode_job_metrics(field(v, "job")?)?,
        profile: moon::ExecutionProfile {
            avg_map_time: dec_f64(field(profile, "avg_map_time")?)?,
            avg_shuffle_time: dec_f64(field(profile, "avg_shuffle_time")?)?,
            avg_reduce_time: dec_f64(field(profile, "avg_reduce_time")?)?,
            killed_maps: dec_u32(profile, "killed_maps")?,
            killed_reduces: dec_u32(profile, "killed_reduces")?,
        },
        fetch_failures: dec_u64(v, "fetch_failures")?,
        events: dec_u64(v, "events")?,
        seed: dec_u64(v, "seed")?,
        jobs,
        audit,
        telemetry: None,
    })
}

fn opt_str(s: &Option<String>) -> String {
    match s {
        Some(s) => format!("\"{}\"", escape(s)),
        None => "null".into(),
    }
}

fn encode_record(rec: &CellRecord) -> String {
    format!(
        concat!(
            "{{\"cell\":{},\"attempts\":{},\"detail\":\"{}\",",
            "\"result\":{},\"metrics_frag\":{},\"trace_frag\":{}}}"
        ),
        rec.cell,
        rec.attempts,
        escape(&rec.detail),
        rec.result
            .as_ref()
            .map(encode_result)
            .unwrap_or_else(|| "null".into()),
        opt_str(&rec.metrics_frag),
        opt_str(&rec.trace_frag),
    )
}

fn decode_record(line: &str) -> Result<CellRecord, String> {
    // Records written before the fate was derived from the result carry
    // a `"status"` key too; it is ignored.
    let v = json::parse(line)?;
    let dec_opt_str = |key: &str| -> Result<Option<String>, String> {
        match field(&v, key)? {
            Value::Null => Ok(None),
            s => s
                .as_str()
                .map(|s| Some(s.to_string()))
                .ok_or_else(|| format!("`{key}` is not a string or null")),
        }
    };
    Ok(CellRecord {
        cell: usize::try_from(dec_u64(&v, "cell")?).map_err(|_| "cell overflows usize")?,
        attempts: dec_u32(&v, "attempts")?,
        detail: dec_str(&v, "detail")?,
        result: match field(&v, "result")? {
            Value::Null => None,
            r => Some(decode_result(r)?),
        },
        metrics_frag: dec_opt_str("metrics_frag")?,
        trace_frag: dec_opt_str("trace_frag")?,
    })
}

fn encode_header(
    campaign: &str,
    scenario: &str,
    quick: bool,
    n_points: usize,
    seeds: &[u64],
) -> String {
    let seeds: Vec<String> = seeds.iter().map(|s| s.to_string()).collect();
    format!(
        concat!(
            "{{\"v\":{},\"campaign\":\"{}\",\"scenario\":\"{}\",\"quick\":{},",
            "\"n_points\":{},\"seeds\":[{}]}}"
        ),
        CKPT_VERSION,
        campaign,
        escape(scenario),
        quick,
        n_points,
        seeds.join(","),
    )
}

// ---------------------------------------------------------------------
// Checkpoint store.

/// Read the checkpoint of an `n_points`-point plan: the header's seed
/// list and the winning record of each cell of its grid. The header must
/// parse, carry this format version, name `expect_key` (when given) and
/// an `n_points`-point grid. The file is read as bytes and split on
/// `\n`; a record line that is not UTF-8, does not decode, or names a
/// cell outside the grid is reported with its line number and ignored,
/// so its cell runs again.
fn load_checkpoint(
    path: &Path,
    n_points: usize,
    expect_key: Option<&str>,
) -> Result<(Vec<u64>, Vec<Option<CellRecord>>), ScenarioError> {
    let bytes = std::fs::read(path)
        .map_err(|e| ScenarioError::msg(format!("cannot read {}: {e}", path.display())))?;
    let refuse = |what: String| ScenarioError::msg(format!("{}: {what}", path.display()));
    let mut lines = bytes.split(|&b| b == b'\n').enumerate();
    let header = match lines.next() {
        Some((_, h)) if !h.is_empty() => h,
        _ => return Err(refuse("empty checkpoint".into())),
    };
    let header = std::str::from_utf8(header)
        .map_err(|e| e.to_string())
        .and_then(json::parse)
        .map_err(|e| refuse(format!("bad header: {e}")))?;
    let version = header.get("v").and_then(Value::as_u64);
    if version != Some(CKPT_VERSION) {
        return Err(refuse(format!(
            "unsupported checkpoint version {version:?}"
        )));
    }
    let found_key = header.get("campaign").and_then(Value::as_str).unwrap_or("");
    if let Some(expect_key) = expect_key.filter(|k| *k != found_key) {
        return Err(refuse(format!(
            "campaign key mismatch — checkpoint {found_key}, current {expect_key} \
             (spec, seeds, or MOON_QUICK changed); re-run without --resume to start over"
        )));
    }
    let seeds = header
        .get("seeds")
        .and_then(Value::as_arr)
        .and_then(|s| s.iter().map(Value::as_u64).collect::<Option<Vec<u64>>>())
        .ok_or_else(|| refuse("bad header: `seeds` is not a list of u64".into()))?;
    if header.get("n_points").and_then(Value::as_u64) != Some(n_points as u64) {
        return Err(refuse(format!(
            "checkpoint grid is not the spec's plan, which has {n_points} points"
        )));
    }
    let n_cells = n_points * seeds.len();
    let mut records: Vec<Option<CellRecord>> = vec![None; n_cells];
    for (line_no, line) in lines {
        if line.is_empty() {
            continue;
        }
        let rec = std::str::from_utf8(line)
            .map_err(|e| e.to_string())
            .and_then(decode_record)
            .and_then(|rec| {
                (rec.cell < n_cells)
                    .then_some((rec.cell, rec))
                    .ok_or_else(|| format!("names a cell outside the {n_cells}-cell grid"))
            });
        match rec {
            // Later lines win: a retry's fresh record supersedes the
            // failure it replaces.
            Ok((cell, rec)) => records[cell] = Some(rec),
            Err(e) => eprintln!(
                "checkpoint {}: line {} unreadable ({e}) — ignored",
                path.display(),
                line_no + 1
            ),
        }
    }
    Ok((seeds, records))
}

/// Atomically rewrite the checkpoint as header + one line per known
/// cell (grid order). Run at campaign open: compacts superseded
/// records and drops any torn tail, so the append-only file never
/// grows without bound across resumes.
fn compact_checkpoint(
    path: &Path,
    header: &str,
    records: &[Option<CellRecord>],
) -> Result<(), ScenarioError> {
    let mut body = String::with_capacity(4096);
    body.push_str(header);
    body.push('\n');
    for rec in records.iter().flatten() {
        body.push_str(&encode_record(rec));
        body.push('\n');
    }
    simkit::fsio::atomic_write(path, body.as_bytes())
        .map_err(|e| ScenarioError::msg(format!("cannot write {}: {e}", path.display())))
}

// ---------------------------------------------------------------------
// Cell execution.

/// Deterministic stand-in for a cell whose run never produced a
/// result (panic): grid coordinates from the plan, zeroed counters,
/// outcome `crashed`. Tables render it as DNF; the JSON report carries
/// the same row no matter when (or whether) the panic re-occurs.
fn placeholder_result(point: &Point, seed: u64) -> RunResult {
    RunResult {
        label: point.policy.label.clone(),
        workload: point.workload.name.clone(),
        unavailability: point.cluster.unavailability,
        job_time: None,
        outcome: Outcome::Crashed,
        job: Default::default(),
        profile: Default::default(),
        fetch_failures: 0,
        events: 0,
        seed,
        jobs: None,
        audit: Vec::new(),
        telemetry: None,
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Run one cell under containment: `catch_unwind` converts a panic
/// into a `panic` record, the limits classify livelocks
/// (`event_limit` → livelock, `wall_deadline` → deadline). The result
/// keeps its live telemetry recorder.
fn execute_cell(
    cell: usize,
    point: &Point,
    seed: u64,
    attempts: u32,
    limits: RunLimits,
    inject_panic: bool,
) -> CellRecord {
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if inject_panic {
            panic!("injected fault (--inject-panic {cell})");
        }
        point.run(seed, limits)
    }));
    match outcome {
        Ok(r) => {
            let detail = match r.outcome {
                Outcome::EventLimit => format!("event budget {} exhausted", limits.event_budget),
                Outcome::Deadline => format!(
                    "wall deadline {:?} exceeded after {} events",
                    limits.wall_deadline.unwrap_or_default(),
                    r.events
                ),
                _ => String::new(),
            };
            CellRecord {
                cell,
                attempts,
                detail,
                result: Some(r),
                metrics_frag: None,
                trace_frag: None,
            }
        }
        Err(payload) => CellRecord {
            cell,
            attempts,
            detail: panic_message(payload),
            result: None,
            metrics_frag: None,
            trace_frag: None,
        },
    }
}

impl CellRecord {
    /// How the cell failed, read off its result: `None` for a cell
    /// that ran to a simulation outcome, else `panic` (no result),
    /// `livelock` (event budget) or `deadline` (wall deadline).
    fn fate(&self) -> Option<&'static str> {
        match self.result.as_ref().map(|r| r.outcome) {
            None => Some("panic"),
            Some(Outcome::EventLimit) => Some("livelock"),
            Some(Outcome::Deadline) => Some("deadline"),
            Some(_) => None,
        }
    }

    /// Render the result's telemetry into fragments and drop the
    /// recorder: recorders don't round-trip through the checkpoint,
    /// fragments do.
    fn detach_telemetry(&mut self) {
        if let Some(r) = &mut self.result {
            self.metrics_frag = obs::run_metrics_fragment(self.cell, r);
            self.trace_frag = obs::run_trace_fragment(self.cell, r);
            r.telemetry = None;
        }
    }

    /// The cell's grid result: the run's own, or the placeholder of a
    /// panicked cell.
    fn into_result(self, point: &Point, seed: u64) -> RunResult {
        self.result
            .unwrap_or_else(|| placeholder_result(point, seed))
    }
}

/// An open checkpoint that finished cells are appended to.
struct CheckpointLog<'a> {
    campaign: &'a str,
    file: Mutex<std::fs::File>,
}

impl<'a> CheckpointLog<'a> {
    /// Compact the checkpoint (drops superseded records and any torn
    /// tail) and reopen it for incremental appends.
    fn open(
        path: &Path,
        campaign: &'a str,
        header: &str,
        records: &[Option<CellRecord>],
    ) -> Result<Self, ScenarioError> {
        compact_checkpoint(path, header, records)?;
        let file = std::fs::OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| ScenarioError::msg(format!("cannot open {}: {e}", path.display())))?;
        Ok(CheckpointLog {
            campaign,
            file: Mutex::new(file),
        })
    }

    /// Append one finished cell: one line, one write under the lock.
    fn append(&self, rec: &CellRecord) {
        let mut f = self.file.lock().expect("checkpoint writer poisoned");
        let mut line = encode_record(rec);
        line.push('\n');
        if let Err(e) = f.write_all(line.as_bytes()) {
            eprintln!(
                "campaign {}: cannot append cell {} to checkpoint: {e}",
                self.campaign, rec.cell
            );
        }
    }
}

/// Emit one progress line for a finished cell (`k` of `total`). Each
/// line is a single `eprintln!` (one stderr lock), so concurrent
/// workers never interleave mid-line.
fn progress_line(k: usize, total: usize, rec: &CellRecord, seed: u64) {
    let Some(r) = &rec.result else {
        eprintln!(
            "[{k}/{total}] cell {} seed {seed}: PANIC contained — {}",
            rec.cell, rec.detail
        );
        return;
    };
    let shown = match r.outcome {
        Outcome::Completed => moon::report::secs_or_dnf(r.job_time.map(|d| d.as_secs_f64())),
        // Distinguish a legitimate horizon DNF from the containment
        // verdicts right in the progress stream.
        Outcome::Horizon => "DNF(horizon)".into(),
        Outcome::EventLimit => "DNF(EVENT-LIMIT — livelock!)".into(),
        Outcome::Deadline => "DNF(WALL-DEADLINE — cell budget exceeded)".into(),
        Outcome::Crashed => "DNF(CRASHED — panic contained)".into(),
    };
    eprintln!(
        "[{}/{}] {} {} p={} seed={}: {}s",
        k, total, r.label, r.workload, r.unavailability, r.seed, shown
    );
}

/// The contained cell loop — the one place sweeps run cells in
/// parallel. Runs the `pending` (flat cell index, prior attempts) pairs of
/// the `points` × `seeds` grid (cell = `point_idx * n_seeds +
/// seed_idx`), each under `catch_unwind` and `cfg.limits`, with one
/// progress line per finished cell. With a checkpoint `log`, each
/// finished cell's telemetry is rendered to fragments, its recorder
/// dropped, and its record appended *as it finishes*, so a kill loses
/// only in-flight cells. Records come back in `pending` order.
fn run_cells(
    points: &[Point],
    seeds: &[u64],
    pending: Vec<(usize, u32)>,
    cfg: &CampaignConfig,
    log: Option<&CheckpointLog>,
) -> Vec<CellRecord> {
    let n_seeds = seeds.len();
    let total = pending.len();
    let done = AtomicUsize::new(0);
    pending
        .into_par_iter()
        .map(|(cell, prior_attempts)| {
            let seed = seeds[cell % n_seeds];
            let mut rec = execute_cell(
                cell,
                &points[cell / n_seeds],
                seed,
                prior_attempts + 1,
                cfg.limits,
                cfg.inject_panic == Some(cell),
            );
            if let Some(log) = log {
                rec.detach_telemetry();
                log.append(&rec);
            }
            let k = done.fetch_add(1, Ordering::Relaxed) + 1;
            progress_line(k, total, &rec, seed);
            rec
        })
        .collect()
}

// ---------------------------------------------------------------------
// The campaign runner.

/// The failed records among `records` (grid order in, grid order out)
/// as rows: fate and attempts from the record, seed from `seeds`, and
/// panel, policy, workload and column from the plan. The one mapping
/// from checkpoint records to [`FailedCell`]s.
fn failed_cells<'a>(
    plan: &Plan,
    seeds: &[u64],
    records: impl IntoIterator<Item = &'a CellRecord>,
) -> Vec<FailedCell> {
    let n_seeds = seeds.len();
    let n_rows = plan.row_labels.len();
    let n_cols = plan.col_labels.len();
    records
        .into_iter()
        .filter_map(|rec| rec.fate().map(|fate| (rec, fate)))
        .map(|(rec, fate)| {
            let point = rec.cell / n_seeds;
            let col = point % n_cols;
            let row = (point / n_cols) % n_rows;
            let panel = point / (n_cols * n_rows);
            FailedCell {
                cell: rec.cell,
                point,
                seed: seeds[rec.cell % n_seeds],
                panel: plan.spec.panels.get(panel).cloned().unwrap_or_default(),
                policy: plan.row_labels.get(row).cloned().unwrap_or_default(),
                workload: plan.workload_names.get(panel).cloned().unwrap_or_default(),
                column: plan.col_labels.get(col).cloned().unwrap_or_default(),
                reason: fate.to_string(),
                detail: rec.detail.clone(),
                attempts: rec.attempts,
            }
        })
        .collect()
}

/// The failed cells recorded in the checkpoint at `path`, as rows on
/// `spec`'s grid (what `moon-cli dlq list` prints). Seeds come from the
/// checkpoint's header, so no seed or telemetry flags are needed; a
/// header whose grid is not the spec's plan is refused, and a missing
/// checkpoint has no failed cells.
pub fn list_failed(spec: &ScenarioSpec, path: &Path) -> Result<Vec<FailedCell>, ScenarioError> {
    if !path.exists() {
        return Ok(Vec::new());
    }
    let plan = scenarios::expand(spec)?;
    let (seeds, records) = load_checkpoint(path, plan.points.len(), None)?;
    Ok(failed_cells(&plan, &seeds, records.iter().flatten()))
}

/// Run a scenario sweep: fresh, or with a checkpoint also resumed or
/// retried. Seed precedence: explicit override (`--seeds N`) > the
/// spec's `seeds` list > the `MOON_SEEDS` env default. See the module
/// docs for the lifecycle; the returned [`CampaignOutcome`] carries the
/// stitched artifacts and the failed cells.
pub fn run_campaign(
    spec: &ScenarioSpec,
    seeds_override: Option<Vec<u64>>,
    cfg: &CampaignConfig,
) -> Result<CampaignOutcome, ScenarioError> {
    let plan = scenarios::expand(spec)?;
    let seeds = seeds_override
        .or_else(|| spec.seeds.clone())
        .unwrap_or_else(scenarios::seeds);
    if seeds.is_empty() {
        // Zero runs per point would panic the profile/detail renderers
        // and silently produce all-DNF series tables.
        return Err(ScenarioError::msg(
            "seed list is empty — provide at least one seed",
        ));
    }
    let n_seeds = seeds.len();
    let n_cells = plan.points.len() * n_seeds;
    let quick = scenarios::quick_mode();
    let campaign = scenarios::codec::content_key(spec, &seeds, quick);

    let mut records: Vec<Option<CellRecord>> = vec![None; n_cells];
    if let Some(path) = &cfg.checkpoint {
        if cfg.resume || cfg.retry_failed {
            if path.is_file() {
                (_, records) = load_checkpoint(path, plan.points.len(), Some(&campaign))?;
            } else {
                eprintln!(
                    "campaign {campaign}: no checkpoint at {} — starting fresh",
                    path.display()
                );
            }
        }
    }

    // Decide what runs this invocation. Failed cells are *kept* on
    // plain resume (they only re-run through `dlq retry`, which bounds
    // attempts) — a kill-and-resume must not silently burn attempts.
    let mut pending: Vec<(usize, u32)> = Vec::new();
    for (cell, slot) in records.iter_mut().enumerate() {
        match slot {
            None => pending.push((cell, 0)),
            Some(rec) if rec.fate().is_some() => {
                if cfg.retry_failed && rec.attempts < cfg.max_attempts {
                    pending.push((cell, rec.attempts));
                    *slot = None;
                }
            }
            Some(_) => {}
        }
    }
    let restored = n_cells - pending.len();

    let log = match &cfg.checkpoint {
        Some(path) => {
            let header = encode_header(&campaign, &spec.name, quick, plan.points.len(), &seeds);
            let log = CheckpointLog::open(path, &campaign, &header, &records)?;
            if restored > 0 {
                eprintln!(
                    "campaign {campaign}: restored {restored}/{n_cells} cells from {}",
                    path.display()
                );
            }
            Some(log)
        }
        None => None,
    };

    let fresh = run_cells(&plan.points, &seeds, pending, cfg, log.as_ref());
    let executed = fresh.len();
    for rec in fresh {
        let cell = rec.cell;
        records[cell] = Some(rec);
    }

    // Stitch the grid back together in cell order — restored and fresh
    // cells are indistinguishable from here on, which is the whole
    // byte-identity argument.
    let mut results: Vec<Vec<RunResult>> = Vec::with_capacity(plan.points.len());
    let mut metrics_frags: Vec<Option<String>> = Vec::with_capacity(n_cells);
    let mut trace_frags: Vec<Option<String>> = Vec::with_capacity(n_cells);
    let failed = failed_cells(&plan, &seeds, records.iter().flatten());
    let mut records = records.into_iter();
    for point in &plan.points {
        let mut per_point = Vec::with_capacity(n_seeds);
        for &seed in &seeds {
            let mut rec = records.next().flatten().expect("every cell resolved");
            metrics_frags.push(rec.metrics_frag.take());
            trace_frags.push(rec.trace_frag.take());
            per_point.push(rec.into_result(point, seed));
        }
        results.push(per_point);
    }
    let tables = scenarios::render_tables(&plan, &results);
    let report_json = scenarios::report_json(&plan, &results, &seeds);
    let run = ScenarioRun {
        plan,
        seeds,
        results,
        tables,
        report_json,
    };
    // Checkpointed cells carry fragments; in-memory ones still hold
    // their recorders. Both render the same bytes.
    let (metrics_jsonl, chrome_trace) = if log.is_some() {
        (
            obs::metrics_from_fragments(metrics_frags.iter().map(Option::as_deref)),
            obs::trace_from_fragments(trace_frags.iter().map(Option::as_deref)),
        )
    } else {
        (obs::metrics_jsonl(&run), obs::chrome_trace(&run))
    };

    Ok(CampaignOutcome {
        run,
        campaign,
        restored,
        executed,
        failed,
        metrics_jsonl,
        chrome_trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dlq_path_derivation() {
        assert_eq!(
            dlq_path_for(Path::new("bench_results/campaigns/x.ckpt.jsonl")),
            PathBuf::from("bench_results/campaigns/x.dlq.jsonl")
        );
        assert_eq!(
            dlq_path_for(Path::new("other.jsonl")),
            PathBuf::from("other.jsonl.dlq.jsonl")
        );
    }

    fn tricky_result() -> RunResult {
        let mut r = placeholder_result(
            &scenarios::expand(&scenarios::registry::find("high-churn").unwrap())
                .unwrap()
                .points[0],
            u64::MAX - 7,
        );
        r.outcome = Outcome::Completed;
        r.job_time = Some(simkit::SimDuration::from_micros(u64::MAX / 3));
        r.unavailability = 0.1 + 0.2; // 0.30000000000000004 — shortest-repr must round-trip
        r.profile.avg_map_time = f64::NAN;
        r.profile.avg_shuffle_time = 1.0 / 3.0;
        r.job.duplicated_tasks = u32::MAX;
        r.events = u64::MAX;
        r.audit = vec!["counter \"x\"\tdrifted\nbadly".into()];
        r.jobs = Some(vec![moon::JobSlo {
            job: 7,
            workload: "sort\"quoted\"".into(),
            submitted: simkit::SimTime::from_micros(u64::MAX / 5),
            first_launch: None,
            finished: Some(simkit::SimTime::from_micros(12)),
            deadline: Some(simkit::SimTime::from_micros(u64::MAX / 7)),
            priority: -3,
            tenant: 2,
            metrics: Default::default(),
        }]);
        r
    }

    /// Everything the byte-identity argument rests on: a `RunResult`
    /// with extreme values survives the checkpoint codec bit-exactly.
    #[test]
    fn record_codec_round_trips_extreme_values() {
        let rec = CellRecord {
            cell: 3,
            attempts: 2,
            detail: String::new(),
            result: Some(tricky_result()),
            metrics_frag: Some("{\"run\":3}\n{\"run\":3}\n".into()),
            trace_frag: Some("{\"ph\":\"X\"},\n{\"ph\":\"M\"}".into()),
        };
        let back = decode_record(&encode_record(&rec)).unwrap();
        assert_eq!(back.cell, rec.cell);
        assert_eq!(back.fate(), None);
        assert_eq!(back.attempts, rec.attempts);
        assert_eq!(back.metrics_frag, rec.metrics_frag);
        assert_eq!(back.trace_frag, rec.trace_frag);
        let (a, b) = (rec.result.unwrap(), back.result.unwrap());
        assert_eq!(a.label, b.label);
        assert_eq!(a.workload, b.workload);
        assert_eq!(a.unavailability.to_bits(), b.unavailability.to_bits());
        assert_eq!(a.job_time, b.job_time);
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(a.job, b.job);
        assert!(b.profile.avg_map_time.is_nan());
        assert_eq!(
            a.profile.avg_shuffle_time.to_bits(),
            b.profile.avg_shuffle_time.to_bits()
        );
        assert_eq!(a.events, b.events);
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.audit, b.audit);
        let (ja, jb) = (&a.jobs.unwrap()[0], &b.jobs.unwrap()[0]);
        assert_eq!(ja.job, jb.job);
        assert_eq!(ja.workload, jb.workload);
        assert_eq!(ja.submitted, jb.submitted);
        assert_eq!(ja.first_launch, jb.first_launch);
        assert_eq!(ja.finished, jb.finished);
        assert_eq!(ja.deadline, jb.deadline);
        assert_eq!(ja.priority, jb.priority);
        assert_eq!(ja.tenant, jb.tenant);
        assert_eq!(ja.metrics, jb.metrics);
    }

    #[test]
    fn failure_records_round_trip_without_result() {
        let rec = CellRecord {
            cell: 9,
            attempts: 3,
            detail: "index out of bounds: the len is 4\nbut the index is 7".into(),
            result: None,
            metrics_frag: None,
            trace_frag: None,
        };
        let back = decode_record(&encode_record(&rec)).unwrap();
        assert_eq!(back.fate(), Some("panic"));
        assert_eq!(back.detail, rec.detail);
        assert!(back.result.is_none());
        for (outcome, fate) in [
            (Outcome::EventLimit, "livelock"),
            (Outcome::Deadline, "deadline"),
        ] {
            let mut r = tricky_result();
            r.outcome = outcome;
            let rec = CellRecord {
                result: Some(r),
                ..rec.clone()
            };
            let back = decode_record(&encode_record(&rec)).unwrap();
            assert_eq!(back.fate(), Some(fate));
        }
    }
}
