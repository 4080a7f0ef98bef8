//! Structured run telemetry: a sim-time metrics recorder, a span ring
//! for timeline events, and exporters for the two artifact formats the
//! tooling consumes (fixed-key JSONL metrics, Chrome trace-event JSON
//! loadable in Perfetto / `chrome://tracing`).
//!
//! Design constraints, in priority order:
//!
//! 1. **Off-path when disabled.** Telemetry lives behind an
//!    `Option<Box<…>>` in the model; a disabled run executes one branch
//!    per dispatched event and allocates nothing. Output artifacts of a
//!    disabled run are byte-identical to a build without this module.
//! 2. **Deterministic when enabled.** Everything recorded derives from
//!    simulated time and model state — never wall-clock, thread id, or
//!    map iteration order — so the same seed produces bit-identical
//!    artifacts on any thread of a parallel sweep.
//! 3. **Bounded memory.** Gauges are sampled on a fixed cadence into a
//!    columnar row-major `Vec<f64>`; spans go into a bounded ring that
//!    drops the *oldest* entries and counts what it dropped, so a
//!    pathological run cannot OOM the sweep.
//!
//! The recorder is model-agnostic: the model registers its gauge
//! columns and span kinds up front, then feeds samples from its
//! [`Model::observe`](crate::Model::observe) hook and spans from its
//! ordinary event handlers.

use crate::time::{SimDuration, SimTime};
use std::collections::{BTreeMap, VecDeque};

/// Configuration for a [`Telemetry`] recorder.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryConfig {
    /// Sim-time cadence between gauge samples.
    pub sample_every: SimDuration,
    /// Maximum spans retained; beyond this the oldest are dropped (and
    /// counted in [`Telemetry::dropped_spans`]).
    pub span_capacity: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            sample_every: SimDuration::from_secs(30),
            span_capacity: 65_536,
        }
    }
}

/// Which Chrome-trace *process* a span's track belongs to. Exporters
/// map each group of each run to its own `pid`, so Perfetto shows (for
/// example) node timelines and job timelines as separate groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpanGroup {
    /// Per-node tracks: task attempts, shuffle fetches, outages.
    Nodes,
    /// Per-job tracks: queued and running intervals.
    Jobs,
}

/// Handle to a registered span kind (name + category + group). Returned
/// by [`Telemetry::register_span_kind`]; cheap to copy into the model's
/// instrumentation state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanKind(u16);

#[derive(Debug, Clone)]
struct SpanKindDef {
    name: &'static str,
    category: &'static str,
    group: SpanGroup,
}

/// One recorded interval: a span kind on a numbered track, with an
/// integer argument whose meaning is kind-specific (attempt outcome,
/// maps per fetch batch, job id, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Which registered kind this span is.
    pub kind: SpanKind,
    /// Track number within the kind's group (node index or job id).
    pub track: u32,
    /// Interval start, inclusive.
    pub start: SimTime,
    /// Interval end; `end >= start`.
    pub end: SimTime,
    /// Kind-specific integer payload.
    pub arg: i64,
}

/// In-memory telemetry recorder: columnar gauge series + span ring.
///
/// See the [module docs](self) for the determinism and boundedness
/// contract. Construct with [`Telemetry::new`], feed with
/// [`record_sample`](Telemetry::record_sample) and
/// [`push_span`](Telemetry::push_span), export with
/// [`metrics_jsonl_into`](Telemetry::metrics_jsonl_into) and
/// [`trace_events_into`](Telemetry::trace_events_into).
#[derive(Debug, Clone)]
pub struct Telemetry {
    cfg: TelemetryConfig,
    columns: Vec<&'static str>,
    /// Row-major samples: `samples[row * columns.len() + col]`.
    samples: Vec<f64>,
    sample_times: Vec<SimTime>,
    next_due: SimTime,
    kinds: Vec<SpanKindDef>,
    spans: VecDeque<Span>,
    dropped_spans: u64,
    /// Display names for tracks, keyed by (group, track). BTreeMap so
    /// export order is deterministic.
    tracks: BTreeMap<(SpanGroup, u32), String>,
}

impl Telemetry {
    /// Create a recorder with the given gauge columns. The column set
    /// is fixed for the recorder's lifetime; every sample row must
    /// supply exactly these columns, in this order.
    pub fn new(cfg: TelemetryConfig, columns: &[&'static str]) -> Self {
        Telemetry {
            cfg,
            columns: columns.to_vec(),
            samples: Vec::new(),
            sample_times: Vec::new(),
            next_due: SimTime::ZERO,
            kinds: Vec::new(),
            spans: VecDeque::new(),
            dropped_spans: 0,
            tracks: BTreeMap::new(),
        }
    }

    /// True if a gauge row is due before the clock reaches `next`, the
    /// time of the next event: `next` is at or past the next cadence
    /// tick. The model's observe hook checks this before computing
    /// gauges, so off-cadence dispatches cost one comparison.
    pub fn due(&self, next: SimTime) -> bool {
        next >= self.next_due
    }

    /// Record one gauge row, stamped with the due cadence tick, before
    /// the clock reaches `next`: `values` hold the state after every
    /// event strictly before the tick. Then advance the cadence past
    /// `next`. `values` must match the columns given to
    /// [`Telemetry::new`] in length and order.
    pub fn record_sample(&mut self, next: SimTime, values: &[f64]) {
        assert_eq!(
            values.len(),
            self.columns.len(),
            "gauge row width must match registered columns"
        );
        self.sample_times.push(self.next_due);
        self.samples.extend_from_slice(values);
        // Advance to the first cadence tick strictly after `next`, so a
        // long event gap yields one sample, not a burst of catch-ups.
        while self.next_due <= next {
            self.next_due = self.next_due.saturating_add(self.cfg.sample_every);
        }
    }

    /// Number of gauge rows recorded.
    pub fn n_samples(&self) -> usize {
        self.sample_times.len()
    }

    /// One gauge row: its sim time and column values.
    pub fn sample(&self, row: usize) -> (SimTime, &[f64]) {
        let w = self.columns.len();
        (
            self.sample_times[row],
            &self.samples[row * w..(row + 1) * w],
        )
    }

    /// Register a span kind under `group`. Kinds are identified by the
    /// returned handle; names and categories only matter at export.
    pub fn register_span_kind(
        &mut self,
        group: SpanGroup,
        name: &'static str,
        category: &'static str,
    ) -> SpanKind {
        let id = u16::try_from(self.kinds.len()).expect("too many span kinds");
        self.kinds.push(SpanKindDef {
            name,
            category,
            group,
        });
        SpanKind(id)
    }

    /// Give a track a display name (e.g. `node 3 (volatile)`), shown as
    /// the Perfetto thread name. Unnamed tracks fall back to a numeric
    /// label at export.
    pub fn name_track(&mut self, group: SpanGroup, track: u32, name: String) {
        self.tracks.insert((group, track), name);
    }

    /// Append a span to the ring, dropping the oldest if full.
    pub fn push_span(&mut self, span: Span) {
        debug_assert!(span.end >= span.start, "span must not end before it starts");
        if self.cfg.span_capacity == 0 {
            self.dropped_spans += 1;
            return;
        }
        if self.spans.len() == self.cfg.span_capacity {
            self.spans.pop_front();
            self.dropped_spans += 1;
        }
        self.spans.push_back(span);
    }

    /// The retained spans, oldest first.
    pub fn spans(&self) -> impl Iterator<Item = &Span> {
        self.spans.iter()
    }

    /// Number of retained spans.
    pub fn n_spans(&self) -> usize {
        self.spans.len()
    }

    /// Spans evicted from the ring because it was full.
    pub fn dropped_spans(&self) -> u64 {
        self.dropped_spans
    }

    /// Append the gauge series as fixed-key JSONL to `out`: one line
    /// per sample row, each line carrying the caller's `meta` fields
    /// (values must already be rendered as JSON — quoted strings,
    /// numbers) followed by `"t_secs"` and every gauge column. The key
    /// set is identical on every line, so downstream tools can load the
    /// file as a flat table.
    pub fn metrics_jsonl_into(&self, meta: &[(&str, String)], out: &mut String) {
        for row in 0..self.n_samples() {
            let (t, values) = self.sample(row);
            out.push('{');
            for (k, v) in meta {
                push_json_str(out, k);
                out.push(':');
                out.push_str(v);
                out.push(',');
            }
            out.push_str("\"t_secs\":");
            push_json_f64(out, t.as_secs_f64());
            for (col, val) in self.columns.iter().zip(values) {
                out.push(',');
                push_json_str(out, col);
                out.push(':');
                push_json_f64(out, *val);
            }
            out.push_str("}\n");
        }
    }

    /// Append this run's Chrome trace events to `out` (one JSON object
    /// per element, to be joined into the top-level `traceEvents`
    /// array). `pids` maps each span group to the process id the caller
    /// allocated for it, and `process_names` supplies the matching
    /// process labels. Emits `M` metadata events naming processes and
    /// tracks, then one `X` complete event per retained span, with
    /// timestamps in microseconds (sim time is integer micros, so the
    /// conversion is exact).
    pub fn trace_events_into(
        &self,
        pids: &dyn Fn(SpanGroup) -> u64,
        process_names: &[(SpanGroup, String)],
        out: &mut Vec<String>,
    ) {
        for (group, name) in process_names {
            let mut s = String::from("{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":");
            s.push_str(&pids(*group).to_string());
            s.push_str(",\"tid\":0,\"args\":{\"name\":");
            push_json_str(&mut s, name);
            s.push_str("}}");
            out.push(s);
        }
        for ((group, track), name) in &self.tracks {
            let mut s = String::from("{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":");
            s.push_str(&pids(*group).to_string());
            s.push_str(",\"tid\":");
            s.push_str(&track.to_string());
            s.push_str(",\"args\":{\"name\":");
            push_json_str(&mut s, name);
            s.push_str("}}");
            out.push(s);
        }
        for span in &self.spans {
            let def = &self.kinds[span.kind.0 as usize];
            let mut s = String::from("{\"ph\":\"X\",\"name\":");
            push_json_str(&mut s, def.name);
            s.push_str(",\"cat\":");
            push_json_str(&mut s, def.category);
            s.push_str(",\"pid\":");
            s.push_str(&pids(def.group).to_string());
            s.push_str(",\"tid\":");
            s.push_str(&span.track.to_string());
            s.push_str(",\"ts\":");
            s.push_str(&span.start.as_micros().to_string());
            s.push_str(",\"dur\":");
            s.push_str(&span.end.since(span.start).as_micros().to_string());
            s.push_str(",\"args\":{\"v\":");
            s.push_str(&span.arg.to_string());
            s.push_str("}}");
            out.push(s);
        }
    }
}

/// Append `s` as a JSON string literal (quoted, escaped). The one JSON
/// string escaper of the workspace: report writers reuse it.
pub fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Append an f64 as JSON: shortest round-trip decimal, `null` for
/// non-finite values (JSON has no NaN/Infinity).
pub fn push_json_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        out.push_str(&format!("{v}"));
    } else {
        out.push_str("null");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec() -> Telemetry {
        Telemetry::new(
            TelemetryConfig {
                sample_every: SimDuration::from_secs(10),
                span_capacity: 4,
            },
            &["a", "b"],
        )
    }

    #[test]
    fn cadence_skips_to_next_tick_after_gaps() {
        let mut t = rec();
        assert!(t.due(SimTime::ZERO));
        t.record_sample(SimTime::ZERO, &[1.0, 2.0]);
        assert!(!t.due(SimTime::from_secs(9)));
        assert!(t.due(SimTime::from_secs(10)));
        // A long gap yields one sample, stamped with the first tick it
        // spans, and re-anchors past `next`: no burst of catch-up rows.
        t.record_sample(SimTime::from_secs(55), &[3.0, 4.0]);
        assert!(!t.due(SimTime::from_secs(59)));
        assert!(t.due(SimTime::from_secs(60)));
        assert_eq!(t.n_samples(), 2);
        assert_eq!(t.sample(1), (SimTime::from_secs(10), &[3.0, 4.0][..]));
    }

    #[test]
    fn span_ring_drops_oldest_and_counts() {
        let mut t = rec();
        let k = t.register_span_kind(SpanGroup::Nodes, "map", "attempt");
        for i in 0..6u32 {
            t.push_span(Span {
                kind: k,
                track: i,
                start: SimTime::from_secs(i as u64),
                end: SimTime::from_secs(i as u64 + 1),
                arg: 1,
            });
        }
        assert_eq!(t.n_spans(), 4);
        assert_eq!(t.dropped_spans(), 2);
        // Oldest evicted: first retained span is track 2.
        assert_eq!(t.spans().next().unwrap().track, 2);
    }

    #[test]
    fn jsonl_lines_share_one_fixed_key_set() {
        let mut t = rec();
        t.record_sample(SimTime::from_secs(1), &[1.0, f64::NAN]);
        t.record_sample(SimTime::from_secs(11), &[2.5, 0.0]);
        let mut out = String::new();
        t.metrics_jsonl_into(&[("run", "0".into()), ("label", "\"x\"".into())], &mut out);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"run\":0,\"label\":\"x\",\"t_secs\":0,\"a\":1,\"b\":null}"
        );
        assert_eq!(
            lines[1],
            "{\"run\":0,\"label\":\"x\",\"t_secs\":10,\"a\":2.5,\"b\":0}"
        );
    }

    #[test]
    fn trace_events_name_tracks_and_emit_complete_events() {
        let mut t = rec();
        let k = t.register_span_kind(SpanGroup::Jobs, "run", "job");
        t.name_track(SpanGroup::Jobs, 7, "job 7 (sort)".into());
        t.push_span(Span {
            kind: k,
            track: 7,
            start: SimTime::from_micros(1500),
            end: SimTime::from_micros(4000),
            arg: 1,
        });
        let mut out = Vec::new();
        t.trace_events_into(
            &|_| 42,
            &[(SpanGroup::Jobs, "run 0 jobs".to_string())],
            &mut out,
        );
        assert_eq!(out.len(), 3);
        assert!(out[0].contains("\"process_name\"") && out[0].contains("\"pid\":42"));
        assert!(out[1].contains("\"thread_name\"") && out[1].contains("job 7 (sort)"));
        assert_eq!(
            out[2],
            "{\"ph\":\"X\",\"name\":\"run\",\"cat\":\"job\",\"pid\":42,\"tid\":7,\
             \"ts\":1500,\"dur\":2500,\"args\":{\"v\":1}}"
        );
    }

    #[test]
    fn json_strings_escape_control_characters() {
        let mut s = String::new();
        push_json_str(&mut s, "a\"b\\c\nd\te\u{1}");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
    }
}
