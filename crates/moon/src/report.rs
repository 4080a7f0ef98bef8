//! Paper-style table formatting for experiment results, plus the
//! machine-readable JSON writer ([`json`]) shared by the bench dumps
//! and `moon-cli --out`.

use crate::metrics::{Outcome, RunResult};

/// Format seconds or "DNF" for jobs that missed the horizon.
pub fn secs_or_dnf(t: Option<f64>) -> String {
    match t {
        Some(s) => format!("{s:.0}"),
        None => "DNF".into(),
    }
}

/// One-line outcome tally for a batch of runs, e.g.
/// `"5 completed, 1 horizon DNF"` — with livelocked (event-limit) runs
/// called out loudly when present, since those are simulator bugs
/// rather than legitimate paper-style DNFs.
pub fn outcome_summary<'a>(results: impl IntoIterator<Item = &'a RunResult>) -> String {
    let (mut done, mut horizon, mut livelock, mut deadline, mut crashed) =
        (0usize, 0usize, 0usize, 0usize, 0usize);
    for r in results {
        match r.outcome {
            Outcome::Completed => done += 1,
            Outcome::Horizon => horizon += 1,
            Outcome::EventLimit => livelock += 1,
            Outcome::Deadline => deadline += 1,
            Outcome::Crashed => crashed += 1,
        }
    }
    let mut s = format!("{done} completed");
    if horizon > 0 {
        s.push_str(&format!(", {horizon} horizon DNF"));
    }
    if livelock > 0 {
        s.push_str(&format!(
            ", {livelock} EVENT-LIMIT (livelock — investigate, not a real DNF)"
        ));
    }
    if deadline > 0 {
        s.push_str(&format!(
            ", {deadline} WALL-DEADLINE (cell budget exceeded — see DLQ)"
        ));
    }
    if crashed > 0 {
        s.push_str(&format!(", {crashed} CRASHED (panic contained — see DLQ)"));
    }
    s
}

/// Render a series table: one row per policy label, one column per
/// axis label (`p=0.3`, correlated-session intensity, trace replays) —
/// the layout of Figures 4–7.
pub fn series_table_cols(
    title: &str,
    cols: &[String],
    rows: &[(String, Vec<Option<f64>>)],
    unit: &str,
) -> String {
    let mut out = String::new();
    out.push_str(&format!("## {title} ({unit})\n"));
    out.push_str("policy");
    for c in cols {
        out.push_str(&format!("\t{c}"));
    }
    out.push('\n');
    for (label, values) in rows {
        out.push_str(label);
        for v in values {
            out.push('\t');
            out.push_str(&secs_or_dnf(*v));
        }
        out.push('\n');
    }
    out
}

/// Render Table II: execution profiles at one unavailability rate.
pub fn profile_table(title: &str, results: &[RunResult]) -> String {
    let mut out = String::new();
    out.push_str(&format!("## {title}\n"));
    out.push_str(
        "policy\tavg_map(s)\tavg_shuffle(s)\tavg_reduce(s)\tkilled_maps\tkilled_reduces\n",
    );
    for r in results {
        if r.outcome.is_contained_failure() {
            // A cut-off run's per-task averages are partial, not a
            // profile: the whole row is DNF.
            out.push_str(&format!("{}\tDNF\tDNF\tDNF\tDNF\tDNF\n", r.label));
            continue;
        }
        out.push_str(&format!(
            "{}\t{:.2}\t{:.2}\t{:.2}\t{}\t{}\n",
            r.label,
            r.profile.avg_map_time,
            r.profile.avg_shuffle_time,
            r.profile.avg_reduce_time,
            r.profile.killed_maps,
            r.profile.killed_reduces
        ));
    }
    out
}

/// Hand-rolled JSON emission for run results.
///
/// No code in this workspace uses serde (DESIGN.md §4), and the row
/// schema is flat enough that hand-rolling stays readable. This is the
/// single source for the per-run JSON row the scenario reports emit;
/// its parser reads the campaign checkpoint back.
pub mod json {
    use crate::metrics::{JobSlo, RunResult};

    /// Escape a string for inclusion in a JSON string literal
    /// ([`simkit::telemetry::push_json_str`] without the quotes).
    pub fn escape(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        simkit::telemetry::push_json_str(&mut out, s);
        out.pop();
        out.remove(0);
        out
    }

    /// Render a float as a JSON number (`null` for NaN/inf, which JSON
    /// cannot represent).
    pub fn number(x: f64) -> String {
        let mut out = String::new();
        simkit::telemetry::push_json_f64(&mut out, x);
        out
    }

    /// `number` lifted over `Option` (`None` → `null`).
    pub fn opt_number(x: Option<f64>) -> String {
        x.map(number).unwrap_or_else(|| "null".into())
    }

    /// One per-job SLO row of a multi-job run. Scheduling-metadata keys
    /// (`deadline_secs`, `deadline_missed`, `priority`, `tenant`,
    /// `preempted`) ride along only when the job carries metadata or
    /// was preempted, so metadata-free streams keep the historical
    /// byte-stable schema.
    fn job_slo_row(j: &JobSlo) -> String {
        let secs = |t: simkit::SimTime| t.since(simkit::SimTime::ZERO).as_secs_f64();
        let mut row = format!(
            concat!(
                "      {{ \"job\": {}, \"workload\": \"{}\", \"submit_secs\": {}, ",
                "\"queue_secs\": {}, \"makespan_secs\": {}, \"slowdown\": {}, ",
                "\"completed\": {}"
            ),
            j.job,
            escape(&j.workload),
            number(secs(j.submitted)),
            opt_number(j.queue_delay_secs()),
            opt_number(j.makespan_secs()),
            opt_number(j.bounded_slowdown()),
            j.finished.is_some(),
        );
        if j.has_metadata() {
            row.push_str(&format!(
                concat!(
                    ", \"deadline_secs\": {}, \"deadline_missed\": {}, ",
                    "\"priority\": {}, \"tenant\": {}, \"preempted\": {}"
                ),
                opt_number(j.deadline.map(secs)),
                j.deadline_missed(),
                j.priority,
                j.tenant,
                j.metrics.preempted,
            ));
        }
        row.push_str(" }");
        row
    }

    /// One run as a two-space-indented JSON object (no trailing comma).
    /// Single-job runs emit exactly the historical schema; multi-job
    /// runs append a `"jobs"` array of per-job SLO rows.
    pub fn result_row(r: &RunResult) -> String {
        let mut row = format!(
            concat!(
                "  {{\n",
                "    \"label\": \"{}\",\n",
                "    \"workload\": \"{}\",\n",
                "    \"unavailability\": {},\n",
                "    \"seed\": {},\n",
                "    \"job_secs\": {},\n",
                "    \"outcome\": \"{}\",\n",
                "    \"duplicated_tasks\": {},\n",
                "    \"killed_maps\": {},\n",
                "    \"killed_reduces\": {},\n",
                "    \"map_output_relaunches\": {},\n",
                "    \"avg_map_time\": {},\n",
                "    \"avg_shuffle_time\": {},\n",
                "    \"avg_reduce_time\": {},\n",
                "    \"fetch_failures\": {},\n",
                "    \"events\": {}"
            ),
            escape(&r.label),
            escape(&r.workload),
            number(r.unavailability),
            r.seed,
            opt_number(r.job_time.map(|d| d.as_secs_f64())),
            r.outcome.as_str(),
            r.job.duplicated_tasks,
            r.job.killed_maps,
            r.job.killed_reduces,
            r.job.map_output_relaunches,
            number(r.profile.avg_map_time),
            number(r.profile.avg_shuffle_time),
            number(r.profile.avg_reduce_time),
            r.fetch_failures,
            r.events,
        );
        if let Some(jobs) = &r.jobs {
            row.push_str(",\n    \"jobs\": [\n");
            let rows: Vec<String> = jobs.iter().map(job_slo_row).collect();
            row.push_str(&rows.join(",\n"));
            row.push_str("\n    ]");
        }
        // Audit findings ride along only when present, so the report is
        // self-contained for fuzz/CI triage while clean runs keep the
        // historical byte-stable schema.
        if !r.audit.is_empty() {
            row.push_str(",\n    \"audit\": [\n");
            let lines: Vec<String> = r
                .audit
                .iter()
                .map(|a| format!("      \"{}\"", escape(a)))
                .collect();
            row.push_str(&lines.join(",\n"));
            row.push_str("\n    ]");
        }
        row.push_str("\n  }");
        row
    }

    /// A flat array of [`result_row`]s, newline-terminated.
    pub fn results_array<'a>(results: impl IntoIterator<Item = &'a RunResult>) -> String {
        let rows: Vec<String> = results.into_iter().map(result_row).collect();
        format!("[\n{}\n]\n", rows.join(",\n"))
    }

    /// A parsed JSON value.
    ///
    /// Numbers are kept as their **raw source text** rather than eagerly
    /// converted to `f64`: campaign checkpoints carry `u64` seeds and
    /// micro-second timestamps that exceed 2^53, which an `f64` round
    /// trip would silently corrupt. Callers pick the lossless conversion
    /// ([`Value::as_u64`], [`Value::as_f64`]) at the use site.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        /// `null`.
        Null,
        /// `true` / `false`.
        Bool(bool),
        /// A number, as raw source text (lossless).
        Num(String),
        /// A string (unescaped).
        Str(String),
        /// An array.
        Arr(Vec<Value>),
        /// An object; insertion order preserved.
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        /// Object field lookup.
        pub fn get(&self, key: &str) -> Option<&Value> {
            match self {
                Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        /// String contents, if this is a string.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }

        /// Array elements, if this is an array.
        pub fn as_arr(&self) -> Option<&[Value]> {
            match self {
                Value::Arr(items) => Some(items),
                _ => None,
            }
        }

        /// Lossless unsigned-integer view of a number.
        pub fn as_u64(&self) -> Option<u64> {
            match self {
                Value::Num(raw) => raw.parse().ok(),
                _ => None,
            }
        }

        /// Lossless signed-integer view of a number.
        pub fn as_i64(&self) -> Option<i64> {
            match self {
                Value::Num(raw) => raw.parse().ok(),
                _ => None,
            }
        }

        /// Floating-point view of a number (`null` maps to `None`;
        /// callers that encoded NaN as `null` recover it explicitly).
        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Value::Num(raw) => raw.parse().ok(),
                _ => None,
            }
        }
    }

    /// Deepest array/object nesting [`parse`] accepts. The workspace's
    /// own documents nest about 5 deep; the cap keeps a hostile line
    /// (say, 100,000 `[`) an error instead of a stack overflow.
    pub const MAX_DEPTH: usize = 64;

    /// Parse one JSON document. Trailing whitespace is allowed, trailing
    /// garbage is an error. Errors name the line and byte offset where
    /// parsing stopped.
    pub fn parse(src: &str) -> Result<Value, String> {
        let bytes = src.as_bytes();
        let mut pos = 0usize;
        let parsed = parse_value(bytes, &mut pos, 0).and_then(|value| {
            skip_ws(bytes, &mut pos);
            if pos == bytes.len() {
                Ok(value)
            } else {
                Err(fail("trailing garbage", pos))
            }
        });
        parsed.map_err(|Fail(what, at)| {
            let line = 1 + bytes[..at].iter().filter(|&&b| b == b'\n').count();
            format!("{what} at line {line}, byte {at}")
        })
    }

    /// A parse failure: what went wrong, and the byte offset where.
    struct Fail(String, usize);

    fn fail(what: impl Into<String>, at: usize) -> Fail {
        Fail(what.into(), at)
    }

    fn skip_ws(bytes: &[u8], pos: &mut usize) {
        while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), Fail> {
        if *pos < bytes.len() && bytes[*pos] == b {
            *pos += 1;
            Ok(())
        } else {
            Err(fail(format!("expected '{}'", b as char), *pos))
        }
    }

    fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, Fail> {
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            None => Err(fail("unexpected end of input", *pos)),
            Some(b'[' | b'{') if depth == MAX_DEPTH => {
                Err(fail(format!("nesting deeper than {MAX_DEPTH}"), *pos))
            }
            Some(b'n') => parse_lit(bytes, pos, "null", Value::Null),
            Some(b't') => parse_lit(bytes, pos, "true", Value::Bool(true)),
            Some(b'f') => parse_lit(bytes, pos, "false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(parse_string(bytes, pos)?)),
            Some(b'[') => {
                *pos += 1;
                let mut items = Vec::new();
                skip_ws(bytes, pos);
                if bytes.get(*pos) == Some(&b']') {
                    *pos += 1;
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(parse_value(bytes, pos, depth + 1)?);
                    skip_ws(bytes, pos);
                    match bytes.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b']') => {
                            *pos += 1;
                            return Ok(Value::Arr(items));
                        }
                        _ => return Err(fail("expected ',' or ']'", *pos)),
                    }
                }
            }
            Some(b'{') => {
                *pos += 1;
                let mut fields = Vec::new();
                skip_ws(bytes, pos);
                if bytes.get(*pos) == Some(&b'}') {
                    *pos += 1;
                    return Ok(Value::Obj(fields));
                }
                loop {
                    skip_ws(bytes, pos);
                    let key = parse_string(bytes, pos)?;
                    skip_ws(bytes, pos);
                    expect(bytes, pos, b':')?;
                    fields.push((key, parse_value(bytes, pos, depth + 1)?));
                    skip_ws(bytes, pos);
                    match bytes.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b'}') => {
                            *pos += 1;
                            return Ok(Value::Obj(fields));
                        }
                        _ => return Err(fail("expected ',' or '}'", *pos)),
                    }
                }
            }
            Some(b'-' | b'0'..=b'9') => {
                let start = *pos;
                if bytes[*pos] == b'-' {
                    *pos += 1;
                }
                while *pos < bytes.len()
                    && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
                {
                    *pos += 1;
                }
                let raw = std::str::from_utf8(&bytes[start..*pos])
                    .map_err(|_| fail("invalid number", start))?;
                // Validate eagerly so garbage like "1.2.3" is rejected
                // here, not at the (possibly distant) use site.
                raw.parse::<f64>()
                    .map_err(|_| fail(format!("invalid number {raw:?}"), start))?;
                Ok(Value::Num(raw.to_string()))
            }
            Some(&b) => Err(fail(format!("unexpected byte '{}'", b as char), *pos)),
        }
    }

    fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Value) -> Result<Value, Fail> {
        if bytes[*pos..].starts_with(lit.as_bytes()) {
            *pos += lit.len();
            Ok(value)
        } else {
            Err(fail(format!("expected {lit}"), *pos))
        }
    }

    fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, Fail> {
        expect(bytes, pos, b'"')?;
        let mut out = String::new();
        loop {
            let start = *pos;
            while *pos < bytes.len() && bytes[*pos] != b'"' && bytes[*pos] != b'\\' {
                *pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&bytes[start..*pos])
                    .map_err(|_| fail("invalid utf-8 in string", start))?,
            );
            match bytes.get(*pos) {
                Some(b'"') => {
                    *pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    *pos += 1;
                    match bytes.get(*pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = bytes
                                .get(*pos + 1..*pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| fail("truncated \\u escape", *pos))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| fail("bad \\u escape", *pos))?;
                            // The emitters in this workspace only escape
                            // control characters, so bare BMP scalars
                            // suffice; reject surrogates outright.
                            let c =
                                char::from_u32(code).ok_or_else(|| fail("bad \\u scalar", *pos))?;
                            out.push(c);
                            *pos += 4;
                        }
                        _ => return Err(fail("bad escape", *pos)),
                    }
                    *pos += 1;
                }
                _ => return Err(fail("unterminated string", *pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formats_dnf() {
        assert_eq!(secs_or_dnf(None), "DNF");
        assert_eq!(secs_or_dnf(Some(123.4)), "123");
    }

    #[test]
    fn series_layout() {
        let table = series_table_cols(
            "Figure 4(a): sort",
            &["p=0.1".to_string(), "p=0.5".to_string()],
            &[
                ("Hadoop1Min".to_string(), vec![Some(700.0), Some(2000.0)]),
                ("MOON".to_string(), vec![Some(650.0), None]),
            ],
            "seconds",
        );
        assert!(table.contains("p=0.1"));
        assert!(table.contains("Hadoop1Min\t700\t2000"));
        assert!(table.contains("MOON\t650\tDNF"));
    }

    fn dummy_result(outcome: crate::Outcome) -> RunResult {
        RunResult {
            label: "a\"b".into(),
            workload: "sort".into(),
            unavailability: 0.3,
            job_time: None,
            outcome,
            job: Default::default(),
            profile: Default::default(),
            fetch_failures: 0,
            events: 17,
            seed: 42,
            jobs: None,
            audit: Vec::new(),
            telemetry: None,
        }
    }

    #[test]
    fn json_rows_escape_and_carry_outcome() {
        let r = dummy_result(crate::Outcome::EventLimit);
        let row = json::result_row(&r);
        assert!(row.contains("\"label\": \"a\\\"b\""), "{row}");
        assert!(row.contains("\"outcome\": \"event_limit\""), "{row}");
        assert!(row.contains("\"job_secs\": null"), "{row}");
        let arr = json::results_array([&r, &r].map(|x| x as &RunResult));
        assert!(arr.starts_with("[\n"), "{arr}");
        assert_eq!(arr.matches("\"seed\": 42").count(), 2);
    }

    #[test]
    fn json_rows_embed_audit_only_when_present() {
        let clean = dummy_result(crate::Outcome::Completed);
        assert!(
            !json::result_row(&clean).contains("\"audit\""),
            "clean runs must keep the historical schema"
        );
        let mut dirty = dummy_result(crate::Outcome::Completed);
        dirty.audit = vec!["counter \"x\" drifted".into(), "slot 3 stuck".into()];
        let row = json::result_row(&dirty);
        assert!(
            row.contains(
                "\"audit\": [\n      \"counter \\\"x\\\" drifted\",\n      \"slot 3 stuck\"\n    ]"
            ),
            "{row}"
        );
    }

    #[test]
    fn json_number_handles_non_finite() {
        assert_eq!(json::number(1.5), "1.5");
        assert_eq!(json::number(f64::NAN), "null");
        assert_eq!(json::opt_number(None), "null");
    }

    #[test]
    fn outcome_summary_flags_livelocks() {
        use crate::Outcome;
        let rs = vec![
            dummy_result(Outcome::Completed),
            dummy_result(Outcome::Horizon),
            dummy_result(Outcome::EventLimit),
        ];
        let s = outcome_summary(&rs);
        assert!(s.contains("1 completed"), "{s}");
        assert!(s.contains("1 horizon DNF"), "{s}");
        assert!(s.contains("EVENT-LIMIT"), "{s}");
        let s = outcome_summary(&rs[..1]);
        assert_eq!(s, "1 completed");
        let rs = vec![
            dummy_result(Outcome::Deadline),
            dummy_result(Outcome::Crashed),
        ];
        let s = outcome_summary(&rs);
        assert!(s.contains("1 WALL-DEADLINE"), "{s}");
        assert!(s.contains("1 CRASHED"), "{s}");
    }

    #[test]
    fn json_parse_round_trips_result_rows() {
        use json::Value;
        let mut r = dummy_result(crate::Outcome::Completed);
        r.seed = u64::MAX - 3; // exceeds 2^53: must survive losslessly
        let doc = json::parse(&json::result_row(&r)).unwrap();
        assert_eq!(doc.get("label").and_then(Value::as_str), Some("a\"b"));
        assert_eq!(doc.get("seed").and_then(Value::as_u64), Some(u64::MAX - 3));
        assert_eq!(doc.get("job_secs"), Some(&Value::Null));
        assert_eq!(doc.get("events").and_then(Value::as_u64), Some(17));
    }

    #[test]
    fn json_parse_rejects_malformed_documents() {
        assert!(json::parse("").is_err());
        assert!(json::parse("{\"a\": 1,}").is_err());
        assert!(json::parse("{\"a\": 1} extra").is_err());
        assert!(json::parse("[1, 2").is_err());
        assert!(json::parse("\"unterminated").is_err());
        assert!(json::parse("1.2.3").is_err());
    }

    #[test]
    fn json_parse_caps_nesting_instead_of_overflowing_the_stack() {
        let nest = |open: &str, close: &str, n: usize| open.repeat(n) + "1" + &close.repeat(n);
        assert!(json::parse(&nest("[", "]", json::MAX_DEPTH)).is_ok());
        assert!(json::parse(&nest("{\"k\":", "}", json::MAX_DEPTH)).is_ok());
        let e = json::parse(&nest("[", "]", json::MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(
            e,
            format!("nesting deeper than 64 at line 1, byte {}", json::MAX_DEPTH)
        );
        for open in ["[", "{\"k\":"] {
            let e = json::parse(&open.repeat(100_000)).unwrap_err();
            assert!(e.contains("nesting deeper than 64"), "{e}");
        }
    }

    #[test]
    fn json_parse_handles_escapes_and_nesting() {
        use json::Value;
        let doc = json::parse(
            "{\"s\": \"a\\n\\t\\\"b\\u0007\", \"arr\": [true, false, null, -1.5e3], \"o\": {}}",
        )
        .unwrap();
        assert_eq!(doc.get("s").and_then(Value::as_str), Some("a\n\t\"b\u{7}"));
        let arr = doc.get("arr").and_then(Value::as_arr).unwrap();
        assert_eq!(arr[0], Value::Bool(true));
        assert_eq!(arr[2], Value::Null);
        assert_eq!(arr[3].as_f64(), Some(-1500.0));
        assert_eq!(doc.get("o"), Some(&Value::Obj(vec![])));
        // Escaped strings round-trip through the emitter's escape().
        let s = "weird \\ chars\t\"quoted\"\nnewline \u{1}";
        let doc = json::parse(&format!("\"{}\"", json::escape(s))).unwrap();
        assert_eq!(doc.as_str(), Some(s));
    }

    #[test]
    fn json_errors_name_the_line() {
        let e = json::parse("{\n  \"a\": 1,\n  \"b\": tru\n}").unwrap_err();
        assert_eq!(e, "expected true at line 3, byte 19");
        let e = json::parse("[1,\n").unwrap_err();
        assert_eq!(e, "unexpected end of input at line 2, byte 4");
    }

    /// One record line of a quick fig4 campaign checkpoint.
    const CHECKPOINT_LINE: &str = r#"{"cell":1,"attempts":1,"detail":"","result":{"label":"Hadoop10Min","workload":"sleep(sort)","unavailability":0.3,"job_time_us":113000000,"outcome":"completed","job":{"duplicated_tasks":8,"killed_maps":0,"killed_reduces":8,"killed_by_tracker_expiry":0,"map_output_relaunches":0,"completed_maps":48,"completed_reduces":25,"preempted":0},"profile":{"avg_map_time":24.17713514583333,"avg_shuffle_time":36.511726800000005,"avg_reduce_time":37.9956706,"killed_maps":0,"killed_reduces":8},"fetch_failures":0,"events":1029,"seed":42,"jobs":null,"audit":[]},"metrics_frag":null,"trace_frag":null}"#;

    #[test]
    fn json_parse_survives_seeded_byte_mutations() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../data/results");
        let mut paths: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        paths.sort();
        let mut corpus: Vec<(String, String)> = paths
            .iter()
            .map(|p| (p.display().to_string(), std::fs::read_to_string(p).unwrap()))
            .collect();
        assert!(corpus.len() >= 8, "{corpus:?}");
        corpus.push(("a checkpoint line".into(), CHECKPOINT_LINE.into()));
        // Bytes JSON gives meaning to, and a few that it does not.
        const ALPHABET: &[u8] = b"{}[],:\"\\/-+.0123456789eEtrufalsnu \n\t\r\0\x7f";
        let mut rng = StdRng::seed_from_u64(0x150_5eed);
        for (name, text) in &corpus {
            json::parse(text).unwrap_or_else(|e| panic!("{name}: {e}"));
            for _ in 0..300 {
                let mut bytes = text.clone().into_bytes();
                for _ in 0..rng.gen_range(1..=3) {
                    let at = rng.gen_range(0..=bytes.len());
                    let byte = ALPHABET[rng.gen_range(0..ALPHABET.len())];
                    match rng.gen_range(0..4u32) {
                        0 if at < bytes.len() => bytes[at] = byte,
                        1 if at < bytes.len() => {
                            bytes.remove(at);
                        }
                        2 => bytes.truncate(at),
                        _ => bytes.insert(at, byte),
                    }
                }
                // `parse` takes `&str`; invalid UTF-8 never reaches it.
                let Ok(mutant) = String::from_utf8(bytes) else {
                    continue;
                };
                let parsed = std::panic::catch_unwind(|| json::parse(&mutant))
                    .unwrap_or_else(|_| panic!("parse panicked on a mutant of {name}:\n{mutant}"));
                let Err(e) = parsed else { continue };
                // "... at line L, byte B", with L the line of byte B.
                let (line, at) = e
                    .rsplit_once(" at line ")
                    .and_then(|(_, at)| at.split_once(", byte "))
                    .and_then(|(l, b)| Some((l.parse::<usize>().ok()?, b.parse::<usize>().ok()?)))
                    .unwrap_or_else(|| panic!("no line and byte in {e:?}"));
                assert!(
                    at <= mutant.len(),
                    "{e}: past the end of a mutant of {name}"
                );
                let expect = 1 + mutant.as_bytes()[..at]
                    .iter()
                    .filter(|&&b| b == b'\n')
                    .count();
                assert_eq!(line, expect, "{e}: wrong line in a mutant of {name}");
            }
        }
    }
}
