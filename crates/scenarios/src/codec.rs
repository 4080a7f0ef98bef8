//! `ScenarioSpec` ⇄ TOML mapping.
//!
//! The on-disk shape (everything but `name`, `title`, `workloads`,
//! and `[axis]` is optional):
//!
//! ```toml
//! name = "high-churn"
//! title = "MOON vs Hadoop under extreme churn"
//! workloads = ["sort"]
//! panels = [""]
//! policies = ["moon-hybrid", { id = "ha-v1", label = "HA", dedicated = 3 }]
//! dedicated = 6
//! seeds = [42, 1042]        # optional; default = MOON_SEEDS env
//! horizon_secs = 28800      # optional; default = 8h (or trace horizon)
//! tables = [{ kind = "time", title = "High churn{panel}: execution time" }]
//!
//! [axis]
//! kind = "rates"            # or "correlated" / "trace-file" / "load"
//! points = [0.3, 0.5, 0.7]
//! ```
//!
//! Parse errors from the TOML layer carry line numbers; mapping errors
//! name the offending key.

use crate::spec::{
    ArrivalSpec, Axis, CorrelatedAxis, CorrelatedKnob, JobStreamSpec, LoadAxis, PolicyRef,
    ScenarioError, ScenarioSpec, TableKind, TableSpec, TelemetrySpec,
};
use crate::toml::{self, Table, Value};

fn err(message: impl Into<String>) -> ScenarioError {
    ScenarioError::msg(message)
}

fn want_str(v: &Value, key: &str) -> Result<String, ScenarioError> {
    v.as_str()
        .map(str::to_string)
        .ok_or_else(|| err(format!("`{key}` must be a string, got {}", v.type_name())))
}

fn want_f64(v: &Value, key: &str) -> Result<f64, ScenarioError> {
    v.as_f64()
        .ok_or_else(|| err(format!("`{key}` must be a number, got {}", v.type_name())))
}

fn want_u64(v: &Value, key: &str) -> Result<u64, ScenarioError> {
    match *v {
        Value::Int(i) if i >= 0 => Ok(i as u64),
        _ => Err(err(format!(
            "`{key}` must be a non-negative integer, got {}",
            v.type_name()
        ))),
    }
}

fn want_u32(v: &Value, key: &str) -> Result<u32, ScenarioError> {
    let n = want_u64(v, key)?;
    u32::try_from(n).map_err(|_| err(format!("`{key}` must be at most {}, got {n}", u32::MAX)))
}

fn want_bool(v: &Value, key: &str) -> Result<bool, ScenarioError> {
    match *v {
        Value::Bool(b) => Ok(b),
        _ => Err(err(format!(
            "`{key}` must be a boolean, got {}",
            v.type_name()
        ))),
    }
}

fn want_array<'v>(v: &'v Value, key: &str) -> Result<&'v [Value], ScenarioError> {
    match v {
        Value::Array(a) => Ok(a),
        _ => Err(err(format!(
            "`{key}` must be an array, got {}",
            v.type_name()
        ))),
    }
}

fn str_array(t: &Table, key: &str) -> Result<Option<Vec<String>>, ScenarioError> {
    match t.get(key) {
        None => Ok(None),
        Some(v) => want_array(v, key)?
            .iter()
            .map(|item| want_str(item, key))
            .collect::<Result<Vec<_>, _>>()
            .map(Some),
    }
}

fn f64_array(v: &Value, key: &str) -> Result<Vec<f64>, ScenarioError> {
    want_array(v, key)?
        .iter()
        .map(|x| want_f64(x, key))
        .collect()
}

fn parse_policy(v: &Value) -> Result<PolicyRef, ScenarioError> {
    match v {
        Value::Str(id) => Ok(PolicyRef::new(id.clone())),
        Value::Table(t) => {
            let id = t
                .get("id")
                .ok_or_else(|| err("policy entry is missing `id`"))?;
            let mut p = PolicyRef::new(want_str(id, "policies[].id")?);
            if let Some(l) = t.get("label") {
                p.label = Some(want_str(l, "policies[].label")?);
            }
            if let Some(d) = t.get("dedicated") {
                p.dedicated = Some(want_u32(d, "policies[].dedicated")?);
            }
            for (k, _) in t.iter() {
                if !matches!(k, "id" | "label" | "dedicated") {
                    return Err(err(format!("unknown policy entry key `{k}`")));
                }
            }
            Ok(p)
        }
        other => Err(err(format!(
            "`policies` entries must be strings or inline tables, got {}",
            other.type_name()
        ))),
    }
}

fn parse_table_spec(v: &Value) -> Result<TableSpec, ScenarioError> {
    let t = match v {
        Value::Table(t) => t,
        other => {
            return Err(err(format!(
                "`tables` entries must be inline tables, got {}",
                other.type_name()
            )))
        }
    };
    let kind = match t.get("kind") {
        Some(v) => want_str(v, "tables[].kind")?,
        None => return Err(err("table entry is missing `kind`")),
    };
    let kind = match kind.as_str() {
        "time" => TableKind::Time,
        "duplicates" => TableKind::Duplicates,
        "profile" => TableKind::Profile,
        "detail" => TableKind::Detail,
        "catalog" => TableKind::Catalog,
        "jobs" => TableKind::Jobs,
        "saturation" => TableKind::Saturation,
        other => {
            return Err(err(format!(
                "unknown table kind `{other}` \
                 (time / duplicates / profile / detail / catalog / jobs / saturation)"
            )))
        }
    };
    let title = match t.get("title") {
        Some(v) => want_str(v, "tables[].title")?,
        None => return Err(err("table entry is missing `title`")),
    };
    Ok(TableSpec { kind, title })
}

fn parse_axis(t: &Table) -> Result<Axis, ScenarioError> {
    let kind = match t.get("kind") {
        Some(v) => want_str(v, "axis.kind")?,
        None => return Err(err("`[axis]` is missing `kind`")),
    };
    match kind.as_str() {
        "rates" => {
            let points = t
                .get("points")
                .ok_or_else(|| err("rates axis is missing `points`"))?;
            Ok(Axis::Rates(f64_array(points, "axis.points")?))
        }
        "correlated" => {
            let points = t
                .get("points")
                .ok_or_else(|| err("correlated axis is missing `points`"))?;
            let knob = match t.get("knob") {
                Some(v) => match want_str(v, "axis.knob")?.as_str() {
                    "sessions_per_hour" => CorrelatedKnob::SessionsPerHour,
                    "session_fraction" => CorrelatedKnob::SessionFraction,
                    other => {
                        return Err(err(format!(
                            "unknown correlated knob `{other}` \
                             (sessions_per_hour / session_fraction)"
                        )))
                    }
                },
                None => CorrelatedKnob::SessionsPerHour,
            };
            let get_f = |key: &str, default: f64| -> Result<f64, ScenarioError> {
                t.get(key).map_or(Ok(default), |v| want_f64(v, key))
            };
            Ok(Axis::Correlated(CorrelatedAxis {
                points: f64_array(points, "axis.points")?,
                knob,
                sessions_per_hour: get_f("sessions_per_hour", 1.0)?,
                session_fraction: get_f("session_fraction", 0.3)?,
                background: get_f("background", 0.2)?,
                diurnal: t
                    .get("diurnal")
                    .map_or(Ok(true), |v| want_bool(v, "axis.diurnal"))?,
            }))
        }
        "trace-file" => {
            let path = t
                .get("path")
                .ok_or_else(|| err("trace-file axis is missing `path`"))?;
            Ok(Axis::TraceFile {
                path: want_str(path, "axis.path")?,
            })
        }
        "load" => {
            let points = t
                .get("points")
                .ok_or_else(|| err("load axis is missing `points`"))?;
            let rate = match t.get("rate") {
                Some(v) => want_f64(v, "axis.rate")?,
                None => return Err(err("load axis is missing `rate`")),
            };
            let n_volatile = t
                .get("n_volatile")
                .map(|v| want_u32(v, "axis.n_volatile"))
                .transpose()?;
            let points = f64_array(points, "axis.points")?;
            for &p in &points {
                if !(p.is_finite() && p > 0.0) {
                    return Err(err(format!(
                        "`axis.points` of a load axis must be positive, got {p}"
                    )));
                }
            }
            Ok(Axis::Load(LoadAxis {
                points,
                rate,
                n_volatile,
            }))
        }
        other => Err(err(format!(
            "unknown axis kind `{other}` (rates / correlated / trace-file / load)"
        ))),
    }
}

/// Parse the `[jobs]` table: the multi-job arrival stream.
fn parse_jobs(t: &Table) -> Result<JobStreamSpec, ScenarioError> {
    let kind = match t.get("kind") {
        Some(v) => want_str(v, "jobs.kind")?,
        None => return Err(err("`[jobs]` is missing `kind`")),
    };
    let want_key_f64 = |key: &str| -> Result<f64, ScenarioError> {
        t.get(key)
            .ok_or_else(|| err(format!("{kind} jobs stream is missing `{key}`")))
            .and_then(|v| want_f64(v, key))
    };
    let want_key_u32 = |key: &str| -> Result<u32, ScenarioError> {
        t.get(key)
            .ok_or_else(|| err(format!("{kind} jobs stream is missing `{key}`")))
            .and_then(|v| want_u32(v, key))
    };
    // Durations and rates must be finite and non-negative here, with
    // the key named — downstream they become `SimDuration`s, where a
    // negative value would only surface as a contextless debug panic
    // (or a silent clamp in release).
    let nonneg = |x: f64, key: &str| -> Result<f64, ScenarioError> {
        if x.is_finite() && x >= 0.0 {
            Ok(x)
        } else {
            Err(err(format!(
                "`jobs.{key}` must be a finite non-negative number, got {x}"
            )))
        }
    };
    let arrivals = match kind.as_str() {
        "batch" => {
            let offsets = t
                .get("offsets_secs")
                .ok_or_else(|| err("batch jobs stream is missing `offsets_secs`"))?;
            let offsets_secs = f64_array(offsets, "jobs.offsets_secs")?;
            if offsets_secs.is_empty() {
                return Err(err("`jobs.offsets_secs` must not be empty"));
            }
            for &o in &offsets_secs {
                nonneg(o, "offsets_secs")?;
            }
            ArrivalSpec::Batch { offsets_secs }
        }
        "poisson" => {
            let rate_per_hour = nonneg(want_key_f64("rate_per_hour")?, "rate_per_hour")?;
            if rate_per_hour == 0.0 {
                return Err(err("`jobs.rate_per_hour` must be positive"));
            }
            ArrivalSpec::Poisson {
                rate_per_hour,
                count: want_key_u32("count")?,
            }
        }
        "closed" => ArrivalSpec::Closed {
            clients: want_key_u32("clients")?,
            jobs_per_client: want_key_u32("jobs_per_client")?,
            think_secs: nonneg(want_key_f64("think_secs")?, "think_secs")?,
        },
        other => {
            return Err(err(format!(
                "unknown jobs stream kind `{other}` (batch / poisson / closed)"
            )))
        }
    };
    let workloads = str_array(t, "workloads")?.unwrap_or_default();
    let u32_list = |key: &str| -> Result<Vec<u32>, ScenarioError> {
        match t.get(key) {
            None => Ok(Vec::new()),
            Some(v) => want_array(v, key)?
                .iter()
                .map(|x| want_u32(x, &format!("jobs.{key}")))
                .collect(),
        }
    };
    let deadlines_secs = match t.get("deadlines_secs") {
        None => Vec::new(),
        Some(v) => {
            let list = f64_array(v, "jobs.deadlines_secs")?;
            for &d in &list {
                nonneg(d, "deadlines_secs")?;
            }
            list
        }
    };
    let priorities = match t.get("priorities") {
        None => Vec::new(),
        Some(v) => want_array(v, "jobs.priorities")?
            .iter()
            .map(|x| match *x {
                Value::Int(i) if i32::try_from(i).is_ok() => Ok(i),
                _ => Err(err(format!(
                    "`jobs.priorities` entries must be 32-bit integers, got {}",
                    x.type_name()
                ))),
            })
            .collect::<Result<Vec<_>, _>>()?,
    };
    let tenants = u32_list("tenants")?;
    let tenant_weights = u32_list("tenant_weights")?;
    if tenant_weights.contains(&0) {
        return Err(err("`jobs.tenant_weights` entries must be positive"));
    }
    let tenant_min_slots = u32_list("tenant_min_slots")?;
    for (k, _) in t.iter() {
        let known = matches!(
            k,
            "kind"
                | "workloads"
                | "offsets_secs"
                | "rate_per_hour"
                | "count"
                | "clients"
                | "jobs_per_client"
                | "think_secs"
                | "deadlines_secs"
                | "priorities"
                | "tenants"
                | "tenant_weights"
                | "tenant_min_slots"
        );
        if !known {
            return Err(err(format!("unknown jobs stream key `{k}`")));
        }
    }
    let spec = JobStreamSpec {
        arrivals,
        workloads,
        deadlines_secs,
        priorities,
        tenants,
        tenant_weights,
        tenant_min_slots,
    };
    if spec.total_jobs() == 0 {
        return Err(err("jobs stream would inject zero jobs"));
    }
    Ok(spec)
}

/// Parse the `[telemetry]` table: gauge cadence and span capacity,
/// defaulting any omitted key (so `[telemetry]` alone turns recording
/// on with the standard settings).
fn parse_telemetry(t: &Table) -> Result<TelemetrySpec, ScenarioError> {
    let defaults = TelemetrySpec::default();
    let sample_every_secs = match t.get("sample_every_secs") {
        None => defaults.sample_every_secs,
        Some(v) => {
            let x = want_f64(v, "telemetry.sample_every_secs")?;
            if !(x.is_finite() && x > 0.0) {
                return Err(err(format!(
                    "`telemetry.sample_every_secs` must be positive, got {x}"
                )));
            }
            x
        }
    };
    let span_capacity = match t.get("span_capacity") {
        None => defaults.span_capacity,
        Some(v) => want_u32(v, "telemetry.span_capacity")?,
    };
    for (k, _) in t.iter() {
        if !matches!(k, "sample_every_secs" | "span_capacity") {
            return Err(err(format!("unknown telemetry key `{k}`")));
        }
    }
    Ok(TelemetrySpec {
        sample_every_secs,
        span_capacity,
    })
}

/// Map a parsed TOML root table to a spec.
pub fn from_toml(root: &Table) -> Result<ScenarioSpec, ScenarioError> {
    let name = match root.get("name") {
        Some(v) => want_str(v, "name")?,
        None => return Err(err("scenario is missing `name`")),
    };
    let title = match root.get("title") {
        Some(v) => want_str(v, "title")?,
        None => return Err(err("scenario is missing `title`")),
    };
    let workloads =
        str_array(root, "workloads")?.ok_or_else(|| err("scenario is missing `workloads`"))?;
    if workloads.is_empty() {
        return Err(err("`workloads` must not be empty"));
    }
    let panels = match str_array(root, "panels")? {
        Some(p) => {
            if p.len() != workloads.len() {
                return Err(err(format!(
                    "`panels` has {} entries but `workloads` has {}",
                    p.len(),
                    workloads.len()
                )));
            }
            p
        }
        None => vec![String::new(); workloads.len()],
    };
    let policies = match root.get("policies") {
        None => Vec::new(),
        Some(v) => want_array(v, "policies")?
            .iter()
            .map(parse_policy)
            .collect::<Result<Vec<_>, _>>()?,
    };
    let axis = match root.get("axis") {
        Some(Value::Table(t)) => parse_axis(t)?,
        Some(other) => {
            return Err(err(format!(
                "`axis` must be a `[axis]` table, got {}",
                other.type_name()
            )))
        }
        None => return Err(err("scenario is missing the `[axis]` table")),
    };
    let dedicated = root
        .get("dedicated")
        .map_or(Ok(6), |v| want_u32(v, "dedicated"))?;
    let n_volatile = root
        .get("n_volatile")
        .map(|v| want_u32(v, "n_volatile"))
        .transpose()?;
    let seeds = match root.get("seeds") {
        None => None,
        Some(v) => {
            let list = want_array(v, "seeds")?
                .iter()
                .map(|x| want_u64(x, "seeds"))
                .collect::<Result<Vec<_>, _>>()?;
            if list.is_empty() {
                return Err(err(
                    "`seeds` must not be empty (omit it to use the MOON_SEEDS default)",
                ));
            }
            Some(list)
        }
    };
    let horizon_secs = root
        .get("horizon_secs")
        .map(|v| want_u64(v, "horizon_secs"))
        .transpose()?;
    let jobs = match root.get("jobs") {
        None => None,
        Some(Value::Table(t)) => Some(parse_jobs(t)?),
        Some(other) => {
            return Err(err(format!(
                "`jobs` must be a `[jobs]` table, got {}",
                other.type_name()
            )))
        }
    };
    let telemetry = match root.get("telemetry") {
        None => None,
        Some(Value::Table(t)) => Some(parse_telemetry(t)?),
        Some(other) => {
            return Err(err(format!(
                "`telemetry` must be a `[telemetry]` table, got {}",
                other.type_name()
            )))
        }
    };
    let tables = match root.get("tables") {
        None => vec![TableSpec {
            kind: TableKind::Time,
            title: format!("{title}{{panel}}"),
        }],
        Some(v) => want_array(v, "tables")?
            .iter()
            .map(parse_table_spec)
            .collect::<Result<Vec<_>, _>>()?,
    };
    for (k, _) in root.iter() {
        if !matches!(
            k,
            "name"
                | "title"
                | "workloads"
                | "panels"
                | "policies"
                | "axis"
                | "dedicated"
                | "n_volatile"
                | "seeds"
                | "horizon_secs"
                | "jobs"
                | "telemetry"
                | "tables"
        ) {
            return Err(err(format!("unknown scenario key `{k}`")));
        }
    }
    Ok(ScenarioSpec {
        name,
        title,
        workloads,
        panels,
        policies,
        axis,
        dedicated,
        n_volatile,
        seeds,
        horizon_secs,
        jobs,
        telemetry,
        tables,
    })
}

/// Parse a scenario from TOML text (line-numbered syntax errors,
/// key-named mapping errors).
pub fn from_str(text: &str) -> Result<ScenarioSpec, ScenarioError> {
    let root = toml::parse(text)?;
    from_toml(&root)
}

/// Load a scenario from a `.toml` file.
pub fn load_file(path: &std::path::Path) -> Result<ScenarioSpec, ScenarioError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| err(format!("cannot read {}: {e}", path.display())))?;
    from_str(&text)
}

fn policy_to_toml(p: &PolicyRef) -> Value {
    if p.label.is_none() && p.dedicated.is_none() {
        return Value::Str(p.id.clone());
    }
    let mut t = Table::new();
    t.set("id", Value::Str(p.id.clone()));
    if let Some(l) = &p.label {
        t.set("label", Value::Str(l.clone()));
    }
    if let Some(d) = p.dedicated {
        t.set("dedicated", Value::Int(d as i64));
    }
    Value::Table(t)
}

/// Map a spec to a TOML root table (the inverse of [`from_toml`]).
pub fn to_toml(spec: &ScenarioSpec) -> Table {
    let mut root = Table::new();
    root.set("name", Value::Str(spec.name.clone()));
    root.set("title", Value::Str(spec.title.clone()));
    root.set(
        "workloads",
        Value::Array(spec.workloads.iter().cloned().map(Value::Str).collect()),
    );
    root.set(
        "panels",
        Value::Array(spec.panels.iter().cloned().map(Value::Str).collect()),
    );
    root.set(
        "policies",
        Value::Array(spec.policies.iter().map(policy_to_toml).collect()),
    );
    root.set("dedicated", Value::Int(spec.dedicated as i64));
    if let Some(n) = spec.n_volatile {
        root.set("n_volatile", Value::Int(n as i64));
    }
    if let Some(seeds) = &spec.seeds {
        root.set(
            "seeds",
            Value::Array(seeds.iter().map(|&s| Value::Int(s as i64)).collect()),
        );
    }
    if let Some(h) = spec.horizon_secs {
        root.set("horizon_secs", Value::Int(h as i64));
    }
    if let Some(jobs) = &spec.jobs {
        let mut j = Table::new();
        match &jobs.arrivals {
            ArrivalSpec::Batch { offsets_secs } => {
                j.set("kind", Value::Str("batch".into()));
                j.set(
                    "offsets_secs",
                    Value::Array(offsets_secs.iter().map(|&o| Value::Float(o)).collect()),
                );
            }
            ArrivalSpec::Poisson {
                rate_per_hour,
                count,
            } => {
                j.set("kind", Value::Str("poisson".into()));
                j.set("rate_per_hour", Value::Float(*rate_per_hour));
                j.set("count", Value::Int(*count as i64));
            }
            ArrivalSpec::Closed {
                clients,
                jobs_per_client,
                think_secs,
            } => {
                j.set("kind", Value::Str("closed".into()));
                j.set("clients", Value::Int(*clients as i64));
                j.set("jobs_per_client", Value::Int(*jobs_per_client as i64));
                j.set("think_secs", Value::Float(*think_secs));
            }
        }
        if !jobs.workloads.is_empty() {
            j.set(
                "workloads",
                Value::Array(jobs.workloads.iter().cloned().map(Value::Str).collect()),
            );
        }
        // Scheduling metadata serializes only when present, so specs
        // without it keep their historical byte-identical TOML form.
        if !jobs.deadlines_secs.is_empty() {
            j.set(
                "deadlines_secs",
                Value::Array(
                    jobs.deadlines_secs
                        .iter()
                        .map(|&d| Value::Float(d))
                        .collect(),
                ),
            );
        }
        if !jobs.priorities.is_empty() {
            j.set(
                "priorities",
                Value::Array(jobs.priorities.iter().map(|&p| Value::Int(p)).collect()),
            );
        }
        let u32_list =
            |list: &[u32]| Value::Array(list.iter().map(|&x| Value::Int(x as i64)).collect());
        if !jobs.tenants.is_empty() {
            j.set("tenants", u32_list(&jobs.tenants));
        }
        if !jobs.tenant_weights.is_empty() {
            j.set("tenant_weights", u32_list(&jobs.tenant_weights));
        }
        if !jobs.tenant_min_slots.is_empty() {
            j.set("tenant_min_slots", u32_list(&jobs.tenant_min_slots));
        }
        root.set("jobs", Value::Table(j));
    }
    if let Some(tel) = &spec.telemetry {
        let mut t = Table::new();
        t.set("sample_every_secs", Value::Float(tel.sample_every_secs));
        t.set("span_capacity", Value::Int(tel.span_capacity as i64));
        root.set("telemetry", Value::Table(t));
    }
    root.set(
        "tables",
        Value::Array(
            spec.tables
                .iter()
                .map(|t| {
                    let mut e = Table::new();
                    e.set("kind", Value::Str(t.kind.as_str().into()));
                    e.set("title", Value::Str(t.title.clone()));
                    Value::Table(e)
                })
                .collect(),
        ),
    );
    let mut axis = Table::new();
    match &spec.axis {
        Axis::Rates(points) => {
            axis.set("kind", Value::Str("rates".into()));
            axis.set(
                "points",
                Value::Array(points.iter().map(|&p| Value::Float(p)).collect()),
            );
        }
        Axis::Correlated(c) => {
            axis.set("kind", Value::Str("correlated".into()));
            axis.set(
                "points",
                Value::Array(c.points.iter().map(|&p| Value::Float(p)).collect()),
            );
            axis.set("knob", Value::Str(c.knob.as_str().into()));
            axis.set("sessions_per_hour", Value::Float(c.sessions_per_hour));
            axis.set("session_fraction", Value::Float(c.session_fraction));
            axis.set("background", Value::Float(c.background));
            axis.set("diurnal", Value::Bool(c.diurnal));
        }
        Axis::TraceFile { path } => {
            axis.set("kind", Value::Str("trace-file".into()));
            axis.set("path", Value::Str(path.clone()));
        }
        Axis::Load(l) => {
            axis.set("kind", Value::Str("load".into()));
            axis.set(
                "points",
                Value::Array(l.points.iter().map(|&p| Value::Float(p)).collect()),
            );
            axis.set("rate", Value::Float(l.rate));
            if let Some(n) = l.n_volatile {
                axis.set("n_volatile", Value::Int(n as i64));
            }
        }
    }
    root.set("axis", Value::Table(axis));
    root
}

/// Serialize a spec to TOML text. `from_str(&to_string(s)) == s`.
pub fn to_string(spec: &ScenarioSpec) -> String {
    toml::serialize(&to_toml(spec))
}

/// Deterministic campaign key: a 64-bit FNV-1a hash (hex) over the
/// spec's canonical TOML serialization, the effective seed list, and
/// the quick-mode flag — everything that shapes the expanded grid.
///
/// Two invocations agree on the key iff they would run the same cells
/// with the same inputs, which is the precondition for checkpoint
/// resume: `moon-cli run --resume` refuses a checkpoint whose key
/// differs. Canonical TOML (not the user's file bytes) feeds the hash,
/// so formatting and key order don't matter; `MOON_QUICK` and the seed
/// list do, since they change cluster shrinking and the grid itself.
pub fn content_key(spec: &ScenarioSpec, seeds: &[u64], quick: bool) -> String {
    // FNV-1a, 64-bit: tiny, stable across platforms and releases —
    // unlike `DefaultHasher`, whose output is explicitly unspecified.
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
    };
    eat(to_string(spec).as_bytes());
    eat(b"\0seeds");
    for &s in seeds {
        eat(&s.to_le_bytes());
    }
    eat(b"\0quick");
    eat(&[quick as u8]);
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::fs;
    use std::path::Path;

    #[test]
    fn content_key_is_stable_and_input_sensitive() {
        let spec = registry::find("high-churn").unwrap();
        let key = content_key(&spec, &[42, 1042], false);
        assert_eq!(key.len(), 16);
        assert!(key.chars().all(|c| c.is_ascii_hexdigit()));
        // Deterministic across calls…
        assert_eq!(key, content_key(&spec, &[42, 1042], false));
        // …and sensitive to each input that shapes the grid.
        assert_ne!(key, content_key(&spec, &[42], false));
        assert_ne!(key, content_key(&spec, &[1042, 42], false));
        assert_ne!(key, content_key(&spec, &[42, 1042], true));
        let mut other = spec.clone();
        other.horizon_secs = Some(other.horizon_secs.unwrap_or(28_800) + 1);
        assert_ne!(key, content_key(&other, &[42, 1042], false));
        // Canonicalization: a spec reparsed from its own serialization
        // keys identically (formatting of the source file is irrelevant).
        let reparsed = from_str(&to_string(&spec)).unwrap();
        assert_eq!(key, content_key(&reparsed, &[42, 1042], false));
    }

    #[test]
    fn every_builtin_round_trips() {
        for spec in registry::all() {
            let text = to_string(&spec);
            let back =
                from_str(&text).unwrap_or_else(|e| panic!("{}: {e}\n---\n{text}", spec.name));
            assert_eq!(back, spec, "round-trip drift for `{}`", spec.name);
        }
    }

    /// Every `u32` key rejects a value above `u32::MAX`, naming the key,
    /// instead of wrapping it (`4294967302` once read as `dedicated = 6`).
    #[test]
    fn u32_keys_reject_values_that_do_not_fit() {
        let head = "name = \"x\"\ntitle = \"t\"\nworkloads = [\"quick\"]\n";
        let rates = "[axis]\nkind = \"rates\"\npoints = [0.3]\n";
        let poisson = "[jobs]\nkind = \"poisson\"\nrate_per_hour = 60.0\n";
        let closed = "[jobs]\nkind = \"closed\"\nthink_secs = 1.0\n";
        let load = "[axis]\nkind = \"load\"\npoints = [30.0]\nrate = 0.3\n";
        let cases = [
            (
                format!("{head}dedicated = 4294967302\n{rates}"),
                "`dedicated`",
            ),
            (
                format!(
                    "{head}policies = [{{ id = \"moon-hybrid\", dedicated = 4294967297 }}]\n{rates}"
                ),
                "`policies[].dedicated`",
            ),
            (
                format!("{head}n_volatile = 4294967298\n{rates}"),
                "`n_volatile`",
            ),
            (
                format!("{head}{poisson}count = 4294967297\n{rates}"),
                "`count`",
            ),
            (
                format!("{head}{closed}clients = 4294967296\njobs_per_client = 1\n{rates}"),
                "`clients`",
            ),
            (
                format!("{head}{closed}clients = 1\njobs_per_client = 4294967296\n{rates}"),
                "`jobs_per_client`",
            ),
            (
                format!("{head}{poisson}count = 2\ntenants = [0, 4294967296]\n{rates}"),
                "`jobs.tenants`",
            ),
            (
                format!("{head}[telemetry]\nspan_capacity = 4294967296\n{rates}"),
                "`telemetry.span_capacity`",
            ),
            (
                format!("{head}{load}n_volatile = 4294967296\n"),
                "`axis.n_volatile`",
            ),
        ];
        for (text, key) in cases {
            let e = from_str(&text).expect_err(&text).to_string();
            assert!(
                e.contains(key) && e.contains("at most 4294967295"),
                "{key}: {e}"
            );
        }
        let max = format!("{head}dedicated = 4294967295\n{rates}");
        assert_eq!(from_str(&max).unwrap().dedicated, u32::MAX);
    }

    #[test]
    fn minimal_spec_gets_defaults() {
        let text = "name = \"x\"\ntitle = \"t\"\nworkloads = [\"quick\"]\n\
                    [axis]\nkind = \"rates\"\npoints = [0.3]\n";
        let s = from_str(text).unwrap();
        assert_eq!(s.dedicated, 6);
        assert_eq!(s.panels, vec![String::new()]);
        assert!(s.policies.is_empty());
        assert!(s.seeds.is_none());
        assert_eq!(s.tables.len(), 1);
        assert_eq!(s.tables[0].kind, TableKind::Time);
    }

    #[test]
    fn mapping_errors_name_their_key() {
        let e = from_str("name = \"x\"\n").unwrap_err();
        assert!(e.message.contains("missing `title`"), "{e}");

        let text = "name = \"x\"\ntitle = \"t\"\nworkloads = [\"quick\"]\n\
                    panels = [\"a\", \"b\"]\n[axis]\nkind = \"rates\"\npoints = [0.3]\n";
        let e = from_str(text).unwrap_err();
        assert!(e.message.contains("`panels` has 2"), "{e}");

        let text = "name = \"x\"\ntitle = \"t\"\nworkloads = [\"quick\"]\n\
                    mystery = 1\n[axis]\nkind = \"rates\"\npoints = [0.3]\n";
        let e = from_str(text).unwrap_err();
        assert!(e.message.contains("unknown scenario key `mystery`"), "{e}");

        let text = "name = \"x\"\ntitle = \"t\"\nworkloads = [\"quick\"]\n\
                    [axis]\nkind = \"sideways\"\n";
        let e = from_str(text).unwrap_err();
        assert!(e.message.contains("unknown axis kind `sideways`"), "{e}");

        let text = "name = \"x\"\ntitle = \"t\"\nworkloads = [\"quick\"]\n\
                    seeds = []\n[axis]\nkind = \"rates\"\npoints = [0.3]\n";
        let e = from_str(text).unwrap_err();
        assert!(e.message.contains("`seeds` must not be empty"), "{e}");
    }

    #[test]
    fn load_axis_parses_and_round_trips() {
        let text = "name = \"x\"\ntitle = \"t\"\nworkloads = [\"quick\"]\n\
                    [axis]\nkind = \"load\"\npoints = [30.0, 60.0]\nrate = 0.3\n\
                    n_volatile = 1000\n\
                    [jobs]\nkind = \"poisson\"\nrate_per_hour = 60.0\ncount = 8\n";
        let s = from_str(text).unwrap();
        match &s.axis {
            Axis::Load(l) => {
                assert_eq!(l.points, vec![30.0, 60.0]);
                assert_eq!(l.rate, 0.3);
                assert_eq!(l.n_volatile, Some(1000));
            }
            other => panic!("expected a load axis, got {other:?}"),
        }
        assert_eq!(s.n_cols(), 2);
        assert_eq!(from_str(&to_string(&s)).unwrap(), s);

        // n_volatile is optional (default cluster shape).
        let text = "name = \"x\"\ntitle = \"t\"\nworkloads = [\"quick\"]\n\
                    [axis]\nkind = \"load\"\npoints = [15.0]\nrate = 0.5\n\
                    [jobs]\nkind = \"poisson\"\nrate_per_hour = 15.0\ncount = 4\n";
        let s = from_str(text).unwrap();
        assert_eq!(
            s.axis,
            Axis::Load(LoadAxis {
                points: vec![15.0],
                rate: 0.5,
                n_volatile: None,
            })
        );
        assert_eq!(from_str(&to_string(&s)).unwrap(), s);
    }

    #[test]
    fn load_axis_errors_name_the_problem() {
        let base = "name = \"x\"\ntitle = \"t\"\nworkloads = [\"quick\"]\n";
        let e = from_str(&format!("{base}[axis]\nkind = \"load\"\nrate = 0.3\n")).unwrap_err();
        assert!(e.message.contains("missing `points`"), "{e}");
        let e = from_str(&format!("{base}[axis]\nkind = \"load\"\npoints = [30.0]\n")).unwrap_err();
        assert!(e.message.contains("missing `rate`"), "{e}");
        let e = from_str(&format!(
            "{base}[axis]\nkind = \"load\"\npoints = [30.0, -5.0]\nrate = 0.3\n"
        ))
        .unwrap_err();
        assert!(e.message.contains("must be positive"), "{e}");
    }

    #[test]
    fn jobs_stream_parses_and_round_trips() {
        let text = "name = \"x\"\ntitle = \"t\"\nworkloads = [\"quick\"]\n\
                    [axis]\nkind = \"rates\"\npoints = [0.3]\n\
                    [jobs]\nkind = \"poisson\"\nrate_per_hour = 120.0\ncount = 8\n";
        let s = from_str(text).unwrap();
        let jobs = s.jobs.as_ref().expect("stream parsed");
        assert_eq!(jobs.total_jobs(), 8);
        assert!(jobs.workloads.is_empty());
        let back = from_str(&to_string(&s)).unwrap();
        assert_eq!(back, s);

        let text = "name = \"x\"\ntitle = \"t\"\nworkloads = [\"quick\"]\n\
                    [axis]\nkind = \"rates\"\npoints = [0.3]\n\
                    [jobs]\nkind = \"closed\"\nclients = 2\njobs_per_client = 3\n\
                    think_secs = 45.5\nworkloads = [\"sort\", \"quick\"]\n";
        let s = from_str(text).unwrap();
        let jobs = s.jobs.as_ref().unwrap();
        assert_eq!(jobs.total_jobs(), 6);
        assert_eq!(jobs.workloads, vec!["sort", "quick"]);
        assert_eq!(from_str(&to_string(&s)).unwrap(), s);
    }

    #[test]
    fn jobs_stream_errors_name_the_problem() {
        let base = "name = \"x\"\ntitle = \"t\"\nworkloads = [\"quick\"]\n\
                    [axis]\nkind = \"rates\"\npoints = [0.3]\n";
        let e = from_str(&format!("{base}[jobs]\nkind = \"sideways\"\n")).unwrap_err();
        assert!(e.message.contains("unknown jobs stream kind"), "{e}");

        let e = from_str(&format!("{base}[jobs]\nkind = \"poisson\"\ncount = 3\n")).unwrap_err();
        assert!(e.message.contains("missing `rate_per_hour`"), "{e}");

        let e = from_str(&format!("{base}[jobs]\nkind = \"batch\"\n")).unwrap_err();
        assert!(e.message.contains("missing `offsets_secs`"), "{e}");

        let e = from_str(&format!(
            "{base}[jobs]\nkind = \"batch\"\noffsets_secs = []\n"
        ))
        .unwrap_err();
        assert!(e.message.contains("must not be empty"), "{e}");

        let e = from_str(&format!(
            "{base}[jobs]\nkind = \"poisson\"\nrate_per_hour = 1.0\ncount = 2\nmystery = 1\n"
        ))
        .unwrap_err();
        assert!(
            e.message.contains("unknown jobs stream key `mystery`"),
            "{e}"
        );

        let e = from_str(&format!(
            "{base}[jobs]\nkind = \"closed\"\nclients = 0\njobs_per_client = 3\nthink_secs = 1.0\n"
        ))
        .unwrap_err();
        assert!(e.message.contains("zero jobs"), "{e}");

        // Negative durations/rates must fail at parse time with the key
        // named, not as a contextless SimDuration panic downstream.
        let e = from_str(&format!(
            "{base}[jobs]\nkind = \"batch\"\noffsets_secs = [0.0, -10.0]\n"
        ))
        .unwrap_err();
        assert!(e.message.contains("`jobs.offsets_secs`"), "{e}");

        let e = from_str(&format!(
            "{base}[jobs]\nkind = \"poisson\"\nrate_per_hour = -1.0\ncount = 2\n"
        ))
        .unwrap_err();
        assert!(e.message.contains("`jobs.rate_per_hour`"), "{e}");

        let e = from_str(&format!(
            "{base}[jobs]\nkind = \"poisson\"\nrate_per_hour = 0.0\ncount = 2\n"
        ))
        .unwrap_err();
        assert!(e.message.contains("must be positive"), "{e}");

        let e = from_str(&format!(
            "{base}[jobs]\nkind = \"closed\"\nclients = 1\njobs_per_client = 2\nthink_secs = -5.0\n"
        ))
        .unwrap_err();
        assert!(e.message.contains("`jobs.think_secs`"), "{e}");

        let e = from_str(
            "name = \"x\"\ntitle = \"t\"\nworkloads = [\"quick\"]\njobs = 3\n\
             [axis]\nkind = \"rates\"\npoints = [0.3]\n",
        )
        .unwrap_err();
        assert!(e.message.contains("`jobs` must be a `[jobs]` table"), "{e}");
    }

    #[test]
    fn telemetry_knob_parses_defaults_and_round_trips() {
        let base = "name = \"x\"\ntitle = \"t\"\nworkloads = [\"quick\"]\n\
                    [axis]\nkind = \"rates\"\npoints = [0.3]\n";

        // Absent: telemetry stays off.
        assert!(from_str(base).unwrap().telemetry.is_none());

        // A bare [telemetry] table turns recording on with defaults.
        let s = from_str(&format!("{base}[telemetry]\n")).unwrap();
        assert_eq!(s.telemetry, Some(TelemetrySpec::default()));

        // Explicit knobs parse, convert, and round-trip.
        let s = from_str(&format!(
            "{base}[telemetry]\nsample_every_secs = 5.0\nspan_capacity = 128\n"
        ))
        .unwrap();
        let tel = s.telemetry.as_ref().unwrap();
        assert_eq!(tel.sample_every_secs, 5.0);
        assert_eq!(tel.span_capacity, 128);
        let cfg = tel.to_config();
        assert_eq!(cfg.sample_every, simkit::SimDuration::from_secs(5));
        assert_eq!(cfg.span_capacity, 128);
        assert_eq!(from_str(&to_string(&s)).unwrap(), s);

        // Errors name the key.
        let e = from_str(&format!("{base}[telemetry]\nsample_every_secs = 0.0\n")).unwrap_err();
        assert!(e.message.contains("`telemetry.sample_every_secs`"), "{e}");
        let e = from_str(&format!("{base}[telemetry]\nmystery = 1\n")).unwrap_err();
        assert!(e.message.contains("unknown telemetry key `mystery`"), "{e}");
        // A scalar at root (before any table header) is rejected.
        let e = from_str(
            "name = \"x\"\ntitle = \"t\"\nworkloads = [\"quick\"]\ntelemetry = 3\n\
             [axis]\nkind = \"rates\"\npoints = [0.3]\n",
        )
        .unwrap_err();
        assert!(e.message.contains("`[telemetry]` table"), "{e}");
    }

    #[test]
    fn syntax_errors_carry_line_numbers() {
        let e = from_str("name = \"x\"\ntitle = @\n").unwrap_err();
        assert_eq!(e.line, Some(2), "{e}");
        assert!(e.to_string().starts_with("line 2:"), "{e}");

        // Deep nesting is an error, not a stack overflow.
        let e = from_str(&format!("name = \"x\"\npoints = {}\n", "[".repeat(100_000))).unwrap_err();
        assert_eq!(e.line, Some(2), "{e}");
        assert!(e.message.contains("nest deeper than 64"), "{e}");
    }

    /// One random edit of `bytes`: flip a bit, insert or delete a byte,
    /// or duplicate or drop a line.
    fn mutate(bytes: &mut Vec<u8>, rng: &mut StdRng) {
        // Bytes that steer the TOML parser into its less common paths.
        const SYNTAX: &[u8] = b"[]{}=,.#\"\\\n\r\t -+_0123456789einaufNU";
        let at = rng.gen_range(0..=bytes.len());
        match rng.gen_range(0u8..5) {
            0 if at < bytes.len() => bytes[at] ^= 1 << rng.gen_range(0u32..8),
            1 => {
                let b = if rng.gen_bool(0.5) {
                    SYNTAX[rng.gen_range(0..SYNTAX.len())]
                } else {
                    rng.gen()
                };
                bytes.insert(at, b);
            }
            2 if at < bytes.len() => {
                bytes.remove(at);
            }
            // Kinds 0 and 2 at the end of the text, where there is no
            // byte to flip or delete, drop a line instead.
            kind => {
                let mut lines: Vec<Vec<u8>> =
                    bytes.split(|&b| b == b'\n').map(<[u8]>::to_vec).collect();
                let i = rng.gen_range(0..lines.len());
                if kind == 3 {
                    lines.insert(i, lines[i].clone());
                } else {
                    lines.remove(i);
                }
                *bytes = lines.join(&b'\n');
            }
        }
    }

    /// Seeded byte mutations of every scenario file the workspace ships:
    /// the parsers never panic, syntax errors point at a line of the
    /// input, and whatever parses serializes to a fixed point. Text, not
    /// specs, is compared, because `nan` parses and never equals itself.
    #[test]
    fn parsers_survive_seeded_byte_mutations() {
        let mut corpus: Vec<(String, String)> = registry::BUILTIN
            .iter()
            .map(|&(name, text)| (name.to_string(), text.to_string()))
            .collect();
        let data = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../data");
        for dir in ["scenarios", "fuzz"] {
            let mut paths: Vec<_> = fs::read_dir(data.join(dir))
                .unwrap()
                .map(|e| e.unwrap().path())
                .filter(|p| p.extension().is_some_and(|x| x == "toml"))
                .collect();
            paths.sort();
            for path in paths {
                let name = path.display().to_string();
                let text = fs::read_to_string(&path).unwrap();
                // No other test reads these files; the built-ins expand
                // in the registry's catalog test.
                let spec = from_str(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
                crate::expand(&spec).unwrap_or_else(|e| panic!("{name}: {e}"));
                corpus.push((name, text));
            }
        }
        assert!(corpus.len() > registry::BUILTIN.len());

        let mut rng = StdRng::seed_from_u64(0x7031_5eed);
        for (name, text) in &corpus {
            for _ in 0..300 {
                let mut bytes = text.clone().into_bytes();
                for _ in 0..rng.gen_range(1..=3) {
                    mutate(&mut bytes, &mut rng);
                }
                // `from_str` takes `&str`; invalid UTF-8 never reaches it.
                let Ok(mutant) = String::from_utf8(bytes) else {
                    continue;
                };
                let ctx = || format!("mutant of {name}:\n---\n{mutant}\n---");
                let parsed = std::panic::catch_unwind(|| from_str(&mutant))
                    .unwrap_or_else(|_| panic!("from_str panicked on the {}", ctx()));
                if let Err(e) = toml::parse(&mutant) {
                    let lines = mutant.lines().count();
                    assert!(
                        (1..=lines + 1).contains(&e.line),
                        "error line {} outside 1..={}: {e}\n{}",
                        e.line,
                        lines + 1,
                        ctx()
                    );
                }
                let Ok(spec) = parsed else { continue };
                let once = to_string(&spec);
                let back = from_str(&once)
                    .unwrap_or_else(|e| panic!("serialized spec does not parse ({e}): {}", ctx()));
                assert_eq!(to_string(&back), once, "no fixed point for the {}", ctx());
            }
        }
    }
}
