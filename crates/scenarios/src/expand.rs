//! Expanding a [`ScenarioSpec`] into a concrete experiment grid.
//!
//! Expansion resolves every name in the spec (workloads — including
//! `sleep(…)` calibration runs — policies, and the unavailability
//! axis) into a flat, grid-ordered list of fully-configured
//! [`Point`]s: panel-major, then policy (table row), then axis point
//! (table column). The sweep harness runs the points; the
//! [`render`](crate::render) module folds the results back into the
//! spec's tables using the same index math.

use crate::knobs::{cluster, maybe_shrink};
use crate::spec::{
    ArrivalSpec, Axis, CorrelatedAxis, CorrelatedKnob, JobStreamSpec, LoadAxis, ScenarioError,
    ScenarioSpec,
};
use crate::{policy, workload};
use availability::{stats::fleet_mean_unavailability, AvailabilityTrace, TraceGenConfig};
use moon::{ClusterConfig, PolicyConfig};
use rand::SeedableRng;
use simkit::{SimDuration, SimTime};
use std::path::{Path, PathBuf};
use workloads::{ArrivalModel, DurationModel, JobStream, WorkloadSpec};

/// One grid point of a sweep.
#[derive(Debug, Clone)]
pub struct Point {
    /// Policy bundle.
    pub policy: PolicyConfig,
    /// Cluster (embeds the unavailability rate / trace overrides).
    pub cluster: ClusterConfig,
    /// Workload.
    pub workload: WorkloadSpec,
    /// Multi-job arrival stream (None = single-job run).
    pub jobs: Option<JobStream>,
    /// Telemetry recording config (None = off). Resolved from the
    /// spec's `[telemetry]` knob; every run of the grid records into
    /// its own per-run buffers.
    pub telemetry: Option<simkit::TelemetryConfig>,
}

impl Point {
    /// Run this point under one root seed: the (point, seed) cell of a
    /// sweep, with the point's job stream and telemetry config.
    pub fn run(&self, seed: u64, limits: moon::RunLimits) -> moon::RunResult {
        moon::Experiment {
            cluster: self.cluster.clone(),
            policy: self.policy.clone(),
            workload: self.workload.clone(),
            seed,
        }
        .run_with_limits(self.jobs.clone(), self.telemetry.clone(), limits)
    }
}

/// A fully-resolved scenario: the flat experiment grid plus the table
/// layout needed to render results.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The spec this plan was expanded from.
    pub spec: ScenarioSpec,
    /// Grid-ordered points: panel-major, then policy, then column.
    pub points: Vec<Point>,
    /// Table-row labels (one per policy, after overrides).
    pub row_labels: Vec<String>,
    /// Table-column labels (`p=0.3`, `s/h=1`, `trace`).
    pub col_labels: Vec<String>,
    /// Numeric axis values behind the columns (trace axes report the
    /// fleet's mean unavailability).
    pub axis_values: Vec<f64>,
    /// Resolved workload name per panel (`sleep(sort)`, …).
    pub workload_names: Vec<String>,
}

impl Plan {
    /// Flat index of (panel, policy row, axis column).
    pub fn point_index(&self, panel: usize, row: usize, col: usize) -> usize {
        (panel * self.row_labels.len() + row) * self.col_labels.len() + col
    }

    /// Total simulation runs per seed.
    pub fn n_points(&self) -> usize {
        self.points.len()
    }
}

/// Root for the per-column fleet RNG streams of correlated axes. A
/// fixed constant (not the experiment seed): every policy row and seed
/// replays the *same* fleet at a given column, the way the paper
/// replays one recorded trace across configurations — seeds then vary
/// scheduling/compute randomness only.
const FLEET_SEED_ROOT: u64 = 0x5CE9_A210_F1EE_7000;

/// Resolve a trace-file path against the current directory, then the
/// repository root (so `moon-cli run trace-replay` works from both).
fn resolve_trace_path(path: &str) -> PathBuf {
    let direct = PathBuf::from(path);
    if direct.exists() {
        return direct;
    }
    let from_repo_root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(path);
    if from_repo_root.exists() {
        from_repo_root
    } else {
        direct
    }
}

/// Per-column cluster templates (volatile trace setup, metadata rate).
/// The dedicated count is applied per policy row afterwards.
enum ColumnKind {
    Rate(f64),
    /// A load-axis column: fixed churn, optional fleet-size override
    /// (the per-column arrival stream lives in the plan's points).
    Load {
        rate: f64,
        n_volatile: Option<u32>,
    },
    Fleet {
        traces: Vec<AvailabilityTrace>,
        mean_unavailability: f64,
        /// Volatile-node count override (trace files fix the fleet
        /// size; correlated fleets are generated to match the cluster).
        n_volatile: Option<u32>,
        /// Run-horizon override: a replayed trace file bounds the run
        /// to its own recorded window (a shorter trace must not be
        /// padded with 6 silent always-available hours). Correlated
        /// fleets are generated to the cluster horizon, so no override.
        horizon: Option<SimTime>,
    },
}

struct Column {
    label: String,
    value: f64,
    kind: ColumnKind,
}

fn correlated_columns(
    axis: &CorrelatedAxis,
    horizon_secs: Option<u64>,
    n_volatile: Option<u32>,
) -> Result<Vec<Column>, ScenarioError> {
    // Fleet size follows the (quick-mode aware) cluster shape unless
    // the spec pins it.
    let shape = cluster(0.0, 6);
    let fleet_size = n_volatile.unwrap_or(shape.n_volatile);
    let mut columns = Vec::new();
    for (col, &point) in axis.points.iter().enumerate() {
        let (sessions_per_hour, session_fraction) = match axis.knob {
            CorrelatedKnob::SessionsPerHour => (point, axis.session_fraction),
            CorrelatedKnob::SessionFraction => (axis.sessions_per_hour, point),
        };
        let mut background = TraceGenConfig {
            unavailability: axis.background,
            exact_rate: false,
            ..Default::default()
        };
        if let Some(h) = horizon_secs {
            background.horizon = SimTime::from_secs(h);
        }
        let cfg = availability::CorrelatedConfig {
            n_nodes: fleet_size as usize,
            background,
            sessions_per_hour,
            session_fraction_mean: session_fraction,
            diurnal: axis.diurnal,
            ..Default::default()
        };
        let mut rng =
            rand::rngs::StdRng::seed_from_u64(simkit::derive_seed(FLEET_SEED_ROOT, col as u64));
        let traces = availability::generate_fleet(&cfg, &mut rng);
        let mean = fleet_mean_unavailability(&traces);
        columns.push(Column {
            label: format!("{}={point}", axis.knob.col_prefix()),
            value: point,
            kind: ColumnKind::Fleet {
                traces,
                mean_unavailability: mean,
                n_volatile,
                horizon: None,
            },
        });
    }
    Ok(columns)
}

fn columns_for(spec: &ScenarioSpec) -> Result<Vec<Column>, ScenarioError> {
    match &spec.axis {
        Axis::Rates(rates) => Ok(rates
            .iter()
            .map(|&r| Column {
                label: format!("p={r}"),
                value: r,
                kind: ColumnKind::Rate(r),
            })
            .collect()),
        Axis::Correlated(c) => correlated_columns(c, spec.horizon_secs, spec.n_volatile),
        Axis::Load(l) => {
            let base = load_base_stream(spec)?;
            let prefix = match base.arrivals {
                ArrivalSpec::Poisson { .. } => "jobs/h",
                ArrivalSpec::Closed { .. } => "clients",
                ArrivalSpec::Batch { .. } => unreachable!("load_base_stream rejects batch"),
            };
            Ok(l.points
                .iter()
                .map(|&p| Column {
                    label: format!("{prefix}={p}"),
                    value: p,
                    kind: ColumnKind::Load {
                        rate: l.rate,
                        // The axis's own override wins over the spec's.
                        n_volatile: l.n_volatile.or(spec.n_volatile),
                    },
                })
                .collect())
        }
        Axis::TraceFile { path } => {
            let resolved = resolve_trace_path(path);
            let traces = availability::load_fleet(&resolved)?;
            if traces.is_empty() {
                return Err(ScenarioError::msg(format!(
                    "trace file {} declares zero nodes",
                    resolved.display()
                )));
            }
            let mean = fleet_mean_unavailability(&traces);
            let n_volatile = traces.len() as u32;
            let horizon = traces
                .iter()
                .map(|t| t.horizon())
                .max()
                .expect("non-empty fleet");
            Ok(vec![Column {
                label: "trace".into(),
                value: mean,
                kind: ColumnKind::Fleet {
                    traces,
                    mean_unavailability: mean,
                    n_volatile: Some(n_volatile),
                    horizon: Some(horizon),
                },
            }])
        }
    }
}

fn cluster_for(
    column: &Column,
    dedicated: u32,
    n_volatile: Option<u32>,
    horizon_secs: Option<u64>,
) -> ClusterConfig {
    let mut c = match &column.kind {
        ColumnKind::Rate(rate) => {
            let mut c = cluster(*rate, dedicated);
            if let Some(n) = n_volatile {
                // A spec-level fleet-size pin applies even in quick
                // mode — the fuzzer samples small fleets this way;
                // quick mode still shrinks the per-job work.
                c.n_volatile = n;
                c.n_dedicated = dedicated;
            }
            c
        }
        ColumnKind::Load { rate, n_volatile } => {
            let mut c = cluster(*rate, dedicated);
            if let Some(n) = n_volatile {
                // Fleet-scale scenarios pin their node counts even in
                // quick mode — scale is the point; quick mode still
                // shrinks the per-job work.
                c.n_volatile = *n;
                c.n_dedicated = dedicated;
            }
            c
        }
        ColumnKind::Fleet {
            traces,
            mean_unavailability,
            n_volatile,
            horizon,
        } => {
            let mut c = cluster(0.0, dedicated);
            if let Some(n) = n_volatile {
                c.n_volatile = *n;
            }
            if let Some(h) = horizon {
                // The trace file's own window bounds the run (the
                // explicit horizon_secs override below still wins).
                c.horizon = *h;
            }
            // The synthetic generator is bypassed; the recorded rate is
            // kept as run metadata (reports, estimator priors are
            // unaffected — the estimator observes heartbeats).
            c.unavailability = *mean_unavailability;
            // Volatile nodes replay the fleet; dedicated nodes (ids ≥
            // n_volatile) fall through to always-available.
            c.trace_overrides = Some(traces.clone());
            c
        }
    };
    if let Some(h) = horizon_secs {
        c.horizon = SimTime::from_secs(h);
        c.trace.horizon = SimTime::from_secs(h);
    }
    c
}

/// Expand a spec into its runnable plan. Resolution can run
/// calibration experiments (`sleep(…)` workloads) and read trace
/// files, so this is fallible and not free — expand once, run many
/// seeds.
pub fn expand(spec: &ScenarioSpec) -> Result<Plan, ScenarioError> {
    if spec.panels.len() != spec.workloads.len() {
        return Err(ScenarioError::msg(format!(
            "`panels` has {} entries but `workloads` has {}",
            spec.panels.len(),
            spec.workloads.len()
        )));
    }
    let workloads: Vec<WorkloadSpec> = spec
        .workloads
        .iter()
        .map(|w| workload::resolve(w))
        .collect::<Result<_, _>>()?;
    let policies: Vec<PolicyConfig> = spec
        .policies
        .iter()
        .map(|p| {
            let mut cfg = policy::resolve(&p.id)?;
            if let Some(label) = &p.label {
                cfg.label = label.clone();
            }
            Ok(cfg)
        })
        .collect::<Result<_, ScenarioError>>()?;
    let columns = columns_for(spec)?;
    // Load axes scale the arrival stream per column; every other axis
    // shares one resolved stream across the grid, exactly as before.
    let col_streams: Vec<Option<JobStream>> = match &spec.axis {
        Axis::Load(l) => load_streams(spec, l)?.into_iter().map(Some).collect(),
        _ => {
            let stream = spec.jobs.as_ref().map(resolve_stream).transpose()?;
            vec![stream; columns.len()]
        }
    };

    let mut points = Vec::with_capacity(workloads.len() * policies.len() * columns.len());
    for w in &workloads {
        for (p, pref) in policies.iter().zip(&spec.policies) {
            let dedicated = pref.dedicated.unwrap_or(spec.dedicated);
            for (col, column) in columns.iter().enumerate() {
                points.push(Point {
                    policy: p.clone(),
                    cluster: cluster_for(column, dedicated, spec.n_volatile, spec.horizon_secs),
                    workload: maybe_shrink(w.clone()),
                    jobs: col_streams[col].clone(),
                    telemetry: spec.telemetry.as_ref().map(|t| t.to_config()),
                });
            }
        }
    }
    Ok(Plan {
        spec: spec.clone(),
        row_labels: policies.iter().map(|p| p.label.clone()).collect(),
        col_labels: columns.iter().map(|c| c.label.clone()).collect(),
        axis_values: columns.iter().map(|c| c.value).collect(),
        workload_names: workloads.iter().map(|w| w.name.clone()).collect(),
        points,
    })
}

/// Resolve a declarative job stream: workload names become (quick-mode
/// shrunk) specs, arrival parameters become the runtime model. The
/// resolved stream is shared by every grid point, so all policy rows
/// and seeds face the same arrival pattern.
fn resolve_stream(spec: &JobStreamSpec) -> Result<JobStream, ScenarioError> {
    let workloads: Vec<WorkloadSpec> = spec
        .workloads
        .iter()
        .map(|w| workload::resolve(w).map(maybe_shrink))
        .collect::<Result<_, _>>()?;
    let arrivals = match &spec.arrivals {
        ArrivalSpec::Batch { offsets_secs } => ArrivalModel::Batch(
            offsets_secs
                .iter()
                .map(|&s| SimDuration::from_secs_f64(s))
                .collect(),
        ),
        ArrivalSpec::Poisson {
            rate_per_hour,
            count,
        } => ArrivalModel::Poisson {
            rate_per_hour: *rate_per_hour,
            count: *count,
        },
        ArrivalSpec::Closed {
            clients,
            jobs_per_client,
            think_secs,
        } => ArrivalModel::Closed {
            clients: *clients,
            jobs_per_client: *jobs_per_client,
            think: DurationModel::around(SimDuration::from_secs_f64(*think_secs)),
        },
    };
    Ok(JobStream {
        arrivals,
        workloads,
        deadlines: spec
            .deadlines_secs
            .iter()
            .map(|&s| SimDuration::from_secs_f64(s))
            .collect(),
        priorities: spec.priorities.iter().map(|&p| p as i32).collect(),
        tenants: spec.tenants.clone(),
        tenant_weights: spec.tenant_weights.clone(),
        tenant_min_slots: spec.tenant_min_slots.clone(),
    })
}

/// The stream a load axis scales: the spec's `[jobs]` table, which
/// must exist and carry a scalable (Poisson or closed) arrival model.
fn load_base_stream(spec: &ScenarioSpec) -> Result<&JobStreamSpec, ScenarioError> {
    let base = spec.jobs.as_ref().ok_or_else(|| {
        ScenarioError::msg("a load axis requires a `[jobs]` stream to scale per column")
    })?;
    if matches!(base.arrivals, ArrivalSpec::Batch { .. }) {
        return Err(ScenarioError::msg(
            "a load axis cannot scale a batch jobs stream (use poisson or closed)",
        ));
    }
    Ok(base)
}

/// One resolved stream per load-axis column: the base stream with its
/// arrival intensity replaced by the column's point.
fn load_streams(spec: &ScenarioSpec, axis: &LoadAxis) -> Result<Vec<JobStream>, ScenarioError> {
    let base = load_base_stream(spec)?;
    axis.points
        .iter()
        .map(|&point| {
            let arrivals = match &base.arrivals {
                ArrivalSpec::Poisson { count, .. } => ArrivalSpec::Poisson {
                    rate_per_hour: point,
                    count: *count,
                },
                ArrivalSpec::Closed {
                    jobs_per_client,
                    think_secs,
                    ..
                } => ArrivalSpec::Closed {
                    clients: (point.round() as u32).max(1),
                    jobs_per_client: *jobs_per_client,
                    think_secs: *think_secs,
                },
                ArrivalSpec::Batch { .. } => unreachable!("load_base_stream rejects batch"),
            };
            resolve_stream(&JobStreamSpec {
                arrivals,
                ..base.clone()
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{quick_mode, registry};

    #[test]
    fn fig6_expands_to_the_binary_grid() {
        let plan = expand(&registry::find("fig6").unwrap()).unwrap();
        // 2 panels × 8 policies × 3 rates.
        assert_eq!(plan.points.len(), 48);
        assert_eq!(plan.row_labels.len(), 8);
        assert_eq!(plan.row_labels[0], "VO-V1");
        assert_eq!(plan.row_labels[7], "HA-V3");
        assert_eq!(plan.col_labels, vec!["p=0.1", "p=0.3", "p=0.5"]);
        // Grid order: panel-major, policy, column.
        let idx = plan.point_index(1, 2, 1);
        assert_eq!(idx, (8 + 2) * 3 + 1);
        let pt = &plan.points[idx];
        assert_eq!(pt.workload.name, "word count");
        assert_eq!(pt.policy.label, "VO-V3");
        assert!((pt.cluster.unavailability - 0.3).abs() < 1e-12);
    }

    #[test]
    fn fig7_dedicated_overrides_apply() {
        let plan = expand(&registry::find("fig7").unwrap()).unwrap();
        assert_eq!(plan.row_labels[1], "MOON-HybridD3");
        if !quick_mode() {
            let pt = &plan.points[plan.point_index(0, 1, 0)];
            assert_eq!(pt.cluster.n_dedicated, 3);
        }
    }

    #[test]
    fn correlated_axis_builds_shared_fleets() {
        let plan = expand(&registry::find("blackout").unwrap()).unwrap();
        assert_eq!(plan.col_labels[0], "frac=0.5");
        let a = &plan.points[plan.point_index(0, 0, 2)];
        let b = &plan.points[plan.point_index(0, 2, 2)];
        let (ta, tb) = (
            a.cluster.trace_overrides.as_ref().unwrap(),
            b.cluster.trace_overrides.as_ref().unwrap(),
        );
        // Same column ⇒ same fleet for every policy row.
        assert_eq!(ta, tb);
        assert!(a.cluster.unavailability > 0.0);
        // Different columns ⇒ different fleets.
        let c = &plan.points[plan.point_index(0, 0, 0)];
        assert_ne!(ta, c.cluster.trace_overrides.as_ref().unwrap());
    }

    #[test]
    fn expansion_is_deterministic() {
        let spec = registry::find("diurnal-lab").unwrap();
        let a = expand(&spec).unwrap();
        let b = expand(&spec).unwrap();
        for (x, y) in a.points.iter().zip(&b.points) {
            assert_eq!(x.cluster.trace_overrides, y.cluster.trace_overrides);
        }
    }

    #[test]
    fn unknown_names_surface_as_errors() {
        let mut spec = registry::find("fig6").unwrap();
        spec.policies[0].id = "mystery".into();
        assert!(expand(&spec).unwrap_err().message.contains("mystery"));
        let mut spec = registry::find("fig6").unwrap();
        spec.workloads[0] = "mystery".into();
        assert!(expand(&spec).unwrap_err().message.contains("mystery"));
        let spec = ScenarioSpec {
            axis: crate::spec::Axis::TraceFile {
                path: "does/not/exist.trace".into(),
            },
            ..registry::find("trace-replay").unwrap()
        };
        assert!(expand(&spec)
            .unwrap_err()
            .message
            .contains("does/not/exist.trace"));
    }

    #[test]
    fn load_axis_scales_the_stream_per_column() {
        let plan = expand(&registry::find("fleet-1k").unwrap()).unwrap();
        // 1 panel × 2 policies × 4 load points.
        assert_eq!(plan.points.len(), 8);
        assert_eq!(
            plan.col_labels,
            vec!["jobs/h=30", "jobs/h=60", "jobs/h=120", "jobs/h=240"]
        );
        assert_eq!(plan.axis_values, vec![30.0, 60.0, 120.0, 240.0]);
        for (col, &rate) in [30.0, 60.0, 120.0, 240.0].iter().enumerate() {
            let pt = &plan.points[plan.point_index(0, 0, col)];
            // The fleet shape is pinned (even in quick mode) and churn
            // stays fixed across columns; only the arrival rate moves.
            assert_eq!(pt.cluster.n_volatile, 1_000);
            assert_eq!(pt.cluster.n_dedicated, 100);
            assert!((pt.cluster.unavailability - 0.3).abs() < 1e-12);
            let stream = pt.jobs.as_ref().expect("load column carries a stream");
            match &stream.arrivals {
                ArrivalModel::Poisson {
                    rate_per_hour,
                    count,
                } => {
                    assert_eq!(*rate_per_hour, rate);
                    assert_eq!(*count, 12);
                }
                other => panic!("expected a Poisson stream, got {other:?}"),
            }
        }
    }

    #[test]
    fn load_axis_scales_closed_client_counts() {
        let mut spec = registry::find("fleet-1k").unwrap();
        spec.jobs = Some(crate::spec::JobStreamSpec::new(ArrivalSpec::Closed {
            clients: 2,
            jobs_per_client: 3,
            think_secs: 30.0,
        }));
        let plan = expand(&spec).unwrap();
        assert_eq!(plan.col_labels[0], "clients=30");
        let pt = &plan.points[plan.point_index(0, 0, 2)];
        match &pt.jobs.as_ref().unwrap().arrivals {
            ArrivalModel::Closed {
                clients,
                jobs_per_client,
                ..
            } => {
                assert_eq!(*clients, 120);
                assert_eq!(*jobs_per_client, 3);
            }
            other => panic!("expected a closed stream, got {other:?}"),
        }
    }

    #[test]
    fn load_axis_requires_a_scalable_stream() {
        let mut spec = registry::find("fleet-1k").unwrap();
        spec.jobs = None;
        let e = expand(&spec).unwrap_err();
        assert!(e.message.contains("requires a `[jobs]` stream"), "{e}");
        let mut spec = registry::find("fleet-1k").unwrap();
        spec.jobs = Some(crate::spec::JobStreamSpec::new(ArrivalSpec::Batch {
            offsets_secs: vec![0.0],
        }));
        let e = expand(&spec).unwrap_err();
        assert!(e.message.contains("batch"), "{e}");
    }

    #[test]
    fn horizon_override_reaches_cluster_and_tracegen() {
        let mut spec = registry::find("high-churn").unwrap();
        spec.horizon_secs = Some(3600);
        let plan = expand(&spec).unwrap();
        let c = &plan.points[0].cluster;
        assert_eq!(c.horizon, SimTime::from_secs(3600));
        assert_eq!(c.trace.horizon, SimTime::from_secs(3600));
    }
}
