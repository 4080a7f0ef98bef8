//! The built-in scenario catalog: the paper reproductions plus stress
//! scenarios exercising knobs the paper's evaluation never swept.
//! `moon-cli list` prints this catalog. Each entry is a scenario file
//! under `crates/scenarios/builtin/`, embedded at compile time and read
//! by the same [`codec`] as a user's file, so any of them is a ready
//! template to copy.

use crate::codec;
use crate::spec::ScenarioSpec;

/// Every built-in scenario as `(name, TOML text)`, in catalog order
/// (paper reproductions first, then the stress scenarios, then the
/// multi-job streams).
pub const BUILTIN: [(&str, &str); 18] = [
    ("fig4", include_str!("../builtin/fig4.toml")),
    ("fig5", include_str!("../builtin/fig5.toml")),
    ("fig6", include_str!("../builtin/fig6.toml")),
    ("fig7", include_str!("../builtin/fig7.toml")),
    ("table1", include_str!("../builtin/table1.toml")),
    ("table2", include_str!("../builtin/table2.toml")),
    ("ablations", include_str!("../builtin/ablations.toml")),
    ("diurnal-lab", include_str!("../builtin/diurnal-lab.toml")),
    ("blackout", include_str!("../builtin/blackout.toml")),
    ("trace-replay", include_str!("../builtin/trace-replay.toml")),
    ("high-churn", include_str!("../builtin/high-churn.toml")),
    (
        "job-stream-light",
        include_str!("../builtin/job-stream-light.toml"),
    ),
    (
        "job-stream-heavy",
        include_str!("../builtin/job-stream-heavy.toml"),
    ),
    (
        "mixed-apps-contention",
        include_str!("../builtin/mixed-apps-contention.toml"),
    ),
    (
        "mixed-apps-contention+edf",
        include_str!("../builtin/mixed-apps-contention+edf.toml"),
    ),
    (
        "mixed-apps-contention+preempt",
        include_str!("../builtin/mixed-apps-contention+preempt.toml"),
    ),
    ("fleet-1k", include_str!("../builtin/fleet-1k.toml")),
    ("fleet-10k", include_str!("../builtin/fleet-10k.toml")),
];

fn parse(name: &str, text: &str) -> ScenarioSpec {
    codec::from_str(text).unwrap_or_else(|e| panic!("built-in scenario `{name}`: {e}"))
}

/// Every built-in scenario, in catalog order.
pub fn all() -> Vec<ScenarioSpec> {
    BUILTIN
        .iter()
        .map(|(name, text)| parse(name, text))
        .collect()
}

/// Look up a built-in scenario by name, parsing only its file.
pub fn find(name: &str) -> Option<ScenarioSpec> {
    BUILTIN
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(n, text)| parse(n, text))
}

/// The catalog's names, for error messages and `moon-cli list`.
pub fn names() -> Vec<String> {
    BUILTIN.iter().map(|(name, _)| name.to_string()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Axis, TableKind};
    use std::fs;
    use std::path::Path;

    #[test]
    fn catalog_has_paper_and_stress_scenarios() {
        let names = names();
        for required in [
            "fig4",
            "fig5",
            "fig6",
            "fig7",
            "table1",
            "table2",
            "diurnal-lab",
            "blackout",
            "trace-replay",
            "high-churn",
            "job-stream-light",
            "job-stream-heavy",
            "mixed-apps-contention",
            "mixed-apps-contention+edf",
            "mixed-apps-contention+preempt",
            "fleet-1k",
            "fleet-10k",
        ] {
            assert!(names.contains(&required.to_string()), "missing {required}");
        }
    }

    #[test]
    fn job_stream_scenarios_carry_streams() {
        let light = find("job-stream-light").unwrap();
        assert_eq!(light.jobs.as_ref().unwrap().total_jobs(), 4);
        let heavy = find("job-stream-heavy").unwrap();
        assert_eq!(heavy.jobs.as_ref().unwrap().total_jobs(), 24);
        let mixed = find("mixed-apps-contention").unwrap();
        let jobs = mixed.jobs.as_ref().unwrap();
        assert_eq!(jobs.total_jobs(), 4);
        assert_eq!(jobs.workloads, vec!["sort", "word count"]);
        // Single-job paper scenarios carry no stream.
        assert!(find("fig4").unwrap().jobs.is_none());
    }

    #[test]
    fn preemption_variants_carry_scheduling_metadata() {
        let edf = find("mixed-apps-contention+edf").unwrap();
        let jobs = edf.jobs.as_ref().unwrap();
        assert!(jobs.has_metadata(), "EDF variant needs deadlines");
        assert_eq!(jobs.deadlines_secs.len(), 2);
        assert!(edf.policies.iter().any(|p| p.id.ends_with("+edf")));

        let pre = find("mixed-apps-contention+preempt").unwrap();
        let jobs = pre.jobs.as_ref().unwrap();
        assert_eq!(jobs.tenants, vec![0, 1]);
        assert_eq!(jobs.tenant_weights, vec![2, 1]);
        assert_eq!(jobs.tenant_min_slots, vec![1, 1]);
        assert!(pre.policies.iter().any(|p| p.id.ends_with("+preempt")));
        assert!(pre.policies.iter().any(|p| p.id.ends_with("+tenant-fair")));
    }

    #[test]
    fn fleet_scenarios_sweep_load_at_scale() {
        for (name, n_volatile) in [("fleet-1k", 1_000u32), ("fleet-10k", 10_000)] {
            let spec = find(name).unwrap();
            let Axis::Load(l) = &spec.axis else {
                panic!("{name} must sweep a load axis");
            };
            assert!(l.points.len() >= 4, "{name} needs >= 4 load columns");
            assert_eq!(l.n_volatile, Some(n_volatile));
            assert_eq!(spec.dedicated, n_volatile / 10);
            assert!(spec.policies.len() >= 2);
            assert!(spec.tables.iter().any(|t| t.kind == TableKind::Saturation));
            assert!(spec.jobs.is_some(), "{name} scales a jobs stream");
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names = names();
        names.sort();
        let n = names.len();
        names.dedup();
        assert_eq!(n, names.len());
    }

    #[test]
    fn find_works() {
        assert_eq!(find("fig4").unwrap().name, "fig4");
        assert!(find("fig9").is_none());
    }

    #[test]
    fn every_builtin_file_is_canonical_and_expands() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("builtin");
        for (name, text) in BUILTIN {
            let on_disk = fs::read_to_string(dir.join(format!("{name}.toml")));
            assert_eq!(
                on_disk.ok().as_deref(),
                Some(text),
                "`{name}` is not its file's stem"
            );
            let spec = codec::from_str(text).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(spec.name, name, "`{name}` names itself `{}`", spec.name);
            // A `sleep(…)` workload calibrates by running its base job at
            // full size, seconds each in a debug build; expanding with the
            // base checks everything else (`workload`'s tests cover the
            // calibration).
            let mut cheap = spec.clone();
            for w in &mut cheap.workloads {
                if let Some(base) = w.strip_prefix("sleep(").and_then(|r| r.strip_suffix(')')) {
                    *w = base.to_string();
                }
            }
            crate::expand(&cheap).unwrap_or_else(|e| panic!("{name}: {e}"));
            for p in &spec.policies {
                crate::policy::resolve(&p.id).unwrap_or_else(|e| panic!("{name}: {e}"));
            }
            // With its comments removed, a file is exactly what
            // `moon-cli describe` prints for it.
            let bare: String = text
                .lines()
                .filter(|l| !l.trim_start().starts_with('#'))
                .map(|l| format!("{l}\n"))
                .collect();
            assert_eq!(bare, codec::to_string(&spec), "`{name}` is not canonical");
        }
        let mut files: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|f| f.ends_with(".toml"))
            .collect();
        files.sort();
        let mut listed: Vec<String> = BUILTIN.iter().map(|(n, _)| format!("{n}.toml")).collect();
        listed.sort();
        assert_eq!(
            files, listed,
            "every file in builtin/ is listed exactly once"
        );
    }

    #[test]
    fn fig7_rows_carry_dedicated_overrides() {
        let f7 = find("fig7").unwrap();
        assert_eq!(f7.policies[0].label.as_deref(), Some("Hadoop-VO"));
        assert_eq!(f7.policies[1].dedicated, Some(3));
        assert_eq!(f7.policies[3].dedicated, Some(6));
    }
}
