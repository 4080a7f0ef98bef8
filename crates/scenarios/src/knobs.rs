//! Environment-driven run knobs shared by every sweep entry point
//! (`moon-cli`, perfbench, tests), so scenario expansion and the sweep
//! runner agree on quick-mode shrinking and default seeds.

use moon::ClusterConfig;
use workloads::WorkloadSpec;

/// Seeds to run per grid point (env `MOON_SEEDS`, default 1). Parsed
/// via [`simkit::env::env_u64`] — the workspace's one set of
/// environment-knob parsing rules.
pub fn seeds() -> Vec<u64> {
    seed_list(simkit::env::env_u64("MOON_SEEDS").unwrap_or(1))
}

/// The canonical seed list for `n` seeds (42, 1042, 2042, …) — the
/// same derivation `MOON_SEEDS` uses, exposed for `--seeds N`.
pub fn seed_list(n: u64) -> Vec<u64> {
    (0..n.max(1)).map(|k| 42 + k * 1000).collect()
}

/// Quick mode (env `MOON_QUICK` truthy per [`simkit::env::env_flag`]):
/// shrink the cluster and workload so a full figure regenerates in
/// seconds (for CI smoke runs).
pub fn quick_mode() -> bool {
    simkit::env::env_flag("MOON_QUICK")
}

/// Scale a workload down for quick mode.
pub fn maybe_shrink(w: WorkloadSpec) -> WorkloadSpec {
    if !quick_mode() {
        return w;
    }
    WorkloadSpec {
        n_maps: (w.n_maps / 8).max(8),
        input_bytes: w.input_bytes / 8,
        output_bytes: w.output_bytes / 8,
        ..w
    }
}

/// Cluster for a given rate (shrunk in quick mode, which also pins the
/// small-cluster dedicated count).
pub fn cluster(rate: f64, n_dedicated: u32) -> ClusterConfig {
    let mut c = if quick_mode() {
        ClusterConfig::small(rate)
    } else {
        ClusterConfig::paper(rate)
    };
    if !quick_mode() {
        c.n_dedicated = n_dedicated;
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_list_matches_env_formula() {
        assert_eq!(seed_list(0), vec![42]);
        assert_eq!(seed_list(3), vec![42, 1042, 2042]);
    }
}
