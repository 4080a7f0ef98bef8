//! Scenario: a university computer lab volunteers its machines.
//!
//! The paper's motivation (§III): "many machines in a computer lab will
//! be occupied simultaneously during a lab session" — outages are
//! *correlated*, not independent. This example generates such a fleet
//! with the correlated/diurnal trace generator, replays the exact same
//! traces under MOON-Hybrid and under augmented Hadoop, and reports how
//! each handles the session-shaped outage bursts.
//!
//! ```text
//! cargo run --release --example volunteer_lab
//! ```

use availability::stats::{fleet_mean_unavailability, peak_unavailability};
use availability::{generate_fleet, CorrelatedConfig, TraceGenConfig};
use moon::{ClusterConfig, Experiment, PolicyConfig};
use rand::SeedableRng;

fn main() {
    let n_volatile = 20u32;
    let n_dedicated = 2u32;

    // A fleet with background churn plus hourly half-lab sessions.
    let cfg = CorrelatedConfig {
        n_nodes: n_volatile as usize,
        background: TraceGenConfig {
            unavailability: 0.15,
            exact_rate: false,
            ..Default::default()
        },
        sessions_per_hour: 4.0,
        session_fraction_mean: 0.5,
        session_duration: simkit::SimDuration::from_mins(25),
        diurnal: true,
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(2024);
    let fleet = generate_fleet(&cfg, &mut rng);
    println!(
        "lab fleet: {} nodes, mean unavailability {:.2}, peak simultaneous outage {:.0}%",
        fleet.len(),
        fleet_mean_unavailability(&fleet),
        peak_unavailability(&fleet) * 100.0
    );

    // Dedicated nodes (and the trailing ids) stay always-available; the
    // overrides vector is volatile-first, matching node id assignment.
    let mut cluster = ClusterConfig::small(0.3);
    cluster.n_volatile = n_volatile;
    cluster.n_dedicated = n_dedicated;
    cluster.trace_overrides = Some(fleet);

    println!("\nrunning a ~20-minute analytics job over the SAME traces:");
    for policy in [
        PolicyConfig::moon_hybrid(),
        PolicyConfig::moon(),
        PolicyConfig::hadoop_vo(simkit::SimDuration::from_mins(1), 3, 2),
    ] {
        // A workload long enough (~20 simulated minutes on an idle
        // cluster) to span several lab sessions.
        let workload = workloads::WorkloadSpec {
            name: "lab-analytics".into(),
            input_bytes: 4 * workloads::GB,
            n_maps: 64,
            reduces: workloads::ReduceCount::Fixed(8),
            map_cpu: workloads::DurationModel::around(simkit::SimDuration::from_secs(45)),
            map_output_bytes: 32 * workloads::MB,
            reduce_cpu: workloads::DurationModel::around(simkit::SimDuration::from_secs(30)),
            output_bytes: 2 * workloads::GB,
        };
        let result = Experiment {
            cluster: cluster.clone(),
            policy,
            workload,
            seed: 7,
        }
        .run();
        println!(
            "  {:<14} job: {:>6}s  dup: {:<3} killed: {}m/{}r  fetch-failures: {}",
            result.label,
            moon::report::secs_or_dnf(result.job_time.map(|d| d.as_secs_f64())),
            result.job.duplicated_tasks,
            result.job.killed_maps,
            result.job.killed_reduces,
            result.fetch_failures,
        );
    }
    println!("\n(correlated sessions are exactly where the hybrid architecture pays:");
    println!(" a dedicated copy keeps data reachable while half the lab is in use)");
}
