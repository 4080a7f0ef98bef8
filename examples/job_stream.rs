//! Multi-job quickstart: a shared volunteer cluster serving a stream
//! of jobs instead of the paper's one-job-per-run setup.
//!
//! Four quick jobs arrive as an open Poisson stream (one every ~20 s
//! on average) on a 12+2-node cluster at 30 % unavailability, once
//! under FIFO cross-job scheduling and once under max-min fair share.
//! The run reports per-job SLOs: queueing delay, makespan, and bounded
//! slowdown.
//!
//! This file is included verbatim into the crate-level rustdoc of
//! `moon` (`crates/moon/src/lib.rs`) and runs there as a doctest on
//! every `cargo test` — it is the single source for the documented
//! multi-job quickstart.
//!
//! ```text
//! cargo run --release --example job_stream
//! ```

use moon::{ClusterConfig, Experiment, PolicyConfig};
use workloads::{ArrivalModel, JobStream};

fn main() {
    println!("four quick jobs arriving at ~180/hour, p = 0.3 ...");
    for policy in [
        PolicyConfig::moon_hybrid(),                   // FIFO cross-job order
        PolicyConfig::moon_hybrid().with_fair_share(), // max-min fair share
    ] {
        let stream = JobStream::new(ArrivalModel::Poisson {
            rate_per_hour: 180.0,
            count: 4,
        });
        let cross_job = policy.cross_job;
        let result = Experiment {
            cluster: ClusterConfig::small(0.3),
            policy,
            workload: moon::quick_workload(),
            seed: 42,
        }
        .run_with_limits(Some(stream), None, moon::RunLimits::default());
        let rows = result.jobs.as_ref().expect("stream runs carry SLO rows");
        assert_eq!(rows.len(), 4, "all four jobs were submitted");
        println!("  cross-job = {}:", cross_job.as_str());
        for job in rows {
            println!(
                "    job {}: queued {:>5.1}s, makespan {:>6.1}s, slowdown {:.2}",
                job.job,
                job.queue_delay_secs().unwrap_or(f64::NAN),
                job.makespan_secs().unwrap_or(f64::NAN),
                job.bounded_slowdown().unwrap_or(f64::NAN),
            );
        }
    }
}
