//! Figure 1: percentage of unavailable resources over a 7-day,
//! 9:00–17:00 trace from a production volunteer computing system,
//! measured in 10-minute intervals (average unavailability ≈ 0.4).
//!
//! The production SDSC/Entropia trace is not public; this regenerates a
//! statistically equivalent fleet with the correlated/diurnal generator
//! (mean outage 409 s, lab-session correlation, diurnal intensity).
//! Day 0's fleet, in the `moon-trace v1` text format
//! (`availability::tracefile`), is the committed
//! `data/traces/lab-day.trace` replayed by the `trace-replay` scenario;
//! `moon-cli fig1 --save-trace FILE` regenerates it.

use availability::stats::{fleet_mean_unavailability, fleet_unavailability_series};
use availability::{generate_fleet, AvailabilityTrace, CorrelatedConfig, TraceGenConfig};
use rand::SeedableRng;
use simkit::SimDuration;
use std::fmt::Write;

/// Days in the trace.
pub const DAYS: u64 = 7;

fn day_config() -> CorrelatedConfig {
    CorrelatedConfig {
        n_nodes: 60,
        background: TraceGenConfig {
            unavailability: 0.25,
            exact_rate: false,
            ..Default::default()
        },
        sessions_per_hour: 1.2,
        session_fraction_mean: 0.35,
        ..Default::default()
    }
}

/// The generated fleet of day `day` (0-based), seeded `100 + day`.
pub fn day_fleet(day: u64) -> Vec<AvailabilityTrace> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(100 + day);
    generate_fleet(&day_config(), &mut rng)
}

/// Render the figure as a tab-separated table: one row per 10-minute
/// bucket, one column per day's fleet, then the average
/// unavailability over all days.
pub fn table(days: &[Vec<AvailabilityTrace>]) -> String {
    let bucket = SimDuration::from_mins(10);
    let mut out = String::new();
    out.push_str("# Figure 1 — % unavailable resources, 7 days x 8h, 10-min buckets\n");
    out.push_str("interval");
    for day in 1..=days.len() {
        write!(out, "\tDAY{day}").unwrap();
    }
    out.push('\n');
    let series: Vec<Vec<f64>> = days
        .iter()
        .map(|fleet| fleet_unavailability_series(fleet, bucket))
        .collect();
    for b in 0..series.first().map_or(0, Vec::len) {
        let h = 9.0 + (b as f64 * 10.0 + 5.0) / 60.0;
        write!(out, "{:02}:{:02}", h as u32, ((h % 1.0) * 60.0) as u32).unwrap();
        for day in &series {
            write!(out, "\t{:.1}", day[b] * 100.0).unwrap();
        }
        out.push('\n');
    }
    let means: Vec<f64> = days.iter().map(|f| fleet_mean_unavailability(f)).collect();
    let avg = means.iter().sum::<f64>() / means.len() as f64;
    writeln!(
        out,
        "# average unavailability over 7 days: {avg:.2} (paper: ~0.4)"
    )
    .unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed trace the `trace-replay` scenario replays is day 0
    /// of this generator, byte for byte.
    #[test]
    fn committed_lab_day_trace_regenerates() {
        let committed = include_bytes!("../../../data/traces/lab-day.trace");
        let mut regenerated = Vec::new();
        availability::write_fleet(&mut regenerated, &day_fleet(0)).unwrap();
        assert!(
            regenerated == committed,
            "data/traces/lab-day.trace no longer matches day 0 of the Figure 1 generator"
        );
    }
}
