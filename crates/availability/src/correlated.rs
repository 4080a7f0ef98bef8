//! Correlated, diurnal availability generation.
//!
//! The paper motivates MOON with a production trace (Figure 1, SDSC) in
//! which 25–95 % of nodes are simultaneously unavailable and large-scale
//! *correlated* inaccessibility is normal ("many machines in a computer
//! lab will be occupied simultaneously during a lab session", §III).
//!
//! This module synthesises such fleets: every node gets an independent
//! background outage process (as in [`crate::TraceGenerator`]) plus
//! shared *session* events that take a random subset of nodes down at
//! once, with an optional diurnal intensity profile peaking mid-day.

use crate::gen::{TraceGenConfig, TraceGenerator};
use crate::trace::{AvailabilityTrace, Outage};
use rand::seq::SliceRandom;
use rand::Rng;
use rand_distr::{Distribution, Normal, Poisson};
use simkit::{SimDuration, SimTime};

/// Coefficient of variation of a session's (Normal) duration.
const SESSION_DURATION_CV: f64 = 0.3;

/// Parameters for the correlated fleet generator.
#[derive(Debug, Clone)]
pub struct CorrelatedConfig {
    /// Number of volatile nodes in the fleet.
    pub n_nodes: usize,
    /// Independent per-node background outage model.
    pub background: TraceGenConfig,
    /// Expected number of correlated sessions per hour at peak intensity.
    pub sessions_per_hour: f64,
    /// Fraction of the fleet captured by one session (mean).
    pub session_fraction_mean: f64,
    /// Session duration mean (a lab session, e.g. 50 minutes).
    pub session_duration: SimDuration,
    /// If true, modulate session intensity with a mid-day peak
    /// (the Figure 1 traces run 9:00–17:00 with a hump around 11:00–14:00).
    pub diurnal: bool,
}

impl Default for CorrelatedConfig {
    fn default() -> Self {
        CorrelatedConfig {
            n_nodes: 60,
            background: TraceGenConfig {
                // Background individual churn on top of sessions.
                unavailability: 0.2,
                exact_rate: false,
                ..Default::default()
            },
            sessions_per_hour: 1.0,
            session_fraction_mean: 0.3,
            session_duration: SimDuration::from_secs(50 * 60),
            diurnal: true,
        }
    }
}

/// Diurnal intensity multiplier in [0.2, 1.0] over an 8-hour (9:00–17:00)
/// day: low at the edges, peaking in the early afternoon.
fn diurnal_weight(frac_of_day: f64) -> f64 {
    // A raised cosine centred at 0.55 of the working day.
    let x = (frac_of_day - 0.55) * std::f64::consts::PI * 1.6;
    0.2 + 0.8 * x.cos().max(0.0)
}

/// Generate one fleet of correlated traces.
///
/// Returns `n_nodes` traces over `background.horizon`.
pub fn generate_fleet<R: Rng>(cfg: &CorrelatedConfig, rng: &mut R) -> Vec<AvailabilityTrace> {
    let horizon = cfg.background.horizon;
    let horizon_s = horizon.as_secs_f64();

    // 1. Independent background outages per node.
    let mut per_node: Vec<Vec<Outage>> = (0..cfg.n_nodes)
        .map(|_| {
            TraceGenerator::renewal(&cfg.background, rng)
                .outages()
                .to_vec()
        })
        .collect();

    // 2. Correlated sessions: thinned Poisson process over the horizon.
    let dur_mu = cfg.session_duration.as_secs_f64();
    let dur_sigma = (SESSION_DURATION_CV * dur_mu).max(f64::EPSILON);
    let dur_dist = Normal::new(dur_mu, dur_sigma).expect("valid Normal");
    let slots_per_hour = 12; // 5-minute candidate slots for session starts
    let n_slots = (horizon_s / 3600.0 * slots_per_hour as f64).ceil() as usize;
    for slot in 0..n_slots {
        let t0 = slot as f64 * 300.0;
        if t0 >= horizon_s {
            break;
        }
        let weight = if cfg.diurnal {
            diurnal_weight(t0 / horizon_s)
        } else {
            1.0
        };
        let rate_per_slot = cfg.sessions_per_hour * weight / slots_per_hour as f64;
        let n_sessions = Poisson::new(rate_per_slot.max(1e-12))
            .map(|p| p.sample(rng) as usize)
            .unwrap_or(0);
        for _ in 0..n_sessions {
            let frac = (cfg.session_fraction_mean * rng.gen_range(0.5..1.5)).clamp(0.02, 0.95);
            let k = ((cfg.n_nodes as f64) * frac).round().max(1.0) as usize;
            let dur = dur_dist.sample(rng).max(300.0);
            let start = t0 + rng.gen_range(0.0..300.0);
            let end = (start + dur).min(horizon_s);
            if end <= start {
                continue;
            }
            let mut idx: Vec<usize> = (0..cfg.n_nodes).collect();
            idx.shuffle(rng);
            for &node in idx.iter().take(k) {
                per_node[node].push(Outage {
                    start: SimTime::from_secs_f64(start),
                    end: SimTime::from_secs_f64(end),
                });
            }
        }
    }

    // 3. Merge overlapping intervals per node and build traces.
    per_node
        .into_iter()
        .map(|mut outages| {
            outages.sort_by_key(|o| o.start);
            let mut merged: Vec<Outage> = Vec::with_capacity(outages.len());
            for o in outages {
                match merged.last_mut() {
                    Some(last) if o.start <= last.end => {
                        if o.end > last.end {
                            last.end = o.end;
                        }
                    }
                    _ => merged.push(o),
                }
            }
            AvailabilityTrace::new(merged, horizon)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::fleet_unavailability_series;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    #[test]
    fn fleet_has_requested_size_and_horizon() {
        let cfg = CorrelatedConfig::default();
        let fleet = generate_fleet(&cfg, &mut rng(1));
        assert_eq!(fleet.len(), 60);
        for tr in &fleet {
            assert_eq!(tr.horizon(), cfg.background.horizon);
        }
    }

    #[test]
    fn traces_have_disjoint_sorted_outages() {
        // AvailabilityTrace::new would panic otherwise; construct many.
        for seed in 0..5 {
            let cfg = CorrelatedConfig {
                n_nodes: 20,
                ..Default::default()
            };
            let _ = generate_fleet(&cfg, &mut rng(seed));
        }
    }

    #[test]
    fn sessions_create_correlation_spikes() {
        let cfg = CorrelatedConfig {
            n_nodes: 50,
            sessions_per_hour: 2.0,
            session_fraction_mean: 0.5,
            ..Default::default()
        };
        let fleet = generate_fleet(&cfg, &mut rng(7));
        let series = fleet_unavailability_series(&fleet, SimDuration::from_secs(600));
        let max = series.iter().cloned().fold(0.0_f64, f64::max);
        let min = series.iter().cloned().fold(1.0_f64, f64::min);
        // With half-fleet sessions the series must swing substantially.
        assert!(
            max - min > 0.2,
            "expected correlated swings, min={min} max={max}"
        );
    }

    #[test]
    fn diurnal_weight_peaks_midday() {
        assert!(diurnal_weight(0.55) > diurnal_weight(0.05));
        assert!(diurnal_weight(0.55) > diurnal_weight(0.98));
        for x in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let w = diurnal_weight(x);
            assert!((0.2..=1.0).contains(&w));
        }
    }

    #[test]
    fn no_sessions_reduces_to_background() {
        let cfg = CorrelatedConfig {
            n_nodes: 10,
            sessions_per_hour: 0.0,
            background: TraceGenConfig {
                unavailability: 0.3,
                exact_rate: true,
                ..Default::default()
            },
            ..Default::default()
        };
        let fleet = generate_fleet(&cfg, &mut rng(3));
        for tr in fleet {
            assert!((tr.unavailability() - 0.3).abs() < 0.05);
        }
    }
}
