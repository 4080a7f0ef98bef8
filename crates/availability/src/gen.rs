//! Synthetic availability-trace generation, reproducing the paper's
//! methodology (§VI):
//!
//! > "We assume that node outage is mutually independent and generate
//! > unavailable intervals using a normal distribution, with the mean
//! > node-outage interval (409 seconds) extracted from the … Entropia
//! > volunteer computing node trace. The unavailable intervals are then
//! > inserted into 8-hour traces following a Poisson distribution such
//! > that in each trace, the percentage of unavailable time is equal to a
//! > given node unavailability rate."
//!
//! Two generators are provided:
//!
//! - [`TraceGenerator::poisson_insertion`] — the paper's method verbatim:
//!   sample outage durations from a (truncated) Normal, drop their start
//!   times by a Poisson process, discard overlaps, then rescale durations
//!   so the realised unavailable fraction matches the target exactly.
//! - [`TraceGenerator::renewal`] — an alternating renewal process
//!   (exponential up-times, Normal down-times) whose stationary
//!   unavailability equals the target; useful for sensitivity studies.

use crate::trace::{AvailabilityTrace, Outage};
use rand::Rng;
use rand_distr::{Distribution, Exp, Normal};
use simkit::{SimDuration, SimTime};

/// Mean outage duration. Paper: 409 s (Entropia trace).
const MEAN_OUTAGE: SimDuration = SimDuration::from_secs(409);
/// Coefficient of variation of the outage duration (σ/μ) for the
/// Normal model. Paper does not state σ; 0.5 keeps durations positive
/// in practice and is re-truncated anyway.
const OUTAGE_CV: f64 = 0.5;
/// Smallest permissible outage (truncation floor for the Normal).
const MIN_OUTAGE: SimDuration = SimDuration::from_secs(30);

/// Parameters of the synthetic outage model.
#[derive(Debug, Clone)]
pub struct TraceGenConfig {
    /// Target long-run fraction of time unavailable (the paper sweeps
    /// 0.1 / 0.3 / 0.5).
    pub unavailability: f64,
    /// Experiment window. Paper: 8-hour traces.
    pub horizon: SimTime,
    /// Rescale outage durations so the realised unavailable fraction
    /// matches `unavailability` exactly (the paper's "such that … the
    /// percentage of unavailable time is equal to a given rate").
    pub exact_rate: bool,
}

impl Default for TraceGenConfig {
    fn default() -> Self {
        TraceGenConfig {
            unavailability: 0.3,
            horizon: SimTime::from_secs(8 * 3600),
            exact_rate: true,
        }
    }
}

impl TraceGenConfig {
    /// Config with the paper's constants and the given target rate.
    pub fn paper(unavailability: f64) -> Self {
        TraceGenConfig {
            unavailability,
            ..Default::default()
        }
    }
}

/// Stateless trace-generation entry points.
pub struct TraceGenerator;

impl TraceGenerator {
    /// Sample one outage duration: Normal(μ, cv·μ) truncated at
    /// `MIN_OUTAGE`.
    fn sample_outage<R: Rng>(rng: &mut R) -> SimDuration {
        let mu = MEAN_OUTAGE.as_secs_f64();
        let sigma = (OUTAGE_CV * mu).max(f64::EPSILON);
        let normal = Normal::new(mu, sigma).expect("valid Normal parameters");
        let d = normal.sample(rng).max(MIN_OUTAGE.as_secs_f64());
        SimDuration::from_secs_f64(d)
    }

    /// The paper's generator: Poisson-process insertion of Normal outages.
    pub fn poisson_insertion<R: Rng>(cfg: &TraceGenConfig, rng: &mut R) -> AvailabilityTrace {
        assert!(
            (0.0..1.0).contains(&cfg.unavailability),
            "unavailability must be in [0, 1)"
        );
        if cfg.unavailability == 0.0 {
            return AvailabilityTrace::always_available(cfg.horizon);
        }
        let horizon_s = cfg.horizon.as_secs_f64();
        let mean_outage_s = MEAN_OUTAGE.as_secs_f64();
        // Arrivals falling inside an existing outage are rejected, so only
        // the available fraction (1 − p) of the horizon produces outages.
        // Compensate the rate so expected downtime still hits the target:
        // λ·(1−p)·horizon·MEAN_OUTAGE = p·horizon.
        let lambda = cfg.unavailability / ((1.0 - cfg.unavailability) * mean_outage_s);
        let exp = Exp::new(lambda).expect("positive rate");

        let mut outages: Vec<Outage> = Vec::new();
        let mut t = 0.0_f64;
        let mut last_end = 0.0_f64;
        loop {
            t += exp.sample(rng);
            if t >= horizon_s {
                break;
            }
            // Reject arrivals inside an existing outage (overlap).
            if t < last_end {
                continue;
            }
            let d = Self::sample_outage(rng).as_secs_f64();
            let end = (t + d).min(horizon_s);
            if end <= t {
                continue;
            }
            outages.push(Outage {
                start: SimTime::from_secs_f64(t),
                end: SimTime::from_secs_f64(end),
            });
            last_end = end;
        }
        let mut trace = AvailabilityTrace::new(outages, cfg.horizon);
        if cfg.exact_rate {
            trace = Self::rescale_to_rate(&trace, cfg.unavailability, cfg.horizon);
        }
        trace
    }

    /// Alternating renewal process: Exp up-times with mean
    /// `MEAN_OUTAGE·(1−p)/p`, Normal down-times with mean `MEAN_OUTAGE`.
    /// Stationary unavailability is exactly `p`.
    pub fn renewal<R: Rng>(cfg: &TraceGenConfig, rng: &mut R) -> AvailabilityTrace {
        assert!(
            (0.0..1.0).contains(&cfg.unavailability),
            "unavailability must be in [0, 1)"
        );
        if cfg.unavailability == 0.0 {
            return AvailabilityTrace::always_available(cfg.horizon);
        }
        let p = cfg.unavailability;
        let mean_outage_s = MEAN_OUTAGE.as_secs_f64();
        let mean_up_s = mean_outage_s * (1.0 - p) / p;
        let up_dist = Exp::new(1.0 / mean_up_s).expect("positive rate");
        let horizon_s = cfg.horizon.as_secs_f64();

        let mut outages = Vec::new();
        let mut t = up_dist.sample(rng); // start available
        while t < horizon_s {
            let d = Self::sample_outage(rng).as_secs_f64();
            let end = (t + d).min(horizon_s);
            if end > t {
                outages.push(Outage {
                    start: SimTime::from_secs_f64(t),
                    end: SimTime::from_secs_f64(end),
                });
            }
            t = end + up_dist.sample(rng);
        }
        let mut trace = AvailabilityTrace::new(outages, cfg.horizon);
        if cfg.exact_rate {
            trace = Self::rescale_to_rate(&trace, cfg.unavailability, cfg.horizon);
        }
        trace
    }

    /// Scale every outage around its start point so total downtime hits
    /// `target` (clamping against neighbours and the horizon). Because
    /// up-scaling can be clamped by the next outage, the pass is iterated
    /// until the realised rate converges.
    fn rescale_to_rate(
        trace: &AvailabilityTrace,
        target: f64,
        horizon: SimTime,
    ) -> AvailabilityTrace {
        let mut current = trace.clone();
        for _ in 0..8 {
            let have = current.unavailability();
            if current.n_outages() == 0 || (have - target).abs() < 1e-4 || have <= 0.0 {
                break;
            }
            let k = target / have;
            let outages = current.outages();
            let mut scaled: Vec<Outage> = Vec::with_capacity(outages.len());
            for (i, o) in outages.iter().enumerate() {
                let start = o.start;
                let want = o.duration().mul_f64(k);
                // Clamp so we never collide with the next outage or horizon.
                let limit = if i + 1 < outages.len() {
                    outages[i + 1].start
                } else {
                    horizon
                };
                let end = start.saturating_add(want).min(limit);
                if end > start {
                    scaled.push(Outage { start, end });
                }
            }
            current = AvailabilityTrace::new(scaled, horizon);
        }
        current
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    #[test]
    fn poisson_insertion_hits_target_rate() {
        for &p in &[0.1, 0.3, 0.5] {
            let cfg = TraceGenConfig::paper(p);
            let tr = TraceGenerator::poisson_insertion(&cfg, &mut rng(11));
            assert!(
                (tr.unavailability() - p).abs() < 0.02,
                "target {p}, got {}",
                tr.unavailability()
            );
        }
    }

    #[test]
    fn renewal_hits_target_rate() {
        for &p in &[0.1, 0.3, 0.5] {
            let cfg = TraceGenConfig::paper(p);
            let tr = TraceGenerator::renewal(&cfg, &mut rng(13));
            assert!(
                (tr.unavailability() - p).abs() < 0.02,
                "target {p}, got {}",
                tr.unavailability()
            );
        }
    }

    #[test]
    fn mean_outage_near_409s_without_exact_rescale() {
        let cfg = TraceGenConfig {
            exact_rate: false,
            unavailability: 0.4,
            ..Default::default()
        };
        // Average over many nodes for a tight estimate.
        let mut total = 0.0;
        let mut count = 0usize;
        for seed in 0..40 {
            let tr = TraceGenerator::renewal(&cfg, &mut rng(seed));
            total += tr.unavailable_time().as_secs_f64();
            count += tr.n_outages();
        }
        let mean = total / count as f64;
        assert!(
            (mean - 409.0).abs() < 60.0,
            "mean outage {mean}s too far from 409s"
        );
    }

    #[test]
    fn zero_rate_gives_always_available() {
        let cfg = TraceGenConfig::paper(0.0);
        let tr = TraceGenerator::poisson_insertion(&cfg, &mut rng(1));
        assert_eq!(tr.n_outages(), 0);
    }

    #[test]
    fn traces_are_deterministic_per_seed() {
        let cfg = TraceGenConfig::paper(0.3);
        let a = TraceGenerator::poisson_insertion(&cfg, &mut rng(99));
        let b = TraceGenerator::poisson_insertion(&cfg, &mut rng(99));
        assert_eq!(a, b);
        let c = TraceGenerator::poisson_insertion(&cfg, &mut rng(100));
        assert_ne!(a, c);
    }

    #[test]
    fn outages_respect_min_duration_before_rescale() {
        let cfg = TraceGenConfig {
            exact_rate: false,
            ..TraceGenConfig::paper(0.5)
        };
        let tr = TraceGenerator::renewal(&cfg, &mut rng(5));
        for o in tr.outages() {
            // The last outage may be clipped by the horizon.
            if o.end < cfg.horizon {
                assert!(o.duration() >= MIN_OUTAGE);
            }
        }
    }

    // Round-trip through the public outage view; `tracefile` tests the
    // on-disk format's round trip.
    #[test]
    fn trace_rebuilds_from_outage_view() {
        let cfg = TraceGenConfig::paper(0.3);
        let tr = TraceGenerator::poisson_insertion(&cfg, &mut rng(3));
        let back = AvailabilityTrace::new(tr.outages().to_vec(), tr.horizon());
        assert_eq!(tr, back);
    }
}
