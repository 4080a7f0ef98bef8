//! Sliding-window unavailability estimation.
//!
//! MOON's NameNode "estimate[s] p by simply having the NameNode monitor
//! the fraction of unavailable DataNodes during the past interval I"
//! (§IV-A). The adaptive replication policy then sizes volatile
//! replication `v′` from the estimate. The paper lets users plug in
//! their own model; this module provides its default, a time-weighted
//! sliding window.

use simkit::{SimDuration, SimTime};
use std::collections::VecDeque;

/// Time-weighted mean of the down-fraction over a sliding window `I`.
#[derive(Debug, Clone)]
pub struct SlidingWindowEstimator {
    window: SimDuration,
    /// (time, fraction) change points, oldest first. The fraction holds
    /// from its timestamp until the next change point.
    samples: VecDeque<(SimTime, f64)>,
    /// Estimate to report before any observation arrives.
    prior: f64,
}

impl SlidingWindowEstimator {
    /// Estimator over the past `window`, reporting `prior` until the first
    /// observation.
    pub fn new(window: SimDuration, prior: f64) -> Self {
        assert!(!window.is_zero(), "window must be positive");
        SlidingWindowEstimator {
            window,
            samples: VecDeque::new(),
            prior,
        }
    }

    fn evict(&mut self, now: SimTime) {
        let cutoff = now.since(SimTime::ZERO).saturating_sub(self.window);
        let cutoff = SimTime::ZERO + cutoff;
        // Keep one sample at/before the cutoff so the window start has a
        // defined value.
        while self.samples.len() >= 2 && self.samples[1].0 <= cutoff {
            self.samples.pop_front();
        }
    }

    /// Record that `down` of `total` nodes are unavailable as of `now`.
    pub fn observe(&mut self, now: SimTime, down: usize, total: usize) {
        let frac = if total == 0 {
            0.0
        } else {
            down as f64 / total as f64
        };
        if let Some(&(t_last, f_last)) = self.samples.back() {
            debug_assert!(now >= t_last, "observations must be in time order");
            if f_last == frac {
                return; // no change
            }
        }
        self.samples.push_back((now, frac));
        self.evict(now);
    }

    /// Current estimate of the unavailability rate `p` at `now` (in
    /// [0, 1]).
    pub fn estimate(&self, now: SimTime) -> f64 {
        if self.samples.is_empty() {
            return self.prior;
        }
        let win_start_raw = now.since(SimTime::ZERO).saturating_sub(self.window);
        let win_start = SimTime::ZERO + win_start_raw;
        let mut weighted = 0.0;
        let mut covered = 0.0;
        for (i, &(t, f)) in self.samples.iter().enumerate() {
            let seg_start = t.max(win_start);
            let seg_end = self
                .samples
                .get(i + 1)
                .map(|&(t2, _)| t2)
                .unwrap_or(now)
                .min(now);
            if seg_end > seg_start {
                let w = seg_end.since(seg_start).as_secs_f64();
                weighted += f * w;
                covered += w;
            }
        }
        if covered <= 0.0 {
            // All samples are in the future of the window (shouldn't
            // happen) or now == first sample: report the latest fraction.
            return self.samples.back().map(|&(_, f)| f).unwrap_or(self.prior);
        }
        weighted / covered
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn reports_prior_before_data() {
        let e = SlidingWindowEstimator::new(SimDuration::from_secs(600), 0.4);
        assert_eq!(e.estimate(t(10)), 0.4);
    }

    #[test]
    fn tracks_constant_fraction() {
        let mut e = SlidingWindowEstimator::new(SimDuration::from_secs(600), 0.0);
        e.observe(t(0), 30, 100);
        assert!((e.estimate(t(300)) - 0.3).abs() < 1e-12);
        assert!((e.estimate(t(10_000)) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn time_weights_changes() {
        let mut e = SlidingWindowEstimator::new(SimDuration::from_secs(100), 0.0);
        e.observe(t(0), 0, 10);
        e.observe(t(50), 10, 10); // 0.0 for 50s, 1.0 for 50s
        assert!((e.estimate(t(100)) - 0.5).abs() < 1e-12);
        // At t=150 the window [50,150] is all at 1.0.
        assert!((e.estimate(t(150)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn old_samples_fall_out_of_window() {
        let mut e = SlidingWindowEstimator::new(SimDuration::from_secs(10), 0.0);
        e.observe(t(0), 10, 10);
        e.observe(t(5), 0, 10);
        // Window [90,100] is entirely at 0.0.
        assert!((e.estimate(t(100)) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn duplicate_fraction_is_coalesced() {
        let mut e = SlidingWindowEstimator::new(SimDuration::from_secs(100), 0.0);
        e.observe(t(0), 5, 10);
        e.observe(t(10), 5, 10);
        e.observe(t(20), 5, 10);
        assert!((e.estimate(t(30)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn zero_total_counts_as_zero_down() {
        let mut e = SlidingWindowEstimator::new(SimDuration::from_secs(100), 0.9);
        e.observe(t(0), 0, 0);
        assert!((e.estimate(t(10)) - 0.0).abs() < 1e-12);
    }
}
