//! Streaming statistics for the simulator's per-attempt timing
//! metrics.

/// Streaming mean over f64 samples (Welford's update; O(1) memory).
#[derive(Debug, Clone, Default)]
pub struct Summary {
    n: u64,
    mean: f64,
}

impl Summary {
    /// Add one sample.
    pub fn record(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
    }

    /// Sample mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basic_moments() {
        let mut s = Summary::default();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert!((s.mean() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn summary_empty_is_zeroish() {
        assert_eq!(Summary::default().mean(), 0.0);
    }
}
