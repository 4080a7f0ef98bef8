//! Dedicated-DataNode I/O throttling — the paper's Algorithm 1 (§IV-B).
//!
//! Each dedicated DataNode reports its consumed I/O bandwidth with every
//! heartbeat. The NameNode compares the report against the average over a
//! sliding window: if bandwidth is rising but only by a small margin
//! (< `Tb`), the node has flattened out near its capacity — *saturated*
//! (throttled). If bandwidth is falling and has dropped by more than
//! `Tb` below the average, the node is *unsaturated* again. The
//! hysteresis band avoids flapping on load oscillation.

use std::collections::VecDeque;

/// Saturation state of one dedicated DataNode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThrottleState {
    /// Accepting opportunistic writes.
    Unthrottled,
    /// Near saturation: opportunistic-file writes are declined.
    Throttled,
}

/// Sliding-window saturation detector (one per dedicated DataNode).
#[derive(Debug, Clone)]
pub struct IoThrottle {
    window: usize,
    threshold: f64,
    history: VecDeque<f64>,
    state: ThrottleState,
}

impl IoThrottle {
    /// Detector with window size `W` (heartbeats) and control threshold
    /// `Tb` (fraction, e.g. 0.1 = 10 %).
    pub fn new(window: usize, threshold: f64) -> Self {
        assert!(window >= 1, "window must hold at least one sample");
        assert!(threshold > 0.0, "threshold must be positive");
        IoThrottle {
            window,
            threshold,
            history: VecDeque::with_capacity(window),
            state: ThrottleState::Unthrottled,
        }
    }

    /// Current saturation state.
    pub fn state(&self) -> ThrottleState {
        self.state
    }

    /// True when opportunistic writes should be declined.
    pub fn is_throttled(&self) -> bool {
        self.state == ThrottleState::Throttled
    }

    /// Feed the bandwidth measurement `bw_i` from the latest heartbeat and
    /// return the (possibly updated) state. This is Algorithm 1 verbatim.
    pub fn update(&mut self, bw: f64) -> ThrottleState {
        debug_assert!(bw >= 0.0 && bw.is_finite());
        if self.history.len() == self.window {
            // avg_bw over the past window (excluding the new sample).
            let avg: f64 = self.history.iter().sum::<f64>() / self.history.len() as f64;
            if bw > avg {
                // Rising, but by less than Tb: the node has plateaued near
                // its capacity → saturated.
                if self.state == ThrottleState::Unthrottled && bw < avg * (1.0 + self.threshold) {
                    self.state = ThrottleState::Throttled;
                }
            } else if bw < avg {
                // Falling by more than Tb below the average → clearly
                // below capacity again.
                if self.state == ThrottleState::Throttled && bw < avg * (1.0 - self.threshold) {
                    self.state = ThrottleState::Unthrottled;
                }
            }
            self.history.pop_front();
        }
        self.history.push_back(bw);
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fill the window with a constant load.
    fn warmed(window: usize, tb: f64, level: f64) -> IoThrottle {
        let mut t = IoThrottle::new(window, tb);
        for _ in 0..window {
            t.update(level);
        }
        t
    }

    #[test]
    fn starts_unthrottled() {
        let t = IoThrottle::new(5, 0.1);
        assert_eq!(t.state(), ThrottleState::Unthrottled);
    }

    #[test]
    fn plateau_near_capacity_throttles() {
        // Bandwidth creeps up by ~2% per beat: rising, but within Tb=10%
        // of the window average → saturated.
        let mut t = warmed(5, 0.1, 100.0);
        let s = t.update(102.0);
        assert_eq!(s, ThrottleState::Throttled);
    }

    #[test]
    fn sharp_rise_does_not_throttle() {
        // A jump far above the average (>= avg*(1+Tb)) means the node had
        // spare capacity and just took on load: not saturated yet.
        let mut t = warmed(5, 0.1, 100.0);
        let s = t.update(150.0);
        assert_eq!(s, ThrottleState::Unthrottled);
    }

    #[test]
    fn recovery_requires_falling_below_band() {
        let mut t = warmed(5, 0.1, 100.0);
        t.update(101.0); // throttle
        assert!(t.is_throttled());
        // Small dip within the band: stays throttled (hysteresis).
        t.update(99.0);
        assert!(t.is_throttled());
        // Window avg is slightly above 100; drop clearly below avg*(1-Tb).
        let s = t.update(50.0);
        assert_eq!(s, ThrottleState::Unthrottled);
    }

    #[test]
    fn oscillation_within_band_does_not_flap() {
        let mut t = warmed(6, 0.2, 100.0);
        t.update(101.0);
        assert!(t.is_throttled());
        let mut states = vec![];
        for bw in [98.0, 102.0, 97.0, 103.0, 99.0] {
            states.push(t.update(bw));
        }
        assert!(
            states.iter().all(|&s| s == ThrottleState::Throttled),
            "±5% oscillation inside a 20% band must not unthrottle"
        );
    }

    #[test]
    fn no_decision_until_window_full() {
        let mut t = IoThrottle::new(10, 0.1);
        for bw in [100.0, 100.5, 101.0, 101.5] {
            assert_eq!(t.update(bw), ThrottleState::Unthrottled);
        }
    }
}
