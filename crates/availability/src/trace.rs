//! Per-node availability traces.
//!
//! A trace is a sorted list of disjoint *outage* intervals over a horizon.
//! Outside every interval the node is available. The simulator replays a
//! trace by scheduling a Down event at each interval start and an Up event
//! at each interval end (the paper's monitor process does exactly this to
//! the Hadoop/MOON processes on each node).

use simkit::{SimDuration, SimTime};

/// One contiguous period of node unavailability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outage {
    /// First instant the node is unavailable.
    pub start: SimTime,
    /// First instant the node is available again.
    pub end: SimTime,
}

impl Outage {
    /// Length of the outage.
    pub fn duration(&self) -> SimDuration {
        self.end - self.start
    }
}

/// A node's availability over a simulation horizon.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AvailabilityTrace {
    outages: Vec<Outage>,
    horizon: SimTime,
}

/// Whether a node is up or down after a transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transition {
    /// Node becomes unavailable.
    Down,
    /// Node becomes available.
    Up,
}

impl AvailabilityTrace {
    /// An always-available trace (used for dedicated nodes).
    pub fn always_available(horizon: SimTime) -> Self {
        AvailabilityTrace {
            outages: Vec::new(),
            horizon,
        }
    }

    /// Build from outage intervals. Panics if intervals are unsorted,
    /// overlapping, empty, or extend beyond the horizon.
    pub fn new(mut outages: Vec<Outage>, horizon: SimTime) -> Self {
        outages.sort_by_key(|o| o.start);
        let mut prev_end = SimTime::ZERO;
        for o in &outages {
            assert!(o.end > o.start, "empty or inverted outage interval");
            assert!(o.start >= prev_end, "overlapping outage intervals");
            assert!(o.end <= horizon, "outage extends beyond horizon");
            prev_end = o.end;
        }
        AvailabilityTrace { outages, horizon }
    }

    /// The trace horizon (end of the experiment window).
    pub fn horizon(&self) -> SimTime {
        self.horizon
    }

    /// The outage intervals, sorted and disjoint.
    pub fn outages(&self) -> &[Outage] {
        &self.outages
    }

    /// Is the node available at instant `t`? (Outage intervals are
    /// half-open `[start, end)`.)
    pub fn is_available(&self, t: SimTime) -> bool {
        // Binary search for the last outage starting at or before t.
        match self.outages.binary_search_by(|o| o.start.cmp(&t)) {
            Ok(_) => false, // outage starts exactly at t
            Err(0) => true,
            Err(i) => self.outages[i - 1].end <= t,
        }
    }

    /// All transitions in time order as `(instant, what-happens)` pairs.
    pub fn transitions(&self) -> impl Iterator<Item = (SimTime, Transition)> + '_ {
        self.outages
            .iter()
            .flat_map(|o| [(o.start, Transition::Down), (o.end, Transition::Up)])
    }

    /// Total unavailable time within `[0, horizon]`.
    pub fn unavailable_time(&self) -> SimDuration {
        self.outages
            .iter()
            .fold(SimDuration::ZERO, |acc, o| acc + o.duration())
    }

    /// Fraction of the horizon the node is unavailable.
    pub fn unavailability(&self) -> f64 {
        if self.horizon == SimTime::ZERO {
            return 0.0;
        }
        self.unavailable_time().as_secs_f64() / self.horizon.since(SimTime::ZERO).as_secs_f64()
    }

    /// Fraction of `[from, to)` that is unavailable.
    pub fn unavailability_in(&self, from: SimTime, to: SimTime) -> f64 {
        let span = to.since(from).as_secs_f64();
        if span <= 0.0 {
            return 0.0;
        }
        let mut down = 0.0;
        for o in &self.outages {
            let s = o.start.max(from);
            let e = o.end.min(to);
            if e > s {
                down += e.since(s).as_secs_f64();
            }
        }
        down / span
    }

    /// Number of outages.
    pub fn n_outages(&self) -> usize {
        self.outages.len()
    }

    /// Mean outage duration, if any outages exist.
    pub fn mean_outage(&self) -> Option<SimDuration> {
        if self.outages.is_empty() {
            return None;
        }
        Some(self.unavailable_time() / self.outages.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn trace() -> AvailabilityTrace {
        AvailabilityTrace::new(
            vec![
                Outage {
                    start: t(10),
                    end: t(20),
                },
                Outage {
                    start: t(50),
                    end: t(80),
                },
            ],
            t(100),
        )
    }

    #[test]
    fn availability_queries() {
        let tr = trace();
        assert!(tr.is_available(t(0)));
        assert!(tr.is_available(t(9)));
        assert!(!tr.is_available(t(10)));
        assert!(!tr.is_available(t(19)));
        assert!(tr.is_available(t(20)), "interval is half-open");
        assert!(!tr.is_available(t(60)));
        assert!(tr.is_available(t(99)));
    }

    #[test]
    fn unavailability_fraction() {
        let tr = trace();
        assert!((tr.unavailability() - 0.4).abs() < 1e-12);
        assert!((tr.unavailability_in(t(0), t(20)) - 0.5).abs() < 1e-12);
        assert!((tr.unavailability_in(t(15), t(55)) - 0.25).abs() < 1e-12);
        assert_eq!(tr.unavailability_in(t(30), t(30)), 0.0);
    }

    #[test]
    fn transitions_in_order() {
        let tr = trace();
        let ts: Vec<_> = tr.transitions().collect();
        assert_eq!(
            ts,
            vec![
                (t(10), Transition::Down),
                (t(20), Transition::Up),
                (t(50), Transition::Down),
                (t(80), Transition::Up),
            ]
        );
    }

    #[test]
    fn always_available() {
        let tr = AvailabilityTrace::always_available(t(1000));
        assert!(tr.is_available(t(500)));
        assert_eq!(tr.unavailability(), 0.0);
        assert_eq!(tr.n_outages(), 0);
        assert_eq!(tr.mean_outage(), None);
    }

    #[test]
    fn constructor_sorts() {
        let tr = AvailabilityTrace::new(
            vec![
                Outage {
                    start: t(50),
                    end: t(80),
                },
                Outage {
                    start: t(10),
                    end: t(20),
                },
            ],
            t(100),
        );
        assert_eq!(tr.outages()[0].start, t(10));
    }

    #[test]
    #[should_panic(expected = "overlapping")]
    fn constructor_rejects_overlap() {
        AvailabilityTrace::new(
            vec![
                Outage {
                    start: t(10),
                    end: t(30),
                },
                Outage {
                    start: t(20),
                    end: t(40),
                },
            ],
            t(100),
        );
    }

    #[test]
    fn mean_outage_duration() {
        let tr = trace();
        assert_eq!(tr.mean_outage(), Some(SimDuration::from_secs(20)));
    }
}
