//! Pausable work tracking.
//!
//! Tasks in an opportunistic environment are suspended and resumed as node
//! owners come and go (the paper's emulation suspends the Hadoop processes,
//! it does not kill them). [`PausableWork`] tracks how much of a
//! fixed-duration piece of work has completed across arbitrarily many
//! pause/resume cycles, so the caller can (re)schedule the completion event
//! after each resume.

use crate::time::{SimDuration, SimTime};

/// A fixed amount of work that can be paused and resumed.
///
/// The caller is responsible for scheduling/cancelling the corresponding
/// completion event; this struct is pure bookkeeping.
#[derive(Debug, Clone)]
pub struct PausableWork {
    total: SimDuration,
    /// Work completed during past running intervals.
    banked: SimDuration,
    /// When the current running interval started, if running.
    running_since: Option<SimTime>,
}

impl PausableWork {
    /// A piece of work requiring `total` of active time, initially paused.
    pub fn new(total: SimDuration) -> Self {
        PausableWork {
            total,
            banked: SimDuration::ZERO,
            running_since: None,
        }
    }

    /// Total active time the work requires.
    pub fn total(&self) -> SimDuration {
        self.total
    }

    /// Start (or restart) progress at `now`. Idempotent while running.
    pub fn resume(&mut self, now: SimTime) {
        if self.running_since.is_none() {
            self.running_since = Some(now);
        }
    }

    /// Stop progress at `now`, banking work done so far.
    pub fn pause(&mut self, now: SimTime) {
        if let Some(since) = self.running_since.take() {
            self.banked += now.since(since);
            if self.banked > self.total {
                self.banked = self.total;
            }
        }
    }

    /// Work completed by `now`, capped at `total`.
    pub fn done(&self, now: SimTime) -> SimDuration {
        let live = self
            .running_since
            .map_or(SimDuration::ZERO, |s| now.since(s));
        let d = self.banked + live;
        if d > self.total {
            self.total
        } else {
            d
        }
    }

    /// Remaining active time as of `now`.
    pub fn remaining(&self, now: SimTime) -> SimDuration {
        self.total - self.done(now)
    }

    /// Fraction complete in [0, 1] as of `now` (1.0 for zero-length work).
    pub fn progress(&self, now: SimTime) -> f64 {
        if self.total.is_zero() {
            return 1.0;
        }
        self.done(now).as_secs_f64() / self.total.as_secs_f64()
    }

    /// True if all work has been performed as of `now`.
    pub fn is_complete(&self, now: SimTime) -> bool {
        self.done(now) >= self.total
    }

    /// If running, the absolute time at which the work will finish assuming
    /// no further pauses.
    pub fn eta(&self, now: SimTime) -> Option<SimTime> {
        self.running_since.map(|_| now + self.remaining(now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }
    fn d(s: u64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    #[test]
    fn uninterrupted_work_finishes_on_time() {
        let mut w = PausableWork::new(d(100));
        w.resume(t(10));
        assert_eq!(w.eta(t(10)), Some(t(110)));
        assert!(w.is_complete(t(110)));
        assert!(!w.is_complete(t(109)));
    }

    #[test]
    fn pause_banks_progress() {
        let mut w = PausableWork::new(d(100));
        w.resume(t(0));
        w.pause(t(30));
        assert_eq!(w.done(t(500)), d(30), "no progress while paused");
        assert!((w.progress(t(500)) - 0.3).abs() < 1e-12);
        w.resume(t(500));
        assert_eq!(w.eta(t(500)), Some(t(570)));
        assert!(w.is_complete(t(570)));
    }

    #[test]
    fn multiple_cycles_accumulate() {
        let mut w = PausableWork::new(d(60));
        for k in 0..6u64 {
            let start = t(100 * k);
            w.resume(start);
            w.pause(start + d(10));
        }
        assert!(w.is_complete(t(1000)));
        assert_eq!(w.done(t(1000)), d(60));
    }

    #[test]
    fn resume_is_idempotent() {
        let mut w = PausableWork::new(d(10));
        w.resume(t(0));
        w.resume(t(5)); // must not reset the running interval
        assert_eq!(w.done(t(8)), d(8));
    }

    #[test]
    fn pause_when_paused_is_noop() {
        let mut w = PausableWork::new(d(10));
        w.pause(t(3));
        assert_eq!(w.done(t(3)), SimDuration::ZERO);
    }

    #[test]
    fn done_caps_at_total() {
        let mut w = PausableWork::new(d(10));
        w.resume(t(0));
        assert_eq!(w.done(t(1000)), d(10));
        assert!((w.progress(t(1000)) - 1.0).abs() < 1e-12);
        w.pause(t(1000));
        assert_eq!(w.remaining(t(1000)), SimDuration::ZERO);
    }

    #[test]
    fn zero_length_work_is_complete() {
        let w = PausableWork::new(SimDuration::ZERO);
        assert!(w.is_complete(t(0)));
        assert_eq!(w.progress(t(0)), 1.0);
    }
}
