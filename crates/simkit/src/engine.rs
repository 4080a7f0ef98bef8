//! The simulation engine: a clock, an event queue, and a user-supplied
//! model that reacts to events.
//!
//! The engine is deliberately minimal — all domain behaviour (file system,
//! schedulers, network) lives in the model. The model receives each event
//! together with a [`Ctx`] through which it can read the clock, schedule
//! and cancel future events, and draw deterministic random numbers.

use crate::queue::{EventId, EventQueue};
use crate::rng::RngPool;
use crate::time::{SimDuration, SimTime};

/// A simulation model: owns all domain state and reacts to events.
pub trait Model {
    /// The event alphabet of the model.
    type Event;

    /// Handle one event. `ctx` exposes the clock, scheduling, and RNG.
    fn handle(&mut self, ctx: &mut Ctx<'_, Self::Event>, event: Self::Event);

    /// Observer hook, invoked by the engine before it dispatches each
    /// event, while the model holds the state after every event handled
    /// so far. A model that samples on a sim-time cadence thus sees, at
    /// the first event at or after a tick, the state after every event
    /// strictly before that tick.
    ///
    /// Unlike [`Model::handle`] this runs *outside* the event loop's
    /// scheduling surface: the observer receives only read-only
    /// [`DispatchStats`] — no [`Ctx`], no queue access, no RNG — so an
    /// implementation can record telemetry but cannot schedule, cancel,
    /// or draw random numbers. That structural restriction is what lets
    /// instrumentation ride along without perturbing determinism: the
    /// event sequence, RNG draws, and `events_handled` count are
    /// bit-identical whether or not the observer does anything.
    ///
    /// The default implementation is a no-op that the optimizer removes
    /// entirely, so un-instrumented models pay nothing.
    fn observe(&mut self, _stats: &DispatchStats) {}
}

/// Read-only engine statistics handed to [`Model::observe`] before
/// each event is dispatched.
#[derive(Debug, Clone, Copy)]
pub struct DispatchStats {
    /// Simulated time of the event about to be dispatched.
    pub next: SimTime,
    /// Total events handled so far, excluding the one about to be
    /// dispatched.
    pub events_handled: u64,
    /// Events pending in the queue, including the one about to be
    /// dispatched.
    pub queue_depth: usize,
}

/// Engine services exposed to the model while it handles an event.
pub struct Ctx<'a, E> {
    now: SimTime,
    queue: &'a mut EventQueue<E>,
    rng: &'a mut RngPool,
    stop: &'a mut bool,
}

impl<'a, E> Ctx<'a, E> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` to fire `delay` from now.
    pub fn schedule(&mut self, delay: SimDuration, event: E) -> EventId {
        self.queue.push(self.now + delay, event)
    }

    /// Schedule `event` at an absolute instant (must not be in the past).
    pub fn schedule_at(&mut self, at: SimTime, event: E) -> EventId {
        debug_assert!(at >= self.now, "scheduling into the past");
        self.queue.push(at.max(self.now), event)
    }

    /// Cancel a pending event. No-op if it already fired or was cancelled.
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.queue.cancel(id)
    }

    /// True if the event is still pending.
    pub fn is_pending(&self, id: EventId) -> bool {
        self.queue.is_pending(id)
    }

    /// Deterministic per-stream random number generators.
    pub fn rng(&mut self) -> &mut RngPool {
        self.rng
    }

    /// Request that the run loop stop after this event is handled.
    pub fn stop(&mut self) {
        *self.stop = true;
    }
}

/// Outcome of a [`Simulation::run`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The model called [`Ctx::stop`].
    Stopped,
    /// The event queue drained completely.
    QueueEmpty,
    /// The time horizon passed before the queue drained.
    HorizonReached,
    /// The event-count safety limit was hit (likely a livelock bug).
    EventLimit,
    /// The wall-clock deadline passed before the run finished.
    WallDeadline,
}

/// A discrete-event simulation over a user model.
pub struct Simulation<M: Model> {
    now: SimTime,
    queue: EventQueue<M::Event>,
    rng: RngPool,
    model: M,
    events_handled: u64,
    /// Hard cap on handled events, to turn accidental livelocks into
    /// detectable failures instead of hangs.
    event_limit: u64,
    /// Wall-clock instant after which `run_until` bails out with
    /// [`RunOutcome::WallDeadline`]. Checked coarsely (every 16384
    /// events) so the hot loop stays branch-cheap.
    wall_deadline: Option<std::time::Instant>,
}

impl<M: Model> Simulation<M> {
    /// Create a simulation over `model`, with all randomness derived from
    /// `seed`.
    pub fn new(model: M, seed: u64) -> Self {
        Simulation {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            rng: RngPool::new(seed),
            model,
            events_handled: 0,
            event_limit: u64::MAX,
            wall_deadline: None,
        }
    }

    /// Cap the total number of events handled (safety valve for tests).
    pub fn with_event_limit(mut self, limit: u64) -> Self {
        self.event_limit = limit;
        self
    }

    /// Abort the run once `budget` of wall-clock time has elapsed,
    /// returning [`RunOutcome::WallDeadline`]. The check piggybacks on
    /// the event counter (every 16384 events), so very short budgets
    /// resolve with that granularity. This is the campaign runner's
    /// livelock guard for models that stay under the event limit but
    /// make no real progress.
    pub fn with_wall_deadline(mut self, budget: std::time::Duration) -> Self {
        self.wall_deadline = Some(std::time::Instant::now() + budget);
        self
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The root seed all RNG streams derive from.
    pub fn root_seed(&self) -> u64 {
        self.rng.root_seed()
    }

    /// Immutable access to the model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Mutable access to the model (for setup and inspection between runs).
    pub fn model_mut(&mut self) -> &mut M {
        &mut self.model
    }

    /// Total events handled so far.
    pub fn events_handled(&self) -> u64 {
        self.events_handled
    }

    /// Number of pending events.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Schedule an event before or between runs.
    pub fn schedule(&mut self, delay: SimDuration, event: M::Event) -> EventId {
        self.queue.push(self.now + delay, event)
    }

    /// Schedule an event at an absolute time before or between runs.
    pub fn schedule_at(&mut self, at: SimTime, event: M::Event) -> EventId {
        debug_assert!(at >= self.now);
        self.queue.push(at.max(self.now), event)
    }

    /// Process a single event. Returns false if the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some(next) = self.queue.peek_time() else {
            return false;
        };
        self.dispatch(next);
        true
    }

    /// Observe, then pop and handle the next event, due at `next`.
    /// Returns whether the model asked to stop.
    fn dispatch(&mut self, next: SimTime) -> bool {
        self.model.observe(&DispatchStats {
            next,
            events_handled: self.events_handled,
            queue_depth: self.queue.len(),
        });
        let (at, _id, event) = self.queue.pop().expect("peeked event vanished");
        debug_assert!(at >= self.now, "time went backwards");
        self.now = at;
        self.events_handled += 1;
        let mut stop = false;
        let mut ctx = Ctx {
            now: self.now,
            queue: &mut self.queue,
            rng: &mut self.rng,
            stop: &mut stop,
        };
        self.model.handle(&mut ctx, event);
        stop
    }

    /// Run until the queue drains, the model stops, or `horizon` passes.
    pub fn run_until(&mut self, horizon: SimTime) -> RunOutcome {
        loop {
            if self.events_handled >= self.event_limit {
                return RunOutcome::EventLimit;
            }
            if let Some(deadline) = self.wall_deadline {
                if self.events_handled & 0x3FFF == 0 && std::time::Instant::now() >= deadline {
                    return RunOutcome::WallDeadline;
                }
            }
            let Some(next) = self.queue.peek_time() else {
                return RunOutcome::QueueEmpty;
            };
            if next > horizon {
                self.now = horizon;
                return RunOutcome::HorizonReached;
            }
            if self.dispatch(next) {
                return RunOutcome::Stopped;
            }
        }
    }

    /// Run until the queue drains or the model stops.
    pub fn run(&mut self) -> RunOutcome {
        self.run_until(SimTime::MAX)
    }

    /// Consume the simulation, returning the model.
    pub fn into_model(self) -> M {
        self.model
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A model that counts down, rescheduling itself.
    struct Countdown {
        remaining: u32,
        fired_at: Vec<SimTime>,
    }

    enum Tick {
        Tick,
    }

    impl Model for Countdown {
        type Event = Tick;
        fn handle(&mut self, ctx: &mut Ctx<'_, Tick>, _ev: Tick) {
            self.fired_at.push(ctx.now());
            if self.remaining > 0 {
                self.remaining -= 1;
                ctx.schedule(SimDuration::from_secs(10), Tick::Tick);
            } else {
                ctx.stop();
            }
        }
    }

    #[test]
    fn run_advances_clock_and_stops() {
        let mut sim = Simulation::new(
            Countdown {
                remaining: 3,
                fired_at: vec![],
            },
            42,
        );
        sim.schedule(SimDuration::from_secs(5), Tick::Tick);
        let outcome = sim.run();
        assert_eq!(outcome, RunOutcome::Stopped);
        assert_eq!(
            sim.model().fired_at,
            vec![
                SimTime::from_secs(5),
                SimTime::from_secs(15),
                SimTime::from_secs(25),
                SimTime::from_secs(35),
            ]
        );
        assert_eq!(sim.events_handled(), 4);
    }

    #[test]
    fn horizon_halts_before_event() {
        let mut sim = Simulation::new(
            Countdown {
                remaining: 100,
                fired_at: vec![],
            },
            1,
        );
        sim.schedule(SimDuration::from_secs(50), Tick::Tick);
        let outcome = sim.run_until(SimTime::from_secs(20));
        assert_eq!(outcome, RunOutcome::HorizonReached);
        assert_eq!(sim.now(), SimTime::from_secs(20));
        assert!(sim.model().fired_at.is_empty());
        // Resuming past the event works (the model reschedules at t=60,
        // which is beyond the new horizon).
        let outcome = sim.run_until(SimTime::from_secs(55));
        assert_eq!(outcome, RunOutcome::HorizonReached);
        assert_eq!(sim.model().fired_at, vec![SimTime::from_secs(50)]);
        assert_eq!(sim.now(), SimTime::from_secs(55));
    }

    #[test]
    fn event_limit_detects_livelock() {
        struct Livelock;
        impl Model for Livelock {
            type Event = ();
            fn handle(&mut self, ctx: &mut Ctx<'_, ()>, _ev: ()) {
                ctx.schedule(SimDuration::ZERO, ());
            }
        }
        let mut sim = Simulation::new(Livelock, 0).with_event_limit(1000);
        sim.schedule(SimDuration::ZERO, ());
        assert_eq!(sim.run(), RunOutcome::EventLimit);
        assert_eq!(sim.events_handled(), 1000);
    }

    #[test]
    fn wall_deadline_halts_livelock() {
        struct Livelock;
        impl Model for Livelock {
            type Event = ();
            fn handle(&mut self, ctx: &mut Ctx<'_, ()>, _ev: ()) {
                ctx.schedule(SimDuration::ZERO, ());
            }
        }
        // A zero budget trips the very first coarse check, before any
        // event is handled; without it the livelock would spin forever.
        let mut sim = Simulation::new(Livelock, 0).with_wall_deadline(std::time::Duration::ZERO);
        sim.schedule(SimDuration::ZERO, ());
        assert_eq!(sim.run(), RunOutcome::WallDeadline);
        assert_eq!(sim.events_handled(), 0);
    }

    #[test]
    fn generous_wall_deadline_does_not_perturb_run() {
        let mut sim = Simulation::new(
            Countdown {
                remaining: 3,
                fired_at: vec![],
            },
            42,
        )
        .with_wall_deadline(std::time::Duration::from_secs(3600));
        sim.schedule(SimDuration::from_secs(5), Tick::Tick);
        assert_eq!(sim.run(), RunOutcome::Stopped);
        assert_eq!(sim.events_handled(), 4);
    }

    /// A counter bumped every 7 s, optionally beside a no-op event
    /// every second, sampled on a 10 s cadence as `[count, events,
    /// queue depth]`.
    struct Sampled {
        count: u32,
        rec: crate::telemetry::Telemetry,
    }

    enum Toy {
        Bump,
        Noop,
    }

    impl Model for Sampled {
        type Event = Toy;
        fn handle(&mut self, ctx: &mut Ctx<'_, Toy>, ev: Toy) {
            match ev {
                Toy::Bump => {
                    self.count += 1;
                    ctx.schedule(SimDuration::from_secs(7), Toy::Bump);
                }
                Toy::Noop => {
                    ctx.schedule(SimDuration::from_secs(1), Toy::Noop);
                }
            }
        }
        fn observe(&mut self, stats: &DispatchStats) {
            if self.rec.due(stats.next) {
                let row = [
                    f64::from(self.count),
                    stats.events_handled as f64,
                    stats.queue_depth as f64,
                ];
                self.rec.record_sample(stats.next, &row);
            }
        }
    }

    fn sampled_rows(noops: bool) -> Vec<(SimTime, f64)> {
        let cfg = crate::telemetry::TelemetryConfig {
            sample_every: SimDuration::from_secs(10),
            span_capacity: 1,
        };
        let model = Sampled {
            count: 0,
            rec: crate::telemetry::Telemetry::new(cfg, &["count", "events", "queue_depth"]),
        };
        let mut sim = Simulation::new(model, 0);
        sim.schedule(SimDuration::from_secs(3), Toy::Bump);
        if noops {
            sim.schedule(SimDuration::from_millis(500), Toy::Noop);
        }
        sim.run_until(SimTime::from_secs(100));
        let rec = &sim.model().rec;
        (0..rec.n_samples())
            .map(|i| (rec.sample(i).0, rec.sample(i).1[0]))
            .collect()
    }

    #[test]
    fn gauge_rows_ignore_events_between_ticks() {
        let plain = sampled_rows(false);
        // Rows sit on the ticks and hold the state strictly before
        // them: bumps at 3, 10, 17, ... s, so the 10 s row counts one.
        assert_eq!(plain[0], (SimTime::ZERO, 0.0));
        assert_eq!(plain[1], (SimTime::from_secs(10), 1.0));
        assert_eq!(plain.len(), 10);
        assert_eq!(plain, sampled_rows(true));
    }

    #[test]
    fn empty_queue_ends_run() {
        let mut sim = Simulation::new(
            Countdown {
                remaining: 0,
                fired_at: vec![],
            },
            7,
        );
        assert_eq!(sim.run(), RunOutcome::QueueEmpty);
        assert!(!sim.step());
    }
}
