//! # simkit — deterministic discrete-event simulation kernel
//!
//! The substrate under the MOON reproduction. It provides:
//!
//! - [`SimTime`]/[`SimDuration`]: integer-microsecond simulated time.
//! - [`EventQueue`]: a pending-event set with FIFO tie-breaking and
//!   cancellation, so runs are bit-for-bit reproducible.
//! - [`Simulation`]/[`Model`]/[`Ctx`]: the engine loop. Domain crates
//!   (`dfs`, `mapred`, `netsim`) are written as state machines; the `moon`
//!   crate composes them into one [`Model`].
//! - [`RngPool`]: per-(subsystem, entity) random streams derived from a
//!   single root seed, so adding a subsystem never perturbs another's draws.
//! - [`PausableWork`]: progress bookkeeping for tasks that suspend and
//!   resume with node availability (the paper's emulation model).
//! - [`stats`]: the streaming mean behind the per-attempt timing metrics.
//! - [`telemetry`]: sim-time gauge sampling, span timelines, and the
//!   JSONL / Chrome-trace exporters, fed from [`Model::observe`].
//! - [`env`](mod@env): the workspace's environment-knob parsing rules.
//!
//! ## Example
//!
//! ```
//! use simkit::{Ctx, Model, SimDuration, Simulation};
//!
//! struct Pinger { pongs: u32 }
//! enum Ev { Ping }
//!
//! impl Model for Pinger {
//!     type Event = Ev;
//!     fn handle(&mut self, ctx: &mut Ctx<'_, Ev>, _: Ev) {
//!         self.pongs += 1;
//!         if self.pongs < 3 {
//!             ctx.schedule(SimDuration::from_secs(1), Ev::Ping);
//!         }
//!     }
//! }
//!
//! let mut sim = Simulation::new(Pinger { pongs: 0 }, 42);
//! sim.schedule(SimDuration::ZERO, Ev::Ping);
//! sim.run();
//! assert_eq!(sim.model().pongs, 3);
//! assert_eq!(sim.now(), simkit::SimTime::from_secs(2));
//! ```

#![warn(missing_docs)]

mod engine;
pub mod env;
pub mod fsio;
mod queue;
mod rng;
pub mod stats;
pub mod telemetry;
mod time;
mod work;

pub use engine::{Ctx, DispatchStats, Model, RunOutcome, Simulation};
pub use queue::{EventId, EventQueue};
pub use rng::{derive_seed, RngPool, StreamId};
pub use stats::Summary;
pub use telemetry::{Span, SpanGroup, SpanKind, Telemetry, TelemetryConfig};
pub use time::{SimDuration, SimTime, MICROS_PER_SEC};
pub use work::PausableWork;
