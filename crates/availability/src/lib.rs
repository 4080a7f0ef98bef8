//! # availability — volunteer-computing node availability modelling
//!
//! Everything the MOON reproduction needs to know about when nodes are
//! up: trace representation ([`AvailabilityTrace`]), the paper's synthetic
//! generators (Normal outages, mean 409 s, Poisson insertion —
//! [`TraceGenerator`]), a correlated/diurnal fleet generator reproducing
//! the shape of the paper's Figure 1 ([`correlated`]), fleet statistics
//! ([`stats`]), a text trace-file format for saving/replaying recorded
//! fleets ([`tracefile`]), and the NameNode's sliding-window
//! unavailability estimator ([`SlidingWindowEstimator`]) that drives
//! MOON's adaptive replication.

#![warn(missing_docs)]

pub mod correlated;
mod estimator;
mod gen;
pub mod stats;
mod trace;
pub mod tracefile;

pub use correlated::{generate_fleet, CorrelatedConfig};
pub use estimator::SlidingWindowEstimator;
pub use gen::{TraceGenConfig, TraceGenerator};
pub use trace::{AvailabilityTrace, Outage, Transition};
pub use tracefile::{load_fleet, read_fleet, save_fleet, write_fleet, TraceFileError};
