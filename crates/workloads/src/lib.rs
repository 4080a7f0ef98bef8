//! # workloads — the MOON paper's applications
//!
//! - **Cost models** ([`model`]): the paper's Table I configurations
//!   (`sort` 24 GB / 384 maps / 0.9 × slots reduces; `word count` 20 GB /
//!   320 maps / 20 reduces; `sleep`) with per-task compute-time
//!   distributions calibrated to the Table II execution profile. These
//!   drive the discrete-event experiments.
//! - **Job streams** ([`stream`]): multi-job arrival models
//!   (deterministic batches, open Poisson streams, closed think-time
//!   loops) that describe how a *sequence* of these applications hits a
//!   shared cluster.

#![warn(missing_docs)]

pub mod model;
pub mod stream;

pub use model::{paper, DurationModel, ReduceCount, WorkloadSpec, GB, MB};
pub use stream::{ArrivalModel, JobMeta, JobStream};
