//! The repo benchmark: four frozen workloads over the full `Cloud4Home`
//! runtime, end-to-end metrics from untraced repetitions, per-layer
//! metrics from one traced repetition plus isolated unit-cost probes.
//! See `README.md`.

pub mod alloc;
pub mod compare;
pub mod driver;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod probes;
pub mod run;
pub mod spans;
pub mod stats;
pub mod workloads;
