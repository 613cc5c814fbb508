//! The repository benchmark: three workloads of the WCDMA burst-admission
//! simulator, each timed single-threaded over repeated bit-identical
//! segments, with per-layer numbers measured from outside the program.
//! See `README.md` in this directory for the workloads, the metrics and
//! the measurement method.

pub mod frames;
pub mod layers;
pub mod report;
pub mod run;
pub mod stats;
pub mod workload;
