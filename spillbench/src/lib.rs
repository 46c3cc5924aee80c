//! # spillbench
//!
//! The repository benchmark. One command runs a named workload through
//! the public `Session` API with tracing off and prints every end-to-end
//! metric with its unit, after checking every output on the interpreter;
//! with `--trace 1` it instead replays the first timed pass by calling
//! each crate's public functions in pipeline order and reports the
//! per-layer metrics. See `README.md` for the workloads and for which
//! end-to-end metric each layer metric should move.

#![warn(missing_docs)]

pub mod descriptor;
pub mod gate;
pub mod replay;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workload;
