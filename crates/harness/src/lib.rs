//! # spillopt-harness
//!
//! Experiment driver for the *spillopt* reproduction of Lupo & Wilken
//! (CGO 2006): regenerates every table and figure of the paper's
//! evaluation on the synthetic SPEC CPU2000 stand-ins.
//!
//! * [`runner`] — the measured pipeline per benchmark: generate →
//!   optimize through the driver's `Session` (profile on the train
//!   workload, Chaitin/Briggs allocation, every placement strategy) →
//!   execute each placed module on the ref workload → verify behaviour
//!   unchanged → measure dynamic spill-code overhead;
//! * [`experiments`] — Figure 1, the Figures 2-4 walkthrough, Figure 5,
//!   Table 1 and Table 2, each printed next to the paper's reference
//!   values;
//! * the `repro` binary drives them (`repro all`).
//!
//! # Examples
//!
//! ```no_run
//! use spillopt_driver::Strategy;
//! use spillopt_harness::run_named_benchmark;
//! use spillopt_ir::Target;
//!
//! let result = run_named_benchmark("mcf", &Target::default()).unwrap();
//! let opt = result.of(Strategy::HierJump).dynamic_overhead;
//! let base = result.of(Strategy::Baseline).dynamic_overhead;
//! assert!(opt <= base);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod experiments;
pub mod report;
pub mod runner;

pub use runner::{run_benchmark, run_named_benchmark, BenchResult};
