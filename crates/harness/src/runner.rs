//! The measured pipeline for one benchmark: generate → optimize through
//! the driver's `Session` (train-workload profiles, allocation, every
//! placement technique) → execute each placed module on the ref
//! workload → measure.

use spillopt_benchgen::{build_bench, BenchSpec};
use spillopt_core::SpillCostModel;
use spillopt_driver::{OptimizerBuilder, ProfileSource, Strategy};
use spillopt_ir::{FuncId, Module, Target};
use spillopt_obs::{MetricsSnapshot, Recording};
use spillopt_profile::{ExecCounts, Machine};
use std::time::Duration;

/// Measured outcome of one strategy on one benchmark.
#[derive(Clone, Debug, Default)]
pub struct TechniqueResult {
    /// Dynamic spill-code overhead (the paper's Figure 5 metric: executed
    /// allocator spill loads/stores + callee-saved saves/restores).
    pub dynamic_overhead: u64,
    /// Executed callee-saved saves/restores only.
    pub callee_saved_overhead: u64,
    /// Executed jump-block jump instructions (not part of the Figure 5
    /// metric; the jump-edge model's subject).
    pub jump_overhead: u64,
    /// Static save/restore instructions placed.
    pub static_count: usize,
    /// Placement pass time: the recorder's span totals for the
    /// strategy's placement phases, summed over functions
    /// (`place_entry_exit`; `place_chow`; `place_hier_seed` plus
    /// `place_hier_exec` or `place_hier_jump`).
    pub pass_time: Duration,
}

/// Measured outcome of one benchmark across all strategies.
#[derive(Clone, Debug)]
pub struct BenchResult {
    /// Benchmark name.
    pub name: String,
    /// Results per strategy, in [`Strategy::all`] order.
    pub techniques: Vec<(Strategy, TechniqueResult)>,
    /// Functions that used at least one callee-saved register.
    pub funcs_with_callee_saved: usize,
    /// Total functions.
    pub funcs: usize,
    /// Static module size (instructions) after allocation, before
    /// placement.
    pub module_insts: usize,
    /// Workload scale multiplier (applied to the reported overheads).
    pub scale: u64,
}

impl BenchResult {
    /// Result of one strategy.
    pub fn of(&self, s: Strategy) -> &TechniqueResult {
        &self
            .techniques
            .iter()
            .find(|(x, _)| *x == s)
            .expect("strategy present")
            .1
    }

    /// The paper's Table 1 ratio: strategy overhead / baseline overhead
    /// (1.0 when the baseline overhead is zero — no callee-saved use, as
    /// in mcf).
    pub fn ratio(&self, s: Strategy) -> f64 {
        let base = self.of(Strategy::Baseline).dynamic_overhead;
        if base == 0 {
            1.0
        } else {
            self.of(s).dynamic_overhead as f64 / base as f64
        }
    }
}

/// Errors from the pipeline: an unknown benchmark name, or a failure
/// that indicates a bug (the harness surfaces them instead of panicking
/// so the repro binary can report which benchmark failed).
#[derive(Debug)]
pub struct PipelineError {
    /// Benchmark name.
    pub bench: String,
    /// Description.
    pub message: String,
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.bench, self.message)
    }
}

impl std::error::Error for PipelineError {}

/// The recorder spans that make up each strategy's placement pass time.
/// The hierarchical strategies share their Chow baseline with
/// `Shrinkwrap`, so their time is the seed plus their own fold.
fn placement_spans(strategy: Strategy) -> &'static [&'static str] {
    match strategy {
        Strategy::Baseline => &["place_entry_exit"],
        Strategy::Shrinkwrap => &["place_chow"],
        Strategy::HierExec => &["place_hier_seed", "place_hier_exec"],
        Strategy::HierJump => &["place_hier_seed", "place_hier_jump"],
    }
}

/// Runs the measured pipeline for one benchmark spec, with the
/// placement decisions priced by `costs` (the measured overheads stay
/// what the interpreter counts — only the placement choices change;
/// [`SpillCostModel::UNIT`] reproduces the paper's PA-RISC accounting).
///
/// The module is optimized once by a serial, arena-off driver `Session`
/// profiled by the train workload; each strategy's placed module
/// (`ModuleRun::apply`) then runs the ref workload on the interpreter,
/// which must reproduce the virtual module's outputs. Pass times come
/// from a [`Recording`] around the `optimize` call. The recorder is
/// process-wide and exclusive: pipelines running concurrently in the
/// same process add to the times, and a call made while this thread
/// holds another `Recording` never returns.
///
/// # Errors
///
/// Returns [`PipelineError`] if any stage fails or any strategy changes
/// program behaviour.
pub fn run_benchmark(
    spec: &BenchSpec,
    target: &Target,
    costs: &SpillCostModel,
) -> Result<BenchResult, PipelineError> {
    let bench = build_bench(spec, target);
    let fail = |message: String| PipelineError {
        bench: bench.name.clone(),
        message,
    };

    // --- Reference (ref) outputs on the virtual module. ---
    let reference = execute(&bench.module, target, &bench.ref_runs)
        .map_err(|e| fail(format!("ref run failed: {e}")))?;

    let session = OptimizerBuilder::new()
        .target(target.clone())
        .cost_model(*costs)
        .profile(ProfileSource::Workload(bench.train_runs.clone()))
        .threads(1)
        .reuse_analyses(false)
        .build()
        .map_err(|e| fail(e.to_string()))?;
    let recording = Recording::start();
    let run = session.optimize(&bench.module);
    let metrics = recording.finish().metrics();
    let run = run.map_err(|e| fail(e.to_string()))?;
    let report = &run.report;

    let mut techniques = Vec::new();
    for strategy in Strategy::all() {
        let placed = run.apply(Some(strategy));
        let (outputs, counts) = execute_counted(&placed, target, &bench.ref_runs)
            .map_err(|e| fail(format!("{}: execution failed: {e}", strategy.name())))?;
        if outputs != reference {
            return Err(fail(format!(
                "{}: program behaviour changed",
                strategy.name()
            )));
        }
        techniques.push((
            strategy,
            TechniqueResult {
                dynamic_overhead: counts.spill_code_overhead() * bench.scale,
                callee_saved_overhead: counts.callee_save_overhead() * bench.scale,
                jump_overhead: counts.jump_block_jumps * bench.scale,
                static_count: report
                    .functions
                    .iter()
                    .filter_map(|f| f.strategy(strategy))
                    .map(|s| s.static_count)
                    .sum(),
                pass_time: span_total(&metrics, placement_spans(strategy)),
            },
        ));
    }

    Ok(BenchResult {
        name: bench.name.clone(),
        techniques,
        funcs_with_callee_saved: report.placed_functions(),
        funcs: bench.module.num_funcs(),
        module_insts: report.functions.iter().map(|f| f.insts).sum(),
        scale: bench.scale,
    })
}

/// Total recorded time of the named spans.
fn span_total(metrics: &MetricsSnapshot, spans: &[&str]) -> Duration {
    let ns = metrics
        .phases
        .iter()
        .filter(|p| spans.contains(&p.name))
        .map(|p| p.total_ns)
        .sum();
    Duration::from_nanos(ns)
}

/// Executes a workload and returns the outputs.
pub fn execute(
    module: &Module,
    target: &Target,
    runs: &[(FuncId, Vec<i64>)],
) -> Result<Vec<i64>, spillopt_profile::ExecError> {
    Ok(execute_counted(module, target, runs)?.0)
}

/// Executes a workload and returns outputs plus dynamic counters.
pub fn execute_counted(
    module: &Module,
    target: &Target,
    runs: &[(FuncId, Vec<i64>)],
) -> Result<(Vec<i64>, ExecCounts), spillopt_profile::ExecError> {
    let mut m = Machine::new(module, target);
    m.set_fuel(1 << 30);
    let mut out = Vec::with_capacity(runs.len());
    for (f, args) in runs {
        out.push(m.call(*f, args)?);
    }
    Ok((out, m.counts().clone()))
}

/// Convenience: generate and run one named benchmark under the paper's
/// unit cost model.
///
/// # Errors
///
/// Returns [`PipelineError`] for an unknown benchmark name, or as
/// [`run_benchmark`] does.
pub fn run_named_benchmark(name: &str, target: &Target) -> Result<BenchResult, PipelineError> {
    run_benchmark(&bench_spec(name)?, target, &SpillCostModel::UNIT)
}

/// The named benchmark's spec.
pub(crate) fn bench_spec(name: &str) -> Result<BenchSpec, PipelineError> {
    spillopt_benchgen::benchmark_by_name(name).ok_or_else(|| PipelineError {
        bench: name.to_string(),
        message: "unknown benchmark".to_string(),
    })
}
