//! The seeded stress corpus shared by the golden report digests
//! (`tests/golden_reports.txt`, checked by
//! `tests/differential_solver.rs`) and the `spillbench` benchmark.
//!
//! A corpus is whole stress cases from consecutive generator seeds,
//! built per target (the generator is convention-aware) at a fixed
//! function-size multiplier. Two configurations are named:
//! [`BenchConfig::default`] (the full corpus) and [`BenchConfig::smoke`]
//! (a small slice).

use spillopt_ir::Module;
use spillopt_targets::TargetSpec;

/// Corpus configuration.
#[derive(Clone, Debug)]
pub struct BenchConfig {
    /// Minimum number of stress-generated functions in the corpus (cases
    /// are added whole until the floor is reached).
    pub functions: usize,
    /// Function-size multiplier passed to the stress generator
    /// ([`spillopt_stress::gen_case_scaled`]): the corpus keeps the
    /// stress subsystem's adversarial shapes at module-scale function
    /// sizes, where optimizer wall-clock actually matters.
    pub scale: u32,
    /// First generator seed.
    pub seed_start: u64,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            functions: 200,
            scale: 32,
            seed_start: 0,
        }
    }
}

impl BenchConfig {
    /// The smoke configuration: a small corpus of small functions.
    pub fn smoke() -> Self {
        BenchConfig {
            functions: 40,
            scale: 2,
            ..BenchConfig::default()
        }
    }
}

/// Builds the deterministic corpus: whole stress cases from
/// consecutive seeds until at least `functions` functions are collected.
/// The generator is target-convention-aware, so the corpus is built per
/// target (same seeds everywhere); module `i` comes from seed
/// `seed_start + i`.
pub fn corpus_for(spec: &TargetSpec, config: &BenchConfig) -> Vec<Module> {
    let target = spec.to_target();
    let mut modules = Vec::new();
    let mut functions = 0usize;
    let mut seed = config.seed_start;
    while functions < config.functions {
        let case = spillopt_stress::gen_case_scaled(&target, seed, config.scale);
        functions += case.module.num_funcs();
        modules.push(case.module);
        seed += 1;
    }
    modules
}
