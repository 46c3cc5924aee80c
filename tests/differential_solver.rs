//! Differential property tests: the word-parallel/dense rewrites must be
//! decision-for-decision identical to the retired per-register reference
//! implementations, over stress-generated modules, and the end-to-end
//! reports must never change.
//!
//! Layers covered, innermost out:
//!
//! 1. the bit-parallel saved-region solver against the per-register
//!    growth of `spillopt_core::dataflow` (the retired solver, kept as
//!    the oracle);
//! 2. the whole placement suite through `run_suite` (Chow, both
//!    hierarchical variants, predicted costs, traces) against
//!    `spillopt_core::reference::run_suite_priced_reference`;
//! 3. the word-parallel validator against the per-register one (as
//!    violation sets);
//! 4. the end-to-end module pipeline of a default `Session` — profile,
//!    allocation, analyses, suite, report — against the golden
//!    `ModuleReport` digests in `tests/golden_reports.txt`, on every
//!    registered target, over four fixed stress inputs and both stress
//!    corpora (`BenchConfig::smoke()` and `BenchConfig::default()`).

use spillopt_core::{run_suite, CalleeSavedUsage, RegWords, SuiteInputs, SuiteOptions};
use spillopt_driver::bench::corpus_for;
use spillopt_driver::pool::run_indexed;
use spillopt_driver::{BenchConfig, OptimizerBuilder};
use spillopt_ir::analysis::loops::sccs;
use spillopt_ir::{Cfg, DerivedCfg, Module};
use spillopt_profile::random_walk_profile;
use spillopt_pst::Pst;
use spillopt_targets::{registry, TargetSpec};
use std::collections::BTreeMap;

/// Allocated stress functions with their profiles, for per-layer checks.
fn allocated_functions(
    spec: &TargetSpec,
    seeds: std::ops::Range<u64>,
    scale: u32,
) -> Vec<(spillopt_ir::Function, spillopt_profile::EdgeProfile)> {
    let target = spec.to_target();
    let mut out = Vec::new();
    for seed in seeds {
        let case = spillopt_stress::gen_case_scaled(&target, seed, scale);
        for (i, f) in case.module.func_ids().enumerate() {
            let mut func = case.module.func(f).clone();
            let cfg = Cfg::compute(&func);
            let profile = random_walk_profile(&cfg, 128, 256, seed * 31 + i as u64);
            spillopt_regalloc::allocate(&mut func, &target, Some(&profile));
            out.push((func, profile));
        }
    }
    out
}

#[test]
fn bit_parallel_solver_matches_per_register_on_stress_modules() {
    let spec = spillopt_targets::pa_risc_like();
    let target = spec.to_target();
    let mut checked_regs = 0usize;
    for (func, _) in allocated_functions(&spec, 0..6, 1) {
        let cfg = Cfg::compute(&func);
        let usage = CalleeSavedUsage::from_function(&func, &cfg, &target);
        if usage.is_empty() {
            continue;
        }
        let cyclic = sccs(&cfg);
        let derived = DerivedCfg::compute(&cfg);
        let mut words = RegWords::from_busy(cfg.num_blocks(), &usage).expect("<= 64 registers");
        spillopt_core::solver::chow_grow_all(&derived, cfg.entry().index(), &cyclic, &mut words);
        for (bit, (_, busy)) in usage.regs().enumerate() {
            let reference = spillopt_core::dataflow::chow_grow(&cfg, &cyclic, busy);
            assert_eq!(
                words.project(bit),
                reference,
                "register bit {bit} of `{}` diverged",
                func.name()
            );
            checked_regs += 1;
        }
    }
    assert!(checked_regs > 0, "no callee-saved registers exercised");
}

#[test]
fn suite_and_validator_match_reference_on_stress_modules() {
    for spec in registry() {
        let target = spec.to_target();
        for (func, profile) in allocated_functions(&spec, 0..4, 1) {
            let cfg = Cfg::compute(&func);
            let usage = CalleeSavedUsage::from_function(&func, &cfg, &target);
            if usage.is_empty() {
                continue;
            }
            let cyclic = sccs(&cfg);
            let pst = Pst::compute(&cfg);
            let derived = DerivedCfg::compute(&cfg);
            let inputs = SuiteInputs::analyzed(&usage, &profile, &cyclic, &pst, &derived);
            let fast = run_suite(&cfg, &inputs, &SuiteOptions::priced(spec.costs))
                .expect("valid placements");
            let slow = spillopt_core::reference::run_suite_priced_reference(
                &cfg,
                &cyclic,
                &pst,
                &usage,
                &profile,
                &spec.costs,
            );
            assert_eq!(fast.entry_exit, slow.entry_exit);
            assert_eq!(fast.chow, slow.chow, "`{}` chow diverged", func.name());
            assert_eq!(
                fast.hierarchical_exec.placement,
                slow.hierarchical_exec.placement,
                "`{}` hier-exec diverged",
                func.name()
            );
            assert_eq!(
                fast.hierarchical_jump.placement,
                slow.hierarchical_jump.placement,
                "`{}` hier-jump diverged",
                func.name()
            );
            assert_eq!(fast.predicted, slow.predicted);
            assert_eq!(
                fast.hierarchical_jump.trace.len(),
                slow.hierarchical_jump.trace.len()
            );
            for (a, b) in fast
                .hierarchical_jump
                .trace
                .iter()
                .zip(&slow.hierarchical_jump.trace)
            {
                assert_eq!((a.region, a.reg, a.replaced), (b.region, b.reg, b.replaced));
                assert_eq!(a.contained_cost, b.contained_cost);
                assert_eq!(a.boundary_cost, b.boundary_cost);
            }
            // Validator agreement, as sets (list order interleaves
            // registers differently).
            for placement in [
                &fast.entry_exit,
                &fast.chow,
                &fast.hierarchical_jump.placement,
            ] {
                let fe = spillopt_core::check_placement(&cfg, &usage, placement);
                let se =
                    spillopt_core::reference::check_placement_reference(&cfg, &usage, placement);
                assert_eq!(fe.len(), se.len());
                for e in &fe {
                    assert!(se.contains(e), "validator-only violation {e:?}");
                }
            }
        }
    }
}

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Every golden input of `spec`'s target, keyed as in
/// `tests/golden_reports.txt` (`<target> <set> seed=<S> scale=<K>`).
fn golden_inputs(spec: &TargetSpec) -> Vec<(String, Module)> {
    let target = spec.to_target();
    let key =
        |set: &str, seed: u64, scale: u32| format!("{} {set} seed={seed} scale={scale}", spec.name);
    let mut inputs = Vec::new();
    // A few small cases plus one scaled-up module-sized case.
    for (seed, scale) in [(0, 1), (1, 1), (2, 1), (3, 4)] {
        let case = spillopt_stress::gen_case_scaled(&target, seed, scale);
        inputs.push((key("pairs", seed, scale), case.module));
    }
    for (set, config) in [
        ("smoke", BenchConfig::smoke()),
        ("nightly", BenchConfig::default()),
    ] {
        for (i, module) in corpus_for(spec, &config).into_iter().enumerate() {
            inputs.push((key(set, config.seed_start + i as u64, config.scale), module));
        }
    }
    inputs
}

#[test]
fn module_reports_match_golden_digests() {
    let mut golden: BTreeMap<&str, &str> = include_str!("golden_reports.txt")
        .lines()
        .filter(|line| !line.starts_with('#'))
        .map(|line| line.rsplit_once(' ').expect("`<input> <digest>` line"))
        .collect();
    // Targets fan out over the cores (corpus generation dominates in
    // debug builds); each runs its own serial default session.
    let digests = run_indexed(registry(), 0, |_, spec| {
        // The default session: arena on, as every caller gets it.
        let session = OptimizerBuilder::new()
            .target_spec(spec.clone())
            .threads(1)
            .build()
            .expect("valid session");
        golden_inputs(&spec)
            .into_iter()
            .map(|(input, module)| {
                let report = session.optimize(&module).expect("optimize").report;
                let json = report.to_json().to_compact();
                (input, format!("{:016x}", fnv1a64(json.as_bytes())))
            })
            .collect::<Vec<_>>()
    });
    let mut diverged = Vec::new();
    for (input, digest) in digests.into_iter().flatten() {
        match golden.remove(input.as_str()) {
            Some(expected) if expected == digest => {}
            Some(expected) => diverged.push(format!("{input}: digest {digest}, golden {expected}")),
            None => diverged.push(format!("{input}: digest {digest}, no golden line")),
        }
    }
    for input in golden.keys() {
        diverged.push(format!("{input}: golden line, but no such input"));
    }
    assert!(
        diverged.is_empty(),
        "ModuleReport digests differ from tests/golden_reports.txt for {} input(s):\n{}",
        diverged.len(),
        diverged.join("\n")
    );
}
