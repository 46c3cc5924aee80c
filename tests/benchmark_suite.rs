//! End-to-end checks over the synthetic SPEC suite: the paper's
//! qualitative shapes on a fast subset, and every measured Table 1 /
//! Figure 5 value pinned by `golden_harness.txt`.

use spillopt_benchgen::all_benchmarks;
use spillopt_core::SpillCostModel;
use spillopt_driver::Strategy;
use spillopt_harness::{run_benchmark, run_named_benchmark, BenchResult};
use spillopt_ir::Target;

#[test]
fn mcf_has_trivial_callee_saved_overhead() {
    // Paper: "The graph-coloring register allocator is often able to
    // perform a register allocation that uses only the caller-saved
    // registers" — ratios are 100%/100%.
    let r = run_named_benchmark("mcf", &Target::default()).expect("pipeline");
    assert!((r.ratio(Strategy::HierJump) - 1.0).abs() < 1e-9);
    assert!((r.ratio(Strategy::Shrinkwrap) - 1.0).abs() < 1e-9);
    assert!(
        r.funcs_with_callee_saved * 4 <= r.funcs,
        "mcf should rarely use callee-saved registers: {}/{}",
        r.funcs_with_callee_saved,
        r.funcs
    );
}

#[test]
fn gzip_shows_the_papers_shape() {
    // Optimized wins; shrink-wrapping is counterproductive (ratio > 1).
    let r = run_named_benchmark("gzip", &Target::default()).expect("pipeline");
    let opt = r.ratio(Strategy::HierJump);
    let sw = r.ratio(Strategy::Shrinkwrap);
    assert!(opt < 1.0, "optimized must win: {opt}");
    assert!(sw > 1.0, "shrink-wrapping must lose to entry/exit: {sw}");
    assert!(opt <= sw + 1e-9);
}

#[test]
fn crafty_shows_a_large_optimized_win() {
    // Paper: > 50% reduction for crafty while shrink-wrapping manages 7%.
    let r = run_named_benchmark("crafty", &Target::default()).expect("pipeline");
    let opt = r.ratio(Strategy::HierJump);
    let sw = r.ratio(Strategy::Shrinkwrap);
    assert!(opt < 0.7, "crafty optimized ratio too weak: {opt}");
    assert!(sw > 0.8, "crafty shrink-wrap should gain little: {sw}");
}

#[test]
fn guarantee_holds_across_the_fast_subset() {
    // "The dynamic number of callee-saved save and restore instructions
    // inserted with this new approach is never greater than the number
    // produced by Chow's shrink-wrapping technique or the placement at
    // procedure entry and exit." Measured on executed code, with the
    // caveat that profiles come from the train workload and measurement
    // uses ref (tiny divergences are legitimate; we allow 1%).
    for name in ["mcf", "gzip", "vpr", "bzip2"] {
        let r = run_named_benchmark(name, &Target::default()).expect("pipeline");
        let opt = r.of(Strategy::HierJump).callee_saved_overhead as f64;
        let base = r.of(Strategy::Baseline).callee_saved_overhead as f64;
        let sw = r.of(Strategy::Shrinkwrap).callee_saved_overhead as f64;
        assert!(opt <= base * 1.01 + 1.0, "{name}: {opt} > baseline {base}");
        assert!(opt <= sw * 1.01 + 1.0, "{name}: {opt} > shrink-wrap {sw}");
    }
}

#[test]
fn static_overhead_ranking_matches_the_paper() {
    // Entry/exit minimizes static overhead; the optimized placement may
    // place more instructions (the paper explicitly does not optimize
    // static overhead).
    for name in ["gzip", "vpr"] {
        let r = run_named_benchmark(name, &Target::default()).expect("pipeline");
        let base = r.of(Strategy::Baseline).static_count;
        let sw = r.of(Strategy::Shrinkwrap).static_count;
        assert!(base <= sw, "{name}: entry/exit has lowest static count");
    }
}

/// One `tests/golden_harness.txt` line for a measured benchmark.
fn golden_line(set: &str, r: &BenchResult) -> String {
    let mut line = format!(
        "{set} {} funcs_with_callee_saved={} module_insts={}",
        r.name, r.funcs_with_callee_saved, r.module_insts
    );
    for s in Strategy::all() {
        let x = r.of(s);
        line.push_str(&format!(
            " {}={}/{}/{}/{}",
            s.name(),
            x.dynamic_overhead,
            x.callee_saved_overhead,
            x.jump_overhead,
            x.static_count
        ));
    }
    line
}

#[test]
fn harness_numbers_match_golden() {
    // Exact Table 1 / Figure 5 inputs for every benchmark, under the
    // paper's unit costs and under each registered target's own costs.
    let mut sets = vec![(
        "default+unit".to_string(),
        Target::default(),
        SpillCostModel::UNIT,
    )];
    for spec in spillopt_targets::registry() {
        sets.push((spec.name.to_string(), spec.to_target(), spec.costs));
    }
    let mut measured = Vec::new();
    for (set, target, costs) in &sets {
        for spec in all_benchmarks() {
            let r = run_benchmark(&spec, target, costs).expect("pipeline");
            measured.push(golden_line(set, &r));
        }
    }
    let golden: Vec<&str> = include_str!("golden_harness.txt")
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .collect();
    let moved: Vec<String> = golden
        .iter()
        .zip(&measured)
        .filter(|(g, m)| **g != m.as_str())
        .map(|(g, m)| format!("  golden:   {g}\n  measured: {m}"))
        .collect();
    assert!(
        moved.is_empty() && golden.len() == measured.len(),
        "{} of {} harness lines moved ({} golden, {} measured):\n{}",
        moved.len(),
        measured.len(),
        golden.len(),
        measured.len(),
        moved.join("\n")
    );
}
