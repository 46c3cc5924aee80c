//! The bit-parallel solver's cost does not grow with the callee-saved
//! register count: on allocated stress functions of every registered
//! target, `chow_grow_all` over all registers at once runs exactly as
//! many fixpoint iterations as the slowest register alone (the maximum
//! over single-register runs, not their sum), and every register's
//! projection equals its single-register result.
//!
//! A test binary of its own: it reads the process-wide recorder's
//! `solver_fixpoint_iters` counter, which concurrently running tests
//! would add to.

use spillopt_core::{solver, CalleeSavedUsage, RegWords};
use spillopt_ir::analysis::loops::sccs;
use spillopt_ir::{Cfg, DerivedCfg};
use spillopt_obs::Recording;

/// Runs `chow_grow_all` on `words` and returns its recorded fixpoint
/// iterations.
fn grow_counted(derived: &DerivedCfg, cfg: &Cfg, words: &mut RegWords) -> u64 {
    let cyclic = sccs(cfg);
    let recording = Recording::start();
    solver::chow_grow_all(derived, cfg.entry().index(), &cyclic, words);
    let trace = recording.finish();
    trace
        .counters
        .iter()
        .find(|(name, _)| *name == "solver_fixpoint_iters")
        .map_or(0, |&(_, n)| n)
}

#[test]
fn fixpoint_iterations_are_the_slowest_register_not_the_sum() {
    let mut functions = 0usize;
    let mut multi_register = 0usize;
    let mut max_regs = 0usize;
    for spec in spillopt_targets::registry() {
        let target = spec.to_target();
        for seed in 0..48 {
            let case = spillopt_stress::gen_case_scaled(&target, seed, 2);
            for f in case.module.func_ids() {
                let mut func = case.module.func(f).clone();
                let profile =
                    spillopt_profile::random_walk_profile(&Cfg::compute(&func), 64, 128, seed);
                spillopt_regalloc::allocate(&mut func, &target, Some(&profile));
                let cfg = Cfg::compute(&func);
                let usage = CalleeSavedUsage::from_function(&func, &cfg, &target);
                if usage.is_empty() {
                    continue;
                }
                let derived = DerivedCfg::compute(&cfg);
                let busy = RegWords::from_busy(cfg.num_blocks(), &usage).expect("<= 64 regs");
                let mut all = busy.clone();
                let all_iters = grow_counted(&derived, &cfg, &mut all);

                let mut slowest = 0;
                for bit in 0..busy.regs.len() {
                    let mut one = RegWords {
                        words: busy.words.iter().map(|w| w & (1 << bit)).collect(),
                        regs: busy.regs.clone(),
                    };
                    slowest = slowest.max(grow_counted(&derived, &cfg, &mut one));
                    assert_eq!(
                        one.project(bit),
                        all.project(bit),
                        "{} seed {seed} `{}`: register {:?} grows differently alone",
                        spec.name,
                        func.name(),
                        busy.regs[bit]
                    );
                }
                assert_eq!(
                    all_iters,
                    slowest,
                    "{} seed {seed} `{}`: {} registers",
                    spec.name,
                    func.name(),
                    busy.regs.len()
                );
                functions += 1;
                multi_register += usize::from(busy.regs.len() > 1);
                max_regs = max_regs.max(busy.regs.len());
            }
        }
    }
    // Every single-register run iterates at least once, so on each
    // multi-register function the maximum is strictly below the sum.
    assert!(
        multi_register >= 250 && max_regs >= 12,
        "corpus too thin: {functions} functions, {multi_register} with several registers, \
         at most {max_regs} registers"
    );
}
