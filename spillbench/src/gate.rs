//! The correctness gate, run outside the timed region.
//!
//! Every applied module — under the best placement and under the
//! entry/exit baseline — is run on `spillopt_profile::Machine` over the
//! workload's runs and must return what the unoptimized virtual module
//! returns on the same runs. The reference comes from the interpreter,
//! never from the optimizer. The same interpreter runs count the dynamic
//! save/restore/jump-block instructions behind `spill_overhead_ratio`.
//!
//! `drift_warm` additionally byte-compares each function's report with a
//! fresh arena-off session on the same profiles (the drift fuzzer's
//! oracle).

use crate::workload::{oracle_session, Corpus, PassOut};
use spillopt_driver::Strategy;
use spillopt_ir::{FuncId, Module, Origin, Target};
use spillopt_profile::{ExecError, Machine};
use std::collections::BTreeSet;

/// What the gate found on one pass.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct GateOut {
    /// Functions that errored, were contained as faults, or failed a
    /// check, as `(module, function)` pairs.
    pub failed: BTreeSet<(usize, usize)>,
    /// Human-readable failure descriptions (first few).
    pub messages: Vec<String>,
    /// Instructions executed by the best-placement modules on the runs.
    pub interp_insts: u64,
    /// Per module with a nonzero baseline: executed saves + restores +
    /// jump-block jumps under the best placement ÷ under the baseline
    /// (each plus one).
    pub ratios: Vec<f64>,
    /// Static save/restore/jump-block instructions in the best modules.
    pub spill_code_size: u64,
    /// Functions that needed a placement.
    pub placed: u64,
}

impl GateOut {
    fn fail(&mut self, module: usize, function: usize, message: impl FnOnce() -> String) {
        if self.failed.insert((module, function)) && self.messages.len() < 8 {
            self.messages.push(message());
        }
    }
}

/// Outputs and counters of one module over a run list.
struct Execution {
    outputs: Vec<Result<i64, ExecError>>,
    insts: u64,
    spill_dynamic: u64,
}

fn execute(module: &Module, target: &Target, runs: &[(FuncId, Vec<i64>)]) -> Execution {
    let mut vm = Machine::new(module, target);
    vm.set_fuel(1 << 30);
    let outputs = runs.iter().map(|(f, args)| vm.call(*f, args)).collect();
    let c = vm.counts().spill_counts();
    Execution {
        outputs,
        insts: vm.counts().total,
        spill_dynamic: c.saves + c.restores + c.jump_jumps,
    }
}

/// Static save/restore and jump-block instructions of a module.
pub fn static_spill_code(module: &Module) -> u64 {
    let mut n = 0;
    for (_, f) in module.funcs() {
        for b in f.block_ids() {
            n += f
                .block(b)
                .insts
                .iter()
                .filter(|i| matches!(i.origin, Origin::CalleeSave | Origin::JumpBlock))
                .count() as u64;
        }
    }
    n
}

/// Gates one pass. `oracle` enables the arena-off report comparison.
pub fn check(corpus: &Corpus, pass: &PassOut, oracle: bool) -> GateOut {
    let mut g = GateOut::default();
    let targets: Vec<Target> = corpus.targets.iter().map(|s| s.to_target()).collect();
    for (mi, (unit, out)) in corpus.units.iter().zip(&pass.modules).enumerate() {
        let target = &targets[unit.target];
        let out = match out {
            Ok(out) => out,
            Err(e) => {
                for f in 0..unit.module.num_funcs() {
                    g.fail(mi, f, || format!("module {mi}: {e}"));
                }
                continue;
            }
        };
        for fault in out.run.faults() {
            g.fail(mi, fault.index, || {
                format!("module {mi}: contained fault {fault:?}")
            });
        }
        g.placed += out.run.report.placed_functions() as u64;
        g.spill_code_size += static_spill_code(&out.best);

        let baseline = out.run.apply(Some(Strategy::Baseline));
        let reference = execute(&unit.module, target, &unit.gate_runs);
        let best = execute(&out.best, target, &unit.gate_runs);
        let base = execute(&baseline, target, &unit.gate_runs);
        for (i, (f, _)) in unit.gate_runs.iter().enumerate() {
            let want = &reference.outputs[i];
            for (label, got) in [("best", &best.outputs[i]), ("baseline", &base.outputs[i])] {
                if want.is_err() || got != want {
                    g.fail(mi, f.index(), || {
                        format!(
                            "module {mi} `{}` run {i}: {label} placement returned {got:?}, \
                             the virtual module {want:?}",
                            unit.module.name()
                        )
                    });
                }
            }
        }
        g.interp_insts += best.insts;
        if base.spill_dynamic > 0 {
            // Plus one on both sides: a module whose overhead vanishes
            // under the best placement stays a finite ratio.
            g.ratios
                .push((best.spill_dynamic + 1) as f64 / (base.spill_dynamic + 1) as f64);
        }

        if oracle {
            let profiles = out
                .profiles
                .as_ref()
                .expect("oracle checks run on explicit-profile passes");
            match oracle_session(&corpus.targets[unit.target])
                .optimize_profiled(&unit.module, profiles)
            {
                Ok(cold) => {
                    for (fi, (w, c)) in out
                        .run
                        .report
                        .functions
                        .iter()
                        .zip(&cold.report.functions)
                        .enumerate()
                    {
                        if w.to_json().to_compact() != c.to_json().to_compact() {
                            g.fail(mi, fi, || {
                                format!(
                                    "module {mi} function {fi}: warm report != arena-off report"
                                )
                            });
                        }
                    }
                }
                Err(e) => {
                    for f in 0..unit.module.num_funcs() {
                        g.fail(mi, f, || {
                            format!("module {mi}: arena-off oracle failed: {e}")
                        });
                    }
                }
            }
        }
    }
    g
}
