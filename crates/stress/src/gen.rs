//! Seeded random module generation.
//!
//! The generator deliberately produces shapes the SPEC stand-ins never
//! emit: **irreducible loops** (guarded backward branches into arbitrary
//! earlier blocks, including block bodies of other loops), **multi-exit
//! functions** (every block may return), **critical-edge meshes**
//! (forward branches over blocks into shared join points), **zero-trip
//! loops and dead regions** (fuel-guarded back edges whose guard is
//! already exhausted), **extreme hot/cold skew** (masked branch
//! conditions from near-always to 1-in-64), and **register pressure near
//! the target's register-file limit** (accumulator counts around
//! `Target::num_regs`, forcing allocator spills). A slice of seeds
//! instead reuses `spillopt-benchgen`'s structured skeletons
//! ([`spillopt_benchgen::gen_body`]) for deep PST nesting, handlers, and
//! workload-realistic profiles.
//!
//! Termination is guaranteed by construction: every block increments a
//! fuel counter and every backward control transfer is guarded by
//! `fuel < limit`, so any cycle executes at most `limit` times; calls
//! form a forward DAG over the module's functions. A raw CFG is first
//! drawn as a plan (every random decision, no IR); a plan that leaves a
//! block unreachable from the entry (behind a skipped-over `jmp`, say)
//! is rejected and redrawn from the same deterministic stream, and the
//! rest are built and checked with the IR verifier, so generation is a
//! pure function of `(target, seed, scale)`. After 64 rejected draws a
//! slot falls back to a straight-line function; see [`gen_case_scaled`]
//! for how often that happens at larger scales.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use spillopt_benchgen::{emit_function, gen_body, EmitConfig, ShapeConfig, Style};
use spillopt_ir::{
    BinOp, BlockId, Callee, Cond, FrameSlot, FuncId, Function, FunctionBuilder, InstKind, Module,
    Reg, RegDiscipline, Target, VReg,
};

/// One generated differential-test case: a module plus the workload that
/// doubles as training profile and reference run.
#[derive(Clone, Debug)]
pub struct StressCase {
    /// The seed the case was drawn from.
    pub seed: u64,
    /// The generated module (virtual registers, verified).
    pub module: Module,
    /// Workload runs: `(function, arguments)` pairs, executed in order.
    pub runs: Vec<(FuncId, Vec<i64>)>,
}

/// Generates the case for `seed` against `target`'s convention.
///
/// Deterministic: the same `(target, seed)` pair always yields the same
/// module and workload.
pub fn gen_case(target: &Target, seed: u64) -> StressCase {
    gen_case_scaled(target, seed, 1)
}

/// As [`gen_case`], with every drawn function size multiplied by
/// `scale`: structured bodies get `scale`× the shape budget and raw
/// CFGs `scale`× the block count. `scale == 1` reproduces [`gen_case`]
/// bit for bit.
///
/// Raw CFGs do **not** survive scaling: the more blocks a draw has, the
/// likelier one is left unreachable, and a raw slot whose 64 draws all
/// fail becomes a straight-line fallback of at most five instructions.
/// Over seeds 0..400 on every registered target, about 41% of raw slots
/// fall back at scale 4, about 98% at scale 8 and all of them from
/// scale 16 up. So the driver's scale-32 corpus
/// (`spillopt_driver::bench`, behind the golden report digests and the
/// `spillbench` benchmark) holds structured bodies at module-scale
/// sizes plus fallbacks — 520 of its 804 functions — and no raw CFG.
pub fn gen_case_scaled(target: &Target, seed: u64, scale: u32) -> StressCase {
    gen_case_with(target, seed, scale, &mut |_| {})
}

/// [`gen_case_scaled`], showing `on_plan` every raw-CFG plan drawn,
/// rejected ones included.
fn gen_case_with(
    target: &Target,
    seed: u64,
    scale: u32,
    on_plan: &mut impl FnMut(&RawPlan),
) -> StressCase {
    let scale = scale.max(1) as usize;
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5712_E55C_A5E5_0000);
    let num_funcs = rng.gen_range(1..=4usize);
    let max_params = 2.min(target.arg_regs().len());
    let nparams: Vec<usize> = (0..num_funcs)
        .map(|_| rng.gen_range(0..=max_params))
        .collect();

    let mut module = Module::new(format!("stress{seed}"));
    for i in 0..num_funcs {
        let structured = max_params >= 2 && rng.gen_bool(0.3);
        let func = if structured {
            gen_structured_function(i, &nparams, num_funcs, target, scale, &mut rng)
        } else {
            gen_raw_function(i, &nparams, target, scale, &mut rng, on_plan)
        };
        module.add_func(func);
    }

    let mut runs = Vec::new();
    let n_runs = rng.gen_range(1..=3usize);
    for _ in 0..n_runs {
        // Always drive the root; sometimes enter deeper functions
        // directly so even call-graph leaves get non-trivial profiles.
        let f = if rng.gen_bool(0.7) {
            0
        } else {
            rng.gen_range(0..num_funcs)
        };
        let np = module.func(FuncId::from_index(f)).num_params();
        let args = (0..np)
            .map(|_| rng.gen_range(-(1 << 20)..1 << 20))
            .collect();
        runs.push((FuncId::from_index(f), args));
    }

    StressCase { seed, module, runs }
}

/// Emits a structured (benchgen-skeleton) function: reducible but deeply
/// nested, with handlers, gotos, zero-trip loops, and hot/cold texture.
fn gen_structured_function(
    index: usize,
    nparams: &[usize],
    num_funcs: usize,
    target: &Target,
    scale: usize,
    rng: &mut SmallRng,
) -> Function {
    let callees = num_funcs - index - 1;
    let shape = ShapeConfig {
        budget: rng.gen_range(10..=35) * scale,
        loop_prob: 0.35,
        else_prob: 0.5,
        cold_if_prob: 0.35,
        goto_prob: 0.15,
        call_prob: if callees > 0 { 0.15 } else { 0.08 },
        // Zero-trip loops included: lower bound 0.
        loop_trip: (0, 6),
        max_depth: 4,
    };
    let body = gen_body(&shape, rng, callees);
    let style = if rng.gen_bool(0.5) {
        Style::Register
    } else {
        Style::Memory
    };
    let pressure = if rng.gen_bool(0.3) {
        // Near the register-file limit: forces allocator spills too.
        target
            .num_regs()
            .saturating_sub(rng.gen_range(0..=3))
            .max(4)
    } else {
        rng.gen_range(2..=8)
    };
    let cfg = EmitConfig {
        shape,
        pressure,
        // Callers pass exactly this function's declared parameter count,
        // so the declaration must match the pre-drawn signature table.
        num_params: nparams[index],
        data_slots: rng.gen_range(0..=3),
        style,
        num_handlers: rng.gen_range(0..=1),
        handler_goto_frac: 0.5,
        hot_segment_calls: if style == Style::Memory {
            rng.gen_range(0..=2)
        } else {
            0
        },
        crossing_frac: 0.5,
        cold_crossing: 0.7,
        cold_sites: rng.gen_range(0..=1),
    };
    let sub = rng.gen_range(0..u64::MAX / 2);
    emit_function(&format!("f{index}"), target, &cfg, &body, index + 1, sub)
}

/// Draws a raw-CFG function: arbitrary guarded branch targets, multiple
/// exits, and no structural discipline beyond the IR's layout rules.
///
/// Each attempt is planned first ([`plan_raw_function`]); only a plan
/// whose every block is reachable from the entry is built, and the
/// verifier still decides every built function. A rejected plan costs
/// its random draws but no IR, so the stream — and hence every
/// generated module — is the same as building and verifying each draw.
fn gen_raw_function(
    index: usize,
    nparams: &[usize],
    target: &Target,
    scale: usize,
    rng: &mut SmallRng,
    on_plan: &mut impl FnMut(&RawPlan),
) -> Function {
    let mut plan = RawPlan::default();
    for _attempt in 0..64 {
        plan_raw_function(&mut plan, index, nparams, target, scale, rng);
        on_plan(&plan);
        if plan.all_reachable() {
            let func = plan.build(target);
            if spillopt_ir::verify_function(&func, RegDiscipline::Virtual).is_empty() {
                return func;
            }
        }
    }
    // Every attempt left a block unreachable from the entry (a forward
    // `jmp` over a block with no other predecessor strands it). Rare at
    // scale 1, certain from scale 16 up: see `gen_case_scaled`.
    trivial_function(index, nparams[index], target)
}

fn trivial_function(index: usize, num_params: usize, target: &Target) -> Function {
    let mut fb = FunctionBuilder::with_target(format!("f{index}"), num_params, target.clone());
    let b = fb.create_block(Some("entry"));
    fb.switch_to(b);
    let mut acc = fb.li(1);
    for p in 0..num_params {
        let v = fb.param(p);
        acc = fb.bin(BinOp::Xor, Reg::Virt(acc), Reg::Virt(v));
    }
    fb.ret(Some(Reg::Virt(acc)));
    fb.finish()
}

/// Skew classes for branch conditions: `(mask, threshold)` over an
/// accumulator, from near-always-taken to 1-in-64.
const SKEWS: [(i64, i64); 5] = [(15, 14), (15, 8), (15, 4), (15, 1), (63, 1)];

/// An accumulator, by index: the function's parameters first, then one
/// per prologue immediate.
type Acc = u16;

/// One planned body operation over the accumulators.
#[derive(Clone, Copy)]
enum Step {
    /// `d = lhs op rhs`.
    Bin {
        op: BinOp,
        d: Acc,
        lhs: Acc,
        rhs: Acc,
    },
    /// `d = lhs op imm`.
    BinImm {
        op: BinOp,
        d: Acc,
        lhs: Acc,
        imm: i64,
    },
    /// An LCG mix `d = ((a * M + C) >> 7)`, keeping condition bits lively.
    Lcg { d: Acc, a: Acc },
    /// `store src, slot` into a data slot.
    Store { src: Acc, slot: u8 },
    /// `t = load slot; d = a ^ t`.
    LoadXor { d: Acc, a: Acc, slot: u8 },
}

/// A planned call to a higher-indexed module function or an external,
/// folded into an accumulator (so values cross the call).
#[derive(Clone, Copy)]
struct CallPlan {
    callee: Callee,
    nargs: u8,
    /// The first `nargs` are passed; callees take at most two arguments.
    args: [Acc; 2],
    /// `fold ^= result`.
    fold: Acc,
}

/// How a planned block ends.
#[derive(Clone, Copy)]
enum Term {
    /// `ret` of `accs[0]` xor-folded with `accs[1..=folds]`.
    Ret { accs: [Acc; 3], folds: u8 },
    /// Fuel-guarded backward branch (`fuel < limit`) to the block, else
    /// fall through.
    Back(u32),
    /// Skewed forward branch over blocks, `(acc & mask) cond threshold`
    /// with `(mask, threshold) = SKEWS[skew]`, else fall through.
    Fwd {
        target: u32,
        skew: u8,
        acc: Acc,
        cond: Cond,
    },
    /// Forward jump (a jump edge; may make later blocks join-only).
    Jump(u32),
    /// Implicit fall-through into the next block.
    Fall,
}

impl Term {
    /// The successors of block `b` ending in this terminator.
    fn successors(self, b: usize) -> [Option<usize>; 2] {
        match self {
            Term::Ret { .. } => [None, None],
            Term::Back(t) | Term::Fwd { target: t, .. } => [Some(t as usize), Some(b + 1)],
            Term::Jump(t) => [Some(t as usize), None],
            Term::Fall => [Some(b + 1), None],
        }
    }
}

#[derive(Clone, Copy)]
struct BlockPlan {
    /// End of this block's operations in [`RawPlan::steps`] (the start is
    /// the previous block's end).
    steps_end: u32,
    call: Option<CallPlan>,
    term: Term,
}

/// Every random decision of one raw-CFG draw, recorded so the draw can
/// be screened ([`RawPlan::all_reachable`]) before any IR is built
/// ([`RawPlan::build`]). Buffers are reused across attempts.
#[derive(Default)]
struct RawPlan {
    index: usize,
    num_params: usize,
    /// Parameters materialized as the first accumulators.
    param_accs: usize,
    /// One accumulator per immediate, after the parameters.
    imms: Vec<i64>,
    /// One data slot each, initialized in the entry from the accumulator.
    slot_stores: Vec<Acc>,
    /// The fuel bound of every backward edge.
    limit: i64,
    steps: Vec<Step>,
    blocks: Vec<BlockPlan>,
}

/// Draws one raw-CFG attempt into `plan`, making every `rng` call the
/// built function depends on, in emission order.
fn plan_raw_function(
    plan: &mut RawPlan,
    index: usize,
    nparams: &[usize],
    target: &Target,
    scale: usize,
    rng: &mut SmallRng,
) {
    let num_params = nparams[index];
    plan.index = index;
    plan.num_params = num_params;
    plan.imms.clear();
    plan.slot_stores.clear();
    plan.steps.clear();
    plan.blocks.clear();
    let num_blocks = rng.gen_range(4..=14usize) * scale;

    // Accumulators: a small working set, or one crowding the target's
    // register file (pressure tiers).
    let num_accs = match rng.gen_range(0..3u32) {
        0 => rng.gen_range(2..=4usize),
        1 => rng.gen_range(4..=8usize),
        _ => {
            let n = target.num_regs();
            (n + 2).saturating_sub(rng.gen_range(0..=4)).max(4)
        }
    };
    let acc = |rng: &mut SmallRng| rng.gen_range(0..num_accs) as Acc;
    plan.param_accs = num_params.min(num_accs);
    for _ in plan.param_accs..num_accs {
        plan.imms.push(rng.gen_range(1..1 << 20));
    }
    for _ in 0..rng.gen_range(0..=3usize) {
        plan.slot_stores.push(acc(rng));
    }
    let num_slots = plan.slot_stores.len();
    plan.limit = rng.gen_range(8..=48);

    // A call-free function keeps its argument registers intact, so its
    // entry block — which re-reads them — may be a loop target. Functions
    // with calls may only loop back to the entry when they read no
    // parameters at all; otherwise a post-call re-execution of the entry
    // would read clobbered argument registers (an undefined-input
    // program, not a test subject).
    let no_calls = rng.gen_bool(0.3);
    let entry_loopable = no_calls || num_params == 0;
    let back_lo = usize::from(!entry_loopable);
    let callees = nparams.len() - index - 1;
    let max_args = target.arg_regs().len().min(2);

    for i in 0..num_blocks {
        for _ in 0..rng.gen_range(0..=4usize) {
            let d = acc(rng);
            let a = acc(rng);
            let b = acc(rng);
            let bin = |op, lhs, rhs| Step::Bin { op, d, lhs, rhs };
            let bin_imm = |op, imm| Step::BinImm { op, d, lhs: a, imm };
            let step = match rng.gen_range(0..7) {
                0 => bin(BinOp::Add, a, b),
                1 => bin(BinOp::Xor, a, b),
                2 => bin(BinOp::Sub, b, a),
                3 => bin_imm(BinOp::Mul, 2 * rng.gen_range(1..64) + 1),
                4 => Step::Lcg { d, a },
                5 if num_slots > 0 => Step::Store {
                    src: a,
                    slot: rng.gen_range(0..num_slots) as u8,
                },
                _ if num_slots > 0 => Step::LoadXor {
                    d,
                    a,
                    slot: rng.gen_range(0..num_slots) as u8,
                },
                _ => bin_imm(BinOp::Add, rng.gen_range(1..100)),
            };
            plan.steps.push(step);
        }

        let call = if !no_calls && rng.gen_bool(0.3) {
            let internal = callees > 0 && rng.gen_bool(0.6);
            let (callee, nargs) = if internal {
                let j = index + 1 + rng.gen_range(0..callees);
                // Internal callees read all their declared parameters.
                (Callee::Func(FuncId::from_index(j)), nparams[j])
            } else {
                (
                    Callee::External(rng.gen_range(0..8)),
                    rng.gen_range(0..=max_args),
                )
            };
            let mut args = [0; 2];
            for arg in &mut args[..nargs] {
                *arg = acc(rng);
            }
            Some(CallPlan {
                callee,
                nargs: nargs as u8,
                args,
                fold: acc(rng),
            })
        } else {
            None
        };

        let last = i == num_blocks - 1;
        let term = if last || (i >= 2 && rng.gen_bool(0.12)) {
            // Fold a few accumulators into the return value.
            let mut accs = [acc(rng), 0, 0];
            let folds = rng.gen_range(0..3usize);
            for a in &mut accs[1..=folds] {
                *a = acc(rng);
            }
            Term::Ret {
                accs,
                folds: folds as u8,
            }
        } else {
            let r: f64 = rng.gen();
            if r < 0.55 {
                // Branch: fall through to the next block; the taken target
                // is a guarded backward edge (irreducible loops) or a
                // forward jump over blocks (critical-edge meshes).
                let can_back = i >= back_lo;
                if can_back && (rng.gen_bool(0.35) || i + 2 >= num_blocks) {
                    Term::Back(rng.gen_range(back_lo..=i) as u32)
                } else if i + 2 < num_blocks {
                    let target = rng.gen_range(i + 2..num_blocks) as u32;
                    let skew = rng.gen_range(0..SKEWS.len()) as u8;
                    let a = acc(rng);
                    let cond = if rng.gen_bool(0.5) {
                        Cond::Lt
                    } else {
                        Cond::Ge
                    };
                    Term::Fwd {
                        target,
                        skew,
                        acc: a,
                        cond,
                    }
                } else {
                    // No room for a forward jump and no backward target.
                    Term::Fall
                }
            } else if r < 0.75 {
                Term::Jump(rng.gen_range(i + 1..num_blocks) as u32)
            } else {
                Term::Fall
            }
        };
        plan.blocks.push(BlockPlan {
            steps_end: plan.steps.len() as u32,
            call,
            term,
        });
    }
}

impl RawPlan {
    /// Whether every block is reachable from the entry over the planned
    /// terminators — exactly when the built function has no
    /// [`VerifyError::Unreachable`](spillopt_ir::VerifyError::Unreachable).
    fn all_reachable(&self) -> bool {
        let mut seen = vec![false; self.blocks.len()];
        seen[0] = true;
        let mut stack = vec![0];
        let mut reached = 1;
        while let Some(b) = stack.pop() {
            for s in self.blocks[b].term.successors(b).into_iter().flatten() {
                if !seen[s] {
                    seen[s] = true;
                    reached += 1;
                    stack.push(s);
                }
            }
        }
        reached == self.blocks.len()
    }

    /// Replays the plan into IR. Draws no random numbers.
    fn build(&self, target: &Target) -> Function {
        let mut fb = FunctionBuilder::with_target(
            format!("f{}", self.index),
            self.num_params,
            target.clone(),
        );
        for i in 0..self.blocks.len() {
            fb.create_block(if i == 0 { Some("entry") } else { None });
        }
        let block = BlockId::from_index;
        fb.switch_to(block(0));
        let mut accs: Vec<VReg> = (0..self.param_accs).map(|p| fb.param(p)).collect();
        accs.extend(self.imms.iter().map(|&imm| fb.li(imm)));
        let acc = |a: Acc| Reg::Virt(accs[usize::from(a)]);
        let data_slots: Vec<FrameSlot> = self.slot_stores.iter().map(|_| fb.new_slot()).collect();
        for (&slot, &src) in data_slots.iter().zip(&self.slot_stores) {
            fb.store(acc(src), slot);
        }
        // Fuel lives in a frame slot: slots are zero-initialized once per
        // activation and survive re-execution of the entry block, so loops
        // back to the entry stay bounded (a register counter re-initialized
        // in the entry would reset on every back edge). The limit constant
        // may be re-initialized harmlessly.
        let fuel_slot = fb.new_slot();
        let limit = fb.li(self.limit);

        let mut start = 0;
        for (i, b) in self.blocks.iter().enumerate() {
            fb.switch_to(block(i));
            // Tick the fuel counter; back edges compare the new value.
            let fuel = fb.load(fuel_slot);
            fb.emit(InstKind::BinImm {
                op: BinOp::Add,
                dst: Reg::Virt(fuel),
                lhs: Reg::Virt(fuel),
                imm: 1,
            });
            fb.store(Reg::Virt(fuel), fuel_slot);

            let end = b.steps_end as usize;
            for &step in &self.steps[start..end] {
                emit_step(&mut fb, step, &acc, &data_slots);
            }
            start = end;

            if let Some(call) = b.call {
                let args: Vec<Reg> = call.args[..usize::from(call.nargs)]
                    .iter()
                    .map(|&a| acc(a))
                    .collect();
                let r = fb.call(call.callee, &args);
                fb.emit(InstKind::Bin {
                    op: BinOp::Xor,
                    dst: acc(call.fold),
                    lhs: acc(call.fold),
                    rhs: Reg::Virt(r),
                });
            }

            match b.term {
                Term::Ret { accs, folds } => {
                    let mut v = acc(accs[0]);
                    for &o in &accs[1..=usize::from(folds)] {
                        v = Reg::Virt(fb.bin(BinOp::Xor, v, acc(o)));
                    }
                    fb.ret(Some(v));
                }
                Term::Back(t) => fb.branch(
                    Cond::Lt,
                    Reg::Virt(fuel),
                    Reg::Virt(limit),
                    block(t as usize),
                    block(i + 1),
                ),
                Term::Fwd {
                    target,
                    skew,
                    acc: a,
                    cond,
                } => {
                    let (mask, threshold) = SKEWS[usize::from(skew)];
                    let t = fb.bin_imm(BinOp::And, acc(a), mask);
                    let k = fb.li(threshold);
                    fb.branch(
                        cond,
                        Reg::Virt(t),
                        Reg::Virt(k),
                        block(target as usize),
                        block(i + 1),
                    );
                }
                Term::Jump(t) => fb.jump(block(t as usize)),
                Term::Fall => {}
            }
        }
        fb.finish()
    }
}

fn emit_step(
    fb: &mut FunctionBuilder,
    step: Step,
    acc: &impl Fn(Acc) -> Reg,
    data_slots: &[FrameSlot],
) {
    match step {
        Step::Bin { op, d, lhs, rhs } => fb.emit(InstKind::Bin {
            op,
            dst: acc(d),
            lhs: acc(lhs),
            rhs: acc(rhs),
        }),
        Step::BinImm { op, d, lhs, imm } => fb.emit(InstKind::BinImm {
            op,
            dst: acc(d),
            lhs: acc(lhs),
            imm,
        }),
        Step::Lcg { d, a } => {
            for (op, lhs, imm) in [
                (BinOp::Mul, a, 6364136223846793005u64 as i64),
                (BinOp::Add, d, 1442695040888963407u64 as i64),
                (BinOp::Shr, d, 7),
            ] {
                fb.emit(InstKind::BinImm {
                    op,
                    dst: acc(d),
                    lhs: acc(lhs),
                    imm,
                });
            }
        }
        Step::Store { src, slot } => fb.store(acc(src), data_slots[usize::from(slot)]),
        Step::LoadXor { d, a, slot } => {
            let t = fb.load(data_slots[usize::from(slot)]);
            fb.emit(InstKind::Bin {
                op: BinOp::Xor,
                dst: acc(d),
                lhs: acc(a),
                rhs: Reg::Virt(t),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spillopt_ir::{display, parse_module, verify_module};

    #[test]
    fn cases_are_deterministic_and_valid() {
        let target = Target::default();
        for seed in 0..40u64 {
            let a = gen_case(&target, seed);
            let b = gen_case(&target, seed);
            assert_eq!(
                display::module_to_string(&a.module),
                display::module_to_string(&b.module),
                "seed {seed} not deterministic"
            );
            assert_eq!(a.runs, b.runs);
            let errs = verify_module(&a.module, RegDiscipline::Virtual);
            assert!(errs.is_empty(), "seed {seed}: {errs:?}");
            assert!(!a.runs.is_empty());
        }
    }

    #[test]
    fn cases_parse_back_from_text() {
        let target = Target::default();
        for seed in 0..10u64 {
            let case = gen_case(&target, seed);
            let text = display::module_to_string(&case.module);
            let re = parse_module(&text).expect("reparse");
            assert_eq!(re.num_funcs(), case.module.num_funcs());
        }
    }

    #[test]
    fn raw_shapes_reach_interesting_structure() {
        // Across a seed range we must see irreducible or multi-exit or
        // critical-jump-edge shapes — the whole point of the generator.
        let target = Target::default();
        let mut multi_exit = 0;
        let mut crit_jump = 0;
        for seed in 0..30u64 {
            let case = gen_case(&target, seed);
            for (_, f) in case.module.funcs() {
                let cfg = spillopt_ir::Cfg::compute(f);
                if cfg.exit_blocks().len() > 1 {
                    multi_exit += 1;
                }
                if cfg.edge_ids().any(|e| cfg.needs_jump_block(e)) {
                    crit_jump += 1;
                }
            }
        }
        assert!(multi_exit > 5, "multi-exit too rare: {multi_exit}");
        assert!(crit_jump > 5, "critical jump edges too rare: {crit_jump}");
    }

    /// FNV-1a 64 over `module_to_string(&case.module)` then
    /// `format!("{:?}", case.runs)` of every case of a seed range.
    fn digest(target: &Target, seeds: std::ops::Range<u64>, scale: u32) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for seed in seeds {
            let case = gen_case_scaled(target, seed, scale);
            let text = display::module_to_string(&case.module);
            for &b in text
                .as_bytes()
                .iter()
                .chain(format!("{:?}", case.runs).as_bytes())
            {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// Digests captured from the generator that built and verified every
    /// raw draw, before the plan/reachability/build split: the split must
    /// not move a byte of any generated module or workload.
    #[test]
    fn generated_bytes_match_pinned_digests() {
        const PINNED: [(&str, [u64; 4]); 4] = [
            (
                "pa-risc-like",
                [
                    0x7d1b_0786_b164_5b72,
                    0x044a_9a84_bf80_8fba,
                    0xa6cd_b6a8_deb9_6f56,
                    0xa800_e71f_8661_c638,
                ],
            ),
            (
                "x86-64-sysv",
                [
                    0xbdd3_4e9f_b35b_68da,
                    0xb635_e6b6_3d37_fa23,
                    0x51da_d69a_681d_4da3,
                    0x5b7a_d869_97ad_71b6,
                ],
            ),
            (
                "aarch64-aapcs64",
                [
                    0xb350_ad00_e5ca_4ccf,
                    0xba19_873c_d34e_7290,
                    0x7322_d052_656e_59cd,
                    0xe552_a8f4_0f21_1e97,
                ],
            ),
            (
                "riscv64-lp64",
                [
                    0xe7d0_2cc7_e5c4_1c6c,
                    0xb2a6_ca58_a4bc_b062,
                    0x0971_bd20_85e8_b572,
                    0x9f59_56fc_1bcb_6867,
                ],
            ),
        ];
        let groups: [(u32, u64); 4] = [(1, 300), (2, 100), (8, 20), (32, 10)];
        let specs = spillopt_targets::registry();
        assert_eq!(
            specs.len(),
            PINNED.len(),
            "a digest row per registered target"
        );
        let mut moved = Vec::new();
        for (spec, (name, pinned)) in specs.iter().zip(PINNED) {
            assert_eq!(spec.name, name, "registry order");
            let target = spec.to_target();
            for (&(scale, seeds), want) in groups.iter().zip(pinned) {
                let got = digest(&target, 0..seeds, scale);
                if got != want {
                    moved.push(format!(
                        "{name} scale={scale} seeds=0..{seeds}: {got:016x}, pinned {want:016x}"
                    ));
                }
            }
        }
        assert!(
            moved.is_empty(),
            "generator output moved:\n{}",
            moved.join("\n")
        );
    }

    /// The reachability walk is a pure pre-filter: building every plan,
    /// rejected ones included, it fails exactly where the verifier reports
    /// an unreachable block, so it never drops a function the verifier
    /// would accept.
    #[test]
    fn reachability_walk_agrees_with_verifier() {
        let (mut accepted, mut rejected) = (0, 0);
        for spec in spillopt_targets::registry() {
            let target = spec.to_target();
            for (scale, seeds) in [(1, 100), (2, 40), (4, 20)] {
                for seed in 0..seeds {
                    gen_case_with(&target, seed, scale, &mut |plan| {
                        let func = plan.build(&target);
                        let errs = spillopt_ir::verify_function(&func, RegDiscipline::Virtual);
                        let unreachable = errs
                            .iter()
                            .any(|e| matches!(e, spillopt_ir::VerifyError::Unreachable { .. }));
                        assert_eq!(
                            plan.all_reachable(),
                            !unreachable,
                            "{} seed {seed} scale {scale}: {errs:?}",
                            spec.name
                        );
                        if unreachable {
                            rejected += 1;
                        } else {
                            assert!(errs.is_empty(), "{errs:?}");
                            accepted += 1;
                        }
                    });
                }
            }
        }
        assert!(
            accepted > 100 && rejected > 100,
            "{accepted} accepted, {rejected} rejected"
        );
    }

    #[test]
    fn tiny_target_cases_generate() {
        let target = Target::tiny();
        for seed in 0..10u64 {
            let case = gen_case(&target, seed);
            let errs = verify_module(&case.module, RegDiscipline::Virtual);
            assert!(errs.is_empty(), "seed {seed}: {errs:?}");
        }
    }
}
