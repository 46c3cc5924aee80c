//! Integration tests for delta-driven incremental re-optimization.
//!
//! The warm session's analysis arena is an invisible cache: whatever
//! path a function takes — cold pipeline, exact warm hit, or an
//! incremental re-fold of only the profile-dirtied PST regions — the
//! module report bytes must equal a fresh cold session's. These tests
//! drive that differential over generated stress modules on every
//! registered target, then pin down the incremental path's economics
//! (the dirty-region ledger) and mechanics (provenance stream, LRU
//! eviction) on concrete cases.

use spillopt_benchgen::{benchmark_by_name, build_bench};
use spillopt_driver::{FunctionReport, OptimizerBuilder, ProfileSource, Provenance, Session};
use spillopt_ir::display::block_name;
use spillopt_ir::{verify_function, BlockId, Cfg, Function, InstKind, Module, RegDiscipline};
use spillopt_profile::EdgeProfile;
use spillopt_stress::gen_case;
use spillopt_sync::Mutex;
use spillopt_targets::{pa_risc_like, registry, TargetSpec};

fn warm_session(spec: &TargetSpec) -> Session {
    OptimizerBuilder::new()
        .target_spec(spec.clone())
        .threads(1)
        .build()
        .expect("valid warm session")
}

/// A fresh arena-less pipeline: the cold oracle.
fn cold_bytes(spec: &TargetSpec, module: &Module, profiles: &[EdgeProfile]) -> String {
    OptimizerBuilder::new()
        .target_spec(spec.clone())
        .threads(1)
        .reuse_analyses(false)
        .build()
        .expect("valid cold session")
        .optimize_profiled(module, profiles)
        .expect("cold run")
        .report
        .to_json()
        .to_compact()
}

fn warm_bytes(session: &Session, module: &Module, profiles: &[EdgeProfile]) -> String {
    session
        .optimize_profiled(module, profiles)
        .expect("warm run")
        .report
        .to_json()
        .to_compact()
}

/// Moves one count unit between two edges sharing a destination block,
/// per function where possible: block counts (and hence allocation
/// weights) are unchanged, so the warm session must take the
/// incremental re-fold path. Returns how many functions drifted.
fn nudge_weight_preserving(module: &Module, profiles: &mut [EdgeProfile]) -> usize {
    let mut drifted = 0;
    'funcs: for (fid, p) in module.func_ids().zip(profiles.iter_mut()) {
        let cfg = Cfg::compute(module.func(fid));
        let mut counts = p.edge_counts().to_vec();
        for (ia, ea) in cfg.edges() {
            if counts[ia.index()] == 0 {
                continue;
            }
            for (ib, eb) in cfg.edges() {
                if ia != ib && ea.to == eb.to {
                    counts[ia.index()] -= 1;
                    counts[ib.index()] += 1;
                    *p = EdgeProfile::new(&cfg, counts, p.entry_count());
                    drifted += 1;
                    continue 'funcs;
                }
            }
        }
    }
    drifted
}

/// Rewrites every count outright — block counts change, so the warm
/// session must re-allocate (and, when the allocation changes, replace
/// the cached structure cold).
fn full_invalidation(module: &Module, profiles: &mut [EdgeProfile]) {
    for (fid, p) in module.func_ids().zip(profiles.iter_mut()) {
        let cfg = Cfg::compute(module.func(fid));
        let counts = p
            .edge_counts()
            .iter()
            .enumerate()
            .map(|(i, c)| (c.wrapping_mul(3) + 37 * i as u64 + 11) % 997)
            .collect();
        *p = EdgeProfile::new(&cfg, counts, p.entry_count() + 13);
    }
}

#[test]
fn incremental_reports_match_the_cold_oracle_on_every_target() {
    for spec in registry() {
        for seed in 0..3u64 {
            let module = gen_case(&spec.to_target(), seed).module;
            let session = warm_session(&spec);
            let mut profiles = session
                .resolve_profiles(&module)
                .expect("synthetic profiles");
            let ctx = |kind: &str| format!("{} seed {seed}: {kind}", spec.name);

            // Base run (cold fill), then a zero-delta re-run (warm hit).
            let base = warm_bytes(&session, &module, &profiles);
            assert_eq!(
                base,
                cold_bytes(&spec, &module, &profiles),
                "{}",
                ctx("base")
            );
            assert_eq!(
                base,
                warm_bytes(&session, &module, &profiles),
                "{}",
                ctx("zero-delta")
            );

            // Weights-preserving drift: the incremental re-fold path.
            nudge_weight_preserving(&module, &mut profiles);
            assert_eq!(
                warm_bytes(&session, &module, &profiles),
                cold_bytes(&spec, &module, &profiles),
                "{}",
                ctx("weights-preserving drift")
            );

            // Full invalidation: re-allocate, possibly cold replace.
            full_invalidation(&module, &mut profiles);
            assert_eq!(
                warm_bytes(&session, &module, &profiles),
                cold_bytes(&spec, &module, &profiles),
                "{}",
                ctx("full invalidation")
            );
        }
    }
}

#[test]
fn dirty_ledger_refolds_strictly_fewer_regions_than_the_function_total() {
    let spec = registry().remove(0);
    let bench = benchmark_by_name("mcf").expect("known benchmark");
    let built = build_bench(&bench, &spec.to_target());
    let session = OptimizerBuilder::new()
        .target_spec(spec.clone())
        .threads(1)
        .profile(ProfileSource::Workload(built.train_runs))
        .build()
        .expect("valid session");
    session.optimize(&built.module).expect("cold fill");

    let mut profiles = session
        .resolve_profiles(&built.module)
        .expect("workload profiles");
    let drifted = nudge_weight_preserving(&built.module, &mut profiles);
    assert!(drifted > 0, "mcf must admit a weights-preserving drift");
    session
        .optimize_profiled(&built.module, &profiles)
        .expect("drifted run");

    let arena = session.arena_stats();
    assert!(
        arena.incremental > 0,
        "drift did not take the incremental path: {arena:?}"
    );
    assert!(arena.regions_refolded > 0, "{arena:?}");
    // The whole point of delta-driven re-folding: a local drift must
    // not re-fold the whole function.
    assert!(
        arena.regions_refolded < arena.regions_total,
        "local drift re-folded every region: {arena:?}"
    );
}

#[test]
fn provenance_streams_cold_then_warm_then_incremental() {
    let spec = registry().remove(0);
    let module = gen_case(&spec.to_target(), 1).module;
    let session = warm_session(&spec);
    let mut profiles = session
        .resolve_profiles(&module)
        .expect("synthetic profiles");

    let seen: Mutex<Vec<Provenance>> = Mutex::new(Vec::new());
    let observer = |_t: &str, _m: &str, _r: &FunctionReport, p: Provenance| {
        seen.lock().unwrap().push(p);
    };
    let run = |profiles: &[EdgeProfile]| {
        seen.lock().unwrap().clear();
        session
            .optimize_profiled_observed(&module, profiles, &observer)
            .expect("observed run");
        seen.lock().unwrap().clone()
    };

    let first = run(&profiles);
    assert!(!first.is_empty());
    assert!(first.iter().all(|p| *p == Provenance::Cold), "{first:?}");

    let second = run(&profiles);
    assert!(second.iter().all(|p| *p == Provenance::Warm), "{second:?}");

    let drifted = nudge_weight_preserving(&module, &mut profiles);
    let third = run(&profiles);
    if drifted > 0 {
        assert!(third.contains(&Provenance::Incremental), "{third:?}");
    }
    // However the drift landed, nothing should have gone back cold: the
    // structures were all cached and allocation weights are unchanged.
    assert!(third.iter().all(|p| *p != Provenance::Cold), "{third:?}");
}

#[test]
fn bounded_arena_evicts_lru_structures() {
    let spec = registry().remove(0);
    // Find a generated module with at least two functions so a
    // capacity-1 arena must evict during a single module run.
    let module = (0..32u64)
        .map(|seed| gen_case(&spec.to_target(), seed).module)
        .find(|m| m.num_funcs() >= 2)
        .expect("a multi-function stress module in 32 seeds");
    let session = OptimizerBuilder::new()
        .target_spec(spec.clone())
        .threads(1)
        .arena_capacity(1)
        .build()
        .expect("valid bounded session");

    let first = session.optimize(&module).expect("first run");
    let second = session.optimize(&module).expect("second run");
    let arena = session.arena_stats();
    assert!(arena.evictions > 0, "capacity 1 never evicted: {arena:?}");
    assert!(arena.entries <= 1, "over capacity: {arena:?}");
    // Eviction costs reuse, never correctness.
    assert_eq!(
        first.report.to_json().to_compact(),
        second.report.to_json().to_compact()
    );
}

/// A copy of `func` with every block id reversed, each block named by
/// its original display name: the copy prints exactly like `func` but
/// is a different function (block ids are what placements name).
fn renumbered(func: &Function) -> Function {
    let n = func.num_blocks();
    let flip = |b: BlockId| BlockId::from_index(n - 1 - b.index());
    let mut out = Function::new(func.name());
    out.set_num_params(func.num_params());
    out.frame_mut().reserve_slots(func.frame().num_slots());
    out.reserve_vregs(func.num_vregs());
    for new in 0..n {
        out.add_block(Some(&block_name(func, flip(BlockId::from_index(new)))));
    }
    for old in func.block_ids() {
        let mut insts = func.block(old).insts.clone();
        for inst in &mut insts {
            match &mut inst.kind {
                InstKind::Jump { target } => *target = flip(*target),
                InstKind::Branch {
                    taken, fallthrough, ..
                } => {
                    *taken = flip(*taken);
                    *fallthrough = flip(*fallthrough);
                }
                _ => {}
            }
        }
        out.block_mut(flip(old)).insts = insts;
    }
    out.set_layout(func.layout().iter().map(|&b| flip(b)).collect());
    out
}

/// The arena must tell apart functions that print alike but number
/// their blocks differently: a warm session that has seen the original
/// must answer the renumbered copy exactly as a fresh session does, not
/// with the original's placements at the original's block ids.
#[test]
fn same_text_with_different_block_numbering_is_a_different_function() {
    let spec = pa_risc_like();
    for seed in 0..40u64 {
        let module = gen_case(&spec.to_target(), seed).module;
        let mut copy = Module::new(module.name());
        for (_, func) in module.funcs() {
            let flipped = renumbered(func);
            assert_eq!(flipped.to_string(), func.to_string(), "seed {seed}");
            let errors = verify_function(&flipped, RegDiscipline::Virtual);
            assert!(errors.is_empty(), "seed {seed}: {errors:?}");
            copy.add_func(flipped);
        }
        let session = warm_session(&spec);
        session.optimize(&module).expect("original");
        let warm = session.optimize(&copy).expect("warm copy");
        let fresh = warm_session(&spec).optimize(&copy).expect("fresh copy");
        assert_eq!(
            warm.report.to_json().to_compact(),
            fresh.report.to_json().to_compact(),
            "seed {seed}: the warm session served the original's report"
        );
    }
}
