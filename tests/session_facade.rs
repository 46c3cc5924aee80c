//! Differential tests for the session facade: the default arena-on
//! `Session` must be **byte-identical** to an arena-off session (the
//! plain cold pipeline, which the arena's memoized folds must never
//! drift from), the cross-target fan-out must equal independent
//! per-target sessions, and a warm session must answer exactly like a
//! cold one.

use spillopt::{OptimizerBuilder, ProfileSource};
use spillopt_driver::{CrossTargetReport, Session};
use spillopt_ir::{Module, Target};
use spillopt_targets::registry;

/// Stress-generated modules for one target (the adversarial corpus the
/// SPEC stand-ins never produce).
fn stress_modules(target: &Target, seeds: std::ops::Range<u64>, scale: u32) -> Vec<Module> {
    seeds
        .map(|seed| spillopt_stress::gen_case_scaled(target, seed, scale).module)
        .collect()
}

/// Asserts that a default (arena-on) session and an arena-off session
/// report the same bytes for every module — cold, and again warm.
fn assert_arena_matches_cold(arena: &Session, cold: &Session, modules: &[Module], what: &str) {
    for pass in ["cold", "warm"] {
        for (seed, module) in modules.iter().enumerate() {
            let expected = cold.optimize(module).expect("arena-off session");
            let actual = arena.optimize(module).expect("arena-on session");
            assert_eq!(
                expected.report.to_json().to_compact(),
                actual.report.to_json().to_compact(),
                "arena-on session diverged from arena-off ({pass}): {what} seed {seed}"
            );
        }
    }
    assert!(arena.arena_stats().hits > 0, "{what}: warm pass never hit");
    assert_eq!(cold.arena_stats().hits + cold.arena_stats().misses, 0);
}

/// On every registered target, the default session (memoized folds in
/// the analysis arena) and a `reuse_analyses(false)` session (the plain
/// `run_suite` pipeline) produce byte-identical `ModuleReport` JSON over
/// stress-generated modules.
#[test]
fn arena_session_matches_arena_off_session_on_every_target() {
    for spec in registry() {
        let target = spec.to_target();
        let session = |reuse: bool| {
            OptimizerBuilder::new()
                .target_spec(spec.clone())
                .threads(1)
                .reuse_analyses(reuse)
                .build()
                .expect("valid session")
        };
        let modules = stress_modules(&target, 0..4, 2);
        assert_arena_matches_cold(&session(true), &session(false), &modules, spec.name);
    }
}

/// The same equality on a preset `Target` (unit costs).
#[test]
fn arena_session_matches_arena_off_preset_target_session() {
    let target = Target::default();
    let session = |reuse: bool| {
        OptimizerBuilder::new()
            .target(target.clone())
            .threads(1)
            .reuse_analyses(reuse)
            .build()
            .expect("valid session")
    };
    let modules = stress_modules(&target, 0..4, 2);
    assert_arena_matches_cold(&session(true), &session(false), &modules, "preset");
}

/// `Session::cross_target` on two threads against one independent
/// arena-off session per target, over the same loader.
#[test]
fn session_cross_target_matches_per_target_sessions() {
    let load = |spec: &spillopt_targets::TargetSpec| {
        let module = spillopt_stress::gen_case_scaled(&spec.to_target(), 7, 2).module;
        Ok((module, ProfileSource::default()))
    };
    let session = OptimizerBuilder::new()
        .all_targets()
        .threads(2)
        .build()
        .expect("valid session");
    let fanned = session.cross_target(load).expect("session fan-out");
    let independent = CrossTargetReport::new(
        registry()
            .into_iter()
            .map(|spec| {
                let (module, profile) = load(&spec).expect("load");
                let run = OptimizerBuilder::new()
                    .target_spec(spec.clone())
                    .profile(profile)
                    .threads(1)
                    .reuse_analyses(false)
                    .build()
                    .expect("valid session")
                    .optimize(&module)
                    .expect("per-target optimize");
                (spec, run.report)
            })
            .collect(),
    );
    assert_eq!(
        independent.to_json().to_compact(),
        fanned.to_json().to_compact()
    );
}

/// Warm-session batching: `optimize_many` over N modules must equal N
/// independent `optimize` calls, byte for byte — and a *warm* repeat
/// must be served from the arena without changing a byte.
#[test]
fn optimize_many_equals_independent_optimize_calls() {
    let spec = spillopt_targets::pa_risc_like();
    let target = spec.to_target();
    let modules = stress_modules(&target, 0..6, 2);

    let batch_session = OptimizerBuilder::new()
        .target_spec(spec.clone())
        .threads(4)
        .build()
        .expect("valid session");
    let batch = batch_session
        .optimize_many(&modules)
        .expect("batch optimize");
    assert_eq!(batch.len(), modules.len());

    for (module, run) in modules.iter().zip(&batch) {
        // A fresh session per module: fully independent calls.
        let independent = OptimizerBuilder::new()
            .target_spec(spec.clone())
            .threads(1)
            .build()
            .expect("valid session")
            .optimize(module)
            .expect("independent optimize");
        assert_eq!(
            independent.report.to_json().to_compact(),
            run.report.to_json().to_compact(),
            "optimize_many diverged from an independent optimize"
        );
    }

    // Warm repeat on the batch session: every function is served from
    // the arena, byte-identically. `Session::stats` gives the exact
    // ledger: one lookup per function per batch, so two batches make
    // `2 * functions` lookups; the warm batch may not miss once, and
    // the cold batch may only *hit* where the corpus repeats a
    // function body verbatim.
    let functions: usize = modules.iter().map(|m| m.num_funcs()).sum();
    let warm = batch_session
        .optimize_many(&modules)
        .expect("warm batch optimize");
    let stats = batch_session.stats();
    assert_eq!(
        stats.arena.hits + stats.arena.misses,
        2 * functions as u64,
        "unexpected lookup count: {stats:?}"
    );
    assert!(
        stats.arena.hits >= functions as u64,
        "warm batch missed the arena: {stats:?} over {functions} functions"
    );
    assert!(
        stats.arena.misses <= functions as u64,
        "more misses than cold lookups: {stats:?}"
    );
    for (cold, hot) in batch.iter().zip(&warm) {
        assert_eq!(
            cold.report.to_json().to_compact(),
            hot.report.to_json().to_compact(),
            "warm batch changed report bytes"
        );
    }
}
