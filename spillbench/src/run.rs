//! One benchmark run: set-up, timed passes, correctness gate, the
//! deterministic work counts (computed twice), and — in a traced run —
//! the replay that yields the per-layer metrics.

use crate::gate::{self, GateOut};
use crate::replay::{
    allocation_matches, synthetic_profile, Expected, ModuleJob, Profiles, ReplayArena,
    ReplayCounts, Replayer, Source, SESSION_LAYERS,
};
use crate::stats;
use crate::workload::{default_session, Bench, Kind, PassOut, Size, DRIFT_KINDS};
use spillopt_driver::Json;
use spillopt_ir::FuncId;
use spillopt_profile::Machine;
use std::collections::BTreeMap;
use std::time::Instant;

/// End-to-end metrics (untraced run), in output order: name and unit.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("throughput_fps", "functions/s"),
    ("module_ms_p50", "ms"),
    ("module_ms_tail", "ms"),
    ("peak_rss_mb", "MB"),
    ("spill_overhead_ratio", "ratio"),
    ("spill_code_size", "instructions"),
];

/// Per-layer metrics (traced run), in output order: name and unit.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("ir.parse_ms", "ms"),
    ("ir.verify_ms", "ms"),
    ("ir.display_ms", "ms"),
    ("profile.synth_ms", "ms"),
    ("profile.interp_ms", "ms"),
    ("profile.interp_insts", "count"),
    ("regalloc.allocate_ms", "ms"),
    ("regalloc.liveness_ms", "ms"),
    ("regalloc.interfere_ms", "ms"),
    ("regalloc.color_ms", "ms"),
    ("regalloc.spill_ms", "ms"),
    ("regalloc.rewrite_ms", "ms"),
    ("regalloc.rounds", "count"),
    ("regalloc.spilled_vregs", "count"),
    ("regalloc.graph_nodes", "count"),
    ("cache.compute_ms", "ms"),
    ("cache.cyclic_ms", "ms"),
    ("cache.derived_ms", "ms"),
    ("pst.build_ms", "ms"),
    ("pst.regions", "count"),
    ("core.suite_ms", "ms"),
    ("core.validate_ms", "ms"),
    ("core.entry_exit_ms", "ms"),
    ("core.chow_ms", "ms"),
    ("core.hier_exec_ms", "ms"),
    ("core.hier_jump_ms", "ms"),
    ("core.incremental_ms", "ms"),
    ("core.refold_ratio", "ratio"),
    ("core.regions_refolded", "count"),
    ("core.regions_total", "count"),
    ("core.insert_ms", "ms"),
    ("core.placed_share", "ratio"),
    ("driver.optimize_ms", "ms"),
    ("driver.self_ms", "ms"),
    ("driver.arena_hits", "count"),
    ("driver.arena_misses", "count"),
    ("driver.arena_incremental", "count"),
    ("driver.arena_hit_ratio", "ratio"),
    ("driver.pool_items", "count"),
    ("driver.pool_busy_ms", "ms"),
    ("driver.pool_idle_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
];

/// Timed passes after which `peak_rss_mb` is read; every run makes at
/// least this many. `drift_warm`'s session keeps an outcome per drifted
/// profile, so its memory grows with each pass: a reading after a fixed
/// number of passes does not move with the speed of the code.
pub const RSS_PASSES: usize = 4;

/// Seconds of set-up repetitions a run makes at least, when each is cheap
/// (the median of many short set-ups is steadier than of three).
const SETUP_BUDGET_S: f64 = 2.0;

/// One run's configuration.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Which workload.
    pub kind: Kind,
    /// Input seed.
    pub seed: u64,
    /// Seconds of timed passes.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Work per run.
    pub size: Size,
}

/// A measured value with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Deterministic work counts of one pass (or pass pair, for
/// `drift_warm`): two computations must agree exactly.
#[derive(Clone, Debug, PartialEq)]
pub struct Counts {
    /// Functions optimized.
    pub functions: u64,
    /// Functions that needed a placement.
    pub placed_functions: u64,
    /// Arena wholesale hits.
    pub arena_hits: u64,
    /// Arena cold runs.
    pub arena_misses: u64,
    /// Arena incremental re-folds.
    pub arena_incremental: u64,
    /// PST regions re-folded.
    pub regions_refolded: u64,
    /// PST regions of the re-folded functions.
    pub regions_total: u64,
    /// Instructions the gate interpreted on the best modules.
    pub interp_insts: u64,
    /// Static save/restore/jump-block instructions.
    pub spill_code_size: u64,
    /// Geometric mean of the per-module dynamic overhead ratios.
    pub spill_overhead_ratio: f64,
    /// Replay counts (traced runs only).
    pub replay: Option<ReplayCounts>,
}

impl Counts {
    fn of(passes: &[&PassOut], gate: &GateOut) -> Counts {
        let mut c = Counts {
            functions: 0,
            placed_functions: gate.placed,
            arena_hits: 0,
            arena_misses: 0,
            arena_incremental: 0,
            regions_refolded: 0,
            regions_total: 0,
            interp_insts: gate.interp_insts,
            spill_code_size: gate.spill_code_size,
            spill_overhead_ratio: stats::geomean(&gate.ratios).unwrap_or(1.0),
            replay: None,
        };
        for p in passes {
            c.functions += p.functions as u64;
            c.arena_hits += p.arena.hits;
            c.arena_misses += p.arena.misses;
            c.arena_incremental += p.arena.incremental;
            c.regions_refolded += p.arena.regions_refolded;
            c.regions_total += p.arena.regions_total;
        }
        c
    }

    fn to_json(&self) -> Json {
        let mut j = Json::obj()
            .with("functions", Json::UInt(self.functions))
            .with("placed_functions", Json::UInt(self.placed_functions))
            .with("arena_hits", Json::UInt(self.arena_hits))
            .with("arena_misses", Json::UInt(self.arena_misses))
            .with("arena_incremental", Json::UInt(self.arena_incremental))
            .with("regions_refolded", Json::UInt(self.regions_refolded))
            .with("regions_total", Json::UInt(self.regions_total))
            .with("interp_insts", Json::UInt(self.interp_insts))
            .with("spill_code_size", Json::UInt(self.spill_code_size))
            .with(
                "spill_overhead_ratio",
                Json::Float(self.spill_overhead_ratio),
            );
        if let Some(r) = &self.replay {
            j = j
                .with("regalloc_rounds", Json::UInt(r.regalloc_rounds))
                .with("spilled_vregs", Json::UInt(r.spilled_vregs))
                .with("graph_nodes", Json::UInt(r.graph_nodes))
                .with("pst_regions", Json::UInt(r.pst_regions))
                .with("train_interp_insts", Json::UInt(r.interp_insts));
        }
        j
    }
}

/// Everything a run reports.
#[derive(Debug)]
pub struct Outcome {
    /// Every output checked out.
    pub correct: bool,
    /// Functions attempted over the timed passes.
    pub attempted: u64,
    /// Functions that errored, were contained, or failed a check.
    pub failed: u64,
    /// The metrics of this run's mode, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines: notes, failures, and the layer table.
    pub notes: Vec<String>,
    /// Machine and input descriptor.
    pub descriptor: Json,
    /// The deterministic counts.
    pub counts: Json,
    /// Per-pass wall time and module latencies (in run order).
    pub passes: Json,
    /// Spans of the traced replay (traced runs only).
    pub spans: Option<Json>,
}

impl Outcome {
    /// The final result line.
    pub fn result_json(&self) -> Json {
        let mut metrics = Json::obj();
        for m in &self.metrics {
            metrics = metrics.with(
                m.name,
                Json::obj()
                    .with("value", Json::Float(m.value))
                    .with("unit", Json::str(m.unit)),
            );
        }
        Json::obj()
            .with("correct", Json::Bool(self.correct))
            .with("attempted", Json::UInt(self.attempted))
            .with("failed", Json::UInt(self.failed))
            .with("metrics", metrics)
    }
}

/// Functions of modules whose applied text differs between two passes
/// of a cold workload (every pass must produce identical output).
fn text_mismatches(first: &PassOut, other: &PassOut) -> u64 {
    first
        .modules
        .iter()
        .zip(&other.modules)
        .map(|(a, b)| match (a, b) {
            (Ok(a), Ok(b)) if a.best_text == b.best_text => 0,
            (Ok(a), _) => a.run.report.functions.len() as u64,
            (Err(_), _) => 0,
        })
        .sum()
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs one workload end to end.
pub fn run(cfg: &Config) -> Outcome {
    let mut notes = Vec::new();

    // Set-up, repeated — at least `setup_reps` times and, for a cheap
    // set-up, until two seconds have gone into it (at most 25 times); the
    // last repetition's state is measured.
    let mut setup_s: Vec<f64> = Vec::new();
    let mut prepared = None;
    while setup_s.len() < cfg.size.setup_reps.max(1)
        || (setup_s.iter().sum::<f64>() < SETUP_BUDGET_S && setup_s.len() < 25)
    {
        drop(prepared.take());
        let t = Instant::now();
        prepared = Some(Bench::setup(cfg.kind, cfg.seed, cfg.size));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let (mut bench, warm) = prepared.expect("at least one set-up");

    // Timed passes.
    let start = Instant::now();
    let mut module_ms = Vec::new();
    let mut pass_timings = Vec::new();
    let mut pass_fps = Vec::new();
    let mut attempted = 0u64;
    let mut passes = 0usize;
    let mut mismatched = 0u64;
    let mut first: Option<PassOut> = None;
    let mut last: Option<PassOut> = None;
    let mut peak_rss = 0.0;
    loop {
        let out = bench.pass(passes + 1);
        passes += 1;
        module_ms.extend_from_slice(&out.module_ms);
        pass_timings.push(Json::obj().with("wall_s", Json::Float(out.wall_s)).with(
            "module_ms",
            Json::Array(out.module_ms.iter().map(|&v| Json::Float(v)).collect()),
        ));
        pass_fps.push(out.functions as f64 / out.wall_s);
        attempted += out.functions as u64;
        match &first {
            None => first = Some(out),
            Some(f) => {
                if cfg.kind != Kind::DriftWarm {
                    mismatched += text_mismatches(f, &out);
                }
                last = Some(out);
            }
        }
        if passes == RSS_PASSES {
            peak_rss = peak_rss_mb();
        }
        if passes >= RSS_PASSES && start.elapsed().as_secs_f64() >= cfg.seconds {
            break;
        }
    }
    let first = first.expect("at least one timed pass");
    let drift = cfg.kind == Kind::DriftWarm;

    // Correctness gate, outside the timed region. The quality metrics
    // come from the first timed pass of a cold workload and from the cold
    // pass 0 of `drift_warm` (a drifted pass's placements depend on the
    // seed's drift, pass 0's only on the corpus).
    let gate_first = gate::check(&bench.corpus, &first, drift);
    let mut failed = mismatched;
    let gate_quality = if drift {
        failed += gate_first.failed.len() as u64;
        if let Some(l) = &last {
            let g = gate::check(&bench.corpus, l, true);
            failed += g.failed.len() as u64;
            notes.extend(g.messages);
        }
        let g = gate::check(&bench.corpus, &warm, false);
        failed += g.failed.len() as u64;
        notes.extend(g.messages.iter().cloned());
        g
    } else {
        // A gated failure repeats in every pass whose output matched.
        failed += gate_first.failed.len() as u64 * passes as u64;
        gate_first.clone()
    };
    notes.extend(gate_first.messages.iter().cloned());
    if mismatched > 0 {
        notes.push(format!(
            "{mismatched} function(s) produced different output in a later pass"
        ));
    }

    // Deterministic counts, computed twice.
    let mut counts = if drift {
        Counts::of(&[&warm, &first], &gate_quality)
    } else {
        Counts::of(&[&first], &gate_quality)
    };
    let counts_again = if drift {
        let (mut again, warm2) = Bench::setup(cfg.kind, cfg.seed, cfg.size);
        let first2 = again.pass(1);
        Counts::of(
            &[&warm2, &first2],
            &gate::check(&again.corpus, &warm2, false),
        )
    } else {
        Counts::of(&[&warm], &gate::check(&bench.corpus, &warm, false))
    };
    let mut counts_agree = counts == counts_again;

    let metrics;
    let mut spans = None;
    let mut replay_ok = true;
    if cfg.trace {
        match trace_metrics(&bench, &warm, &first) {
            Ok(t) => {
                counts.replay = Some(t.counts);
                counts_agree &= t.counts_agree;
                metrics = t.metrics;
                notes.extend(t.notes);
                spans = Some(t.spans);
            }
            Err(e) => {
                replay_ok = false;
                notes.push(format!("replay differs from the session: {e}"));
                metrics = PER_LAYER
                    .iter()
                    .map(|&(name, unit)| Metric {
                        name,
                        value: 0.0,
                        unit,
                    })
                    .collect();
            }
        }
    } else {
        let tail = stats::tail(&module_ms, cfg.kind.tail_percentile());
        notes.push(format!(
            "module_ms_tail is p{} of {} module samples ({} beyond it{})",
            tail.percentile,
            tail.samples,
            tail.beyond,
            if tail.beyond < 10 {
                "; fewer than ten"
            } else {
                ""
            }
        ));
        let values = [
            stats::median(&setup_s),
            stats::median(&pass_fps),
            stats::median(&module_ms),
            tail.value,
            peak_rss,
            counts.spill_overhead_ratio,
            counts.spill_code_size as f64,
        ];
        metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric { name, value, unit })
            .collect();
    }
    if !counts_agree {
        notes.push(format!(
            "deterministic counts differ between two computations: {} vs {}",
            counts.to_json().to_compact(),
            counts_again.to_json().to_compact()
        ));
    }
    notes.push(format!(
        "failed_ratio = {} ({failed} of {attempted} functions)",
        failed as f64 / attempted.max(1) as f64
    ));

    let mut mix = Json::obj();
    let mut totals = [0u64; DRIFT_KINDS.len()];
    for p in std::iter::once(&first).chain(last.as_ref()) {
        for (t, m) in totals.iter_mut().zip(p.drift_mix) {
            *t += m;
        }
    }
    for (name, n) in DRIFT_KINDS.iter().zip(totals) {
        mix = mix.with(name, Json::UInt(n));
    }
    let corpus = &bench.corpus;
    let descriptor = crate::descriptor::machine()
        .with("workload", Json::str(cfg.kind.name()))
        .with("seed", Json::UInt(cfg.seed))
        .with("held_out_seed", Json::UInt(held_out_seed(cfg.seed)))
        .with("threads", Json::UInt(cfg.kind.threads() as u64))
        .with("seconds", Json::Float(cfg.seconds))
        .with("timed_passes", Json::UInt(passes as u64))
        .with(
            "setup_reps_s",
            Json::Array(setup_s.iter().map(|&s| Json::Float(s)).collect()),
        )
        .with(
            "corpus",
            Json::obj()
                .with(
                    "targets",
                    Json::Array(corpus.targets.iter().map(|t| Json::str(t.name)).collect()),
                )
                .with("modules", Json::UInt(corpus.units.len() as u64))
                .with("functions", Json::UInt(corpus.functions() as u64))
                .with(
                    "unique_functions",
                    Json::UInt(corpus.unique_functions() as u64),
                )
                .with(
                    "placed_share",
                    Json::Float(gate_quality.placed as f64 / corpus.functions().max(1) as f64),
                )
                .with("scale", Json::UInt(cfg.size.scale as u64))
                .with("function_floor", Json::UInt(cfg.size.functions as u64))
                .with("drift_mix_first_and_last_pass", mix),
        );

    Outcome {
        correct: failed == 0 && counts_agree && replay_ok,
        attempted,
        failed,
        metrics,
        notes,
        descriptor,
        counts: counts.to_json(),
        passes: Json::Array(pass_timings),
        spans,
    }
}

/// The second seed recorded with every result, held out for checking a
/// later claim on inputs not used while the claim was developed.
pub fn held_out_seed(seed: u64) -> u64 {
    seed ^ 0x4f1d_0000_0000_0001
}

/// The traced run's products.
struct Traced {
    metrics: Vec<Metric>,
    counts: ReplayCounts,
    counts_agree: bool,
    notes: Vec<String>,
    spans: Json,
}

/// Replays the first timed pass (after `warm`, for the long-lived drift
/// session) and returns the replayer.
fn replay_pass(
    bench: &Bench,
    warm: &PassOut,
    first: &PassOut,
    traced: bool,
) -> Result<Replayer, String> {
    let corpus = &bench.corpus;
    let targets: Vec<_> = corpus.targets.iter().map(|s| s.to_target()).collect();
    let mut r = Replayer::new(false);
    let passes: Vec<&PassOut> = if bench.kind == Kind::DriftWarm {
        vec![warm, first]
    } else {
        vec![first]
    };
    let mut shared = ReplayArena::default();
    for pass in passes {
        let measured = pass.index == first.index;
        if measured {
            r.counts = ReplayCounts::default();
            r.rec.set_enabled(traced);
        }
        let mut per_target: Vec<ReplayArena> = corpus
            .targets
            .iter()
            .map(|_| ReplayArena::default())
            .collect();
        for &mi in &pass.order {
            let unit = &corpus.units[mi];
            let out = pass.modules[mi]
                .as_ref()
                .map_err(|e| format!("module {mi} failed: {e}"))?;
            let spec = &corpus.targets[unit.target];
            let (source, profiles, print) = match bench.kind {
                Kind::StressCold => (Source::Text(&unit.text), Profiles::Synthetic, true),
                Kind::SpecPgo => (
                    Source::Module(&unit.module),
                    Profiles::Train(&unit.train_runs),
                    false,
                ),
                Kind::DriftWarm => (
                    Source::Module(&unit.module),
                    Profiles::Explicit(out.profiles.as_deref().expect("drift profiles")),
                    false,
                ),
            };
            let job = ModuleJob {
                pass: pass.index,
                module: mi,
                target: &targets[unit.target],
                costs: spec.costs,
                source,
                profiles,
                print,
            };
            let expected = Expected {
                report: &out.run.report,
                applied_text: &out.best_text,
            };
            // Arena scope mirrors the sessions: per target per pass
            // (stress_cold), per module (spec_pgo), or the whole run
            // (drift_warm).
            let mut fresh = ReplayArena::default();
            let arena = match bench.kind {
                Kind::StressCold => &mut per_target[unit.target],
                Kind::SpecPgo => &mut fresh,
                Kind::DriftWarm => &mut shared,
            };
            r.module(arena, &job, Some(expected))?;
        }
    }
    Ok(r)
}

/// Checks that the round-by-round allocator replay matches `allocate`
/// on every function of the pass, under the profile the session used.
fn check_allocations(bench: &Bench, first: &PassOut) -> Result<(), String> {
    for (mi, (unit, out)) in bench.corpus.units.iter().zip(&first.modules).enumerate() {
        let out = out
            .as_ref()
            .map_err(|e| format!("module {mi} failed: {e}"))?;
        let target = bench.corpus.targets[unit.target].to_target();
        let trained = (bench.kind == Kind::SpecPgo).then(|| {
            let mut vm = Machine::new(&unit.module, &target);
            vm.set_fuel(1 << 30);
            for (f, args) in &unit.train_runs {
                let _ = vm.call(*f, args);
            }
            vm
        });
        for (fid, func) in unit.module.funcs() {
            let profile = match (&out.profiles, &trained) {
                (Some(p), _) => p[fid.index()].clone(),
                (_, Some(vm)) => vm.edge_profile(fid),
                _ => synthetic_profile(func, FuncId::from_index(fid.index())),
            };
            if !allocation_matches(func, &target, &profile) {
                return Err(format!(
                    "module {mi} function `{}`: allocator replay differs from allocate",
                    func.name()
                ));
            }
        }
    }
    Ok(())
}

/// Sum of `Session::optimize_profiled` wall times over the first timed
/// pass on a serial twin of the drift session (same pass 0, same
/// profiles): the single-thread work the replay's layers are subtracted
/// from.
fn serial_drift_ms(bench: &Bench, warm: &PassOut, first: &PassOut) -> Result<f64, String> {
    let session = default_session(&bench.corpus.targets[0], 1);
    let mut ms = 0.0;
    for pass in [warm, first] {
        for (unit, out) in bench.corpus.units.iter().zip(&pass.modules) {
            let out = out.as_ref().map_err(Clone::clone)?;
            let profiles = out.profiles.as_deref().expect("drift profiles");
            let t = Instant::now();
            let run = session
                .optimize_profiled(&unit.module, profiles)
                .map_err(|e| e.to_string())?;
            if pass.index == first.index {
                ms += t.elapsed().as_secs_f64() * 1e3;
                if run.report.to_json().to_compact() != out.run.report.to_json().to_compact() {
                    return Err("serial twin report differs from the drift session's".into());
                }
            }
        }
    }
    Ok(ms)
}

fn trace_metrics(bench: &Bench, warm: &PassOut, first: &PassOut) -> Result<Traced, String> {
    let traced = replay_pass(bench, warm, first, true)?;
    let again = replay_pass(bench, warm, first, false)?;
    check_allocations(bench, first)?;
    let counts = traced.counts;
    let counts_agree = counts == again.counts;
    let rec = &traced.rec;
    let arena = first.arena;
    if (arena.hits, arena.misses, arena.incremental)
        != (
            counts.arena_hits,
            counts.arena_misses,
            counts.arena_incremental,
        )
    {
        return Err(format!(
            "arena triage differs: session {}/{}/{} hits/misses/incremental, replay {}/{}/{}",
            arena.hits,
            arena.misses,
            arena.incremental,
            counts.arena_hits,
            counts.arena_misses,
            counts.arena_incremental
        ));
    }

    let optimize_ms: f64 = first
        .modules
        .iter()
        .filter_map(|m| m.as_ref().ok())
        .map(|m| m.optimize_ms)
        .sum();
    let work_ms = if bench.kind.threads() > 1 {
        serial_drift_ms(bench, warm, first)?
    } else {
        optimize_ms
    };
    let layers_ms: f64 = SESSION_LAYERS.iter().map(|l| rec.total_ms(l)).sum();
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let lookups = arena.hits + arena.misses + arena.incremental;
    let ms = |name: &str| rec.total_ms(name);
    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    for &(name, unit) in PER_LAYER.iter() {
        if unit == "ms" {
            if let Some(span) = name.strip_suffix("_ms") {
                values.insert(name, ms(span));
            }
        }
    }
    values.insert("profile.interp_insts", counts.interp_insts as f64);
    values.insert("regalloc.rounds", counts.regalloc_rounds as f64);
    values.insert("regalloc.spilled_vregs", counts.spilled_vregs as f64);
    values.insert("regalloc.graph_nodes", counts.graph_nodes as f64);
    values.insert("pst.regions", counts.pst_regions as f64);
    values.insert(
        "core.refold_ratio",
        ratio(counts.regions_refolded, counts.regions_total),
    );
    values.insert("core.regions_refolded", counts.regions_refolded as f64);
    values.insert("core.regions_total", counts.regions_total as f64);
    values.insert(
        "core.placed_share",
        ratio(counts.placed_functions, counts.functions),
    );
    values.insert("driver.optimize_ms", optimize_ms);
    values.insert("driver.self_ms", work_ms - layers_ms);
    values.insert("driver.arena_hits", arena.hits as f64);
    values.insert("driver.arena_misses", arena.misses as f64);
    values.insert("driver.arena_incremental", arena.incremental as f64);
    values.insert("driver.arena_hit_ratio", ratio(arena.hits, lookups));
    values.insert("driver.pool_items", first.pool.items as f64);
    values.insert("driver.pool_busy_ms", first.pool.busy_ns as f64 / 1e6);
    values.insert("driver.pool_idle_ms", first.pool.idle_ns as f64 / 1e6);
    values.insert(
        "trace.overhead_ratio",
        rec.root_ns() as f64 / 1e9 / first.wall_s,
    );
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: values[name],
            unit,
        })
        .collect();

    let mut notes = vec![format!(
        "driver.self_ms = {work_ms:.3} ms of {} optimize work - {layers_ms:.3} ms in replayed layers",
        if bench.kind.threads() > 1 {
            "serial-twin"
        } else {
            "session"
        }
    )];
    notes.push(format!(
        "{:<24} {:>6} {:>12} {:>12}",
        "span", "count", "total_ms", "self_ms"
    ));
    for (name, t) in rec.layer_times() {
        notes.push(format!(
            "{:<24} {:>6} {:>12.3} {:>12.3}",
            name,
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        ));
    }
    Ok(Traced {
        metrics,
        counts,
        counts_agree,
        notes,
        spans: rec.to_json(),
    })
}
