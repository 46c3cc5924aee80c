//! The traced replay: one pass re-run by calling each crate's public
//! functions in pipeline order, each call timed from outside.
//!
//! The replay mirrors what a default (arena-on) `Session` does per
//! function — the two-level arena triage included — so its layer times
//! describe the same work the session's `optimize` wall time covers:
//!
//! * an unseen function text runs cold: profile → `allocate` (replayed
//!   round by round) → `AnalysisCache::compute` → SCCs, PST, dense CFG →
//!   `run_suite_memoized`;
//! * a seen text under a seen profile is a wholesale hit (no layer runs);
//! * a seen text under a drifted profile re-allocates only when the
//!   allocator's weights changed, then either re-folds incrementally
//!   (`run_suite_incremental`) or replaces the structure cold.
//!
//! Each technique (`run_technique`) and `check_placement` are replayed on
//! top of the suite as an attribution breakdown only; the session does not
//! run them separately, so they are not subtracted from its wall time.
//!
//! Every replayed function is compared with the session's report, and the
//! replayed insertion with the session's applied module text; any
//! difference is returned as an error, so layer numbers never describe a
//! different program than the end-to-end run.

use crate::trace::{Recorder, WorkId};
use spillopt_core::{
    check_placement, insert_placement, run_suite_incremental, run_suite_memoized, run_technique,
    Cost, Placement, PlacementMemo, PlacementSuite, SpillCostModel, SuiteInputs, SuiteOptions,
    Technique,
};
use spillopt_driver::{AnalysisCache, ModuleReport, ProfileSource, Strategy};
use spillopt_ir::{
    display::module_to_string, parse_module, verify_function, verify_module, Cfg, DenseBitSet,
    FuncId, Function, Liveness, Module, RegDiscipline, Target,
};
use spillopt_profile::{random_walk_profile, EdgeProfile, Machine, ProfileDelta};
use spillopt_regalloc::{apply_coloring, color, insert_spill_code, InterferenceGraph};
use std::collections::HashMap;

/// Layer spans the session's own `optimize` call also runs; their sum is
/// subtracted from its wall time to give the driver's self time.
pub const SESSION_LAYERS: [&str; 9] = [
    "profile.synth",
    "profile.interp",
    "regalloc.allocate",
    "cache.compute",
    "cache.cyclic",
    "pst.build",
    "cache.derived",
    "core.suite",
    "core.incremental",
];

/// Where a replayed module's per-function profiles come from (the
/// session's `ProfileSource` of the workload).
#[derive(Clone, Copy, Debug)]
pub enum Profiles<'a> {
    /// The default synthetic random walks.
    Synthetic,
    /// Train runs interpreted on the virtual module.
    Train(&'a [(FuncId, Vec<i64>)]),
    /// Explicit per-function profiles.
    Explicit(&'a [EdgeProfile]),
}

/// The module a replay starts from.
#[derive(Clone, Copy, Debug)]
pub enum Source<'a> {
    /// IR text, parsed and verified inside the replay.
    Text(&'a str),
    /// An in-memory module.
    Module(&'a Module),
}

/// Work counts accumulated over a replay. Deterministic: two replays of
/// the same pass must agree exactly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplayCounts {
    /// Allocation rounds (build/color/spill iterations).
    pub regalloc_rounds: u64,
    /// Virtual registers spilled.
    pub spilled_vregs: u64,
    /// Interference-graph nodes summed over rounds.
    pub graph_nodes: u64,
    /// PST regions of the functions whose PST was built.
    pub pst_regions: u64,
    /// Instructions interpreted for train runs.
    pub interp_insts: u64,
    /// Functions with a placement (callee-saved use).
    pub placed_functions: u64,
    /// Functions replayed.
    pub functions: u64,
    /// Wholesale arena hits.
    pub arena_hits: u64,
    /// Cold pipeline runs.
    pub arena_misses: u64,
    /// Incremental re-folds.
    pub arena_incremental: u64,
    /// PST regions re-folded by incremental calls.
    pub regions_refolded: u64,
    /// PST regions of the functions incremental calls touched.
    pub regions_total: u64,
}

/// One function's retired outcome: what the session's report states
/// about it, plus the allocated function and its placements.
#[derive(Clone, Debug)]
struct Outcome {
    spilled_vregs: usize,
    callee_saved: usize,
    strategies: Vec<(Strategy, Cost, usize, Placement)>,
    best: Option<Strategy>,
    func: Function,
}

/// One cached function structure (mirror of the session's arena entry).
struct Entry {
    func: Function,
    func_text: String,
    spilled_vregs: usize,
    weights: Vec<u64>,
    cache: AnalysisCache,
    memo: Option<PlacementMemo>,
    outcomes: HashMap<(u64, Vec<u64>), Outcome>,
}

/// The replay's arena, keyed like the session's by pre-allocation text.
#[derive(Default)]
pub struct ReplayArena {
    entries: HashMap<String, Entry>,
}

impl std::fmt::Debug for ReplayArena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplayArena")
            .field("entries", &self.entries.len())
            .finish()
    }
}

/// Replays passes, recording spans into a [`Recorder`].
#[derive(Debug)]
pub struct Replayer {
    /// The span recorder.
    pub rec: Recorder,
    /// Counts accumulated so far.
    pub counts: ReplayCounts,
}

/// What the session produced for one module, to compare against.
#[derive(Clone, Copy, Debug)]
pub struct Expected<'a> {
    /// The session's report.
    pub report: &'a ModuleReport,
    /// The session's applied (best placement) module text.
    pub applied_text: &'a str,
}

/// One module to replay.
#[derive(Clone, Copy, Debug)]
pub struct ModuleJob<'a> {
    /// Pass and module index for span ids.
    pub pass: usize,
    /// Module index within the pass.
    pub module: usize,
    /// Target convention.
    pub target: &'a Target,
    /// The target's spill-cost model.
    pub costs: SpillCostModel,
    /// Input module.
    pub source: Source<'a>,
    /// Profile source.
    pub profiles: Profiles<'a>,
    /// Whether the workload prints the applied module (text out).
    pub print: bool,
}

fn alloc_weights(func: &Function, profile: &EdgeProfile) -> Vec<u64> {
    func.block_ids()
        .map(|b| profile.block_count(b).max(1))
        .collect()
}

fn profile_key(profile: &EdgeProfile) -> (u64, Vec<u64>) {
    (profile.entry_count(), profile.edge_counts().to_vec())
}

fn technique_span(technique: Technique) -> &'static str {
    match technique {
        Technique::EntryExit => "core.entry_exit",
        Technique::Chow => "core.chow",
        Technique::HierExec => "core.hier_exec",
        Technique::HierJump => "core.hier_jump",
    }
}

impl Replayer {
    /// A replayer with a recorder that keeps spans (`traced`) or not.
    pub fn new(traced: bool) -> Self {
        Replayer {
            rec: Recorder::new(traced),
            counts: ReplayCounts::default(),
        }
    }

    /// Replays one module and checks it against the session's outputs.
    ///
    /// # Errors
    ///
    /// Returns a description of the first difference from the session,
    /// or of a failing input (parse, verify, train run).
    pub fn module(
        &mut self,
        arena: &mut ReplayArena,
        job: &ModuleJob<'_>,
        expected: Option<Expected<'_>>,
    ) -> Result<(), String> {
        let mid = WorkId {
            pass: job.pass,
            module: job.module,
            function: None,
        };
        self.rec.span("module", mid, |rec| {
            let mut this = ReplayerRef {
                rec,
                counts: &mut self.counts,
            };
            this.module(arena, job, expected, mid)
        })
    }
}

/// A borrowed view used inside the module span.
struct ReplayerRef<'r> {
    rec: &'r mut Recorder,
    counts: &'r mut ReplayCounts,
}

impl ReplayerRef<'_> {
    fn module(
        &mut self,
        arena: &mut ReplayArena,
        job: &ModuleJob<'_>,
        expected: Option<Expected<'_>>,
        mid: WorkId,
    ) -> Result<(), String> {
        let parsed;
        let module = match job.source {
            Source::Text(text) => {
                parsed = self
                    .rec
                    .span("ir.parse", mid, |_| parse_module(text))
                    .map_err(|e| format!("parse: {e}"))?;
                let errors = self.rec.span("ir.verify", mid, |_| {
                    verify_module(&parsed, RegDiscipline::Virtual)
                });
                if !errors.is_empty() {
                    return Err(format!("verify: {errors:?}"));
                }
                &parsed
            }
            Source::Module(m) => m,
        };
        let trained: Option<Vec<EdgeProfile>> = match job.profiles {
            Profiles::Train(runs) => Some(self.rec.span("profile.interp", mid, |_| {
                let mut vm = Machine::new(module, job.target);
                vm.set_fuel(1 << 30);
                for (f, args) in runs {
                    vm.call(*f, args).map_err(|e| format!("train run: {e}"))?;
                }
                self.counts.interp_insts += vm.counts().total;
                Ok::<_, String>(module.func_ids().map(|f| vm.edge_profile(f)).collect())
            })?),
            _ => None,
        };

        let mut outcomes = Vec::with_capacity(module.num_funcs());
        for fid in module.func_ids() {
            let id = WorkId {
                function: Some(fid.index()),
                ..mid
            };
            let outcome = self.rec.span("function", id, |rec| {
                let mut this = ReplayerRef {
                    rec,
                    counts: &mut *self.counts,
                };
                let profile = match (job.profiles, &trained) {
                    (Profiles::Explicit(p), _) => p[fid.index()].clone(),
                    (_, Some(t)) => t[fid.index()].clone(),
                    _ => this.rec.span("profile.synth", id, |_| {
                        synthetic_profile(module.func(fid), fid)
                    }),
                };
                this.function(arena, job, module.func(fid), profile, id)
            })?;
            self.counts.functions += 1;
            if !outcome.strategies.is_empty() {
                self.counts.placed_functions += 1;
            }
            outcomes.push(outcome);
        }

        let applied = self
            .rec
            .span("core.insert", mid, |_| apply(module.name(), &outcomes))?;
        let text = if job.print {
            self.rec
                .span("ir.display", mid, |_| module_to_string(&applied))
        } else {
            module_to_string(&applied)
        };
        if let Some(exp) = expected {
            compare(exp.report, &outcomes)?;
            if text != exp.applied_text {
                return Err(format!(
                    "module `{}`: replayed applied text differs from the session's",
                    module.name()
                ));
            }
        }
        Ok(())
    }

    /// One function through the arena triage.
    fn function(
        &mut self,
        arena: &mut ReplayArena,
        job: &ModuleJob<'_>,
        source: &Function,
        profile: EdgeProfile,
        id: WorkId,
    ) -> Result<Outcome, String> {
        let text = source.to_string();
        let key = profile_key(&profile);
        let Some(entry) = arena.entries.get_mut(&text) else {
            self.counts.arena_misses += 1;
            let entry = self.cold(job, source, profile, id)?;
            let outcome = entry.outcomes[&key].clone();
            arena.entries.insert(text, entry);
            return Ok(outcome);
        };
        if let Some(outcome) = entry.outcomes.get(&key) {
            self.counts.arena_hits += 1;
            return Ok(outcome.clone());
        }
        let weights = alloc_weights(source, &profile);
        let unchanged = weights == entry.weights || {
            let mut func = source.clone();
            let spilled = self.allocate(&mut func, job.target, &profile, id);
            spilled == entry.spilled_vregs && func.to_string() == entry.func_text
        };
        if unchanged {
            entry.weights = weights;
            self.counts.arena_incremental += 1;
            let suite = match entry.memo.as_mut() {
                Some(memo) => {
                    let delta = ProfileDelta::between(&entry.cache.profile, &profile);
                    let cache = &entry.cache;
                    let (suite, refolds) = self
                        .rec
                        .span("core.incremental", id, |_| {
                            let inputs = SuiteInputs::analyzed(
                                &cache.usage,
                                &profile,
                                cache.cyclic(),
                                cache.pst(),
                                cache.derived(),
                            );
                            run_suite_incremental(
                                &cache.cfg,
                                &inputs,
                                &SuiteOptions::priced(job.costs),
                                memo,
                                &delta,
                            )
                        })
                        .map_err(|e| e.to_string())?;
                    self.counts.regions_refolded += refolds.regions_refolded as u64;
                    self.counts.regions_total += refolds.regions_total as u64;
                    Some(suite)
                }
                None => None,
            };
            entry.cache.profile = profile;
            let outcome = outcome_of(&entry.func, entry.spilled_vregs, &entry.cache, suite);
            entry.outcomes.insert(key, outcome.clone());
            return Ok(outcome);
        }
        self.counts.arena_misses += 1;
        *entry = self.cold(job, source, profile, id)?;
        Ok(entry.outcomes[&key].clone())
    }

    /// The cold pipeline for one function, packaged as an arena entry
    /// holding its single outcome.
    fn cold(
        &mut self,
        job: &ModuleJob<'_>,
        source: &Function,
        profile: EdgeProfile,
        id: WorkId,
    ) -> Result<Entry, String> {
        let key = profile_key(&profile);
        let weights = alloc_weights(source, &profile);
        let mut func = source.clone();
        let spilled_vregs = self.allocate(&mut func, job.target, &profile, id);
        let cache = self.rec.span("cache.compute", id, |_| {
            AnalysisCache::compute(&func, job.target, profile)
        });
        let (suite, memo) = if cache.needs_placement() {
            self.rec.span("cache.cyclic", id, |_| cache.cyclic().len());
            let regions = self
                .rec
                .span("pst.build", id, |_| cache.pst().num_regions());
            self.counts.pst_regions += regions as u64;
            self.rec
                .span("cache.derived", id, |_| cache.derived().num_blocks());
            let options = SuiteOptions::priced(job.costs);
            let inputs = SuiteInputs::analyzed(
                &cache.usage,
                &cache.profile,
                cache.cyclic(),
                cache.pst(),
                cache.derived(),
            );
            let (suite, memo) = self
                .rec
                .span("core.suite", id, |_| {
                    run_suite_memoized(&cache.cfg, &inputs, &options)
                })
                .map_err(|e| e.to_string())?;
            for technique in [
                Technique::EntryExit,
                Technique::Chow,
                Technique::HierExec,
                Technique::HierJump,
            ] {
                self.rec
                    .span(technique_span(technique), id, |_| {
                        run_technique(&cache.cfg, &inputs, &options, technique)
                    })
                    .map_err(|e| e.to_string())?;
            }
            self.rec.span("core.validate", id, |_| {
                for p in [
                    &suite.entry_exit,
                    &suite.chow,
                    &suite.hierarchical_exec.placement,
                    &suite.hierarchical_jump.placement,
                ] {
                    let errors = check_placement(&cache.cfg, &cache.usage, p);
                    if !errors.is_empty() {
                        return Err(format!("invalid placement: {errors:?}"));
                    }
                }
                Ok(())
            })?;
            (Some(suite), Some(memo))
        } else {
            (None, None)
        };
        let outcome = outcome_of(&func, spilled_vregs, &cache, suite);
        let mut outcomes = HashMap::new();
        outcomes.insert(key, outcome);
        Ok(Entry {
            func_text: func.to_string(),
            func,
            spilled_vregs,
            weights,
            cache,
            memo,
            outcomes,
        })
    }

    /// `spillopt_regalloc::allocate`, replayed round by round from its
    /// public stages. Returns the spilled-vreg count.
    fn allocate(
        &mut self,
        func: &mut Function,
        target: &Target,
        profile: &EdgeProfile,
        id: WorkId,
    ) -> usize {
        let counts = &mut *self.counts;
        self.rec.span("regalloc.allocate", id, |rec| {
            let cfg = Cfg::compute(func);
            let weights = alloc_weights(func, profile);
            let mut no_spill = DenseBitSet::new(func.num_vregs());
            let mut spilled = 0;
            for _ in 0..16 {
                counts.regalloc_rounds += 1;
                let liveness = rec.span("regalloc.liveness", id, |_| {
                    Liveness::compute(func, &cfg, target)
                });
                let graph = rec.span("regalloc.interfere", id, |_| {
                    InterferenceGraph::build(func, &cfg, target, &liveness, &weights)
                });
                counts.graph_nodes += graph.num_nodes() as u64;
                let mut ns = DenseBitSet::new(func.num_vregs());
                for i in no_spill.iter() {
                    ns.insert(i);
                }
                let coloring = rec.span("regalloc.color", id, |_| color(&graph, target, &ns));
                if coloring.spills.is_empty() {
                    rec.span("regalloc.rewrite", id, |_| {
                        apply_coloring(func, &coloring.assignment)
                    });
                    counts.spilled_vregs += spilled as u64;
                    return spilled;
                }
                spilled += coloring.spills.len();
                let temps = rec.span("regalloc.spill", id, |_| {
                    insert_spill_code(func, &coloring.spills)
                });
                no_spill = DenseBitSet::new(func.num_vregs());
                for i in ns.iter().chain(temps.iter()) {
                    no_spill.insert(i);
                }
            }
            panic!("register allocation did not converge for `{}`", func.name());
        })
    }
}

/// The session's synthetic profile for one function (the default
/// `ProfileSource`, function index mixed into the seed).
pub fn synthetic_profile(func: &Function, fid: FuncId) -> EdgeProfile {
    let ProfileSource::Synthetic {
        walks,
        max_steps,
        seed,
    } = ProfileSource::default()
    else {
        unreachable!("the default profile source is synthetic")
    };
    let cfg = Cfg::compute(func);
    random_walk_profile(
        &cfg,
        walks,
        max_steps,
        seed ^ (fid.index() as u64).wrapping_mul(0x9e37_79b9),
    )
}

/// The report-visible outcome of one function under the suite.
fn outcome_of(
    func: &Function,
    spilled_vregs: usize,
    cache: &AnalysisCache,
    suite: Option<PlacementSuite>,
) -> Outcome {
    let mut strategies = Vec::new();
    if let Some(suite) = suite {
        let placements = [
            suite.entry_exit,
            suite.chow,
            suite.hierarchical_exec.placement,
            suite.hierarchical_jump.placement,
        ];
        for ((strategy, placement), cost) in Strategy::all()
            .into_iter()
            .zip(placements)
            .zip(suite.predicted)
        {
            strategies.push((strategy, cost, placement.static_count(), placement));
        }
    }
    let best = strategies.iter().min_by_key(|s| s.1).map(|s| s.0);
    Outcome {
        spilled_vregs,
        callee_saved: cache.usage.num_regs(),
        strategies,
        best,
        func: func.clone(),
    }
}

/// Inserts each function's best placement (as `ModuleRun::apply(None)`
/// does) and verifies the physical discipline.
fn apply(name: &str, outcomes: &[Outcome]) -> Result<Module, String> {
    let mut out = Module::new(name);
    for o in outcomes {
        let mut func = o.func.clone();
        let strategy = o.best.unwrap_or(Strategy::HierJump);
        if let Some((_, _, _, placement)) = o.strategies.iter().find(|s| s.0 == strategy) {
            let cfg = Cfg::compute(&func);
            insert_placement(&mut func, &cfg, placement);
        }
        let errors = verify_function(&func, RegDiscipline::Physical);
        if !errors.is_empty() {
            return Err(format!("replayed `{}` invalid: {errors:?}", func.name()));
        }
        out.add_func(func);
    }
    Ok(out)
}

/// Compares replayed outcomes with the session's report.
fn compare(report: &ModuleReport, outcomes: &[Outcome]) -> Result<(), String> {
    if report.functions.len() != outcomes.len() {
        return Err(format!(
            "module `{}`: {} reported functions, {} replayed",
            report.module,
            report.functions.len(),
            outcomes.len()
        ));
    }
    for (f, o) in report.functions.iter().zip(outcomes) {
        let same_strategies = f.strategies.len() == o.strategies.len()
            && f.strategies.iter().zip(&o.strategies).all(|(s, r)| {
                s.strategy == r.0 && s.cost == r.1 && s.static_count == r.2 && s.placement == r.3
            });
        if f.spilled_vregs != o.spilled_vregs
            || f.callee_saved != o.callee_saved
            || f.best != o.best
            || !same_strategies
        {
            return Err(format!(
                "module `{}` function `{}`: replay differs from the session's report",
                report.module, f.name
            ));
        }
    }
    Ok(())
}

/// Checks that the round-by-round replay of the allocator yields the same
/// function text as `spillopt_regalloc::allocate` on `source`.
pub fn allocation_matches(source: &Function, target: &Target, profile: &EdgeProfile) -> bool {
    let mut direct = source.clone();
    let result = spillopt_regalloc::allocate(&mut direct, target, Some(profile));
    let mut replayed = source.clone();
    let mut scratch = Replayer::new(false);
    let id = WorkId {
        pass: 0,
        module: 0,
        function: None,
    };
    let spilled = ReplayerRef {
        rec: &mut scratch.rec,
        counts: &mut scratch.counts,
    }
    .allocate(&mut replayed, target, profile, id);
    spilled == result.spilled_vregs && replayed.to_string() == direct.to_string()
}
