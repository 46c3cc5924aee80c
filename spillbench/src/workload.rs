//! The three workloads: corpus set-up, one timed pass, and the drift
//! mutations of `drift_warm`.
//!
//! * `stress_cold` — the stress corpus (`corpus_for`'s default: whole
//!   cases from consecutive generator seeds starting at 0 until at least
//!   `functions` functions, at `scale`) on every registered target, as IR
//!   text. Each pass builds a fresh default session per target at one
//!   thread and sends every module, in a seeded order, through text →
//!   parse → verify → optimize → apply → print.
//! * `spec_pgo` — the eleven SPEC CPU2000 int stand-ins on the PA-RISC-like
//!   target, profiled by their train runs. Each module gets a fresh
//!   default session at one thread (a workload profile names one module's
//!   functions) and is applied under its best placement and under the
//!   entry/exit baseline; the seed orders the modules of each pass.
//! * `drift_warm` — one long-lived default session at two threads over the
//!   PA-RISC-like stress corpus. Pass 0 (set-up) is cold; each later pass
//!   drifts a seeded share of the functions' profiles and re-optimizes
//!   every module with `optimize_profiled`.
//!
//! The corpora are fixed: the seed draws the module order and the drift,
//! not the modules. A seeded corpus window of this size changes the work
//! itself — per-seed throughput moved by a sixth and the median module
//! latency by a factor of five — far beyond any bound a later change
//! could be judged against.

use spillopt_benchgen::{all_benchmarks, build_bench};
use spillopt_driver::{
    ArenaStats, BenchConfig, ModuleRun, OptimizerBuilder, ProfileSource, Session, Strategy,
};
use spillopt_ir::RegDiscipline;
use spillopt_ir::{display::module_to_string, parse_module, verify_module, Cfg, FuncId, Module};
use spillopt_profile::EdgeProfile;
use spillopt_stress::gen_case_scaled;
use spillopt_targets::{pa_risc_like, registry, TargetSpec};
use std::time::Instant;

/// A workload of the benchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// First compile of stress modules through the text path.
    StressCold,
    /// The paper's evaluation: SPEC stand-ins under train-run profiles.
    SpecPgo,
    /// Profile drift against one warm session.
    DriftWarm,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 3] = [Kind::StressCold, Kind::SpecPgo, Kind::DriftWarm];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::StressCold => "stress_cold",
            Kind::SpecPgo => "spec_pgo",
            Kind::DriftWarm => "drift_warm",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The percentile `module_ms_tail` reports, fixed per workload so a
    /// slower run compares the same percentile. Each is the highest of
    /// p99, p95, p90 that keeps at least ten samples beyond it at a third
    /// of the measured speed over 15 seconds (`stress_cold` about 5,200
    /// module samples, `spec_pgo` about 1,600, `drift_warm` about 7,800).
    pub fn tail_percentile(self) -> f64 {
        match self {
            Kind::SpecPgo => 95.0,
            _ => 99.0,
        }
    }

    /// Session threads: one for the cold workloads; two (at most the
    /// machine's parallelism) for `drift_warm`.
    pub fn threads(self) -> usize {
        match self {
            Kind::DriftWarm => std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .min(2),
            _ => 1,
        }
    }
}

/// How much work one run does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Size {
    /// Minimum functions per target in the stress corpus.
    pub functions: usize,
    /// Function-size multiplier of the stress generator.
    pub scale: u32,
    /// How many SPEC stand-ins to run (all eleven at full size).
    pub spec_benches: usize,
    /// Minimum set-up repetitions per run (their median is `setup_s`).
    pub setup_reps: usize,
}

impl Size {
    /// The measured size.
    pub fn full() -> Self {
        Size {
            functions: 200,
            scale: 32,
            spec_benches: 11,
            setup_reps: 3,
        }
    }

    /// A seconds-long size for the benchmark's own tests.
    pub fn smoke() -> Self {
        Size {
            functions: 6,
            scale: 2,
            spec_benches: 2,
            setup_reps: 1,
        }
    }
}

/// One module of a corpus.
#[derive(Clone, Debug)]
pub struct Unit {
    /// Index into [`Corpus::targets`].
    pub target: usize,
    /// The virtual-register source module.
    pub module: Module,
    /// Its IR text (`stress_cold` only; empty otherwise).
    pub text: String,
    /// Runs the correctness gate interprets: stress case runs, or SPEC
    /// ref runs.
    pub gate_runs: Vec<(FuncId, Vec<i64>)>,
    /// SPEC train runs (empty for stress modules).
    pub train_runs: Vec<(FuncId, Vec<i64>)>,
}

/// A workload's input.
#[derive(Clone, Debug)]
pub struct Corpus {
    /// The targets modules are compiled for.
    pub targets: Vec<TargetSpec>,
    /// The modules, grouped by target.
    pub units: Vec<Unit>,
}

impl Corpus {
    /// Total functions.
    pub fn functions(&self) -> usize {
        self.units.iter().map(|u| u.module.num_funcs()).sum()
    }

    /// Distinct function texts per target, summed over targets.
    pub fn unique_functions(&self) -> usize {
        let mut seen = std::collections::HashSet::new();
        for u in &self.units {
            for (_, f) in u.module.funcs() {
                seen.insert((u.target, f.to_string()));
            }
        }
        seen.len()
    }
}

/// SplitMix64, the benchmark's seeded stream (inputs only; the program
/// never sees it).
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A stream keyed by `parts`.
    pub fn keyed(parts: &[u64]) -> Self {
        let mut r = Rng(0x5b1d_be7c_0ffe_e000);
        for &p in parts {
            r.0 ^= p;
            r.next_u64();
        }
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// A seeded permutation of `0..n`.
pub fn permutation(n: usize, rng: &mut Rng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    order
}

/// The stress corpus for `specs`: whole cases from consecutive generator
/// seeds, starting where `corpus_for` starts, until each target has at
/// least `size.functions` functions.
pub fn stress_corpus(specs: Vec<TargetSpec>, size: &Size, render: bool) -> Corpus {
    let mut units = Vec::new();
    for (ti, spec) in specs.iter().enumerate() {
        let target = spec.to_target();
        let mut functions = 0;
        let mut s = BenchConfig::default().seed_start;
        while functions < size.functions {
            let case = gen_case_scaled(&target, s, size.scale);
            functions += case.module.num_funcs();
            units.push(Unit {
                target: ti,
                text: if render {
                    module_to_string(&case.module)
                } else {
                    String::new()
                },
                module: case.module,
                gate_runs: case.runs,
                train_runs: Vec::new(),
            });
            s += 1;
        }
    }
    Corpus {
        targets: specs,
        units,
    }
}

/// The SPEC stand-ins on the PA-RISC-like target.
pub fn spec_corpus(size: &Size) -> Corpus {
    let spec = pa_risc_like();
    let target = spec.to_target();
    let units = all_benchmarks()
        .iter()
        .take(size.spec_benches)
        .map(|b| {
            let gb = build_bench(b, &target);
            Unit {
                target: 0,
                module: gb.module,
                text: String::new(),
                gate_runs: gb.ref_runs,
                train_runs: gb.train_runs,
            }
        })
        .collect();
    Corpus {
        targets: vec![spec],
        units,
    }
}

/// One module's products in a pass.
#[derive(Debug)]
pub struct ModuleOut {
    /// The session's run.
    pub run: ModuleRun,
    /// The module applied under each function's best placement.
    pub best: Module,
    /// Its text.
    pub best_text: String,
    /// Wall time of the `Session::optimize*` call, in milliseconds.
    pub optimize_ms: f64,
    /// The explicit profiles the module was optimized under
    /// (`drift_warm`).
    pub profiles: Option<Vec<EdgeProfile>>,
}

/// Pool activity summed over a session's workers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolTotals {
    /// Jobs executed.
    pub items: u64,
    /// Nanoseconds spent running jobs.
    pub busy_ns: u64,
    /// Nanoseconds spent waiting for work.
    pub idle_ns: u64,
}

impl PoolTotals {
    fn of(session: &Session) -> Self {
        let mut t = PoolTotals::default();
        for w in session.stats().pool_workers {
            t.items += w.items;
            t.busy_ns += w.busy_ns;
            t.idle_ns += w.idle_ns;
        }
        t
    }

    fn minus(self, before: PoolTotals) -> Self {
        PoolTotals {
            items: self.items - before.items,
            busy_ns: self.busy_ns - before.busy_ns,
            idle_ns: self.idle_ns - before.idle_ns,
        }
    }
}

/// Arena counters added over sessions (or differenced within one).
pub fn arena_add(a: ArenaStats, b: ArenaStats) -> ArenaStats {
    ArenaStats {
        entries: a.entries + b.entries,
        hits: a.hits + b.hits,
        misses: a.misses + b.misses,
        incremental: a.incremental + b.incremental,
        evictions: a.evictions + b.evictions,
        regions_refolded: a.regions_refolded + b.regions_refolded,
        regions_total: a.regions_total + b.regions_total,
        quarantined: a.quarantined + b.quarantined,
    }
}

fn arena_minus(a: ArenaStats, b: ArenaStats) -> ArenaStats {
    ArenaStats {
        entries: a.entries,
        hits: a.hits - b.hits,
        misses: a.misses - b.misses,
        incremental: a.incremental - b.incremental,
        evictions: a.evictions - b.evictions,
        regions_refolded: a.regions_refolded - b.regions_refolded,
        regions_total: a.regions_total - b.regions_total,
        quarantined: a.quarantined - b.quarantined,
    }
}

/// The drift kinds, in mix order.
pub const DRIFT_KINDS: [&str; 5] = [
    "unchanged",
    "entry_bumped",
    "edge_bumped",
    "rerandomized",
    "moved",
];

/// One pass's products and timings.
#[derive(Debug)]
pub struct PassOut {
    /// Pass number (`0` is the set-up pass).
    pub index: usize,
    /// Wall time of the timed part of the pass, in seconds.
    pub wall_s: f64,
    /// Per-module latency of the timed call sequence, in milliseconds,
    /// in the order the modules ran.
    pub module_ms: Vec<f64>,
    /// Functions optimized.
    pub functions: usize,
    /// The order the modules ran in (indices into the corpus).
    pub order: Vec<usize>,
    /// Per-module products in corpus order (`Err` when the module's
    /// sequence failed).
    pub modules: Vec<Result<ModuleOut, String>>,
    /// Arena counters of the pass.
    pub arena: ArenaStats,
    /// Pool activity of the pass.
    pub pool: PoolTotals,
    /// Drift kinds applied before this pass (`drift_warm` only).
    pub drift_mix: [u64; 5],
}

/// A set-up workload, ready for timed passes.
#[derive(Debug)]
pub struct Bench {
    /// Which workload.
    pub kind: Kind,
    /// The run's seed.
    pub seed: u64,
    /// The run's size.
    pub size: Size,
    /// The input.
    pub corpus: Corpus,
    /// `drift_warm`'s long-lived session and current profiles.
    drift: Option<(Session, Vec<Vec<EdgeProfile>>)>,
}

/// Builds a default session for `spec` at `threads` threads.
fn session(spec: &TargetSpec, threads: usize, profile: Option<ProfileSource>) -> Session {
    let mut b = OptimizerBuilder::new()
        .target_spec(spec.clone())
        .threads(threads);
    if let Some(p) = profile {
        b = b.profile(p);
    }
    b.build()
        .expect("a registered target and the default techniques are valid")
}

/// A default (arena-on) session for `spec` at `threads` threads.
pub fn default_session(spec: &TargetSpec, threads: usize) -> Session {
    session(spec, threads, None)
}

/// A serial, arena-off session: the drift fuzzer's oracle.
pub fn oracle_session(spec: &TargetSpec) -> Session {
    OptimizerBuilder::new()
        .target_spec(spec.clone())
        .threads(1)
        .reuse_analyses(false)
        .build()
        .expect("a registered target and the default techniques are valid")
}

/// Finishes one module's timed sequence after `optimize`: applies each
/// function's best placement. The text is rendered by the caller.
fn finish(
    run: Result<ModuleRun, spillopt_driver::DriverError>,
    optimize_ms: f64,
) -> Result<ModuleOut, String> {
    let run = run.map_err(|e| e.to_string())?;
    let best = run.apply(None);
    Ok(ModuleOut {
        run,
        best,
        best_text: String::new(),
        optimize_ms,
        profiles: None,
    })
}

/// Renders the applied text of every module of a pass, outside its timed
/// region.
fn render(modules: &mut [Result<ModuleOut, String>]) {
    for out in modules.iter_mut().flatten() {
        out.best_text = module_to_string(&out.best);
    }
}

impl Bench {
    /// Generates the input and runs the set-up pass (the warm-up pass of
    /// the cold workloads, the cold pass 0 of `drift_warm`).
    pub fn setup(kind: Kind, seed: u64, size: Size) -> (Bench, PassOut) {
        let corpus = match kind {
            Kind::StressCold => stress_corpus(registry(), &size, true),
            Kind::SpecPgo => spec_corpus(&size),
            Kind::DriftWarm => stress_corpus(vec![pa_risc_like()], &size, false),
        };
        let drift = (kind == Kind::DriftWarm).then(|| {
            let s = session(&corpus.targets[0], kind.threads(), None);
            let profiles = corpus
                .units
                .iter()
                .map(|u| {
                    s.resolve_profiles(&u.module)
                        .expect("synthetic profiles resolve for every module")
                })
                .collect();
            (s, profiles)
        });
        let mut bench = Bench {
            kind,
            seed,
            size,
            corpus,
            drift,
        };
        let warm = bench.pass(0);
        (bench, warm)
    }

    /// Runs pass `index`. Only the module call sequences (and, for
    /// `stress_cold`, the per-target session builds) are timed; drift
    /// mutation and text rendering for comparison happen outside.
    pub fn pass(&mut self, index: usize) -> PassOut {
        match self.kind {
            Kind::StressCold => self.stress_pass(index),
            Kind::SpecPgo => self.spec_pass(index),
            Kind::DriftWarm => self.drift_pass(index),
        }
    }

    /// The seeded module order, the same in every pass of a run so every
    /// pass repeats the same work.
    fn order(&self) -> Vec<usize> {
        let mut rng = Rng::keyed(&[self.seed, 0x0de7]);
        permutation(self.corpus.units.len(), &mut rng)
    }

    fn stress_pass(&self, index: usize) -> PassOut {
        let order = self.order();
        let mut module_ms = Vec::with_capacity(order.len());
        let mut modules: Vec<Result<ModuleOut, String>> =
            (0..order.len()).map(|_| Err(String::new())).collect();
        let start = Instant::now();
        let sessions: Vec<Session> = self
            .corpus
            .targets
            .iter()
            .map(|spec| session(spec, 1, None))
            .collect();
        for &i in &order {
            let unit = &self.corpus.units[i];
            let t0 = Instant::now();
            modules[i] = (|| {
                let m = parse_module(&unit.text).map_err(|e| format!("parse: {e}"))?;
                let errors = verify_module(&m, RegDiscipline::Virtual);
                if !errors.is_empty() {
                    return Err(format!("verify: {errors:?}"));
                }
                let t = Instant::now();
                let run = sessions[unit.target].optimize(&m);
                let mut out = finish(run, t.elapsed().as_secs_f64() * 1e3)?;
                out.best_text = module_to_string(&out.best);
                Ok(out)
            })();
            module_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        let wall_s = start.elapsed().as_secs_f64();
        PassOut {
            index,
            wall_s,
            module_ms,
            order,
            functions: self.corpus.functions(),
            modules,
            arena: sessions
                .iter()
                .map(Session::arena_stats)
                .fold(ArenaStats::default(), arena_add),
            pool: PoolTotals::default(),
            drift_mix: [0; 5],
        }
    }

    fn spec_pass(&self, index: usize) -> PassOut {
        let order = self.order();
        let mut module_ms = Vec::with_capacity(order.len());
        let mut modules: Vec<Result<ModuleOut, String>> =
            (0..order.len()).map(|_| Err(String::new())).collect();
        let mut arena = ArenaStats::default();
        let spec = &self.corpus.targets[0];
        let start = Instant::now();
        for &i in &order {
            let unit = &self.corpus.units[i];
            let t0 = Instant::now();
            let s = session(
                spec,
                1,
                Some(ProfileSource::Workload(unit.train_runs.clone())),
            );
            let t = Instant::now();
            let run = s.optimize(&unit.module);
            modules[i] = finish(run, t.elapsed().as_secs_f64() * 1e3).inspect(|out| {
                std::hint::black_box(out.run.apply(Some(Strategy::Baseline)));
            });
            module_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            arena = arena_add(arena, s.arena_stats());
        }
        let wall_s = start.elapsed().as_secs_f64();
        render(&mut modules);
        PassOut {
            index,
            wall_s,
            module_ms,
            order,
            functions: self.corpus.functions(),
            modules,
            arena,
            pool: PoolTotals::default(),
            drift_mix: [0; 5],
        }
    }

    fn drift_pass(&mut self, index: usize) -> PassOut {
        let (session, profiles) = self.drift.as_mut().expect("drift_warm keeps its session");
        let mut mix = [0u64; DRIFT_KINDS.len()];
        if index > 0 {
            // Exact shares per pass: a seeded shuffle of all functions,
            // cut at the kind boundaries.
            let slots: Vec<(usize, usize)> = profiles
                .iter()
                .enumerate()
                .flat_map(|(u, ps)| (0..ps.len()).map(move |f| (u, f)))
                .collect();
            let mut rng = Rng::keyed(&[self.seed, index as u64]);
            let order = permutation(slots.len(), &mut rng);
            for (rank, &i) in order.iter().enumerate() {
                let (u, f) = slots[i];
                let planned = drift_kind(rank, slots.len());
                let cfg = Cfg::compute(self.corpus.units[u].module.func(FuncId::from_index(f)));
                let kind = drift(&cfg, &mut profiles[u][f], planned, &mut rng);
                mix[kind] += 1;
            }
        }
        let before = session.arena_stats();
        let pool_before = PoolTotals::of(session);
        let mut module_ms = Vec::with_capacity(self.corpus.units.len());
        let mut modules = Vec::with_capacity(self.corpus.units.len());
        let start = Instant::now();
        for (unit, ps) in self.corpus.units.iter().zip(profiles.iter()) {
            let t0 = Instant::now();
            let run = session.optimize_profiled(&unit.module, ps);
            let optimize_ms = t0.elapsed().as_secs_f64() * 1e3;
            let out = finish(run, optimize_ms);
            module_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            modules.push(out.map(|o| ModuleOut {
                profiles: Some(ps.clone()),
                ..o
            }));
        }
        let wall_s = start.elapsed().as_secs_f64();
        render(&mut modules);
        PassOut {
            index,
            wall_s,
            module_ms,
            order: (0..self.corpus.units.len()).collect(),
            functions: self.corpus.functions(),
            modules,
            arena: arena_minus(session.arena_stats(), before),
            pool: PoolTotals::of(session).minus(pool_before),
            drift_mix: mix,
        }
    }
}

/// The planned drift kind of the function at `rank` of a pass's shuffle
/// of `n`: a fifth of the functions each, in [`DRIFT_KINDS`] order. The
/// kinds and their uniform shares are those of the session's drift
/// fuzzer (`mutate_step` in `crates/driver/src/drift.rs`); the repository
/// has no measured re-training traffic to weight them by.
pub fn drift_kind(rank: usize, n: usize) -> usize {
    rank * DRIFT_KINDS.len() / n.max(1)
}

/// Drifts one function's profile in place by `planned` (an index into
/// [`DRIFT_KINDS`]), as the drift fuzzer's step does; returns the kind
/// applied. A move on a function without two in-edges of one block falls
/// back to a one-count edge bump, and a drift that leaves the profile as
/// it was (an edge bump on a function without edges) is `unchanged`.
pub fn drift(cfg: &Cfg, profile: &mut EdgeProfile, planned: usize, rng: &mut Rng) -> usize {
    let mut counts = profile.edge_counts().to_vec();
    let mut entry = profile.entry_count();
    let mut kind = planned;
    match kind {
        1 => entry = (entry + 1 + rng.below(99)) & 0xffff,
        2 if !counts.is_empty() => {
            let e = rng.below(counts.len() as u64) as usize;
            counts[e] = (counts[e] + 1 + rng.below(999)) & 0xffff;
        }
        3 => {
            for c in counts.iter_mut() {
                *c = rng.below(1000);
            }
            entry = 1 + rng.below(999);
        }
        4 => match moving_pair(cfg, &counts, rng) {
            Some((a, b)) => {
                let moved = 1 + rng.below(counts[a].min(64));
                counts[a] -= moved;
                counts[b] += moved;
            }
            None if !counts.is_empty() => {
                kind = 2;
                let e = rng.below(counts.len() as u64) as usize;
                counts[e] += 1;
            }
            None => {}
        },
        _ => {}
    }
    if counts == profile.edge_counts() && entry == profile.entry_count() {
        return 0;
    }
    *profile = EdgeProfile::new(cfg, counts, entry);
    kind
}

/// A random pair of distinct edges into one block, the first with a
/// nonzero count: moving count between them changes no block count.
fn moving_pair(cfg: &Cfg, counts: &[u64], rng: &mut Rng) -> Option<(usize, usize)> {
    let mut pairs = Vec::new();
    for (ia, ea) in cfg.edges() {
        if counts[ia.index()] == 0 {
            continue;
        }
        for (ib, eb) in cfg.edges() {
            if ia != ib && ea.to == eb.to {
                pairs.push((ia.index(), ib.index()));
            }
        }
    }
    (!pairs.is_empty()).then(|| pairs[rng.below(pairs.len() as u64) as usize])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::synthetic_profile;

    #[test]
    fn drift_kinds_take_equal_shares() {
        let mut shares = [0; 5];
        for rank in 0..100 {
            shares[drift_kind(rank, 100)] += 1;
        }
        assert_eq!(shares, [20; 5]);
    }

    #[test]
    fn drift_records_the_kind_applied() {
        let corpus = stress_corpus(vec![pa_risc_like()], &Size::full(), false);
        let mut rng = Rng::keyed(&[1]);
        let (mut with_edges, mut without) = (0, 0);
        for u in &corpus.units {
            for (fid, f) in u.module.funcs() {
                let cfg = Cfg::compute(f);
                let base = synthetic_profile(f, fid);
                for planned in 0..DRIFT_KINDS.len() {
                    let mut p = base.clone();
                    let kind = drift(&cfg, &mut p, planned, &mut rng);
                    let changed = p.edge_counts() != base.edge_counts()
                        || p.entry_count() != base.entry_count();
                    assert_eq!(kind != 0, changed, "kind {kind} planned {planned}");
                }
                let mut p = base.clone();
                let bumped = drift(&cfg, &mut p, 2, &mut rng);
                if cfg.num_edges() == 0 {
                    assert_eq!(bumped, 0);
                    without += 1;
                } else {
                    assert_eq!(bumped, 2);
                    with_edges += 1;
                }
            }
        }
        assert!(with_edges > 0 && without > 0, "{with_edges} / {without}");
    }
}
