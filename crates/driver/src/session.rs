//! The session-based optimizer facade: [`OptimizerBuilder`] → [`Session`],
//! the workspace's one module-scale entry point. Every optimize method
//! runs one batch body (`run_modules`), and every function goes through
//! one cold pipeline body (`cold_pipeline`) behind the analysis arena.
//!
//! * [`OptimizerBuilder`] — declare *what* to optimize for: a target (a
//!   preset [`Target`], a registered [`TargetSpec`] name, or all of
//!   them), a [`SpillCostModel`] override, a [`ProfileSource`], a thread
//!   count, and a typed [`TechniqueSet`]. `build()` validates the whole
//!   configuration **once**.
//! * [`Session`] — the warm, reusable pipeline object. It owns the
//!   persistent work pool ([`crate::pool::Pool`]) and a per-session
//!   analysis arena, so repeated [`Session::optimize`] calls amortize
//!   thread spin-up and per-function analysis work across modules — the
//!   warm-server shape. [`Session::optimize_many`] fans whole batches of
//!   modules out on the same pool; [`Session::cross_target`] fans the
//!   registry out the way `spillopt compare --target all` needs.
//! * [`Observer`] — an optional streaming callback: per-function
//!   [`FunctionReport`]s are delivered **as functions retire** from the
//!   pool (progress for the CLI today, the backpressure hook for a
//!   future server).
//!
//! Reports stay deterministic: everything in a [`ModuleRun`] — including
//! its JSON bytes — is a pure function of the inputs and the session's
//! configuration, independent of thread count, arena warmth, and
//! observer presence (observers see completion order, which is *not*
//! deterministic; the returned reports are).

use crate::cache::AnalysisCache;
use crate::driver::{
    DriverError, FaultAction, FaultKind, FunctionFault, ModuleRun, ProfileSource, Strategy,
};
use crate::pool::{payload_message, Pool, PoolWorkerStats};
use crate::report::{CrossTargetReport, FunctionReport, ModuleReport, StrategyReport};
use spillopt_core::{
    run_suite, run_suite_incremental, run_suite_memoized, run_technique, Placement, PlacementMemo,
    PlacementSuite, RefoldStats, SpillCostModel, SuiteError, SuiteInputs, SuiteOptions, Technique,
};
use spillopt_ir::{FuncId, Function, Module, Reg, Target};
use spillopt_obs::fault::{BudgetScope, BudgetSpec};
use spillopt_profile::{random_walk_profile, EdgeProfile, Machine, ProfileDelta};
use spillopt_regalloc::allocate;
use spillopt_sync::atomic::{AtomicU64, Ordering};
use spillopt_sync::{Arc, Mutex};
use spillopt_targets::{registry, spec_by_name, TargetSpec};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// A typed set of placement techniques — the facade's replacement for
/// stringly-typed strategy selection. Defaults to [`TechniqueSet::ALL`]
/// (the paper's four-technique comparison).
///
/// The set selects which techniques are **reported and applicable**
/// ([`crate::ModuleRun::apply`]); internally the suite still computes
/// all four — the hierarchical variants' never-worse guarantee is
/// closed against the entry/exit and Chow baselines, so those are
/// needed regardless, and the placements are near-linear next to the
/// shared analyses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TechniqueSet(u8);

impl TechniqueSet {
    /// No techniques (rejected by [`OptimizerBuilder::build`]).
    pub const EMPTY: TechniqueSet = TechniqueSet(0);
    /// Entry/exit baseline only.
    pub const BASELINE: TechniqueSet = TechniqueSet(1 << 0);
    /// Chow's shrink-wrapping only.
    pub const SHRINKWRAP: TechniqueSet = TechniqueSet(1 << 1);
    /// Hierarchical placement, execution-count model, only.
    pub const HIER_EXEC: TechniqueSet = TechniqueSet(1 << 2);
    /// Hierarchical placement, jump-edge model, only.
    pub const HIER_JUMP: TechniqueSet = TechniqueSet(1 << 3);
    /// All four techniques — the paper's comparison and the default.
    pub const ALL: TechniqueSet = TechniqueSet(0b1111);

    fn bit(strategy: Strategy) -> u8 {
        match strategy {
            Strategy::Baseline => 1 << 0,
            Strategy::Shrinkwrap => 1 << 1,
            Strategy::HierExec => 1 << 2,
            Strategy::HierJump => 1 << 3,
        }
    }

    /// The set containing exactly `strategies`.
    pub fn of(strategies: &[Strategy]) -> TechniqueSet {
        strategies
            .iter()
            .fold(TechniqueSet::EMPTY, |set, s| set.with(*s))
    }

    /// This set plus `strategy`.
    #[must_use]
    pub fn with(self, strategy: Strategy) -> TechniqueSet {
        TechniqueSet(self.0 | TechniqueSet::bit(strategy))
    }

    /// Whether `strategy` is selected.
    pub fn contains(self, strategy: Strategy) -> bool {
        self.0 & TechniqueSet::bit(strategy) != 0
    }

    /// Number of selected techniques.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether no technique is selected.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Selected strategies, in reporting order.
    pub fn iter(self) -> impl Iterator<Item = Strategy> {
        Strategy::all()
            .into_iter()
            .filter(move |s| self.contains(*s))
    }

    /// Parses `"all"` or a comma-separated list of strategy names
    /// (`baseline`, `shrinkwrap`, `hier-exec`, `hier-jump`).
    ///
    /// # Errors
    ///
    /// Returns a message listing the accepted names.
    pub fn parse(s: &str) -> Result<TechniqueSet, String> {
        if s == "all" {
            return Ok(TechniqueSet::ALL);
        }
        let mut set = TechniqueSet::EMPTY;
        for name in s.split(',').map(str::trim).filter(|n| !n.is_empty()) {
            let strategy = Strategy::parse(name).ok_or_else(|| {
                format!(
                    "unknown technique `{name}` (accepted: all, or a comma-separated list of {})",
                    Strategy::all().map(Strategy::name).join(", ")
                )
            })?;
            set = set.with(strategy);
        }
        if set.is_empty() {
            return Err("technique set is empty".to_string());
        }
        Ok(set)
    }

    /// The selected strategy names, comma-separated (parseable by
    /// [`TechniqueSet::parse`]).
    pub fn names(self) -> String {
        self.iter()
            .map(Strategy::name)
            .collect::<Vec<_>>()
            .join(",")
    }
}

impl Default for TechniqueSet {
    fn default() -> Self {
        TechniqueSet::ALL
    }
}

/// Displays as the comma-separated strategy names — the exact syntax
/// [`TechniqueSet::parse`] accepts, so `parse(set.to_string())`
/// round-trips for every non-empty set.
impl std::fmt::Display for TechniqueSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.names())
    }
}

/// What a session does when one function's pipeline fails — a panic, an
/// invalid placement, or a blown [`Budget`]. Set via
/// [`OptimizerBuilder::on_fault`]; the default reproduces today's
/// all-or-nothing behavior exactly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FailurePolicy {
    /// The failure surfaces as the run's error (the historical
    /// behavior): one poisoned function fails the whole
    /// `optimize`/`optimize_many` call.
    #[default]
    Fail,
    /// The failed function falls down the guarantee chain — hier-jump →
    /// Chow → entry/exit → unoptimized passthrough — retiring with the
    /// first rung that succeeds ([`Provenance::Degraded`]); the original
    /// error is preserved in the run's fault ledger
    /// ([`crate::ModuleRun::faults`]) and the rest of the module is
    /// unaffected.
    Degrade,
    /// The failed function passes through unoptimized immediately (no
    /// fallback attempts), recorded in the fault ledger.
    Skip,
}

impl FailurePolicy {
    /// Stable lowercase identifier (the CLI's `--on-fault` values).
    pub fn name(self) -> &'static str {
        match self {
            FailurePolicy::Fail => "fail",
            FailurePolicy::Degrade => "degrade",
            FailurePolicy::Skip => "skip",
        }
    }

    /// Parses a stable identifier.
    pub fn parse(s: &str) -> Option<FailurePolicy> {
        [
            FailurePolicy::Fail,
            FailurePolicy::Degrade,
            FailurePolicy::Skip,
        ]
        .into_iter()
        .find(|p| p.name() == s)
    }
}

/// A cooperative per-function deadline, checked at the obs probe seams
/// in core's fixpoint solver and the exact solver's branch-and-bound.
/// Trips surface as [`DriverError::BudgetExceeded`] under
/// [`FailurePolicy::Fail`], and are caught by the degradation ladder
/// otherwise. Default: no caps.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Budget {
    wall_ms: Option<u64>,
    solver_iters: Option<u64>,
}

impl Budget {
    /// No caps (the default): nothing is armed, nothing is checked.
    pub fn none() -> Budget {
        Budget::default()
    }

    /// Caps one function's pipeline wall-clock time, in milliseconds.
    /// Each fallback attempt of the degradation ladder shares the
    /// function's single deadline.
    #[must_use]
    pub fn wall_ms(mut self, ms: u64) -> Budget {
        self.wall_ms = Some(ms);
        self
    }

    /// Caps the cumulative solver iterations (fixpoint rounds,
    /// branch-and-bound nodes) of one pipeline attempt.
    #[must_use]
    pub fn solver_iters(mut self, iters: u64) -> Budget {
        self.solver_iters = Some(iters);
        self
    }

    /// Whether any cap is set.
    pub fn is_some(&self) -> bool {
        self.wall_ms.is_some() || self.solver_iters.is_some()
    }

    /// The absolute deadline a pipeline starting now must meet.
    fn deadline_from_now(&self) -> Option<Instant> {
        self.wall_ms
            .map(|ms| Instant::now() + Duration::from_millis(ms))
    }

    fn iter_cap(&self) -> Option<u64> {
        self.solver_iters
    }
}

/// How one function's retired pipeline products were obtained — the
/// reuse provenance the session surfaces through [`Observer`] and the
/// `--progress` summary. The reports themselves are byte-identical on
/// every path (the incremental re-fold provably re-establishes the cold
/// fixpoint); provenance only says how much work the path cost.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Provenance {
    /// Full pipeline: allocation, analyses, every placement fold.
    Cold,
    /// Exact arena hit — the (function, profile) pair was seen before
    /// and the retired products were returned wholesale.
    Warm,
    /// The function's structure was known but its profile drifted: the
    /// allocation and analyses were reused and only the PST regions the
    /// profile delta dirtied were re-folded.
    Incremental,
    /// The full pipeline failed and the function retired through the
    /// [`FailurePolicy::Degrade`]/[`FailurePolicy::Skip`] containment
    /// path: a single fallback technique, or an unoptimized passthrough.
    /// The original error is in the run's fault ledger.
    Degraded,
}

impl Provenance {
    /// Stable lowercase identifier (used on `--progress` lines).
    pub fn name(self) -> &'static str {
        match self {
            Provenance::Cold => "cold",
            Provenance::Warm => "warm",
            Provenance::Incremental => "incremental",
            Provenance::Degraded => "degraded",
        }
    }
}

/// Streaming callback for session runs: called from worker threads as
/// each function's pipeline retires (completion order — *not* function
/// order). The session's returned reports stay deterministic regardless.
pub trait Observer: Sync {
    /// One function's pipeline finished (all selected techniques run,
    /// placements validated). `target` names the backend — a
    /// [`Session::cross_target`] run shares one observer across every
    /// target's concurrent fan-out, so the lines are only attributable
    /// with it. `provenance` says whether the products were recomputed
    /// cold, served warm from the arena, or incrementally re-folded.
    fn function_retired(
        &self,
        target: &str,
        module: &str,
        report: &FunctionReport,
        provenance: Provenance,
    );

    /// One module's full report was assembled (the report itself names
    /// its target).
    fn module_done(&self, report: &ModuleReport) {
        let _ = report;
    }

    /// A short name for error attribution: when a callback panics, the
    /// session reports [`DriverError::ObserverPanicked`] naming this
    /// observer instead of blaming the function whose report it was
    /// handling.
    fn name(&self) -> &str {
        "observer"
    }
}

/// Any `Fn(&target_name, &module_name, &report, provenance)` closure is
/// an observer.
impl<F: Fn(&str, &str, &FunctionReport, Provenance) + Sync> Observer for F {
    fn function_retired(
        &self,
        target: &str,
        module: &str,
        report: &FunctionReport,
        provenance: Provenance,
    ) {
        self(target, module, report, provenance)
    }
}

/// A point-in-time snapshot of a session's own instrumentation: arena
/// effectiveness and persistent-pool worker activity (see
/// [`Session::stats`]). This is the session-owned complement to the
/// process-wide recorder (`spillopt-obs`): it is always on — the
/// counters are relaxed atomics the hot path updates anyway — and needs
/// no recording to be active.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Analysis-arena entries/hits/misses; all-zero when the session was
    /// built with [`OptimizerBuilder::reuse_analyses`]`(false)`.
    pub arena: ArenaStats,
    /// Per-worker items/busy/idle of the persistent pool; empty for a
    /// serial session (inline batches have no workers).
    pub pool_workers: Vec<PoolWorkerStats>,
}

/// Arena statistics (see [`Session::arena_stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Cached function structures (distinct pre-allocation texts).
    pub entries: usize,
    /// Lookups served wholesale — the exact (function, profile) pair
    /// was retired before ([`Provenance::Warm`]).
    pub hits: u64,
    /// Lookups that ran the full cold pipeline ([`Provenance::Cold`]):
    /// unseen functions, plus profile drifts that changed the
    /// allocation.
    pub misses: u64,
    /// Lookups served by delta-driven re-folding
    /// ([`Provenance::Incremental`]): the function's structure was
    /// cached and the drifted profile left its allocation unchanged.
    pub incremental: u64,
    /// Function structures evicted to honor
    /// [`OptimizerBuilder::arena_capacity`].
    pub evictions: u64,
    /// Dirty-region ledger: PST regions actually re-folded, summed over
    /// every incremental call.
    pub regions_refolded: u64,
    /// Dirty-region ledger: total PST regions of the functions those
    /// incremental calls touched — the work a cold re-fold would have
    /// done. `regions_refolded < regions_total` is the incremental win.
    pub regions_total: u64,
    /// Calls answered by the quarantine negative-cache without an
    /// attempt: repeat-offender functions sitting out their backoff
    /// window under [`FailurePolicy::Degrade`]/[`FailurePolicy::Skip`].
    pub quarantined: u64,
}

/// A keyed, LRU-bounded, quarantine-aware cache of shared per-key
/// states — the concurrency skeleton of the analysis arena, generic
/// over the per-key payload `S` so the model-checked suites can
/// exercise the exact production lock/atomic protocol with a trivial
/// payload (see `model_tests`). All bookkeeping (LRU stamps, counters,
/// the negative cache) lives here; payloads sit behind `Arc<Mutex<S>>`
/// so lookups clone a pointer under the map lock and per-key work
/// happens outside it.
pub(crate) struct Arena<S> {
    /// Key → (LRU stamp, shared state). The stamps live *here*, so
    /// eviction scans never take a state's own lock.
    entries: Mutex<HashMap<String, ArenaEntry<S>>>,
    /// Maximum cached entries (`0` = unbounded).
    capacity: usize,
    /// LRU clock, bumped on every touch.
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    incremental: AtomicU64,
    evictions: AtomicU64,
    regions_refolded: AtomicU64,
    regions_total: AtomicU64,
    /// Negative cache: keys whose pipeline has failed, with their
    /// failure count and remaining skip window. Only consulted under
    /// [`FailurePolicy::Degrade`]/[`FailurePolicy::Skip`]; the `Fail`
    /// hot path never takes this lock.
    quarantine: Mutex<HashMap<String, Quarantine>>,
    quarantined: AtomicU64,
}

/// The per-session analysis arena, keyed in **two levels** matching the
/// two levels of input change a re-optimizing service sees:
///
/// 1. **Structure** — the pre-allocation function text. One
///    [`StructState`] per distinct function holds everything the text
///    alone determines once an allocation exists: the allocated
///    function, its [`AnalysisCache`] (CFG, liveness, usage, SCCs, PST,
///    derived tables), and the [`PlacementMemo`] of per-region folded
///    products.
/// 2. **Placement** — the exact edge profile. Each structure keeps its
///    retired `(report, placements)` outcomes per profile.
///
/// A repeated call with a seen profile is a wholesale hit
/// ([`Provenance::Warm`]). A call with a *drifted* profile reuses the
/// whole structure level when the drift leaves the allocation unchanged
/// — the allocator's only profile input is its per-block weight vector,
/// so equal weights prove an identical allocation, and unequal weights
/// re-allocate once and compare — and then re-folds only the PST
/// regions the [`ProfileDelta`] dirties ([`Provenance::Incremental`]).
/// Only a drift that changes the allocation itself re-runs the full
/// cold pipeline.
///
/// By default the arena grows without bound (entries are exact, never
/// invalidated); [`OptimizerBuilder::arena_capacity`] bounds the number
/// of cached structures with least-recently-used eviction. Build with
/// [`OptimizerBuilder::reuse_analyses`]`(false)` for one-shot or
/// benchmarking sessions that must re-run the pipeline every time.
///
/// Structure level keys are the pre-allocation function text; the
/// shared concurrency skeleton is [`Arena`].
pub(crate) type AnalysisArena = Arena<StructState>;

/// One function's entry in the arena's negative cache.
struct Quarantine {
    /// Total failed attempts recorded for this function.
    failures: u32,
    /// Calls left to skip before the next retry (exponential backoff
    /// from the second failure on).
    skip_remaining: u32,
}

/// Everything the pre-allocation function text determines for the
/// session's fixed (target, cost model): the allocation, the analyses,
/// and the per-region fold memo — plus the per-profile outcomes retired
/// against that structure.
pub(crate) struct StructState {
    /// The allocated (physical, pre-placement) function.
    func: Function,
    /// `func.to_string()`, kept to compare re-allocations cheaply.
    func_text: String,
    spilled_vregs: usize,
    /// The allocator's per-block weight vector for the profile the
    /// structure was last allocated under — its *only* profile input,
    /// so an equal vector proves the allocation is bit-identical.
    weights: Vec<u64>,
    /// Analyses of `func`; `cache.profile` is the memo's base profile.
    cache: AnalysisCache,
    /// Per-region folded products; `None` when the function needs no
    /// placement (no callee-saved use).
    memo: Option<PlacementMemo>,
    /// Retired outcomes per exact profile `(entry_count, edge_counts)`.
    /// Every entry was produced against the *current* `func` (a cold
    /// replace clears the map), so a hit clones `func` next to it.
    outcomes: HashMap<ProfileKey, (FunctionReport, Vec<(Strategy, Placement)>)>,
}

/// An LRU stamp paired with the shared per-key state it guards.
type ArenaEntry<S> = (u64, Arc<Mutex<S>>);

/// The exact-profile key of a [`StructState`] outcome:
/// `(entry_count, edge_counts)`.
type ProfileKey = (u64, Vec<u64>);

/// An allocated (physical, pre-placement) function paired with its
/// selected placements.
type AllocatedFunction = (Function, Vec<(Strategy, Placement)>);

/// One function's pipeline product: the report, the allocated function
/// with its placements, and the fault-ledger entry when the function was
/// contained under [`FailurePolicy::Degrade`]/[`FailurePolicy::Skip`].
type FunctionOutcome = (FunctionReport, AllocatedFunction, Option<FunctionFault>);

/// A cross-target module loader.
type Loader<'l> = dyn Fn(&TargetSpec) -> Result<(Module, ProfileSource), DriverError> + Sync + 'l;

/// The exact-profile key of a [`StructState`] outcome.
fn profile_key(profile: &EdgeProfile) -> ProfileKey {
    (profile.entry_count(), profile.edge_counts().to_vec())
}

impl<S> Arena<S> {
    fn new(capacity: usize) -> Self {
        Arena {
            entries: Mutex::new(HashMap::new()),
            capacity,
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            incremental: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            regions_refolded: AtomicU64::new(0),
            regions_total: AtomicU64::new(0),
            quarantine: Mutex::new(HashMap::new()),
            quarantined: AtomicU64::new(0),
        }
    }

    /// The cached state for a key, touching its LRU stamp.
    fn structure(&self, text: &str) -> Option<Arc<Mutex<S>>> {
        let mut map = self.entries.lock().unwrap();
        match map.get_mut(text) {
            Some((stamp, state)) => {
                *stamp = self.clock.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(state))
            }
            None => None,
        }
    }

    /// Caches a freshly computed state, evicting the least recently
    /// used one when over capacity.
    fn insert_structure(&self, text: String, state: S) {
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        let mut map = self.entries.lock().unwrap();
        map.insert(text.clone(), (stamp, Arc::new(Mutex::new(state))));
        while self.capacity > 0 && map.len() > self.capacity {
            let victim = map
                .iter()
                .filter(|(k, _)| **k != text)
                .min_by_key(|(_, (stamp, _))| *stamp)
                .map(|(k, _)| k.clone());
            match victim {
                Some(k) => {
                    map.remove(&k);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                    spillopt_obs::count("arena_evictions", 1);
                }
                // Capacity 1 entry is the one just inserted.
                None => break,
            }
        }
    }

    fn record_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        spillopt_obs::count("arena_hit", 1);
    }

    fn record_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        spillopt_obs::count("arena_miss", 1);
    }

    fn record_incremental(&self, refolds: RefoldStats) {
        self.incremental.fetch_add(1, Ordering::Relaxed);
        spillopt_obs::count("arena_incremental", 1);
        self.regions_refolded
            .fetch_add(refolds.regions_refolded as u64, Ordering::Relaxed);
        self.regions_total
            .fetch_add(refolds.regions_total as u64, Ordering::Relaxed);
    }

    /// Drops any cached structure for `text`. Called whenever the
    /// function's pipeline failed: a partially updated (or
    /// poisoned-mutex) `StructState` must never be served to a later
    /// call.
    fn purge(&self, text: &str) {
        self.entries.lock().unwrap().remove(text);
    }

    /// Records a failed attempt for `text`: purges its cached structure
    /// and, from the second failure on, opens an exponential-backoff
    /// skip window so a flapping input can't monopolize warm throughput.
    fn record_failure(&self, text: &str) {
        self.purge(text);
        let mut quarantine = self.quarantine.lock().unwrap();
        let entry = quarantine.entry(text.to_string()).or_insert(Quarantine {
            failures: 0,
            skip_remaining: 0,
        });
        entry.failures += 1;
        if entry.failures >= 2 {
            entry.skip_remaining = 1u32 << (entry.failures - 1).min(6);
        }
    }

    /// Consumes one call of an active quarantine window; `true` means
    /// the caller should skip this function without an attempt.
    fn quarantine_skip(&self, text: &str) -> bool {
        let mut quarantine = self.quarantine.lock().unwrap();
        match quarantine.get_mut(text) {
            Some(entry) if entry.skip_remaining > 0 => {
                entry.skip_remaining -= 1;
                self.quarantined.fetch_add(1, Ordering::Relaxed);
                spillopt_obs::count("fault_quarantined", 1);
                true
            }
            _ => false,
        }
    }

    /// Clears the failure history of `text` after a successful attempt.
    fn record_success(&self, text: &str) {
        let mut quarantine = self.quarantine.lock().unwrap();
        if !quarantine.is_empty() {
            quarantine.remove(text);
        }
    }

    fn stats(&self) -> ArenaStats {
        ArenaStats {
            entries: self.entries.lock().unwrap().len(),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            incremental: self.incremental.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            regions_refolded: self.regions_refolded.load(Ordering::Relaxed),
            regions_total: self.regions_total.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
        }
    }
}

impl<S> std::fmt::Debug for Arena<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AnalysisArena")
            .field("stats", &self.stats())
            .finish()
    }
}

/// One resolved target of a session.
#[derive(Clone, Debug)]
struct SessionTarget {
    /// The registered spec, when the target came from the registry
    /// (needed for cross-target reports).
    spec: Option<TargetSpec>,
    target: Target,
    costs: SpillCostModel,
}

/// The builder's target choice.
#[derive(Clone, Debug)]
enum BuildTarget {
    /// A preset [`Target`] convention (priced [`SpillCostModel::UNIT`]
    /// unless overridden).
    Preset(Target),
    /// A registered spec.
    Spec(TargetSpec),
    /// A registry name, resolved (and validated) at `build()`.
    Named(String),
    /// Every registered target (for [`Session::cross_target`]).
    All,
}

/// The largest explicit worker count [`OptimizerBuilder::build`]
/// accepts. The pool spawns every requested worker up front, so an
/// absurd count would exhaust the process's threads and abort it.
pub const MAX_THREADS: usize = 1024;

/// Configures and validates a [`Session`] — the only supported way to
/// run the module-scale optimizer.
///
/// ```
/// use spillopt_driver::{OptimizerBuilder, Strategy};
/// use spillopt_benchgen::{benchmark_by_name, build_bench};
/// use spillopt_ir::Target;
///
/// let target = Target::default();
/// let bench = build_bench(&benchmark_by_name("mcf").unwrap(), &target);
/// let session = OptimizerBuilder::new()
///     .target(target)
///     .threads(2)
///     .build()
///     .unwrap();
/// let run = session.optimize(&bench.module).unwrap();
/// assert!(run.report.total_cost(Strategy::HierJump)
///     <= run.report.total_cost(Strategy::Baseline));
/// ```
#[derive(Clone, Debug)]
pub struct OptimizerBuilder {
    target: BuildTarget,
    costs: Option<SpillCostModel>,
    profile: ProfileSource,
    threads: usize,
    techniques: TechniqueSet,
    reuse_analyses: bool,
    arena_capacity: usize,
    failure_policy: FailurePolicy,
    budget: Budget,
}

impl Default for OptimizerBuilder {
    fn default() -> Self {
        OptimizerBuilder::new()
    }
}

impl OptimizerBuilder {
    /// A builder with the defaults: the paper's PA-RISC-like target,
    /// synthetic profiles, all cores, all four techniques, analysis
    /// reuse on.
    pub fn new() -> Self {
        OptimizerBuilder {
            target: BuildTarget::Spec(spillopt_targets::pa_risc_like()),
            costs: None,
            profile: ProfileSource::default(),
            threads: 0,
            techniques: TechniqueSet::ALL,
            reuse_analyses: true,
            arena_capacity: 0,
            failure_policy: FailurePolicy::Fail,
            budget: Budget::none(),
        }
    }

    /// Optimize for a preset [`Target`] convention (priced
    /// [`SpillCostModel::UNIT`] unless [`OptimizerBuilder::cost_model`]
    /// overrides it).
    #[must_use]
    pub fn target(mut self, target: Target) -> Self {
        self.target = BuildTarget::Preset(target);
        self
    }

    /// Optimize for a registered backend spec.
    #[must_use]
    pub fn target_spec(mut self, spec: TargetSpec) -> Self {
        self.target = BuildTarget::Spec(spec);
        self
    }

    /// Optimize for a registry name (`spillopt list-targets`); resolved
    /// and validated by [`OptimizerBuilder::build`].
    #[must_use]
    pub fn target_named(mut self, name: impl Into<String>) -> Self {
        self.target = BuildTarget::Named(name.into());
        self
    }

    /// Optimize across **every** registered target
    /// ([`Session::cross_target`]).
    #[must_use]
    pub fn all_targets(mut self) -> Self {
        self.target = BuildTarget::All;
        self
    }

    /// Overrides the spill-cost model (otherwise the spec's own model,
    /// or [`SpillCostModel::UNIT`] for preset targets).
    #[must_use]
    pub fn cost_model(mut self, costs: SpillCostModel) -> Self {
        self.costs = Some(costs);
        self
    }

    /// Where per-function edge profiles come from (default: synthetic
    /// random walks).
    #[must_use]
    pub fn profile(mut self, profile: ProfileSource) -> Self {
        self.profile = profile;
        self
    }

    /// Worker threads; `0` = available parallelism, `1` = the serial
    /// reference schedule. The pool is spawned once, at `build()`, which
    /// rejects counts above [`MAX_THREADS`].
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Which techniques to report and make applicable (default:
    /// [`TechniqueSet::ALL`]; see [`TechniqueSet`] for what is still
    /// computed internally).
    #[must_use]
    pub fn techniques(mut self, techniques: TechniqueSet) -> Self {
        self.techniques = techniques;
        self
    }

    /// Whether the session keeps its analysis arena (default `true`).
    /// Disable for benchmarking sessions that must re-run the full
    /// pipeline on every call.
    #[must_use]
    pub fn reuse_analyses(mut self, reuse: bool) -> Self {
        self.reuse_analyses = reuse;
        self
    }

    /// Bounds the arena to `capacity` cached function structures,
    /// evicting least-recently-used entries beyond it (default `0` =
    /// unbounded). Evictions are counted in
    /// [`ArenaStats::evictions`]; an evicted function's next
    /// optimization runs cold again.
    #[must_use]
    pub fn arena_capacity(mut self, capacity: usize) -> Self {
        self.arena_capacity = capacity;
        self
    }

    /// What the session does when one function's pipeline fails
    /// (default [`FailurePolicy::Fail`]: the historical all-or-nothing
    /// behavior). `Degrade` and `Skip` contain the failure to that one
    /// function and record it in the run's fault ledger.
    #[must_use]
    pub fn on_fault(mut self, policy: FailurePolicy) -> Self {
        self.failure_policy = policy;
        self
    }

    /// A cooperative per-function [`Budget`] (wall-clock and/or solver
    /// iteration caps; default: none). Trips surface as
    /// [`DriverError::BudgetExceeded`] under [`FailurePolicy::Fail`]
    /// and degrade like any other fault otherwise.
    #[must_use]
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Validates the configuration and builds the [`Session`] (spawning
    /// its worker pool).
    ///
    /// # Errors
    ///
    /// Returns [`DriverError::Config`] for an unknown target name, a
    /// malformed target convention, or an empty technique set.
    pub fn build(self) -> Result<Session, DriverError> {
        if self.techniques.is_empty() {
            return Err(DriverError::Config(
                "technique set is empty; select at least one technique".to_string(),
            ));
        }
        if self.threads > MAX_THREADS {
            return Err(DriverError::Config(format!(
                "{} worker threads requested; the limit is {MAX_THREADS}",
                self.threads
            )));
        }
        let resolve = |spec: TargetSpec| -> Result<SessionTarget, DriverError> {
            let target = spec.try_to_target().map_err(|e| {
                DriverError::Config(format!("target `{}` is malformed: {e}", spec.name))
            })?;
            Ok(SessionTarget {
                costs: self.costs.unwrap_or(spec.costs),
                spec: Some(spec),
                target,
            })
        };
        let targets = match self.target {
            BuildTarget::Preset(target) => vec![SessionTarget {
                spec: None,
                target,
                costs: self.costs.unwrap_or(SpillCostModel::UNIT),
            }],
            BuildTarget::Spec(spec) => vec![resolve(spec)?],
            BuildTarget::Named(name) => {
                let spec = spec_by_name(&name).ok_or_else(|| {
                    DriverError::Config(format!(
                        "unknown target `{name}` (registered: {})",
                        registry()
                            .iter()
                            .map(|s| s.name)
                            .collect::<Vec<_>>()
                            .join(", ")
                    ))
                })?;
                vec![resolve(spec)?]
            }
            BuildTarget::All => registry()
                .into_iter()
                .map(resolve)
                .collect::<Result<Vec<_>, _>>()?,
        };
        Ok(Session {
            targets,
            profile: self.profile,
            techniques: self.techniques,
            pool: Pool::new(self.threads),
            arena: self
                .reuse_analyses
                .then(|| AnalysisArena::new(self.arena_capacity)),
            failure_policy: self.failure_policy,
            budget: self.budget,
        })
    }
}

/// A configured, warm, reusable optimizer: the validated targets, the
/// persistent worker pool, and the per-session analysis arena. Built by
/// [`OptimizerBuilder::build`]; every module-scale entry point of this
/// workspace goes through one of its methods.
#[derive(Debug)]
pub struct Session {
    targets: Vec<SessionTarget>,
    profile: ProfileSource,
    techniques: TechniqueSet,
    pool: Pool,
    arena: Option<AnalysisArena>,
    failure_policy: FailurePolicy,
    budget: Budget,
}

impl Session {
    /// The names of the session's resolved targets, in registry order.
    pub fn targets(&self) -> Vec<&str> {
        self.targets.iter().map(|t| t.target.name()).collect()
    }

    /// The selected techniques.
    pub fn techniques(&self) -> TechniqueSet {
        self.techniques
    }

    /// The pool's worker count (1 = serial).
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Arena statistics; all-zero for sessions built with
    /// [`OptimizerBuilder::reuse_analyses`]`(false)`.
    pub fn arena_stats(&self) -> ArenaStats {
        self.arena
            .as_ref()
            .map_or(ArenaStats::default(), AnalysisArena::stats)
    }

    /// Everything the session instruments about itself: arena hit/miss
    /// counters plus the persistent pool's per-worker activity.
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            arena: self.arena_stats(),
            pool_workers: self.pool.worker_stats(),
        }
    }

    fn single_target(&self) -> Result<&SessionTarget, DriverError> {
        match self.targets.as_slice() {
            [one] => Ok(one),
            many => Err(DriverError::Config(format!(
                "this session optimizes across {} targets; use `cross_target` \
                 (or build the session with one target)",
                many.len()
            ))),
        }
    }

    fn engine<'e>(
        &'e self,
        st: &'e SessionTarget,
        observer: Option<&'e dyn Observer>,
    ) -> Engine<'e> {
        self.engine_with(st, &self.profile, observer)
    }

    /// As [`Session::engine`], with a per-call profile source override
    /// (the [`Session::optimize_profiled`] path).
    fn engine_with<'e>(
        &'e self,
        st: &'e SessionTarget,
        source: &'e ProfileSource,
        observer: Option<&'e dyn Observer>,
    ) -> Engine<'e> {
        Engine {
            target: &st.target,
            costs: &st.costs,
            profile_source: source,
            techniques: self.techniques,
            pool: &self.pool,
            arena: self.arena.as_ref(),
            observer,
            policy: self.failure_policy,
            budget: self.budget,
        }
    }

    /// Optimizes one module on the session pool.
    ///
    /// # Errors
    ///
    /// Returns the first driver failure: a failing training workload, an
    /// invalid placement ([`DriverError::InvalidPlacement`]), or a
    /// panicking pipeline.
    pub fn optimize(&self, module: &Module) -> Result<ModuleRun, DriverError> {
        self.optimize_inner(module, None)
    }

    /// As [`Session::optimize`], streaming per-function reports to
    /// `observer` as they retire.
    ///
    /// # Errors
    ///
    /// As [`Session::optimize`].
    pub fn optimize_observed(
        &self,
        module: &Module,
        observer: &dyn Observer,
    ) -> Result<ModuleRun, DriverError> {
        self.optimize_inner(module, Some(observer))
    }

    fn optimize_inner(
        &self,
        module: &Module,
        observer: Option<&dyn Observer>,
    ) -> Result<ModuleRun, DriverError> {
        let st = self.single_target()?;
        run_module(module, &self.engine(st, observer))
    }

    /// Optimizes one module under explicit measured per-function edge
    /// profiles, overriding the session's [`ProfileSource`] for this
    /// call — the re-profiling entry point. `profiles` is indexed by
    /// function index and must cover every function of `module` with an
    /// edge vector matching that function's CFG.
    ///
    /// On a session with analysis reuse, repeated calls over drifting
    /// profiles are where the two-level arena earns its keep: a profile
    /// seen before returns wholesale ([`Provenance::Warm`]), and a
    /// drifted profile that leaves a function's allocation unchanged
    /// re-folds only the PST regions its [`ProfileDelta`] dirties
    /// ([`Provenance::Incremental`]). The returned report is
    /// byte-identical to a cold run on the same profiles regardless.
    ///
    /// # Errors
    ///
    /// Returns [`DriverError::Config`] when the profiles don't match the
    /// module's shape, or the first driver failure.
    pub fn optimize_profiled(
        &self,
        module: &Module,
        profiles: &[EdgeProfile],
    ) -> Result<ModuleRun, DriverError> {
        self.optimize_profiled_inner(module, profiles, None)
    }

    /// As [`Session::optimize_profiled`], streaming per-function
    /// reports (with their reuse provenance) to `observer`.
    ///
    /// # Errors
    ///
    /// As [`Session::optimize_profiled`].
    pub fn optimize_profiled_observed(
        &self,
        module: &Module,
        profiles: &[EdgeProfile],
        observer: &dyn Observer,
    ) -> Result<ModuleRun, DriverError> {
        self.optimize_profiled_inner(module, profiles, Some(observer))
    }

    fn optimize_profiled_inner(
        &self,
        module: &Module,
        profiles: &[EdgeProfile],
        observer: Option<&dyn Observer>,
    ) -> Result<ModuleRun, DriverError> {
        let st = self.single_target()?;
        let source = ProfileSource::Profiles(profiles.to_vec());
        run_module(module, &self.engine_with(st, &source, observer))
    }

    /// Materializes the per-function edge profiles the session's
    /// [`ProfileSource`] yields for `module` — the base profiles a
    /// drift harness mutates before re-optimizing with
    /// [`Session::optimize_profiled`]. Synthetic sources synthesize
    /// exactly what [`Session::optimize`] would; workload sources run
    /// the training workload once.
    ///
    /// # Errors
    ///
    /// Returns the same configuration/workload failures
    /// [`Session::optimize`] would.
    pub fn resolve_profiles(&self, module: &Module) -> Result<Vec<EdgeProfile>, DriverError> {
        let st = self.single_target()?;
        let profiles = module_profiles(module, &st.target, &self.profile)?;
        Ok(module
            .func_ids()
            .zip(profiles)
            .map(|(fid, p)| {
                p.unwrap_or_else(|| synth_profile(module.func(fid), fid, &self.profile))
            })
            .collect())
    }

    /// Optimizes a batch of modules, fanning **all** their functions out
    /// on the session pool at once (a small module no longer serializes
    /// behind a big one). Results are in input order and byte-identical
    /// to independent [`Session::optimize`] calls.
    ///
    /// # Errors
    ///
    /// Returns the first driver failure across the batch.
    pub fn optimize_many(&self, modules: &[Module]) -> Result<Vec<ModuleRun>, DriverError> {
        self.optimize_many_inner(modules, None)
    }

    /// As [`Session::optimize_many`], streaming per-function reports.
    ///
    /// # Errors
    ///
    /// As [`Session::optimize_many`].
    pub fn optimize_many_observed(
        &self,
        modules: &[Module],
        observer: &dyn Observer,
    ) -> Result<Vec<ModuleRun>, DriverError> {
        self.optimize_many_inner(modules, Some(observer))
    }

    fn optimize_many_inner(
        &self,
        modules: &[Module],
        observer: Option<&dyn Observer>,
    ) -> Result<Vec<ModuleRun>, DriverError> {
        let st = self.single_target()?;
        if modules.len() > 1
            && matches!(
                self.profile,
                ProfileSource::Workload(_) | ProfileSource::Profiles(_)
            )
        {
            return Err(DriverError::Config(
                "a training workload (or an explicit profile vector) names one specific \
                 module's functions and cannot drive a multi-module batch; use synthetic \
                 profiles, or one `optimize` call per module with its own profile session"
                    .to_string(),
            ));
        }
        run_modules(modules, &self.engine(st, observer))
    }

    /// Runs the whole pipeline across every session target and collects
    /// the per-target reports into one [`CrossTargetReport`].
    ///
    /// `load` builds the module *and its profile source* for a target —
    /// generated benchmarks lower against the target's convention, so
    /// each target gets its own build. Targets fan out on the session
    /// pool; each target's module is then processed serially within its
    /// worker, which keeps total parallelism bounded and the report a
    /// pure function of the inputs — byte-identical for every thread
    /// count. The analysis arena is bypassed here (its keys assume the
    /// session's single target).
    ///
    /// # Errors
    ///
    /// Returns [`DriverError::Config`] if any session target is a preset
    /// [`Target`] (cross-target reports need registered specs), or the
    /// first per-target driver failure.
    pub fn cross_target(
        &self,
        load: impl Fn(&TargetSpec) -> Result<(Module, ProfileSource), DriverError> + Sync,
    ) -> Result<CrossTargetReport, DriverError> {
        self.cross_target_inner(&load, None)
    }

    /// As [`Session::cross_target`], streaming per-function reports.
    ///
    /// # Errors
    ///
    /// As [`Session::cross_target`].
    pub fn cross_target_observed(
        &self,
        load: impl Fn(&TargetSpec) -> Result<(Module, ProfileSource), DriverError> + Sync,
        observer: &dyn Observer,
    ) -> Result<CrossTargetReport, DriverError> {
        self.cross_target_inner(&load, Some(observer))
    }

    fn cross_target_inner(
        &self,
        load: &Loader<'_>,
        observer: Option<&dyn Observer>,
    ) -> Result<CrossTargetReport, DriverError> {
        for st in &self.targets {
            if st.spec.is_none() {
                return Err(DriverError::Config(format!(
                    "cross-target runs need registered targets; `{}` is a preset convention",
                    st.target.name()
                )));
            }
        }
        let items: Vec<&SessionTarget> = self.targets.iter().collect();
        let outcomes = self
            .pool
            .run_batch(items, |_, st| {
                let spec = st.spec.as_ref().expect("checked above");
                let (module, profile) = load(spec)?;
                // Serial within the worker: the target fan-out is the
                // parallelism, and a one-thread pool runs inline.
                let inline = Pool::new(1);
                let engine = Engine {
                    target: &st.target,
                    costs: &st.costs,
                    profile_source: &profile,
                    techniques: self.techniques,
                    pool: &inline,
                    arena: None,
                    observer,
                    policy: self.failure_policy,
                    budget: self.budget,
                };
                run_module(&module, &engine).map(|run| (spec.clone(), run.report))
            })
            .map_err(|p| DriverError::Panicked {
                unit: self.targets[p.index].target.name().to_string(),
                message: p.message(),
            })?;
        let mut targets = Vec::with_capacity(outcomes.len());
        for outcome in outcomes {
            targets.push(outcome?);
        }
        Ok(CrossTargetReport::new(targets))
    }
}

/// One module run's full configuration: the session's settings for one
/// target, with the pool that schedules its per-function work.
struct Engine<'e> {
    target: &'e Target,
    costs: &'e SpillCostModel,
    profile_source: &'e ProfileSource,
    techniques: TechniqueSet,
    pool: &'e Pool,
    arena: Option<&'e AnalysisArena>,
    observer: Option<&'e dyn Observer>,
    policy: FailurePolicy,
    budget: Budget,
}

/// Stage 1 (serial): the module's shape checks, then training profiles,
/// if a workload is given.
fn module_profiles(
    module: &Module,
    target: &Target,
    source: &ProfileSource,
) -> Result<Vec<Option<EdgeProfile>>, DriverError> {
    check_registers(module, target)?;
    match source {
        ProfileSource::Workload(runs) => {
            // A workload's `FuncId`s name one specific module's
            // functions; a session-level workload replayed against a
            // different module would train on the wrong code. Out-of-
            // range ids are certainly that mistake — reject them
            // up front (same-arity mismatches are undetectable here).
            if let Some((fid, _)) = runs.iter().find(|(f, _)| f.index() >= module.num_funcs()) {
                return Err(DriverError::Config(format!(
                    "training workload names function #{} but module `{}` has {} function(s); \
                     workload profiles are per-module — build the session's ProfileSource for \
                     the module being optimized",
                    fid.index(),
                    module.name(),
                    module.num_funcs()
                )));
            }
            let mut vm = Machine::new(module, target);
            vm.set_fuel(1 << 30);
            for (f, args) in runs {
                vm.call(*f, args).map_err(DriverError::Workload)?;
            }
            Ok(module
                .func_ids()
                .map(|f| Some(vm.edge_profile(f)))
                .collect())
        }
        ProfileSource::Synthetic { .. } => Ok(module.func_ids().map(|_| None).collect()),
        ProfileSource::Profiles(profiles) => {
            // Explicit profiles are positional over one specific
            // module's functions; shape mismatches are certainly the
            // wrong-module mistake — reject them up front, per-module.
            if profiles.len() != module.num_funcs() {
                return Err(DriverError::Config(format!(
                    "explicit profile vector has {} profile(s) but module `{}` has {} \
                     function(s); profiles are per-module — build the vector for the module \
                     being optimized",
                    profiles.len(),
                    module.name(),
                    module.num_funcs()
                )));
            }
            for (fid, p) in module.func_ids().zip(profiles) {
                let func = module.func(fid);
                let edges = spillopt_ir::Cfg::compute(func).num_edges();
                if p.edge_counts().len() != edges {
                    return Err(DriverError::Config(format!(
                        "profile for function #{} (`{}`) has {} edge count(s) but its CFG has \
                         {} edge(s); per-module profiles must be measured on the module being \
                         optimized",
                        fid.index(),
                        func.name(),
                        p.edge_counts().len(),
                        edges
                    )));
                }
            }
            Ok(profiles.iter().cloned().map(Some).collect())
        }
    }
}

/// Rejects a module that names a physical register outside `target`'s
/// register file. Registers are dense indices into every per-register
/// table the pipeline builds, so such a module (parsed text can name
/// any `rN`) would otherwise panic deep inside liveness.
fn check_registers(module: &Module, target: &Target) -> Result<(), DriverError> {
    let limit = target.reg_index_limit();
    for fid in module.func_ids() {
        let func = module.func(fid);
        for b in func.block_ids() {
            for inst in &func.block(b).insts {
                let mut outside = None;
                let mut check = |r: Reg| match r {
                    Reg::Phys(p) if p.index() >= limit => outside = Some(p),
                    _ => {}
                };
                inst.for_each_use(&mut check);
                inst.for_each_def(&mut check);
                if let Some(p) = outside {
                    return Err(DriverError::Config(format!(
                        "function `{}` uses physical register {p}, outside target `{}`'s \
                         register file (r0..r{})",
                        func.name(),
                        target.name(),
                        limit.saturating_sub(1)
                    )));
                }
            }
        }
    }
    Ok(())
}

/// The deterministic synthetic profile [`ProfileSource::Synthetic`]
/// yields for one function (shared by the engine's lazy per-function
/// path and [`Session::resolve_profiles`]).
fn synth_profile(func: &Function, fid: FuncId, source: &ProfileSource) -> EdgeProfile {
    let _s = spillopt_obs::span("profile_synth");
    let ProfileSource::Synthetic {
        walks,
        max_steps,
        seed,
    } = source
    else {
        unreachable!("workload and explicit profiles are precomputed")
    };
    let cfg = spillopt_ir::Cfg::compute(func);
    random_walk_profile(
        &cfg,
        *walks,
        *max_steps,
        seed ^ (fid.index() as u64).wrapping_mul(0x9e37_79b9),
    )
}

/// Runs one module through the engine (see [`run_modules`]).
fn run_module(module: &Module, engine: &Engine<'_>) -> Result<ModuleRun, DriverError> {
    let mut runs = run_modules(std::slice::from_ref(module), engine)?;
    Ok(runs.pop().expect("one run per module"))
}

/// Runs a batch of modules through the engine: profile → allocate →
/// analyses → selected techniques, with every function of every module
/// fanned out on the engine's pool at once (a small module never
/// serializes behind a big one). Runs come back in input order.
fn run_modules(modules: &[Module], engine: &Engine<'_>) -> Result<Vec<ModuleRun>, DriverError> {
    // Stage 1 (serial): per-module training profiles.
    let mut items: Vec<(&Module, FuncId, Option<EdgeProfile>)> = Vec::new();
    for module in modules {
        let profiles = module_profiles(module, engine.target, engine.profile_source)?;
        items.extend(
            module
                .func_ids()
                .zip(profiles)
                .map(|(fid, p)| (module, fid, p)),
        );
    }
    let units: Vec<(&Module, FuncId)> = items.iter().map(|&(m, fid, _)| (m, fid)).collect();
    // A panic names `module::function`, whether the pool caught it or
    // the function's containment boundary classified it.
    let panicked = |i: usize, message: String| {
        let (module, fid) = units[i];
        DriverError::Panicked {
            unit: format!("{}::{}", module.name(), module.func(fid).name()),
            message,
        }
    };

    // Stage 2 (parallel): every function of every module, one batch.
    let outcomes = engine
        .pool
        .run_batch(items, |_, (module, fid, profile)| {
            run_function(module, fid, profile, engine)
        })
        .map_err(|p| panicked(p.index, p.message()))?;

    // Regroup per module, in input order (items are module-major).
    let mut outcomes = outcomes.into_iter().enumerate();
    let mut runs = Vec::with_capacity(modules.len());
    for module in modules {
        let mut reports = Vec::with_capacity(module.num_funcs());
        let mut allocated = Vec::with_capacity(module.num_funcs());
        let mut faults = Vec::new();
        for (i, outcome) in outcomes.by_ref().take(module.num_funcs()) {
            let (report, alloc, fault) = outcome.map_err(|e| match e {
                DriverError::Panicked { message, .. } => panicked(i, message),
                e => e,
            })?;
            reports.push(report);
            allocated.push(alloc);
            faults.extend(fault);
        }
        runs.push(ModuleRun::from_parts(
            ModuleReport::new(
                module.name().to_string(),
                engine.target.name().to_string(),
                reports,
            ),
            allocated,
            faults,
        ));
    }
    for run in &runs {
        notify_module_done(engine, &run.report)?;
    }
    Ok(runs)
}

/// One function's pipeline, inside a containment boundary: the
/// arena-aware attempt runs under `catch_unwind` with the session's
/// [`Budget`] armed ([`contained`]); panics, invalid placements, and
/// budget trips are classified into structured errors and the arena is
/// purged of any partial state. The engine's
/// [`FailurePolicy`] then decides whether the failure surfaces (`Fail`,
/// the historical behavior), walks the degradation ladder (`Degrade`),
/// or skips the function (`Skip`) — the latter two recording the
/// original error in the run's fault ledger.
fn run_function(
    module: &Module,
    fid: FuncId,
    profile: Option<EdgeProfile>,
    engine: &Engine<'_>,
) -> Result<FunctionOutcome, DriverError> {
    // Outermost per-function span: on a serial pool this is the flush
    // boundary (on persistent workers, `pool_job` wraps it).
    let _fn_span = spillopt_obs::span("function");
    let source_func = module.func(fid);
    let profile = profile.unwrap_or_else(|| synth_profile(source_func, fid, engine.profile_source));
    let text = engine.arena.map(|_| source_func.to_string());
    // One wall-clock deadline per function, shared by every attempt
    // (ladder rungs included); iteration caps are per attempt.
    let deadline = engine.budget.deadline_from_now();

    // Quarantined repeat offenders sit out their backoff window without
    // an attempt (Degrade/Skip only; `Fail` never quarantines).
    if engine.policy != FailurePolicy::Fail {
        if let (Some(arena), Some(text)) = (engine.arena, text.as_deref()) {
            if arena.quarantine_skip(text) {
                let (report, alloc) = passthrough(fid, source_func);
                let fault = FunctionFault {
                    function: source_func.name().to_string(),
                    index: fid.index(),
                    kind: FaultKind::Quarantined,
                    error: "in quarantine backoff after repeated failures".to_string(),
                    action: FaultAction::Skipped,
                };
                notify_retired(engine, module, &report, Provenance::Degraded)?;
                return Ok((report, alloc, Some(fault)));
            }
        }
    }

    let function = source_func.name();
    let full = contained(function, engine, deadline, || {
        attempt_full(fid, source_func, profile.clone(), engine, text.as_deref())
    });
    let error = match full {
        Ok((report, alloc, provenance)) => {
            if engine.policy != FailurePolicy::Fail {
                if let (Some(arena), Some(text)) = (engine.arena, text.as_deref()) {
                    arena.record_success(text);
                }
            }
            notify_retired(engine, module, &report, provenance)?;
            return Ok((report, alloc, None));
        }
        Err(error) => error,
    };

    // The attempt failed. Never keep (possibly partial) cached state
    // for a failed function; under Degrade/Skip also advance its
    // quarantine entry.
    if let (Some(arena), Some(text)) = (engine.arena, text.as_deref()) {
        if engine.policy == FailurePolicy::Fail {
            arena.purge(text);
        } else {
            arena.record_failure(text);
        }
    }
    if engine.policy == FailurePolicy::Fail {
        return Err(error);
    }
    spillopt_obs::count("fault_contained", 1);
    let kind = match &error {
        DriverError::BudgetExceeded { .. } => FaultKind::BudgetExceeded,
        DriverError::InvalidPlacement { .. } => FaultKind::InvalidPlacement,
        _ => FaultKind::Panic,
    };
    let fault_entry = |action: FaultAction| FunctionFault {
        function: source_func.name().to_string(),
        index: fid.index(),
        kind,
        error: error.to_string(),
        action,
    };

    // Degrade: walk the guarantee chain — hier-jump → hier-exec → Chow
    // → entry/exit, within the session's technique set — with fresh
    // arena-free single-technique attempts, each in its own containment
    // boundary and sharing the function's deadline. Degraded products
    // are never cached: a later clean call runs cold and is
    // byte-identical to a fresh session. The first rung that succeeds
    // retires the function.
    if engine.policy == FailurePolicy::Degrade {
        for strategy in [
            Strategy::HierJump,
            Strategy::HierExec,
            Strategy::Shrinkwrap,
            Strategy::Baseline,
        ] {
            if !engine.techniques.contains(strategy) {
                continue;
            }
            let rung = contained(function, engine, deadline, || {
                cold_pipeline(
                    fid,
                    source_func,
                    engine,
                    profile.clone(),
                    Fold::Single(strategy),
                )
            });
            if let Ok(cold) = rung {
                spillopt_obs::count("fault_degraded", 1);
                let fault = fault_entry(FaultAction::Degraded { to: strategy });
                notify_retired(engine, module, &cold.report, Provenance::Degraded)?;
                return Ok((cold.report, (cold.func, cold.placements), Some(fault)));
            }
        }
    }

    // Skip policy, or a fully exhausted ladder: unoptimized passthrough.
    spillopt_obs::count("fault_skipped", 1);
    let (report, alloc) = passthrough(fid, source_func);
    let fault = fault_entry(FaultAction::Skipped);
    notify_retired(engine, module, &report, Provenance::Degraded)?;
    Ok((report, alloc, Some(fault)))
}

/// Runs one pipeline attempt inside the containment boundary: arms the
/// engine's budget, catches panics (typed budget and injection payloads
/// included), and classifies any failure into a structured error.
fn contained<T>(
    function: &str,
    engine: &Engine<'_>,
    deadline: Option<Instant>,
    attempt: impl FnOnce() -> Result<T, DriverError>,
) -> Result<T, DriverError> {
    catch_unwind(AssertUnwindSafe(|| {
        let _budget = arm_budget(engine, deadline);
        attempt()
    }))
    .unwrap_or_else(|payload| Err(classify_panic(function, payload)))
}

/// The full pipeline attempt: resolve against the two-level arena and
/// run as little of the pipeline as the cached structure allows — warm
/// wholesale, incremental re-fold on drift, cold only for unseen
/// functions or allocation-changing drifts.
fn attempt_full(
    fid: FuncId,
    source_func: &Function,
    profile: EdgeProfile,
    engine: &Engine<'_>,
    text: Option<&str>,
) -> Result<(FunctionReport, AllocatedFunction, Provenance), DriverError> {
    let (Some(arena), Some(text)) = (engine.arena, text) else {
        // No arena: the plain cold pipeline — also the differential
        // oracle the drift fuzzer compares every incremental result
        // against.
        let cold = cold_pipeline(fid, source_func, engine, profile, Fold::Suite)?;
        return Ok((cold.report, (cold.func, cold.placements), Provenance::Cold));
    };

    let pkey = profile_key(&profile);
    if let Some(state) = arena.structure(text) {
        let mut guard = state.lock().unwrap();
        let st = &mut *guard;
        if let Some((report, placements)) = st.outcomes.get(&pkey) {
            arena.record_hit();
            let mut report = report.clone();
            report.index = fid.index();
            return Ok((
                report,
                (st.func.clone(), placements.clone()),
                Provenance::Warm,
            ));
        }
        // The profile drifted. The allocator's only profile input is
        // its per-block weight vector, so equal weights prove the
        // cached allocation — and every analysis over it — is still
        // exact; unequal weights re-allocate once and compare.
        let weights = allocation_weights(source_func, &profile);
        let allocation_unchanged = weights == st.weights || {
            let mut func = source_func.clone();
            let _s = spillopt_obs::span("allocate");
            let alloc = allocate(&mut func, engine.target, Some(&profile));
            alloc.spilled_vregs == st.spilled_vregs && func.to_string() == st.func_text
        };
        if allocation_unchanged {
            // Rebase the weight gate so repeated drifts to this weight
            // vector take the fast equality path.
            st.weights = weights;
            let (report, allocated) = refold_incremental(fid, st, engine, profile, arena)?;
            st.outcomes
                .insert(pkey, (report.clone(), allocated.1.clone()));
            return Ok((report, allocated, Provenance::Incremental));
        }
        // The drift changed the allocation itself: rebuild the whole
        // structure cold (the old outcomes priced a different
        // function, so they are cleared with it).
        arena.record_miss();
        let (new_state, (report, allocated)) =
            cold_structure(fid, source_func, engine, profile, pkey)?;
        *st = new_state;
        return Ok((report, allocated, Provenance::Cold));
    }

    // Unseen function: full cold pipeline, then cache the structure.
    arena.record_miss();
    let (state, (report, allocated)) = cold_structure(fid, source_func, engine, profile, pkey)?;
    arena.insert_structure(text.to_string(), state);
    Ok((report, allocated, Provenance::Cold))
}

/// The ladder's last rung: the source function passes through
/// unoptimized (still pre-allocation). [`crate::ModuleRun::apply`]
/// emits it as-is, guided by the fault ledger.
fn passthrough(fid: FuncId, source_func: &Function) -> (FunctionReport, AllocatedFunction) {
    let insts = source_func
        .block_ids()
        .map(|b| source_func.block(b).insts.len())
        .sum();
    let report = FunctionReport {
        index: fid.index(),
        name: source_func.name().to_string(),
        blocks: source_func.num_blocks(),
        insts,
        spilled_vregs: 0,
        callee_saved: 0,
        strategies: Vec::new(),
        best: None,
    };
    (report, (source_func.clone(), Vec::new()))
}

/// Classifies a caught panic payload into a structured driver error:
/// typed budget trips and injected errors keep their structure;
/// everything else is a genuine pipeline panic.
fn classify_panic(function: &str, payload: Box<dyn std::any::Any + Send>) -> DriverError {
    if let Some(trip) = payload.downcast_ref::<spillopt_obs::fault::BudgetExceeded>() {
        return DriverError::BudgetExceeded {
            function: function.to_string(),
            phase: trip.phase,
        };
    }
    if let Some(fault) = payload.downcast_ref::<spillopt_obs::fault::InjectedFault>() {
        if fault.kind == spillopt_obs::fault::InjectionKind::Error {
            return DriverError::InvalidPlacement {
                function: function.to_string(),
                technique: "injected",
                detail: fault.to_string(),
            };
        }
    }
    DriverError::Panicked {
        unit: function.to_string(),
        message: payload_message(&*payload),
    }
}

/// Arms the engine's cooperative budget for one attempt on the current
/// thread; `None` (nothing armed, nothing checked) when the session has
/// no caps.
fn arm_budget(engine: &Engine<'_>, deadline: Option<Instant>) -> Option<BudgetScope> {
    (deadline.is_some() || engine.budget.iter_cap().is_some()).then(|| {
        BudgetScope::arm(BudgetSpec {
            deadline,
            max_iters: engine.budget.iter_cap(),
        })
    })
}

/// Delivers `function_retired` inside its own containment boundary: an
/// observer panic is the observer's fault, surfaced as
/// [`DriverError::ObserverPanicked`] — never degraded, never attributed
/// to the function whose report it was handling.
fn notify_retired(
    engine: &Engine<'_>,
    module: &Module,
    report: &FunctionReport,
    provenance: Provenance,
) -> Result<(), DriverError> {
    let Some(obs) = engine.observer else {
        return Ok(());
    };
    catch_unwind(AssertUnwindSafe(|| {
        obs.function_retired(engine.target.name(), module.name(), report, provenance)
    }))
    .map_err(|payload| DriverError::ObserverPanicked {
        observer: obs.name().to_string(),
        callback: "function_retired",
        message: payload_message(&*payload),
    })
}

/// As [`notify_retired`], for `module_done`.
fn notify_module_done(engine: &Engine<'_>, report: &ModuleReport) -> Result<(), DriverError> {
    let Some(obs) = engine.observer else {
        return Ok(());
    };
    catch_unwind(AssertUnwindSafe(|| obs.module_done(report))).map_err(|payload| {
        DriverError::ObserverPanicked {
            observer: obs.name().to_string(),
            callback: "module_done",
            message: payload_message(&*payload),
        }
    })
}

/// The allocator's per-block weight vector — [`allocate`]'s only
/// profile input (see `spillopt-regalloc`): equal vectors prove
/// bit-identical allocations, which is what gates the arena's
/// incremental path.
fn allocation_weights(func: &Function, profile: &EdgeProfile) -> Vec<u64> {
    func.block_ids()
        .map(|b| profile.block_count(b).max(1))
        .collect()
}

/// A retired (report, allocated) pair, before the fault-ledger column
/// of a [`FunctionOutcome`] is attached.
type Retired = (FunctionReport, AllocatedFunction);

/// The placement fold a [`cold_pipeline`] run ends in.
#[derive(Clone, Copy)]
enum Fold {
    /// Every technique, through [`run_suite`] (the arena-off path).
    Suite,
    /// Every technique, through [`run_suite_memoized`], keeping the
    /// per-region [`PlacementMemo`] later incremental re-folds start
    /// from (the arena's cold path).
    Memoized,
    /// One technique alone (a degradation-ladder rung).
    Single(Strategy),
}

/// One cold pipeline run's products.
struct Cold {
    /// The allocated (physical, pre-placement) function.
    func: Function,
    spilled_vregs: usize,
    cache: AnalysisCache,
    /// Set by [`Fold::Memoized`] when the function needs placement.
    memo: Option<PlacementMemo>,
    report: FunctionReport,
    placements: Vec<(Strategy, Placement)>,
}

/// The per-function pipeline, cold: allocate under `profile`, compute
/// the shared analyses once, run `fold`'s placements, and fill the
/// report with the session's selected strategies. Functions without
/// callee-saved use need no placement and retire with an empty report
/// body under every fold.
fn cold_pipeline(
    fid: FuncId,
    source_func: &Function,
    engine: &Engine<'_>,
    profile: EdgeProfile,
    fold: Fold,
) -> Result<Cold, DriverError> {
    let mut func = source_func.clone();
    let alloc = {
        let _s = spillopt_obs::span("allocate");
        allocate(&mut func, engine.target, Some(&profile))
    };
    let cache = AnalysisCache::compute(&func, engine.target, profile);
    let mut report = report_shell(fid, &func, &cache, alloc.spilled_vregs);
    let mut memo = None;
    let placements = if cache.needs_placement() {
        let inputs = suite_inputs(&cache);
        let options = SuiteOptions::priced(*engine.costs);
        let invalid = |e| suite_error(&func, e);
        match fold {
            Fold::Suite => {
                let suite = run_suite(&cache.cfg, &inputs, &options).map_err(invalid)?;
                fill_report(&mut report, suite, engine.techniques)
            }
            Fold::Memoized => {
                let (suite, m) =
                    run_suite_memoized(&cache.cfg, &inputs, &options).map_err(invalid)?;
                memo = Some(m);
                fill_report(&mut report, suite, engine.techniques)
            }
            Fold::Single(strategy) => {
                let technique = match strategy {
                    Strategy::Baseline => Technique::EntryExit,
                    Strategy::Shrinkwrap => Technique::Chow,
                    Strategy::HierExec => Technique::HierExec,
                    Strategy::HierJump => Technique::HierJump,
                };
                let (placement, cost) =
                    run_technique(&cache.cfg, &inputs, &options, technique).map_err(invalid)?;
                report.strategies.push(StrategyReport {
                    strategy,
                    cost,
                    static_count: placement.static_count(),
                    placement: placement.clone(),
                });
                report.best = Some(strategy);
                vec![(strategy, placement)]
            }
        }
    } else {
        Vec::new()
    };
    Ok(Cold {
        func,
        spilled_vregs: alloc.spilled_vregs,
        cache,
        memo,
        report,
        placements,
    })
}

/// Runs the memoized cold pipeline for one function and packages the
/// result as an arena [`StructState`] — its outcome under `pkey`
/// already recorded — plus the retired outcome.
fn cold_structure(
    fid: FuncId,
    source_func: &Function,
    engine: &Engine<'_>,
    profile: EdgeProfile,
    pkey: ProfileKey,
) -> Result<(StructState, Retired), DriverError> {
    let weights = allocation_weights(source_func, &profile);
    let cold = cold_pipeline(fid, source_func, engine, profile, Fold::Memoized)?;
    let mut outcomes = HashMap::new();
    outcomes.insert(pkey, (cold.report.clone(), cold.placements.clone()));
    let state = StructState {
        func_text: cold.func.to_string(),
        func: cold.func.clone(),
        spilled_vregs: cold.spilled_vregs,
        weights,
        cache: cold.cache,
        memo: cold.memo,
        outcomes,
    };
    Ok((state, (cold.report, (cold.func, cold.placements))))
}

/// Re-establishes one function's placement after a profile drift that
/// left its allocation unchanged: computes the [`ProfileDelta`] from
/// the structure's base profile, re-folds only the dirtied PST regions,
/// and rebases the structure on the new profile.
fn refold_incremental(
    fid: FuncId,
    st: &mut StructState,
    engine: &Engine<'_>,
    profile: EdgeProfile,
    arena: &AnalysisArena,
) -> Result<Retired, DriverError> {
    let delta = ProfileDelta::between(&st.cache.profile, &profile);
    let mut report = report_shell(fid, &st.func, &st.cache, st.spilled_vregs);
    let placements = match st.memo.as_mut() {
        Some(memo) => {
            let inputs = SuiteInputs::analyzed(
                &st.cache.usage,
                &profile,
                st.cache.cyclic(),
                st.cache.pst(),
                st.cache.derived(),
            );
            let (suite, refolds) = run_suite_incremental(
                &st.cache.cfg,
                &inputs,
                &SuiteOptions::priced(*engine.costs),
                memo,
                &delta,
            )
            .map_err(|e| suite_error(&st.func, e))?;
            arena.record_incremental(refolds);
            fill_report(&mut report, suite, engine.techniques)
        }
        // No callee-saved use: the report is profile-independent and
        // there is nothing to re-fold.
        None => {
            arena.record_incremental(RefoldStats::default());
            Vec::new()
        }
    };
    st.cache.profile = profile;
    Ok((report, (st.func.clone(), placements)))
}

/// Maps a core suite technique label to the reporting strategy name.
fn technique_name(label: &'static str) -> &'static str {
    match label {
        "entry_exit" => Strategy::Baseline.name(),
        "chow" => Strategy::Shrinkwrap.name(),
        "hierarchical_exec" => Strategy::HierExec.name(),
        "hierarchical_jump" => Strategy::HierJump.name(),
        other => other,
    }
}

/// The profile-independent frame of one function's report: identity,
/// size, and allocation facts. Strategies are filled by
/// [`fill_report`] (and stay empty for functions that need no
/// placement).
fn report_shell(
    fid: FuncId,
    func: &Function,
    cache: &AnalysisCache,
    spilled_vregs: usize,
) -> FunctionReport {
    let insts = func.block_ids().map(|b| func.block(b).insts.len()).sum();
    FunctionReport {
        index: fid.index(),
        name: func.name().to_string(),
        blocks: func.num_blocks(),
        insts,
        spilled_vregs,
        callee_saved: cache.usage.num_regs(),
        strategies: Vec::new(),
        best: None,
    }
}

/// The suite inputs borrowed from one [`AnalysisCache`] (lazy analyses
/// materialize here; functions that need no placement never call this).
fn suite_inputs(cache: &AnalysisCache) -> SuiteInputs<'_> {
    SuiteInputs::analyzed(
        &cache.usage,
        &cache.profile,
        cache.cyclic(),
        cache.pst(),
        cache.derived(),
    )
}

/// Distills a computed [`PlacementSuite`] into the report's selected
/// strategies (and the per-strategy placements an applied module run
/// needs), picking the best by predicted cost.
fn fill_report(
    report: &mut FunctionReport,
    suite: PlacementSuite,
    techniques: TechniqueSet,
) -> Vec<(Strategy, Placement)> {
    let entries = [
        (Strategy::Baseline, suite.entry_exit),
        (Strategy::Shrinkwrap, suite.chow),
        (Strategy::HierExec, suite.hierarchical_exec.placement),
        (Strategy::HierJump, suite.hierarchical_jump.placement),
    ];
    let mut placements = Vec::new();
    for ((strategy, placement), cost) in entries.into_iter().zip(suite.predicted) {
        if !techniques.contains(strategy) {
            continue;
        }
        report.strategies.push(StrategyReport {
            strategy,
            cost,
            static_count: placement.static_count(),
            placement: placement.clone(),
        });
        placements.push((strategy, placement));
    }
    report.best = report
        .strategies
        .iter()
        .min_by_key(|s| s.cost)
        .map(|s| s.strategy);
    placements
}

/// Converts a placement-validity failure into the driver's structured
/// error.
fn suite_error(func: &Function, e: SuiteError) -> DriverError {
    DriverError::InvalidPlacement {
        function: func.name().to_string(),
        technique: technique_name(e.technique),
        detail: e
            .errors
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("; "),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spillopt_benchgen::{benchmark_by_name, build_bench};
    use spillopt_sync::atomic::AtomicUsize;

    fn mcf() -> (Module, Vec<(FuncId, Vec<i64>)>, Target) {
        let target = Target::default();
        let spec = benchmark_by_name("mcf").expect("known benchmark");
        let bench = build_bench(&spec, &target);
        (bench.module, bench.train_runs, target)
    }

    #[test]
    fn builder_validates_once() {
        assert!(matches!(
            OptimizerBuilder::new().target_named("pdp11").build(),
            Err(DriverError::Config(_))
        ));
        assert!(matches!(
            OptimizerBuilder::new()
                .techniques(TechniqueSet::EMPTY)
                .build(),
            Err(DriverError::Config(_))
        ));
        let session = OptimizerBuilder::new()
            .target_named("aarch64-aapcs64")
            .threads(1)
            .build()
            .expect("valid");
        assert_eq!(session.targets(), vec!["aarch64-aapcs64"]);
        assert_eq!(session.threads(), 1);
    }

    #[test]
    fn all_targets_session_rejects_single_module_optimize() {
        let (module, _, _) = mcf();
        let session = OptimizerBuilder::new()
            .all_targets()
            .threads(1)
            .build()
            .expect("valid");
        assert!(matches!(
            session.optimize(&module),
            Err(DriverError::Config(_))
        ));
    }

    #[test]
    fn warm_session_reuses_the_arena_and_keeps_bytes_identical() {
        let (module, runs, target) = mcf();
        let session = OptimizerBuilder::new()
            .target(target)
            .profile(ProfileSource::Workload(runs))
            .threads(2)
            .build()
            .expect("valid");
        let cold = session.optimize(&module).expect("first run");
        assert_eq!(session.arena_stats().hits, 0);
        let warm = session.optimize(&module).expect("second run");
        let stats = session.arena_stats();
        assert!(stats.hits > 0, "second run never hit the arena: {stats:?}");
        assert_eq!(
            cold.report.to_json().to_compact(),
            warm.report.to_json().to_compact(),
            "warm run changed report bytes"
        );
    }

    #[test]
    fn technique_subset_reports_only_selected_strategies() {
        let (module, runs, target) = mcf();
        let session = OptimizerBuilder::new()
            .target(target)
            .profile(ProfileSource::Workload(runs))
            .techniques(TechniqueSet::BASELINE.with(Strategy::HierJump))
            .threads(1)
            .build()
            .expect("valid");
        let run = session.optimize(&module).expect("optimize");
        let mut placed = 0;
        for f in &run.report.functions {
            for s in &f.strategies {
                assert!(
                    matches!(s.strategy, Strategy::Baseline | Strategy::HierJump),
                    "unselected strategy {} reported",
                    s.strategy.name()
                );
            }
            placed += f.strategies.len();
        }
        assert!(placed > 0, "no strategies reported at all");
    }

    #[test]
    fn observer_streams_every_placed_function() {
        let (module, runs, target) = mcf();
        let session = OptimizerBuilder::new()
            .target(target)
            .profile(ProfileSource::Workload(runs))
            .threads(2)
            .build()
            .expect("valid");
        let seen = AtomicUsize::new(0);
        let observer = |_t: &str, _m: &str, _r: &FunctionReport, _p: Provenance| {
            seen.fetch_add(1, Ordering::Relaxed);
        };
        let run = session.optimize_observed(&module, &observer).expect("run");
        assert_eq!(seen.load(Ordering::Relaxed), run.report.functions.len());
    }

    #[test]
    #[should_panic(expected = "was not computed")]
    fn apply_rejects_a_strategy_outside_the_technique_set() {
        let (module, runs, target) = mcf();
        let run = OptimizerBuilder::new()
            .target(target)
            .profile(ProfileSource::Workload(runs))
            .techniques(TechniqueSet::BASELINE)
            .threads(1)
            .build()
            .expect("valid")
            .optimize(&module)
            .expect("optimize");
        // hier-jump was never computed; silently emitting the module
        // without saves would violate the calling convention.
        let _ = run.apply(Some(Strategy::HierJump));
    }

    #[test]
    fn workload_naming_missing_functions_is_rejected() {
        let (module, _, target) = mcf();
        let bogus = vec![(FuncId::from_index(module.num_funcs() + 3), vec![1])];
        let err = OptimizerBuilder::new()
            .target(target)
            .profile(ProfileSource::Workload(bogus))
            .threads(1)
            .build()
            .expect("valid")
            .optimize(&module)
            .expect_err("workload names a function the module lacks");
        assert!(matches!(err, DriverError::Config(_)), "{err}");
        assert!(err.to_string().contains("per-module"), "{err}");
    }

    #[test]
    fn optimize_many_rejects_workload_sessions_for_batches() {
        let (module, runs, target) = mcf();
        let session = OptimizerBuilder::new()
            .target(target)
            .profile(ProfileSource::Workload(runs))
            .threads(1)
            .build()
            .expect("valid");
        let batch = vec![module.clone(), module];
        let err = session
            .optimize_many(&batch)
            .expect_err("one workload cannot train two modules");
        assert!(matches!(err, DriverError::Config(_)), "{err}");
    }

    #[test]
    fn technique_set_parses_and_renders() {
        assert_eq!(TechniqueSet::parse("all").unwrap(), TechniqueSet::ALL);
        let set = TechniqueSet::parse("baseline, hier-jump").unwrap();
        assert!(set.contains(Strategy::Baseline));
        assert!(set.contains(Strategy::HierJump));
        assert!(!set.contains(Strategy::Shrinkwrap));
        assert_eq!(set.len(), 2);
        assert_eq!(set.names(), "baseline,hier-jump");
        assert_eq!(TechniqueSet::parse(&set.names()).unwrap(), set);
        let err = TechniqueSet::parse("bogus").unwrap_err();
        assert!(err.contains("hier-jump"), "{err}");
        assert!(TechniqueSet::parse("").is_err());
    }

    /// Display ↔ parse round-trip, exhaustively over the whole (16-set)
    /// space: every non-empty subset renders to a string `parse`
    /// reproduces bit-for-bit, and the empty set both renders empty and
    /// is rejected on the way back in.
    #[test]
    fn technique_set_display_parse_round_trips_exhaustively() {
        let all = Strategy::all();
        for mask in 0u32..(1 << all.len()) {
            let members: Vec<Strategy> = all
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, s)| *s)
                .collect();
            let set = TechniqueSet::of(&members);
            let rendered = set.to_string();
            assert_eq!(rendered, set.names(), "Display must match names()");
            if members.is_empty() {
                assert_eq!(rendered, "");
                let err = TechniqueSet::parse(&rendered).unwrap_err();
                assert!(err.contains("empty"), "{err}");
            } else {
                assert_eq!(
                    TechniqueSet::parse(&rendered).unwrap(),
                    set,
                    "`{rendered}` did not round-trip"
                );
            }
        }
        // Whitespace and separators do not defeat the empty-set check.
        for s in [" ", ",", " , "] {
            assert!(TechniqueSet::parse(s).is_err(), "`{s}` accepted");
        }
        // A duplicate name is idempotent, not an error.
        assert_eq!(
            TechniqueSet::parse("baseline,baseline").unwrap(),
            TechniqueSet::BASELINE
        );
    }
}

/// Model-checked suites for the arena's concurrency skeleton: the
/// warm-hit/insert, LRU-evict, and quarantine protocols explored over
/// every interleaving reachable under the preemption bound, on an
/// `Arena<u32>` (the production lock/atomic structure with a trivial
/// payload). Run with `cargo test -p spillopt-driver --features model`.
#[cfg(all(test, feature = "model"))]
mod arena_model_tests {
    use super::{Arc, Arena};
    use spillopt_sync::model::{check, ModelOptions};
    use spillopt_sync::thread;

    /// Warm-hit vs. insert race: two threads look up the same key and
    /// insert on miss. Under every schedule the arena ends with exactly
    /// one entry, every lookup-after-insert hits, and the hit/miss
    /// accounting matches what the threads actually observed.
    #[test]
    fn model_warm_hit_insert_race() {
        let report = check(ModelOptions::new(), || {
            let arena: Arc<Arena<u32>> = Arc::new(Arena::new(0));
            let worker = {
                let arena = Arc::clone(&arena);
                thread::spawn(move || match arena.structure("f") {
                    Some(state) => {
                        arena.record_hit();
                        *state.lock().unwrap()
                    }
                    None => {
                        arena.record_miss();
                        arena.insert_structure("f".into(), 7);
                        7
                    }
                })
            };
            match arena.structure("f") {
                Some(state) => {
                    arena.record_hit();
                    assert_eq!(*state.lock().unwrap(), 7);
                }
                None => {
                    arena.record_miss();
                    arena.insert_structure("f".into(), 7);
                }
            }
            assert_eq!(worker.join().unwrap(), 7);
            let stats = arena.stats();
            assert_eq!(stats.entries, 1, "duplicate inserts must coalesce");
            assert_eq!(stats.hits + stats.misses, 2);
            assert!(stats.misses >= 1, "someone had to populate the entry");
        });
        eprintln!(
            "model_warm_hit_insert_race: {} schedules",
            report.executions
        );
        assert!(report.executions > 1);
    }

    /// Concurrent inserts against capacity 1: under every schedule
    /// exactly one entry survives and exactly one eviction is counted —
    /// the evict scan must never see (or double-evict) a map it doesn't
    /// hold the lock for.
    #[test]
    fn model_capacity_evict_race() {
        let report = check(ModelOptions::new(), || {
            let arena: Arc<Arena<u32>> = Arc::new(Arena::new(1));
            let worker = {
                let arena = Arc::clone(&arena);
                thread::spawn(move || arena.insert_structure("a".into(), 1))
            };
            arena.insert_structure("b".into(), 2);
            worker.join().unwrap();
            let stats = arena.stats();
            assert_eq!(stats.entries, 1, "capacity 1 must hold");
            assert_eq!(stats.evictions, 1, "exactly one insert loses");
            // The survivor is intact and servable.
            let survivor = ["a", "b"].iter().filter_map(|k| arena.structure(k)).count();
            assert_eq!(survivor, 1);
        });
        eprintln!("model_capacity_evict_race: {} schedules", report.executions);
        assert!(report.executions > 1);
    }

    /// Quarantine under contention: one thread records two failures
    /// (opening a backoff window of 2 skips); another probes
    /// `quarantine_skip` concurrently. Whatever the interleaving, the
    /// window is conserved — skips granted during the race plus skips
    /// left afterwards equal the window the failures opened, and a
    /// subsequent success clears it.
    #[test]
    fn model_quarantine_window_is_conserved() {
        let report = check(ModelOptions::new(), || {
            let arena: Arc<Arena<u32>> = Arc::new(Arena::new(0));
            let prober = {
                let arena = Arc::clone(&arena);
                thread::spawn(move || arena.quarantine_skip("f") as u32)
            };
            arena.record_failure("f");
            arena.record_failure("f");
            let raced = prober.join().unwrap();
            let mut drained = 0u32;
            while arena.quarantine_skip("f") {
                drained += 1;
            }
            assert_eq!(
                raced + drained,
                2,
                "two failures open a window of exactly 2 skips"
            );
            arena.record_success("f");
            assert!(!arena.quarantine_skip("f"), "success clears the window");
        });
        eprintln!(
            "model_quarantine_window_is_conserved: {} schedules",
            report.executions
        );
        assert!(report.executions > 1);
    }

    /// A purged key no longer serves its old state, while a hit taken
    /// *before* the purge keeps its `Arc` alive and coherent — the
    /// lookup-clones-pointer design must tolerate purge racing a use.
    #[test]
    fn model_purge_races_active_use() {
        let report = check(ModelOptions::new(), || {
            let arena: Arc<Arena<u32>> = Arc::new(Arena::new(0));
            arena.insert_structure("f".into(), 1);
            let user = {
                let arena = Arc::clone(&arena);
                thread::spawn(move || {
                    arena.structure("f").map(|state| {
                        let mut v = state.lock().unwrap();
                        *v += 10;
                        *v
                    })
                })
            };
            arena.record_failure("f"); // purges "f"
            let seen = user.join().unwrap();
            assert!(
                seen.is_none() || seen == Some(11),
                "a racing user sees the entry fully or not at all: {seen:?}"
            );
            assert!(
                arena.structure("f").is_none(),
                "the purge must win against later lookups"
            );
        });
        eprintln!(
            "model_purge_races_active_use: {} schedules",
            report.executions
        );
        assert!(report.executions > 1);
    }
}
