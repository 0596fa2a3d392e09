//! The open-system scenario driver: interleaves stochastic tenant
//! arrivals with the engine clock, drives admission control, registers
//! admitted tenants with the runtime manager mid-run, releases
//! departures, and aggregates a [`ScenarioOutcome`].
//!
//! The arrival loop needs no scheduling machinery of its own: it asks
//! the engine for the next heartbeat *before the next arrival instant*
//! (`next_heartbeat(deadline)`) and otherwise `run_until`s the arrival
//! — both of which ride the engine's event heap, so the idle gap
//! between the last departure and the next arrival is fast-forwarded
//! instead of stepped through tick by tick.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

use heartbeats::{AppId, PerfTarget};
use hmp_sim::{BoardSpec, ClusterId, Engine, EngineConfig, FaultKind, FaultPlan, SimError};
use rand::rngs::StdRng;
use rand::SeedableRng;
use workloads::Benchmark;

use hars_core::metrics::normalized_performance;
use hars_core::power_est::PowerEstimator;
use hars_core::search::SearchStats;
use hars_core::{NullSink, PerfEstimator, RejectReason, TelemetryEvent, TelemetrySink};
use mp_hars::driver::apply_mp_decision;
use mp_hars::{MpHarsConfig, MpHarsManager, QuarantineMode};

use crate::admission::{AdmissionDecision, AdmissionPolicy, LoadEstimate};
use crate::arrival::ArrivalProcess;
use crate::events::{ScenarioEvent, TimedEvent};
use crate::outcome::{ScenarioOutcome, TenantOutcome};
use crate::template::{TemplateSet, TenantSpec};

/// A complete open-system scenario description: who arrives, when, for
/// how long, under which seed.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// The arrival process.
    pub arrivals: ArrivalProcess,
    /// The tenant blueprints arrivals are drawn from.
    pub templates: TemplateSet,
    /// Scenario horizon (ns): arrivals beyond it never happen; tenants
    /// still running at the horizon are cut off and reported
    /// incomplete.
    pub horizon_ns: u64,
    /// Master seed: arrival instants, template draws and per-tenant
    /// jitter all derive from it deterministically.
    pub seed: u64,
    /// Heartbeat budget of the isolated calibration run used to resolve
    /// each benchmark's solo rate (targets are fractions of it).
    pub solo_budget: u64,
    /// SLO guard band: the runtime manager is registered with a target
    /// scaled up by `1 + target_guard`, while satisfaction is still
    /// scored against the tenant's unscaled band. The manager's
    /// satisfaction-first ranking deliberately picks the *cheapest*
    /// state whose estimated rate clears the minimum, which parks
    /// tenants at `min + ε` — where estimator bias and rate-window
    /// noise flip heartbeats across the line. A few percent of guard
    /// converts those marginal misses into margin, at a small energy
    /// cost. Zero (the default) hands the manager the tenant's own
    /// band.
    pub target_guard: f64,
    /// Timestamped control-plane actions (reconfigures, admission
    /// swaps, guard changes) interleaved with the arrivals. Fired in
    /// `at_ns` order (stable for ties) at the first runtime
    /// interaction at or after their instant, before any arrival
    /// sharing it; events at or beyond the horizon never fire.
    pub events: Vec<TimedEvent>,
    /// The deterministic fault plan injected into the serving engine
    /// (never into calibration engines). Empty — the default — leaves
    /// the run bit-identical to a pre-fault-plane run.
    pub faults: FaultPlan,
}

impl ScenarioSpec {
    /// A spec with the default 60-heartbeat solo calibration budget.
    pub fn new(
        arrivals: ArrivalProcess,
        templates: TemplateSet,
        horizon_ns: u64,
        seed: u64,
    ) -> Self {
        Self {
            arrivals,
            templates,
            horizon_ns,
            seed,
            solo_budget: 60,
            target_guard: 0.0,
            events: Vec::new(),
            faults: FaultPlan::empty(),
        }
    }

    /// Adds one control-plane event (builder-style).
    pub fn with_event(mut self, at_ns: u64, event: ScenarioEvent) -> Self {
        self.events.push(TimedEvent::new(at_ns, event));
        self
    }

    /// Installs a fault plan (builder-style).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Materializes the scenario's full tenant schedule: ascending
    /// `(arrival_ns, tenant)` pairs, bit-reproducible for a given spec.
    pub fn tenant_schedule(&self) -> Vec<(u64, TenantSpec)> {
        let times = self.arrivals.schedule(self.horizon_ns, self.seed);
        // Separate stream for template draws so adding a template never
        // perturbs the arrival instants.
        let mut draw_rng = StdRng::seed_from_u64(self.seed ^ 0x7465_6d70_6c61_7465); // "template"
        times
            .into_iter()
            .enumerate()
            .map(|(i, t)| {
                let template = self.templates.draw(&mut draw_rng);
                let tenant_seed = self
                    .seed
                    .wrapping_add((i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                (t, template.instantiate(tenant_seed))
            })
            .collect()
    }
}

/// Which runtime serves the scenario.
// One runtime per scenario run: the size difference between variants is
// irrelevant (never stored in bulk) — same shape as `MpVersion`.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum ScenarioRuntime {
    /// Stock GTS at the maximum state: no manager, no targets enforced.
    Gts,
    /// MP-HARS with the given configuration and estimators.
    MpHars {
        /// Manager configuration (use [`mp_hars::mp_hars_i`] /
        /// [`mp_hars::mp_hars_e`] for the paper's variants).
        cfg: MpHarsConfig,
        /// Shared performance estimator.
        perf: PerfEstimator,
        /// Shared power estimator.
        power: PowerEstimator,
    },
}

impl ScenarioRuntime {
    /// MP-HARS with board-nominal estimators and the synthetic monotone
    /// power model from [`PowerEstimator::synthetic_for_board`] — the
    /// zero-setup configuration the churn bench uses.
    pub fn mp_hars(board: &BoardSpec, cfg: MpHarsConfig) -> Self {
        ScenarioRuntime::MpHars {
            cfg,
            perf: PerfEstimator::from_board(board),
            power: PowerEstimator::synthetic_for_board(board),
        }
    }

    /// Display label for report tables.
    pub fn label(&self) -> &'static str {
        match self {
            ScenarioRuntime::Gts => "GTS",
            ScenarioRuntime::MpHars { cfg, .. } => {
                fn label_of(p: &hars_core::policy::SearchPolicy) -> &'static str {
                    match p {
                        hars_core::policy::SearchPolicy::Incremental => "MP-HARS-I",
                        hars_core::policy::SearchPolicy::Exhaustive(_) => "MP-HARS-E",
                        hars_core::policy::SearchPolicy::Beam { .. }
                        | hars_core::policy::SearchPolicy::AdaptiveBeam { .. } => "MP-HARS-B",
                        hars_core::policy::SearchPolicy::Frontier => "MP-HARS-F",
                        // A budget keeps the inner policy's identity.
                        hars_core::policy::SearchPolicy::Budgeted { inner, .. } => label_of(inner),
                    }
                }
                label_of(&cfg.policy)
            }
        }
    }
}

/// A solo-rate calibration cache key:
/// `(environment fingerprint, benchmark, threads, solo budget)`.
type SoloKey = (u64, Benchmark, usize, u64);

/// A `Sync` solo-rate calibration cache: one calibration per unique
/// `(environment, benchmark, threads, budget)` key, shared by every
/// scenario run that borrows it — sequential runs of a sweeping bench
/// or concurrent shards on a fleet worker pool.
///
/// Resolving a tenant's target requires its benchmark's *solo* rate —
/// an isolated simulation at the maximum state. The solo rate is a
/// pure function of the calibration environment (board + engine
/// config), the benchmark, its thread count and the heartbeat budget,
/// so a bench sweeping many scenarios over the same board (`churn`: 3
/// arrival patterns × 4 runtimes × 2 boards, plus the admission table
/// and a determinism re-run) pays for each calibration exactly once.
/// The environment part of the key is an FNV-1a hash of the board's
/// and the *canonicalized* engine config's full debug representations
/// — any board or config difference changes the key, so sharing a
/// cache across boards is safe. (Canonicalized: the engine noise seed
/// is normalized away, because calibration always runs in the
/// canonical reference environment — see [`calibration_config`].)
/// Outcomes are bit-identical whatever the cache holds: the cached
/// value *is* the value the isolated run would produce.
///
/// Misses are single-flight. Each key's slot is pending while its
/// first claimant calibrates and holds the rate once filled; a lookup
/// that finds a pending slot waits for the fill instead of running a
/// calibration of its own, so [`Self::misses`] equals the number of
/// distinct keys at any worker count. The map lock is held only to
/// check or set a slot, never across a calibration, so a slow
/// calibration blocks only the shards that need that very key. The
/// claim is a drop guard: if the calibrating shard panics (the pool
/// runs shards under `catch_unwind`), unwinding clears the pending
/// slot and wakes the waiters, and the next of them claims the key.
///
/// Cache-wide hit and miss totals are therefore deterministic, but
/// *which* concurrent shard pays for a contended key depends on
/// timing, so the per-run counters are reporting, not fingerprinted
/// (like `ScenarioOutcome::sensor_samples`, they never feed back into
/// any decision).
#[derive(Debug, Default)]
pub struct SoloRateCache {
    /// `None` while the key's first claimant is calibrating.
    slots: Mutex<HashMap<SoloKey, Option<f64>>>,
    /// Signalled whenever a pending slot is filled or released.
    settled: Condvar,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// Alias of [`SoloRateCache`], kept for callers that use this name.
pub type SharedSoloRateCache = SoloRateCache;

impl SoloRateCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Calibration results currently cached.
    pub fn len(&self) -> usize {
        self.slots().values().filter(|v| v.is_some()).count()
    }

    /// `true` when nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups served from the cache so far, including lookups that
    /// waited for a concurrent calibration of their key.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that paid for a calibration run so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// The slot map. No code panics while holding the lock, so a
    /// poisoned lock still holds consistent slots.
    fn slots(&self) -> MutexGuard<'_, HashMap<SoloKey, Option<f64>>> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The cached rate of `key`, waiting out a concurrent calibration
    /// of it; or, when nobody has calibrated it, a claim that makes
    /// the caller its calibrator.
    fn get_or_claim(&self, key: &SoloKey) -> Result<f64, InFlight<'_>> {
        let mut slots = self.slots();
        loop {
            match slots.get(key) {
                Some(Some(rate)) => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(*rate);
                }
                Some(None) => {
                    slots = self
                        .settled
                        .wait(slots)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                None => {
                    slots.insert(*key, None);
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    return Err(InFlight {
                        cache: self,
                        key: *key,
                    });
                }
            }
        }
    }

    /// Fills `key`'s slot and wakes its waiters.
    fn fill(&self, key: SoloKey, rate: f64) {
        self.slots().insert(key, Some(rate));
        self.settled.notify_all();
    }
}

/// The FNV-1a fingerprint of one calibration environment.
fn environment_fingerprint(board: &BoardSpec, engine_cfg: &EngineConfig) -> u64 {
    let mut h = crate::outcome::Fnv1a::new();
    h.write_bytes(format!("{board:?}").as_bytes());
    h.write_bytes(format!("{:?}", calibration_config(engine_cfg)).as_bytes());
    h.finish()
}

/// The canonical calibration environment for `engine_cfg`: the same
/// config with the engine noise seed normalized to the default.
///
/// A solo calibration is a *reference measurement* — the benchmark's
/// isolated rate at the maximum state — and the heartbeat rate it
/// resolves is independent of the sensor-noise stream (noise perturbs
/// stored power samples, never the work schedule). Normalizing the
/// seed makes that explicit in the cache key: fleet shards that differ
/// only in their per-shard engine seed (the SplitMix64 seed-split)
/// share one calibration per `(board, benchmark, threads, budget)`
/// instead of recalibrating per shard, which is where the fleet-scale
/// wall-clock win comes from.
fn calibration_config(engine_cfg: &EngineConfig) -> EngineConfig {
    EngineConfig {
        seed: EngineConfig::default().seed,
        ..engine_cfg.clone()
    }
}

/// A claimed [`SoloRateCache`] miss, held while its calibration runs.
/// Dropping it before the slot is filled (a panicking calibration)
/// releases the key, so a waiter takes over the claim.
#[derive(Debug)]
struct InFlight<'c> {
    cache: &'c SoloRateCache,
    key: SoloKey,
}

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        let mut slots = self.cache.slots();
        if slots.get(&self.key) == Some(&None) {
            slots.remove(&self.key);
        }
        drop(slots);
        self.cache.settled.notify_all();
    }
}

/// The solo-rate cache a [`run_shard`] call reads and fills.
#[derive(Debug)]
pub enum SoloCacheHandle<'a> {
    /// A shared reference to a [`SoloRateCache`].
    Shared(&'a SoloRateCache),
}

impl<'a> SoloCacheHandle<'a> {
    /// Looks `key` up, counting the hit/miss. On a miss the caller
    /// holds the returned claim until it has called [`Self::insert`].
    fn get(&self, key: &SoloKey) -> Result<f64, InFlight<'a>> {
        let SoloCacheHandle::Shared(c) = *self;
        c.get_or_claim(key)
    }

    /// Inserts a freshly calibrated value.
    fn insert(&self, key: SoloKey, value: f64) {
        let SoloCacheHandle::Shared(c) = *self;
        c.fill(key, value);
    }
}

/// Runs one open-system scenario to completion (or the horizon) and
/// returns the aggregated outcome.
///
/// # Errors
///
/// Propagates [`SimError`] from engine interaction (invalid tenant
/// specs, malformed decisions).
pub fn run_scenario(
    board: &BoardSpec,
    engine_cfg: &EngineConfig,
    spec: &ScenarioSpec,
    admission: &mut dyn AdmissionPolicy,
    runtime: ScenarioRuntime,
) -> Result<ScenarioOutcome, SimError> {
    run_scenario_with_sink(
        board,
        engine_cfg,
        spec,
        admission,
        runtime,
        &SoloRateCache::new(),
        &mut NullSink,
    )
}

/// [`run_scenario`] with a caller-owned [`SoloRateCache`], so a bench
/// sweeping many scenarios over the same board pays for each
/// `(benchmark, threads)` solo calibration once instead of once per
/// scenario, streaming [`TelemetryEvent`]s into a caller-owned sink as
/// the scenario unfolds: admission verdicts, per-decision search cost
/// stamped with the manager's config version, per-tenant satisfaction
/// transitions, config accept/reject diagnostics and per-cluster power
/// at reconfigure instants and at the end. The sink is observe-only —
/// with [`NullSink`] the run is bit-identical to [`run_scenario`].
///
/// # Errors
///
/// Propagates [`SimError`] from engine interaction (invalid tenant
/// specs, malformed decisions) and [`run_shard`]'s input validation.
#[allow(clippy::too_many_arguments)]
pub fn run_scenario_with_sink(
    board: &BoardSpec,
    engine_cfg: &EngineConfig,
    spec: &ScenarioSpec,
    admission: &mut dyn AdmissionPolicy,
    runtime: ScenarioRuntime,
    solo_cache: &SoloRateCache,
    sink: &mut dyn TelemetrySink,
) -> Result<ScenarioOutcome, SimError> {
    let schedule = spec.tenant_schedule();
    let shard_cfg = ShardConfig {
        horizon_ns: spec.horizon_ns,
        solo_budget: spec.solo_budget,
        target_guard: spec.target_guard,
        events: spec.events.clone(),
        faults: spec.faults.clone(),
    };
    run_shard(
        board,
        engine_cfg,
        &schedule,
        &shard_cfg,
        admission,
        runtime,
        SoloCacheHandle::Shared(solo_cache),
        sink,
    )
}

/// The per-shard scenario parameters [`run_shard`] takes alongside an
/// explicit tenant schedule — everything a [`ScenarioSpec`] carries
/// *except* the arrival process, templates and seed (a shard's tenants
/// are decided upstream, e.g. by a fleet placement tier).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardConfig {
    /// Scenario horizon (ns) — same semantics as
    /// [`ScenarioSpec::horizon_ns`].
    pub horizon_ns: u64,
    /// Solo calibration heartbeat budget
    /// ([`ScenarioSpec::solo_budget`]).
    pub solo_budget: u64,
    /// SLO guard band ([`ScenarioSpec::target_guard`]).
    pub target_guard: f64,
    /// Control-plane events ([`ScenarioSpec::events`]).
    pub events: Vec<TimedEvent>,
    /// The shard's deterministic fault plan
    /// ([`ScenarioSpec::faults`]) — injected into the serving engine,
    /// never into calibration engines.
    pub faults: FaultPlan,
}

impl ShardConfig {
    /// A shard config with the default 60-heartbeat solo budget, no
    /// guard, no events, no faults.
    pub fn new(horizon_ns: u64) -> Self {
        Self {
            horizon_ns,
            solo_budget: 60,
            target_guard: 0.0,
            events: Vec::new(),
            faults: FaultPlan::empty(),
        }
    }

    /// Installs a fault plan (builder-style).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }
}

/// Runs one scenario *shard*: an explicit, pre-materialized tenant
/// schedule (ascending `(arrival_ns, tenant)` pairs, e.g. one board's
/// slice of a fleet placement) against one board. This is the
/// shard-able core every `run_scenario*` entry point delegates to; it
/// differs only in taking the schedule directly instead of deriving it
/// from an arrival process. Concurrent shards may share one
/// [`SoloRateCache`] through [`SoloCacheHandle::Shared`].
///
/// For a fixed schedule the outcome is bit-identical to the equivalent
/// [`run_scenario_with_sink`] call: same tenants, same instants, same
/// engine timeline.
///
/// # Errors
///
/// Returns [`SimError::InvalidSpec`] before the engine starts when
/// `shard_cfg.target_guard` is negative or not finite, or when a
/// tenant registers zero threads, has a non-finite `target_frac`, or
/// has a `target_tolerance` outside `[0, 1)`. Propagates [`SimError`]
/// from engine interaction (invalid app specs, malformed decisions).
#[allow(clippy::too_many_arguments)]
pub fn run_shard(
    board: &BoardSpec,
    engine_cfg: &EngineConfig,
    schedule: &[(u64, TenantSpec)],
    shard_cfg: &ShardConfig,
    admission: &mut dyn AdmissionPolicy,
    runtime: ScenarioRuntime,
    solo_cache: SoloCacheHandle<'_>,
    sink: &mut dyn TelemetrySink,
) -> Result<ScenarioOutcome, SimError> {
    validate_shard(schedule, shard_cfg)?;
    let manager = match runtime {
        ScenarioRuntime::Gts => None,
        ScenarioRuntime::MpHars { cfg, perf, power } => {
            Some(MpHarsManager::new(board, perf, power, cfg))
        }
    };
    // Events fire in `at_ns` order; the sort is stable so same-instant
    // events keep their spec order (determinism). Beyond-horizon
    // events never fire.
    let mut events: Vec<TimedEvent> = shard_cfg
        .events
        .iter()
        .filter(|e| e.at_ns < shard_cfg.horizon_ns)
        .cloned()
        .collect();
    events.sort_by_key(|e| e.at_ns);
    let mut engine = Engine::new(board.clone(), engine_cfg.clone());
    if !shard_cfg.faults.is_empty() {
        engine.install_faults(shard_cfg.faults.clone());
    }
    let sim = Sim {
        engine,
        board,
        engine_cfg,
        manager,
        admission: ActiveAdmission::Borrowed(admission),
        events: events.into(),
        sink,
        config_accepted: 0,
        config_rejected: 0,
        horizon_ns: shard_cfg.horizon_ns,
        solo_budget: shard_cfg.solo_budget.max(2),
        target_guard: shard_cfg.target_guard,
        tenants: schedule
            .iter()
            .cloned()
            .map(|(arrival_ns, ts)| TenantState {
                ts,
                arrival_ns,
                admitted_ns: None,
                finished_ns: None,
                was_queued: false,
                rejected: false,
                app: None,
                target: None,
                solo_rate: 0.0,
                rated: 0,
                satisfied: 0,
                last_satisfied: None,
            })
            .collect(),
        queue: VecDeque::new(),
        by_app: HashMap::new(),
        live: 0,
        env_fp: environment_fingerprint(board, engine_cfg),
        solo_cache,
        cache_hits: 0,
        cache_misses: 0,
        quarantine_until: vec![0; board.n_clusters()],
        last_good_solo: HashMap::new(),
        faults_injected: 0,
        quarantines: 0,
        degraded_calibrations: 0,
        board_failed_at: None,
    };
    sim.run()
}

/// Rejects the shard inputs that would otherwise panic mid-run: the
/// guard scales every registered target, a zero-thread tenant cannot
/// be calibrated or registered, and admission builds each tenant's
/// band with [`PerfTarget::from_center`].
fn validate_shard(schedule: &[(u64, TenantSpec)], shard_cfg: &ShardConfig) -> Result<(), SimError> {
    let guard = shard_cfg.target_guard;
    if !(guard.is_finite() && guard >= 0.0) {
        return Err(SimError::InvalidSpec(format!(
            "target guard {guard} must be finite and non-negative"
        )));
    }
    for (i, (_, ts)) in schedule.iter().enumerate() {
        if ts.threads == 0
            || !ts.target_frac.is_finite()
            || !(0.0..1.0).contains(&ts.target_tolerance)
        {
            return Err(SimError::InvalidSpec(format!(
                "tenant {i}: needs threads >= 1, a finite target_frac and a \
                 target_tolerance in [0, 1) (got {}, {}, {})",
                ts.threads, ts.target_frac, ts.target_tolerance
            )));
        }
    }
    Ok(())
}

/// [`run_scenario_with_sink`] with the observability fold mounted in
/// front of the caller's sink: every event is folded into a
/// [`hars_obs::MetricsEngine`] *and* forwarded to `sink`, and the
/// resulting [`hars_obs::MetricsSummary`] rides back on
/// [`ScenarioOutcome::metrics`]. The summary is observe-only and sits
/// outside [`ScenarioOutcome::fingerprint`], so the run is
/// bit-identical to the metrics-less entry points.
///
/// # Errors
///
/// Propagates [`SimError`] from engine interaction (invalid tenant
/// specs, malformed decisions).
#[allow(clippy::too_many_arguments)]
pub fn run_scenario_with_metrics(
    board: &BoardSpec,
    engine_cfg: &EngineConfig,
    spec: &ScenarioSpec,
    admission: &mut dyn AdmissionPolicy,
    runtime: ScenarioRuntime,
    solo_cache: &SoloRateCache,
    sink: &mut dyn TelemetrySink,
) -> Result<ScenarioOutcome, SimError> {
    let mut metrics = hars_obs::MetricsSink::wrap(sink);
    let mut out = run_scenario_with_sink(
        board,
        engine_cfg,
        spec,
        admission,
        runtime,
        solo_cache,
        &mut metrics,
    )?;
    out.metrics = Some(metrics.into_summary());
    Ok(out)
}

/// [`run_shard`] with the observability fold mounted in front of the
/// caller's sink — the fleet tier's per-shard metrics entry point.
/// See [`run_scenario_with_metrics`] for the contract.
///
/// # Errors
///
/// Propagates [`SimError`] from engine interaction (invalid tenant
/// specs, malformed decisions).
#[allow(clippy::too_many_arguments)]
pub fn run_shard_with_metrics(
    board: &BoardSpec,
    engine_cfg: &EngineConfig,
    schedule: &[(u64, TenantSpec)],
    shard_cfg: &ShardConfig,
    admission: &mut dyn AdmissionPolicy,
    runtime: ScenarioRuntime,
    solo_cache: SoloCacheHandle<'_>,
    sink: &mut dyn TelemetrySink,
) -> Result<ScenarioOutcome, SimError> {
    let mut metrics = hars_obs::MetricsSink::wrap(sink);
    let mut out = run_shard(
        board,
        engine_cfg,
        schedule,
        shard_cfg,
        admission,
        runtime,
        solo_cache,
        &mut metrics,
    )?;
    out.metrics = Some(metrics.into_summary());
    Ok(out)
}

/// Driver-internal per-tenant bookkeeping.
struct TenantState {
    ts: TenantSpec,
    arrival_ns: u64,
    admitted_ns: Option<u64>,
    finished_ns: Option<u64>,
    was_queued: bool,
    rejected: bool,
    app: Option<AppId>,
    target: Option<PerfTarget>,
    solo_rate: f64,
    rated: u64,
    satisfied: u64,
    /// Last scored satisfaction verdict, to emit
    /// [`TelemetryEvent::SatisfactionFlip`] on transitions only.
    last_satisfied: Option<bool>,
}

/// The admission policy currently in force: the caller's borrow until
/// a [`ScenarioEvent::SwapAdmission`] replaces it with an owned one.
enum ActiveAdmission<'a> {
    Borrowed(&'a mut dyn AdmissionPolicy),
    Owned(Box<dyn AdmissionPolicy>),
}

impl ActiveAdmission<'_> {
    fn policy(&mut self) -> &mut dyn AdmissionPolicy {
        match self {
            ActiveAdmission::Borrowed(p) => &mut **p,
            ActiveAdmission::Owned(p) => &mut **p,
        }
    }
}

struct Sim<'a> {
    engine: Engine,
    board: &'a BoardSpec,
    engine_cfg: &'a EngineConfig,
    manager: Option<MpHarsManager>,
    admission: ActiveAdmission<'a>,
    /// Pending control-plane events, ascending `at_ns` (stable order).
    events: VecDeque<TimedEvent>,
    /// The telemetry consumer (observe-only; never affects outcomes).
    sink: &'a mut dyn TelemetrySink,
    /// Control-plane events accepted / rejected so far.
    config_accepted: u64,
    config_rejected: u64,
    horizon_ns: u64,
    solo_budget: u64,
    target_guard: f64,
    tenants: Vec<TenantState>,
    queue: VecDeque<usize>,
    by_app: HashMap<AppId, usize>,
    live: usize,
    /// This run's calibration-environment fingerprint (cache key part).
    env_fp: u64,
    /// The (possibly cross-scenario, possibly fleet-shared) solo-rate
    /// calibration cache.
    solo_cache: SoloCacheHandle<'a>,
    /// This run's own cache hit/miss counts (reporting only).
    cache_hits: u64,
    cache_misses: u64,
    /// Driver-side quarantine expiries, indexed by cluster (0 = none):
    /// the manager's quarantine is cleared, and the restore
    /// telemetered, at the first interaction at or past the expiry.
    quarantine_until: Vec<u64>,
    /// Last-known-good solo rates — `(rate, resolved_at_ns)` per
    /// `(benchmark, threads)` — the degraded-mode calibration fallback
    /// while a sensor fault is active.
    last_good_solo: HashMap<(Benchmark, usize), (f64, u64)>,
    /// Fault-plane injections observed (reporting).
    faults_injected: u64,
    /// Cluster quarantines applied (reporting).
    quarantines: u64,
    /// Degraded-mode calibrations served (reporting).
    degraded_calibrations: u64,
    /// The instant the board died, when a `BoardFail` fault fired.
    board_failed_at: Option<u64>,
}

/// Degraded-mode staleness bound: a last-known-good solo rate older
/// than this is not trusted for target resolution — the driver falls
/// back to a fresh calibration run even mid-fault.
const DEGRADED_SOLO_MAX_AGE_NS: u64 = 600_000_000_000;

impl Sim<'_> {
    fn run(mut self) -> Result<ScenarioOutcome, SimError> {
        let mut next_arrival = 0usize;
        loop {
            let next_t = self
                .tenants
                .get(next_arrival)
                .map(|t| t.arrival_ns.min(self.horizon_ns));
            let deadline = next_t.unwrap_or(self.horizon_ns);
            if let Some(hb) = self.engine.next_heartbeat(deadline) {
                self.apply_due_events(hb.time_ns)?;
                self.poll_faults();
                self.on_heartbeat(hb.app, hb.index, hb.time_ns)?;
                if self.board_failed_at.is_some() {
                    break;
                }
                continue;
            }
            // No heartbeat before `deadline`: either the clock reached
            // it, or every currently registered app is done (an idle
            // gap between departures and the next arrival).
            if let Some(t) = next_t {
                if self.engine.now_ns() < t {
                    self.engine.run_until(t);
                }
                self.apply_due_events(t)?;
                self.poll_faults();
                if self.board_failed_at.is_some() {
                    // The board is dead: remaining arrivals are never
                    // processed (no admission verdict, no rejection) —
                    // the fleet supervisor recognizes and re-places
                    // them.
                    break;
                }
                self.on_arrival(next_arrival)?;
                next_arrival += 1;
                continue;
            }
            // Arrivals exhausted: run until the last tenant departs or
            // the horizon cuts the scenario off. (`next_heartbeat`
            // returning `None` here means one of those happened —
            // all-done, or the clock hit the horizon.)
            break;
        }
        // Events scheduled after the last heartbeat/arrival still
        // resolve — validation, counters, telemetry — before the books
        // close. Fault notices from the final engine advance likewise.
        self.apply_due_events(u64::MAX)?;
        self.poll_faults();
        Ok(self.finish())
    }

    /// Applies every pending control-plane event with `at_ns ≤ now_ns`.
    ///
    /// Events take effect at the first runtime interaction (heartbeat,
    /// arrival, or scenario end) at or after their scheduled instant —
    /// not at an engine stop forced at `at_ns` itself. The config they
    /// carry is only ever *read* at those interactions, so the
    /// semantics are the same, while the engine's advance timeline
    /// stays bit-identical to an event-free run: forcing the clock to
    /// pause mid-advance would split one floating-point work
    /// integration into two and shift completion instants by an ulp,
    /// breaking the rejected-delta ⇒ unchanged-behavior contract.
    fn apply_due_events(&mut self, now_ns: u64) -> Result<(), SimError> {
        while self.events.front().is_some_and(|e| e.at_ns <= now_ns) {
            let ev = self.events.pop_front().expect("peeked non-empty");
            self.apply_event(&ev)?;
        }
        Ok(())
    }

    /// Applies one control-plane event at the current instant. Invalid
    /// events are counted and reported through the sink, never fatal —
    /// an operator typo must not take the scenario down.
    fn apply_event(&mut self, ev: &TimedEvent) -> Result<(), SimError> {
        let t_ns = self.engine.now_ns();
        match &ev.event {
            ScenarioEvent::Reconfigure(delta) => {
                let applied = match self.manager.as_mut() {
                    Some(m) => m.apply_config(delta),
                    None => Err(RejectReason::NoManager),
                };
                match applied {
                    Ok(version) => {
                        self.config_accepted += 1;
                        self.sink.emit(&TelemetryEvent::ConfigApplied {
                            t_ns,
                            version: version.0,
                        });
                        self.emit_cluster_power(t_ns);
                    }
                    Err(reason) => {
                        self.config_rejected += 1;
                        self.sink.emit(&TelemetryEvent::ConfigRejected {
                            t_ns,
                            reason: reason.code(),
                        });
                    }
                }
            }
            ScenarioEvent::SwapAdmission(swap) => {
                if swap.is_valid() {
                    self.admission = ActiveAdmission::Owned(swap.build());
                    self.config_accepted += 1;
                    self.sink.emit(&TelemetryEvent::AdmissionSwapped {
                        t_ns,
                        policy: swap.policy_name(),
                    });
                    // A looser policy may admit tenants already waiting.
                    self.drain_queue()?;
                } else {
                    self.config_rejected += 1;
                    self.sink.emit(&TelemetryEvent::ConfigRejected {
                        t_ns,
                        reason: "invalid-value",
                    });
                }
            }
            ScenarioEvent::SetTargetGuard(guard) => {
                if guard.is_finite() && *guard >= 0.0 {
                    self.target_guard = *guard;
                    self.config_accepted += 1;
                    self.sink.emit(&TelemetryEvent::GuardChanged {
                        t_ns,
                        target_guard: *guard,
                    });
                } else {
                    self.config_rejected += 1;
                    self.sink.emit(&TelemetryEvent::ConfigRejected {
                        t_ns,
                        reason: "invalid-value",
                    });
                }
            }
        }
        Ok(())
    }

    /// Drains the engine's fault notices and reacts: telemetry for
    /// every injection, manager quarantine for cluster faults,
    /// board-death bookkeeping for `BoardFail` — then lifts expired
    /// quarantines. A no-op (one empty drain) in fault-free runs, so
    /// the fault-free timeline stays bit-identical.
    fn poll_faults(&mut self) {
        for n in self.engine.drain_fault_notices() {
            self.faults_injected += 1;
            let cluster = n.kind.cluster().map(|c| c.index() as i64).unwrap_or(-1);
            let until_ns = n.kind.until_ns().unwrap_or(u64::MAX);
            self.sink.emit(&TelemetryEvent::FaultInjected {
                t_ns: n.t_ns,
                fault: n.kind.name(),
                cluster,
                until_ns,
            });
            match n.kind {
                FaultKind::BoardFail => {
                    self.board_failed_at = Some(n.t_ns);
                    let in_flight = self
                        .tenants
                        .iter()
                        .filter(|t| t.app.is_some() && t.finished_ns.is_none())
                        .count();
                    self.sink.emit(&TelemetryEvent::BoardFailed {
                        t_ns: n.t_ns,
                        tenants_in_flight: in_flight as u64,
                    });
                }
                FaultKind::ClusterCap { cluster, until_ns } => {
                    self.quarantine_cluster(n.t_ns, cluster, QuarantineMode::Cap, until_ns);
                }
                FaultKind::ClusterOffline { cluster, until_ns } => {
                    self.quarantine_cluster(n.t_ns, cluster, QuarantineMode::Offline, until_ns);
                }
                // Sensor and heartbeat faults need no control action:
                // the engine degrades the sample/monitor streams itself
                // and the admission path switches to last-known-good
                // calibration while `sensor_faulted()` holds.
                FaultKind::SensorDropout { .. }
                | FaultKind::SensorStuck { .. }
                | FaultKind::HeartbeatStall { .. } => {}
            }
        }
        // Lift expired quarantines at the first interaction past them.
        let now = self.engine.now_ns();
        for ci in 0..self.quarantine_until.len() {
            if self.quarantine_until[ci] != 0 && now >= self.quarantine_until[ci] {
                self.quarantine_until[ci] = 0;
                if let Some(m) = self.manager.as_mut() {
                    m.clear_cluster_quarantine(ClusterId(ci));
                }
                self.sink.emit(&TelemetryEvent::ClusterRestored {
                    t_ns: now,
                    cluster: ci,
                });
            }
        }
    }

    /// Applies one cluster quarantine: manager eviction plus expiry
    /// bookkeeping plus telemetry.
    fn quarantine_cluster(
        &mut self,
        t_ns: u64,
        cluster: ClusterId,
        mode: QuarantineMode,
        until_ns: u64,
    ) {
        if let Some(m) = self.manager.as_mut() {
            m.set_cluster_quarantine(cluster, mode);
        }
        let slot = &mut self.quarantine_until[cluster.index()];
        *slot = (*slot).max(until_ns);
        self.quarantines += 1;
        self.sink.emit(&TelemetryEvent::ClusterQuarantined {
            t_ns,
            cluster: cluster.index(),
            mode: mode.name(),
            until_ns,
        });
    }

    /// Emits one [`TelemetryEvent::ClusterPower`] per cluster.
    fn emit_cluster_power(&mut self, t_ns: u64) {
        for c in self.board.cluster_ids() {
            let watts = self.engine.energy().average_cluster_power(c);
            self.sink.emit(&TelemetryEvent::ClusterPower {
                t_ns,
                cluster: c.0,
                watts,
            });
        }
    }

    fn on_heartbeat(&mut self, app: AppId, hb_index: u64, time_ns: u64) -> Result<(), SimError> {
        let Some(&ti) = self.by_app.get(&app) else {
            return Ok(());
        };
        let rate = self
            .engine
            .monitor(app)?
            .window_rate()
            .map(|r| r.heartbeats_per_sec());
        if let (Some(r), Some(target)) = (rate, self.tenants[ti].target) {
            self.tenants[ti].rated += 1;
            let satisfied = r >= target.min();
            if satisfied {
                self.tenants[ti].satisfied += 1;
            }
            self.sink.emit(&TelemetryEvent::HeartbeatRate {
                t_ns: time_ns,
                tenant: ti as u64,
                rate_hz: r,
                satisfied,
            });
            if self.tenants[ti].last_satisfied != Some(satisfied) {
                self.tenants[ti].last_satisfied = Some(satisfied);
                self.sink.emit(&TelemetryEvent::SatisfactionFlip {
                    t_ns: time_ns,
                    tenant: ti as u64,
                    satisfied,
                });
            }
        }
        if let Some(m) = self.manager.as_mut() {
            if let Some(d) = m.on_heartbeat(app, hb_index, rate) {
                self.sink.emit(&TelemetryEvent::Decision {
                    t_ns: time_ns,
                    app: app.0,
                    config_version: m.core().config_version().0,
                    stats: d.stats,
                });
                apply_mp_decision(&mut self.engine, &d, time_ns + d.overhead_ns)?;
            }
        }
        if self.engine.app_done(app) && self.tenants[ti].finished_ns.is_none() {
            self.tenants[ti].finished_ns = Some(time_ns);
            self.live -= 1;
            self.sink.emit(&TelemetryEvent::TenantDeparted {
                t_ns: time_ns,
                tenant: ti as u64,
                heartbeats: self.engine.app_heartbeats(app),
            });
            if let Some(m) = self.manager.as_mut() {
                m.unregister_app(app);
            }
            self.drain_queue()?;
        }
        Ok(())
    }

    fn on_arrival(&mut self, ti: usize) -> Result<(), SimError> {
        let load = self.load_estimate();
        let t_ns = self.engine.now_ns();
        let decision = self.admission.policy().decide(&load, self.queue.len());
        let verdict = match decision {
            AdmissionDecision::Admit => "admit",
            AdmissionDecision::Queue => "queue",
            AdmissionDecision::Reject => "reject",
        };
        self.sink.emit(&TelemetryEvent::AdmissionVerdict {
            t_ns,
            tenant: ti as u64,
            verdict,
        });
        match decision {
            AdmissionDecision::Admit => self.admit(ti)?,
            AdmissionDecision::Queue => {
                self.tenants[ti].was_queued = true;
                self.queue.push_back(ti);
            }
            AdmissionDecision::Reject => self.tenants[ti].rejected = true,
        }
        Ok(())
    }

    /// Admits queued tenants head-first while the policy approves.
    fn drain_queue(&mut self) -> Result<(), SimError> {
        while let Some(&head) = self.queue.front() {
            let load = self.load_estimate();
            // The head has no waiters ahead of it.
            match self.admission.policy().decide(&load, 0) {
                AdmissionDecision::Admit => {
                    self.queue.pop_front();
                    self.sink.emit(&TelemetryEvent::AdmissionVerdict {
                        t_ns: self.engine.now_ns(),
                        tenant: head as u64,
                        verdict: "admit",
                    });
                    self.admit(head)?;
                }
                _ => break,
            }
        }
        Ok(())
    }

    fn admit(&mut self, ti: usize) -> Result<(), SimError> {
        let (bench, threads) = (self.tenants[ti].ts.bench, self.tenants[ti].ts.threads);
        let solo = self.solo_rate(ti, bench, threads);
        let t = &mut self.tenants[ti];
        // `validate_shard` vetted the tolerance and a finite fraction;
        // only an overflowing `target_frac × solo` can still fail here.
        let target = PerfTarget::from_center(t.target_frac_center(solo), t.ts.target_tolerance)
            .map_err(|e| SimError::InvalidSpec(format!("tenant {ti}: {e}")))?;
        let app = self.engine.add_app(t.ts.spec.clone())?;
        self.engine.set_perf_target(app, target)?;
        if let Some(m) = self.manager.as_mut() {
            // The manager aims at the guard-scaled band; satisfaction
            // is scored against the tenant's own band.
            m.register_app(app, threads, target.scaled(1.0 + self.target_guard));
        }
        let now = self.engine.now_ns();
        let t = &mut self.tenants[ti];
        t.app = Some(app);
        t.target = Some(target);
        t.solo_rate = solo;
        t.admitted_ns = Some(now);
        self.by_app.insert(app, ti);
        self.live += 1;
        self.sink.emit(&TelemetryEvent::TenantAdmitted {
            t_ns: now,
            tenant: ti as u64,
            bench: bench.name(),
            threads: threads as u64,
            target_min: target.min(),
            queue_wait_ns: now - self.tenants[ti].arrival_ns,
        });
        Ok(())
    }

    /// The benchmark's isolated rate on this board: a solo run at the
    /// maximum state (GTS, performance governor), cached per
    /// `(environment, benchmark, threads, budget)` — across scenarios
    /// when the caller shares a [`SoloRateCache`].
    fn solo_rate(&mut self, ti: usize, bench: Benchmark, threads: usize) -> f64 {
        let key = (self.env_fp, bench, threads, self.solo_budget);
        let t_ns = self.engine.now_ns();
        // Degraded mode: while a sensor fault is active, target
        // resolution is served from the last-known-good solo rate
        // (bounded staleness) instead of trusting a fresh calibration
        // — telemetered per admission. Too-stale (or absent) entries
        // fall through to the normal path.
        if self.engine.sensor_faulted() {
            if let Some(&(rate, at_ns)) = self.last_good_solo.get(&(bench, threads)) {
                let age_ns = t_ns.saturating_sub(at_ns);
                if age_ns <= DEGRADED_SOLO_MAX_AGE_NS {
                    self.degraded_calibrations += 1;
                    self.sink.emit(&TelemetryEvent::DegradedCalibration {
                        t_ns,
                        tenant: ti as u64,
                        bench: bench.name(),
                        age_ns,
                    });
                    return rate;
                }
            }
        }
        // Held until the calibrated value is inserted; see `InFlight`.
        let _claim = match self.solo_cache.get(&key) {
            Ok(r) => {
                self.cache_hits += 1;
                self.sink.emit(&TelemetryEvent::CacheHit {
                    t_ns,
                    bench: bench.name(),
                    threads: threads as u64,
                });
                self.last_good_solo.insert((bench, threads), (r, t_ns));
                return r;
            }
            Err(claim) => claim,
        };
        self.cache_misses += 1;
        self.sink.emit(&TelemetryEvent::CacheMiss {
            t_ns,
            bench: bench.name(),
            threads: threads as u64,
        });
        // Calibration always runs in the canonical reference
        // environment (default engine seed) so shards with different
        // noise seeds resolve — and can share — the same value.
        let mut engine = Engine::new(self.board.clone(), calibration_config(self.engine_cfg));
        // A fixed workload seed: the solo reference is per benchmark,
        // not per tenant.
        let app = engine
            .add_app(bench.spec_with_budget(threads, 0xCAFE, self.solo_budget))
            .expect("preset spec validates");
        engine.run_while_active(u64::MAX);
        let rate = engine
            .monitor(app)
            .ok()
            .and_then(|m| m.global_rate())
            .map(|r| r.heartbeats_per_sec())
            .unwrap_or(1.0);
        self.solo_cache.insert(key, rate);
        self.last_good_solo.insert((bench, threads), (rate, t_ns));
        rate
    }

    fn load_estimate(&self) -> LoadEstimate {
        match &self.manager {
            Some(m) => {
                let per: Vec<f64> = m
                    .clusters()
                    .iter()
                    .map(|c| 1.0 - c.free_count() as f64 / c.len() as f64)
                    .collect();
                let total_cores: usize = m.clusters().iter().map(|c| c.len()).sum();
                let owned: usize = m.clusters().iter().map(|c| c.len() - c.free_count()).sum();
                // Tenants admitted but not yet through their initial
                // allocation (it happens at the first heartbeat) own
                // nothing yet; count their thread demand as pending
                // claim so a burst cannot slip through the load-0
                // window between admission and allocation.
                let pending: usize = m
                    .apps()
                    .iter()
                    .filter(|a| !a.allocated)
                    .map(|a| a.threads.min(total_cores))
                    .sum();
                LoadEstimate {
                    per_cluster: per,
                    total: (owned + pending) as f64 / total_cores.max(1) as f64,
                    live_tenants: self.live,
                }
            }
            None => {
                let threads: usize = self
                    .tenants
                    .iter()
                    .filter(|t| t.app.is_some() && t.finished_ns.is_none())
                    .map(|t| t.ts.spec.threads)
                    .sum();
                let frac = threads as f64 / self.board.n_cores() as f64;
                LoadEstimate {
                    per_cluster: vec![frac; self.board.n_clusters()],
                    total: frac,
                    live_tenants: self.live,
                }
            }
        }
    }

    fn finish(mut self) -> ScenarioOutcome {
        // Closing power report, whether or not anything reconfigured.
        self.emit_cluster_power(self.engine.now_ns());
        let horizon = self.horizon_ns;
        let (adaptations, busy, stats) = match self.manager.as_ref().map(|m| m.core()) {
            Some(c) => (c.adaptations(), c.busy_ns(), c.search_stats()),
            None => (0, 0, SearchStats::default()),
        };
        let energy = self.engine.energy().total_joules();
        let watts = self.engine.energy().average_power();
        let outcomes: Vec<TenantOutcome> = self
            .tenants
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let heartbeats = t.app.map(|a| self.engine.app_heartbeats(a)).unwrap_or(0);
                let avg_rate = t
                    .app
                    .and_then(|a| self.engine.monitor(a).ok())
                    .and_then(|m| m.global_rate())
                    .map(|r| r.heartbeats_per_sec())
                    .unwrap_or(0.0);
                let norm_perf = t
                    .target
                    .map(|tg| normalized_performance(&tg, avg_rate))
                    .unwrap_or(0.0);
                TenantOutcome {
                    tenant: i,
                    bench: t.ts.bench.name(),
                    arrival_ns: t.arrival_ns,
                    admitted_ns: t.admitted_ns,
                    finished_ns: t.finished_ns,
                    was_queued: t.was_queued,
                    rejected: t.rejected,
                    heartbeats,
                    avg_rate,
                    target_min: t.target.map(|tg| tg.min()).unwrap_or(0.0),
                    satisfaction: if t.rated > 0 {
                        t.satisfied as f64 / t.rated as f64
                    } else {
                        0.0
                    },
                    norm_perf,
                    solo_rate: t.solo_rate,
                    slowdown: if avg_rate > 0.0 {
                        t.solo_rate / avg_rate
                    } else {
                        0.0
                    },
                }
            })
            .collect();
        let mut out = ScenarioOutcome::from_tenants(
            outcomes,
            horizon,
            energy,
            watts,
            adaptations,
            busy,
            stats,
        );
        // Sample-count reporting (not fingerprinted): total is invariant
        // under idle-span coalescing, the split shows how much the
        // event-heap engine elided.
        out.sensor_samples = self.engine.sensor().total_samples();
        out.sensor_samples_coalesced = self.engine.sensor().coalesced_samples();
        out.sensor_samples_lost = self.engine.sensor().samples_lost();
        out.sensor_samples_stuck = self.engine.sensor().samples_stuck();
        out.faults_injected = self.faults_injected;
        out.board_failed_at = self.board_failed_at;
        out.quarantines = self.quarantines;
        out.degraded_calibrations = self.degraded_calibrations;
        out.stalled_heartbeats = self.engine.stalled_heartbeats();
        out.config_version = self
            .manager
            .as_ref()
            .map(|m| m.core().config_version().0)
            .unwrap_or(0);
        out.reconfig_accepted = self.config_accepted;
        out.reconfig_rejected = self.config_rejected;
        out.solo_cache_hits = self.cache_hits;
        out.solo_cache_misses = self.cache_misses;
        out
    }
}

impl TenantState {
    /// The tenant's absolute target center given the solo rate.
    fn target_frac_center(&self, solo_rate: f64) -> f64 {
        (self.ts.target_frac * solo_rate).max(f64::MIN_POSITIVE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;
    use std::thread;
    use std::time::Duration;

    const KEY: SoloKey = (7, Benchmark::Swaptions, 4, 100);

    #[test]
    fn concurrent_misses_on_one_key_calibrate_once() {
        let cache = SoloRateCache::new();
        let claimed = Barrier::new(2);
        thread::scope(|s| {
            s.spawn(|| {
                let h = SoloCacheHandle::Shared(&cache);
                let claim = h.get(&KEY).expect_err("cold key");
                claimed.wait();
                // Let the second lookup find the slot pending.
                thread::sleep(Duration::from_millis(50));
                h.insert(KEY, 2.5);
                drop(claim);
            });
            s.spawn(|| {
                claimed.wait();
                let h = SoloCacheHandle::Shared(&cache);
                assert_eq!(
                    h.get(&KEY).ok(),
                    Some(2.5),
                    "waits for the first calibration"
                );
            });
        });
        assert_eq!((cache.misses(), cache.hits(), cache.len()), (1, 1, 1));
    }

    #[test]
    fn a_panicking_calibrator_releases_its_waiters() {
        let cache = SoloRateCache::new();
        let claimed = Barrier::new(2);
        thread::scope(|s| {
            let failed = s.spawn(|| {
                let h = SoloCacheHandle::Shared(&cache);
                let _claim = h.get(&KEY).expect_err("cold key");
                claimed.wait();
                thread::sleep(Duration::from_millis(20));
                panic!("calibration failed");
            });
            let next = s.spawn(|| {
                claimed.wait();
                let h = SoloCacheHandle::Shared(&cache);
                let claim = h.get(&KEY).expect_err("the released key is claimed again");
                h.insert(KEY, 1.5);
                drop(claim);
            });
            assert!(failed.join().is_err());
            next.join().expect("the waiter took over the calibration");
        });
        assert_eq!((cache.misses(), cache.len()), (2, 1));
        let h = SoloCacheHandle::Shared(&cache);
        assert_eq!(h.get(&KEY).ok(), Some(1.5));
    }
}
