//! # hars-scenario — open-system scenarios for the HARS stack
//!
//! Everything in the paper's evaluation is closed-world: a fixed set of
//! applications registered before `t = 0` and run to completion. Real
//! platforms are open systems — tenants arrive, run, and leave, and the
//! runtime must absorb the churn. This crate layers that regime over
//! `hmp-sim` + MP-HARS (the setting of Khasanov & Castrillon's
//! multi-application runtime mapping, and of MARS's app/system
//! coordination argument):
//!
//! * [`ArrivalProcess`] — deterministic-seeded Poisson and bursty
//!   (on/off MMPP-style) interarrival generators, plus explicit traces;
//! * [`AppTemplate`] / [`TemplateSet`] — parameterized tenant draws
//!   over the `workloads` PARSEC analogs (size and target jitter, so
//!   every arrival is a distinct tenant);
//! * [`AdmissionPolicy`] — [`AlwaysAdmit`], the load-shedding
//!   [`CapacityGate`] and the FIFO [`BoundedQueue`], with queued and
//!   rejected arrivals as first-class outcomes;
//! * [`run_scenario`] — the driver that interleaves arrivals with the
//!   engine clock, registers tenants with MP-HARS (or runs them under
//!   baseline GTS) mid-run, releases departures, drains the admission
//!   queue, and aggregates a [`ScenarioOutcome`] (per-tenant
//!   target-satisfaction rate, queue wait, slowdown vs an isolated
//!   run, makespan, energy, search cost);
//! * [`ScenarioEvent`] — timestamped control-plane actions (hot config
//!   reloads through the managers' validated `apply_config`, admission
//!   swaps, guard changes) interleaved with the arrivals, with
//!   [`run_scenario_with_sink`] streaming the whole run as
//!   [`hars_core::TelemetryEvent`]s (the [`JsonlSink`] writes one JSON
//!   object per line for dashboards and replay);
//! * [`run_shard`] — the shard-able core the fleet layer drives: an
//!   explicit pre-placed tenant schedule against one board, reading
//!   one `Sync` single-flight [`SoloRateCache`] that sequential runs
//!   and concurrent shards alike share, so each unique solo
//!   calibration is paid for once.
//!
//! Determinism is load-bearing: a `(spec, seed)` pair reproduces the
//! identical scenario bit for bit ([`ScenarioOutcome::fingerprint`] is
//! the `churn` bench's self-check).
//!
//! ## Quickstart
//!
//! ```
//! use hars_scenario::{
//!     run_scenario, AlwaysAdmit, AppTemplate, ArrivalProcess, ScenarioRuntime, ScenarioSpec,
//!     TemplateSet,
//! };
//! use hmp_sim::{BoardSpec, EngineConfig};
//! use workloads::Benchmark;
//!
//! let board = BoardSpec::odroid_xu3();
//! let mut template = AppTemplate::new(Benchmark::Swaptions);
//! template.heartbeats = 40; // short tenants for the doctest
//! let spec = ScenarioSpec::new(
//!     ArrivalProcess::Poisson { rate_per_sec: 0.4 },
//!     TemplateSet::uniform(vec![template]),
//!     30_000_000_000, // 30 s horizon
//!     42,
//! );
//! let out = run_scenario(
//!     &board,
//!     &EngineConfig::default(),
//!     &spec,
//!     &mut AlwaysAdmit,
//!     ScenarioRuntime::mp_hars(&board, mp_hars::mp_hars_i()),
//! )?;
//! assert_eq!(out.admitted, out.arrivals);
//! # Ok::<(), hmp_sim::SimError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod admission;
mod arrival;
mod driver;
mod events;
mod outcome;
mod telemetry;
mod template;

pub use admission::{
    AdmissionDecision, AdmissionPolicy, AlwaysAdmit, BoundedQueue, CapacityGate, LoadEstimate,
};
pub use arrival::ArrivalProcess;
pub use driver::{
    run_scenario, run_scenario_with_metrics, run_scenario_with_sink, run_shard,
    run_shard_with_metrics, ScenarioRuntime, ScenarioSpec, ShardConfig, SharedSoloRateCache,
    SoloCacheHandle, SoloRateCache,
};
pub use events::{AdmissionSwap, ScenarioEvent, TimedEvent};
pub use outcome::{ScenarioOutcome, TenantOutcome};
pub use telemetry::JsonlSink;
pub use template::{AppTemplate, TemplateSet, TenantSpec};
