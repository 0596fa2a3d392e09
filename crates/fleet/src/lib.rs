//! # hars-fleet — fleet-scale parallel serving for the HARS stack
//!
//! One board is a scenario; production is a *fleet*. This crate runs a
//! heterogeneous fleet of simulated boards — XU3-class edge nodes next
//! to 4- and 5-cluster servers — as independent *shards* on a
//! `std::thread` worker pool, while keeping the repository's
//! determinism contract intact at fleet scale:
//!
//! * [`shard_seed`] — SplitMix64 child streams: each shard's engine
//!   noise seed derives positionally from the fleet master seed, so a
//!   shard's outcome never depends on worker count or execution order;
//! * [`PlacementPolicy`] / [`place`] — a sequential placement tier
//!   routes each global arrival to a board by feasibility and
//!   projected load, pre-screened through *that board's* admission
//!   policy (rejected everywhere ⇒ fleet-rejected), and emits one
//!   [`hars_core::TelemetryEvent::Placement`] per arrival;
//! * [`FleetCacheMode::Shared`] — all shards calibrate through one
//!   [`hars_scenario::SoloRateCache`]: each unique
//!   `(board fingerprint, benchmark, threads, target budget)` solo
//!   calibration runs once *fleet-wide* instead of once per board,
//!   which is where the fleet-scale wall-clock win comes from;
//! * [`FleetAccum`] — order-independent reduction: workers absorb
//!   shard outcomes in completion order, the fleet fingerprint is a
//!   commutative (wrapping-sum) fold, and [`FleetOutcome`] comes out
//!   bit-identical for 1, 2 or 8 workers.
//!
//! ## Quickstart
//!
//! ```
//! use hars_fleet::{run_fleet, FleetBoard, FleetSpec};
//! use hars_scenario::{AppTemplate, ArrivalProcess, TemplateSet};
//! use hars_core::NullSink;
//! use hmp_sim::BoardSpec;
//! use workloads::Benchmark;
//!
//! let boards = vec![
//!     FleetBoard::new(BoardSpec::odroid_xu3()),
//!     FleetBoard::new(BoardSpec::server_4c_32core()),
//! ];
//! let mut template = AppTemplate::new(Benchmark::Swaptions);
//! template.heartbeats = 30; // short tenants for the doctest
//! let spec = FleetSpec::new(
//!     boards,
//!     ArrivalProcess::Poisson { rate_per_sec: 0.4 },
//!     TemplateSet::uniform(vec![template]),
//!     20_000_000_000, // 20 s horizon
//!     7,
//! );
//! let one = run_fleet(&spec, 1, &mut NullSink)?;
//! let eight = run_fleet(&spec, 8, &mut NullSink)?;
//! assert_eq!(one.fingerprint, eight.fingerprint);
//! # Ok::<(), hmp_sim::SimError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod outcome;
mod placement;
mod pool;
mod spec;

pub use outcome::{FleetAccum, FleetOutcome, ShardFailure, ShardSummary};
pub use placement::{place, Placement, PlacementPolicy};
pub use pool::{run_fleet, run_fleet_with_metrics};
pub use spec::{
    shard_seed, FleetBoard, FleetCacheMode, FleetFaultSpec, FleetRuntimeKind, FleetSpec,
};
