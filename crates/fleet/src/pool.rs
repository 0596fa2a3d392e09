//! The worker pool and shard supervisor: runs the fleet's shards on
//! `workers` OS threads, survives shard failures, and reduces the
//! outcomes order-independently.
//!
//! Every input a shard consumes — its board, its engine seed
//! ([`crate::shard_seed`]), its fault plan
//! ([`crate::FleetSpec::fault_plan`]), its tenant slice (the placement
//! tier's routing), its admission policy and runtime (rebuilt fresh
//! from plain descriptors) — is fixed *before* the shard runs,
//! and the reduction ([`crate::FleetAccum`]) commutes. A fleet run is
//! therefore bit-identical across worker counts and scheduling
//! interleavings: `workers = 1` and `workers = 8` produce the same
//! [`FleetOutcome`], fingerprint included. The only cross-shard
//! coupling is the shared solo-rate calibration cache, which is
//! value-transparent by construction (a hit returns exactly what the
//! miss path would compute).
//!
//! ## Shard supervision and failover
//!
//! With a fault model installed ([`crate::FleetSpec::faults`]) the
//! pool runs in *barrier rounds*: a round runs a fixed set of shards
//! in parallel, then a sequential supervisor pass on the calling
//! thread inspects the results. A shard can fail two ways — its
//! simulated board dies to a [`hmp_sim::FaultKind::BoardFail`]
//! (a normal truncated outcome with
//! [`hars_scenario::ScenarioOutcome::board_failed_at`] set), or its
//! worker panics (caught per shard, reported as a
//! [`crate::ShardFailure`] row instead of tearing down the pool).
//! Either way, when failover is on the supervisor collects the dead
//! shard's *victims* — admitted-but-unfinished tenants (with their
//! remaining heartbeat budget) and arrivals the board never processed
//! (full budget) — and re-places them through the same placement tier
//! restricted to surviving boards, with dead boards' ledger claims
//! expired. Each victim re-arrives at
//! `max(arrival, failure) + backoff · 2^(attempt-1)`, capped at
//! [`crate::FleetFaultSpec::max_retries`] attempts; destination shards
//! are re-run with their extended schedules and the loop repeats until
//! no new shard fails. Because fault plans are fixed per board, a
//! board that survived round one survives every re-run, so the loop
//! terminates — and because every supervisor pass is sequential and
//! every shard result is a pure function of its inputs, the whole
//! supervised run stays bit-identical across worker counts.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

use parking_lot::Mutex;

use hars_core::{NullSink, TelemetryEvent, TelemetrySink};
use hars_scenario::{
    run_shard, run_shard_with_metrics, ScenarioOutcome, ShardConfig, SoloCacheHandle,
    SoloRateCache, TenantSpec,
};
use hmp_sim::{EngineConfig, FaultPlan, SimError};

use crate::outcome::{FleetAccum, FleetOutcome, ShardFailure};
use crate::placement::{place, place_masked, LedgerSet, EST_NS_PER_HEARTBEAT};
use crate::spec::{shard_seed, FleetCacheMode, FleetSpec};

/// Runs the whole fleet described by `spec` on `workers` threads and
/// returns the merged outcome.
///
/// `sink` receives the placement tier's telemetry (one
/// [`hars_core::TelemetryEvent::Placement`] per arrival) emitted
/// sequentially before any shard starts, and — under a fault model
/// with failover — the supervisor's
/// [`hars_core::TelemetryEvent::TenantFailedOver`] and re-placement
/// events between rounds; shard-internal telemetry is discarded (sinks
/// are exclusive-borrow consumers, and shards run concurrently — drive
/// [`hars_scenario::run_shard`] directly to stream one shard).
///
/// # Errors
///
/// Propagates the first [`SimError`] any shard hits (remaining shards
/// are abandoned). Shard *panics* do not error: they become
/// [`FleetOutcome::failed_shards`] rows.
///
/// # Panics
///
/// Panics when `workers` is zero.
pub fn run_fleet(
    spec: &FleetSpec,
    workers: usize,
    sink: &mut dyn TelemetrySink,
) -> Result<FleetOutcome, SimError> {
    run_fleet_inner(spec, workers, sink, false)
}

/// [`run_fleet`] with the observability fold mounted inside every
/// shard: each shard runs under a
/// [`hars_scenario::run_shard_with_metrics`] wrapper, and the
/// shard-level [`hars_obs::MetricsRollup`]s are merged (ascending
/// shard order, all-integer adds) into [`FleetOutcome::metrics`] —
/// fleet-wide queue-wait percentiles, heartbeat-latency histograms,
/// and per-class SLO rollups, bit-identical for any worker count.
///
/// # Errors
///
/// Propagates the first [`SimError`] any shard hits (remaining shards
/// are abandoned).
///
/// # Panics
///
/// Panics when `workers` is zero.
pub fn run_fleet_with_metrics(
    spec: &FleetSpec,
    workers: usize,
    sink: &mut dyn TelemetrySink,
) -> Result<FleetOutcome, SimError> {
    run_fleet_inner(spec, workers, sink, true)
}

/// What one shard's worker produced.
enum ShardRun {
    /// The shard ran to its end (possibly truncated by a simulated
    /// board failure — check
    /// [`hars_scenario::ScenarioOutcome::board_failed_at`]).
    Done(Box<ScenarioOutcome>),
    /// The worker panicked; no outcome exists.
    Panicked(String),
}

impl ShardRun {
    /// `true` when this shard's board can serve no further tenants.
    fn is_dead(&self) -> bool {
        match self {
            ShardRun::Done(o) => o.board_failed_at.is_some(),
            ShardRun::Panicked(_) => true,
        }
    }

    /// The failure instant victims re-arrive relative to (a panicked
    /// shard served nothing, so its victims re-arrive relative to
    /// their own arrival instants).
    fn fail_ns(&self) -> u64 {
        match self {
            ShardRun::Done(o) => o.board_failed_at.unwrap_or(0),
            ShardRun::Panicked(_) => 0,
        }
    }
}

fn run_fleet_inner(
    spec: &FleetSpec,
    workers: usize,
    sink: &mut dyn TelemetrySink,
    with_metrics: bool,
) -> Result<FleetOutcome, SimError> {
    assert!(workers > 0, "need at least one worker");
    let n = spec.boards.len();
    let schedule = spec.tenant_schedule();
    let placement = place(spec, &schedule, sink);

    // Fan the global schedule out into per-shard slices (arrival order
    // is preserved within each shard), remembering each entry's global
    // tenant id for supervision and telemetry.
    let mut shard_scheds: Vec<Vec<(u64, TenantSpec)>> = vec![Vec::new(); n];
    let mut shard_globals: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (g, ((arrival_ns, ts), assignment)) in
        schedule.iter().zip(&placement.assignments).enumerate()
    {
        if let Some(shard) = assignment {
            shard_scheds[*shard].push((*arrival_ns, ts.clone()));
            shard_globals[*shard].push(g);
        }
    }
    let plans: Vec<FaultPlan> = (0..n).map(|s| spec.fault_plan(s)).collect();

    let shared_cache = SoloRateCache::new();
    let mut results: Vec<Option<ShardRun>> = (0..n).map(|_| None).collect();

    // Round zero: every shard.
    let all: Vec<usize> = (0..n).collect();
    run_round(
        spec,
        &all,
        &shard_scheds,
        &plans,
        &shared_cache,
        workers,
        with_metrics,
        &mut results,
    )?;

    // Supervision: detect dead shards, fail their tenants over onto
    // survivors, re-run the destinations, repeat until stable.
    let failover = spec.faults.as_ref().filter(|f| f.failover);
    let mut attempts: Vec<u32> = vec![0; schedule.len()];
    let mut handled_dead = vec![false; n];
    let mut tenants_failed_over = 0u64;
    let mut failover_lost = 0u64;
    if let Some(fx) = failover {
        loop {
            let newly: Vec<usize> = (0..n)
                .filter(|&s| !handled_dead[s] && results[s].as_ref().is_some_and(ShardRun::is_dead))
                .collect();
            if newly.is_empty() {
                break;
            }
            // Collect victims deterministically: dead shards ascending,
            // then local schedule order within each.
            let mut victims: Vec<(u64, TenantSpec, usize, usize, u32)> = Vec::new();
            for &s in &newly {
                handled_dead[s] = true;
                let run = results[s].as_ref().expect("ran in a previous round");
                let fail_ns = run.fail_ns();
                for (li, &g) in shard_globals[s].iter().enumerate() {
                    let (arrival_ns, ts) = &shard_scheds[s][li];
                    let served = match run {
                        ShardRun::Done(o) => {
                            let t = &o.tenants[li];
                            if t.rejected || t.finished_ns.is_some() {
                                continue; // resolved before the failure
                            }
                            t.heartbeats
                        }
                        ShardRun::Panicked(_) => 0,
                    };
                    let remaining = ts.budget.saturating_sub(served);
                    if remaining == 0 {
                        continue;
                    }
                    let attempt = attempts[g] + 1;
                    attempts[g] = attempt;
                    let retry_at = arrival_ns
                        .max(&fail_ns)
                        .saturating_add(fx.backoff_ns << (attempt - 1).min(16));
                    if attempt > fx.max_retries || retry_at >= spec.horizon_ns {
                        failover_lost += 1;
                        sink.emit(&TelemetryEvent::TenantFailedOver {
                            t_ns: fail_ns,
                            tenant: g as u64,
                            from_board: s as u64,
                            to_board: u64::MAX,
                            attempt: attempt as u64,
                        });
                        continue;
                    }
                    let mut retry_ts = ts.clone();
                    retry_ts.budget = remaining;
                    victims.push((retry_at, retry_ts, g, s, attempt));
                }
            }
            victims.sort_by_key(|(at, _, g, ..)| (*at, *g));

            // Re-place victims on the survivors: dead boards' ledger
            // claims expire, survivors are charged their current
            // schedules so the failover wave spreads by load.
            let eligible: Vec<bool> = (0..n).map(|s| !handled_dead[s]).collect();
            let mut ledgers = LedgerSet::new(n);
            for (s, ok) in eligible.iter().enumerate() {
                if !ok {
                    continue;
                }
                let cores = spec.boards[s].board.n_cores();
                for (arrival_ns, ts) in &shard_scheds[s] {
                    ledgers.charge(
                        s,
                        arrival_ns.saturating_add(ts.budget.saturating_mul(EST_NS_PER_HEARTBEAT)),
                        ts.threads.min(cores),
                    );
                }
            }
            let vsched: Vec<(u64, TenantSpec)> = victims
                .iter()
                .map(|(at, ts, ..)| (*at, ts.clone()))
                .collect();
            let vids: Vec<u64> = victims.iter().map(|v| v.2 as u64).collect();
            let vplace = place_masked(spec, &vsched, &vids, &eligible, ledgers, sink);

            let mut rerun: Vec<usize> = Vec::new();
            for (v, assignment) in victims.iter().zip(&vplace.assignments) {
                let &(retry_at, ref ts, g, from, attempt) = v;
                match assignment {
                    Some(dest) => {
                        shard_scheds[*dest].push((retry_at, ts.clone()));
                        shard_globals[*dest].push(g);
                        if !rerun.contains(dest) {
                            rerun.push(*dest);
                        }
                        tenants_failed_over += 1;
                        sink.emit(&TelemetryEvent::TenantFailedOver {
                            t_ns: retry_at,
                            tenant: g as u64,
                            from_board: from as u64,
                            to_board: *dest as u64,
                            attempt: attempt as u64,
                        });
                    }
                    None => {
                        failover_lost += 1;
                        sink.emit(&TelemetryEvent::TenantFailedOver {
                            t_ns: retry_at,
                            tenant: g as u64,
                            from_board: from as u64,
                            to_board: u64::MAX,
                            attempt: attempt as u64,
                        });
                    }
                }
            }
            // Keep destination schedules sorted by arrival (stable, so
            // same-instant entries keep original-then-victim order),
            // with the global-id map in lockstep.
            for &dest in &rerun {
                let mut zipped: Vec<((u64, TenantSpec), usize)> = shard_scheds[dest]
                    .drain(..)
                    .zip(shard_globals[dest].drain(..))
                    .collect();
                zipped.sort_by_key(|((at, _), _)| *at);
                (shard_scheds[dest], shard_globals[dest]) = zipped.into_iter().unzip();
            }
            run_round(
                spec,
                &rerun,
                &shard_scheds,
                &plans,
                &shared_cache,
                workers,
                with_metrics,
                &mut results,
            )?;
        }
    }

    // Fold: absorb surviving outcomes ascending (the accumulator
    // commutes anyway), report panicked shards as structured rows.
    let mut accum = FleetAccum::new();
    let mut failed_shards = Vec::new();
    let mut served = 0.0f64;
    for (s, run) in results.iter().enumerate() {
        let fb = &spec.boards[s];
        match run {
            Some(ShardRun::Done(out)) => {
                accum.absorb(s, fb.board.name.clone(), fb.runtime.label(), out);
                for t in &out.tenants {
                    served += t.satisfaction * t.heartbeats as f64;
                }
            }
            Some(ShardRun::Panicked(reason)) => failed_shards.push(ShardFailure {
                shard: s,
                board: fb.board.name.clone(),
                reason: reason.clone(),
            }),
            None => unreachable!("round zero runs every shard"),
        }
    }
    let mut out = accum.finish(&placement, schedule.len());
    let requested: f64 = schedule.iter().map(|(_, ts)| ts.budget as f64).sum();
    out.service_level = if requested > 0.0 {
        served / requested
    } else {
        1.0
    };
    out.failed_shards = failed_shards;
    out.tenants_failed_over = tenants_failed_over;
    out.failover_lost = failover_lost;
    Ok(out)
}

/// Runs the `round` shard set on up to `workers` threads, writing each
/// shard's result (outcome or caught panic) into `results`. Shards are
/// claimed off an atomic cursor; each result slot is written by
/// exactly one worker, then applied sequentially after the scope — the
/// per-shard values are pure functions of their inputs, so the
/// interleaving never shows.
#[allow(clippy::too_many_arguments)]
fn run_round(
    spec: &FleetSpec,
    round: &[usize],
    shard_scheds: &[Vec<(u64, TenantSpec)>],
    plans: &[FaultPlan],
    shared_cache: &SoloRateCache,
    workers: usize,
    with_metrics: bool,
    results: &mut [Option<ShardRun>],
) -> Result<(), SimError> {
    if round.is_empty() {
        return Ok(());
    }
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, ShardRun)>> = Mutex::new(Vec::with_capacity(round.len()));
    let first_err: Mutex<Option<SimError>> = Mutex::new(None);

    thread::scope(|scope| {
        for _ in 0..workers.min(round.len()).max(1) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= round.len() || first_err.lock().is_some() {
                    break;
                }
                let shard = round[i];
                let run = catch_unwind(AssertUnwindSafe(|| {
                    run_one_shard(
                        spec,
                        shard,
                        &shard_scheds[shard],
                        &plans[shard],
                        shared_cache,
                        with_metrics,
                    )
                }));
                match run {
                    Ok(Ok(out)) => done.lock().push((shard, ShardRun::Done(Box::new(out)))),
                    Ok(Err(e)) => {
                        first_err.lock().get_or_insert(e);
                    }
                    Err(payload) => {
                        let reason = payload
                            .downcast_ref::<&str>()
                            .map(|s| s.to_string())
                            .or_else(|| payload.downcast_ref::<String>().cloned())
                            .unwrap_or_else(|| "non-string panic payload".to_string());
                        done.lock().push((shard, ShardRun::Panicked(reason)));
                    }
                }
            });
        }
    });

    if let Some(e) = first_err.into_inner() {
        return Err(e);
    }
    for (shard, run) in done.into_inner() {
        results[shard] = Some(run);
    }
    Ok(())
}

/// Runs one shard with its derived engine seed, its fault plan and the
/// spec's cache mode.
fn run_one_shard(
    spec: &FleetSpec,
    shard: usize,
    schedule: &[(u64, TenantSpec)],
    plan: &FaultPlan,
    shared_cache: &SoloRateCache,
    with_metrics: bool,
) -> Result<ScenarioOutcome, SimError> {
    let fb = &spec.boards[shard];
    let engine_cfg = EngineConfig {
        seed: shard_seed(spec.seed, shard as u64),
        ..spec.engine.clone()
    };
    let shard_cfg = ShardConfig {
        horizon_ns: spec.horizon_ns,
        solo_budget: spec.solo_budget,
        target_guard: spec.target_guard,
        events: Vec::new(),
        faults: plan.clone(),
    };
    let mut admission = fb.build_admission();
    let runtime = fb.runtime.build(&fb.board);
    let local_cache;
    let cache = match spec.cache {
        FleetCacheMode::Shared => SoloCacheHandle::Shared(shared_cache),
        FleetCacheMode::PerShard => {
            local_cache = SoloRateCache::new();
            SoloCacheHandle::Shared(&local_cache)
        }
    };
    if with_metrics {
        run_shard_with_metrics(
            &fb.board,
            &engine_cfg,
            schedule,
            &shard_cfg,
            admission.as_mut(),
            runtime,
            cache,
            &mut NullSink,
        )
    } else {
        run_shard(
            &fb.board,
            &engine_cfg,
            schedule,
            &shard_cfg,
            admission.as_mut(),
            runtime,
            cache,
            &mut NullSink,
        )
    }
}
