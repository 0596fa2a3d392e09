//! The fleet workloads (`serve`, `calibrate`, `failover`): untraced runs
//! through `hars_fleet::run_fleet`, and a traced driver performing the
//! same placement, shard runs and reduction `run_fleet` performs on its
//! path without failover, so each step can be timed from outside.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::Instant;

use hars_core::NullSink;
use hars_fleet::{place, run_fleet, shard_seed, FleetAccum, FleetOutcome, FleetSpec};
use hars_scenario::{
    run_shard, ScenarioOutcome, ShardConfig, SharedSoloRateCache, SoloCacheHandle, TenantSpec,
};
use hmp_sim::EngineConfig;

use crate::report::{
    cache_metrics, finish_trace, layer_metrics, layer_sums, median, merge_medians, peak_rss_mb,
    print_walls, repeat_for, requested, setup_s, span_s, timed, Model, Report, SpanWriter,
};
use crate::stats::percentile;
use crate::trace::{ns_since, Layer, ShardTrace, TimingSink};
use crate::workloads::{self, Workload, FLEET_WORKERS};
use crate::Args;

/// One shard as the traced driver ran it.
#[derive(Debug)]
pub struct ShardRun {
    /// Shard index.
    pub shard: usize,
    /// The worker thread that ran it.
    pub worker: usize,
    /// Start (ns since the run's origin).
    pub start: u64,
    /// End (ns since the run's origin).
    pub end: u64,
    /// The shard's outcome.
    pub outcome: ScenarioOutcome,
    /// Per-event spans, when the run was traced per event.
    pub trace: Option<ShardTrace>,
}

/// A fleet run driven step by step.
#[derive(Debug)]
pub struct DrivenFleet {
    /// The merged outcome; its fingerprint must equal `run_fleet`'s.
    pub outcome: FleetOutcome,
    /// Placement span (ns since origin).
    pub place: (u64, u64),
    /// Worker-pool span (ns since origin).
    pub pool: (u64, u64),
    /// Reduction span (ns since origin).
    pub reduce: (u64, u64),
    /// Shards in index order.
    pub shards: Vec<ShardRun>,
    /// Distinct calibration keys the shared cache holds at the end.
    pub unique_keys: u64,
    /// Host seconds for the whole run.
    pub wall_s: f64,
}

/// Places `spec`'s arrivals, runs every shard on `workers` threads
/// against one shared calibration cache, and folds the outcomes. With
/// `per_event`, every shard streams into a [`TimingSink`]; otherwise
/// only the shard boundaries are stamped.
///
/// The fault plan is installed per board, but dead boards' tenants are
/// not failed over: this mirrors `run_fleet` with failover off.
///
/// # Errors
///
/// Returns the first shard's simulation error.
pub fn drive(spec: &FleetSpec, workers: usize, per_event: bool) -> Result<DrivenFleet, String> {
    let origin = Instant::now();
    let schedule = spec.tenant_schedule();
    let placement = place(spec, &schedule, &mut NullSink);
    let n = spec.boards.len();
    let mut scheds: Vec<Vec<(u64, TenantSpec)>> = vec![Vec::new(); n];
    for ((arrival_ns, ts), assignment) in schedule.iter().zip(&placement.assignments) {
        if let Some(shard) = assignment {
            scheds[*shard].push((*arrival_ns, ts.clone()));
        }
    }
    let place_span = (0, ns_since(origin));

    let cache = SharedSoloRateCache::new();
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<ShardRun>> = Mutex::new(Vec::with_capacity(n));
    let first_err: Mutex<Option<String>> = Mutex::new(None);
    thread::scope(|scope| {
        for worker in 0..workers.min(n) {
            let (next, done, first_err, cache, scheds) =
                (&next, &done, &first_err, &cache, &scheds);
            scope.spawn(move || loop {
                let shard = next.fetch_add(1, Ordering::Relaxed);
                if shard >= n {
                    break;
                }
                match run_one(spec, shard, &scheds[shard], cache, origin, per_event) {
                    Ok((start, outcome, trace)) => {
                        let end = ns_since(origin);
                        done.lock()
                            .expect("no worker panics holding the lock")
                            .push(ShardRun {
                                shard,
                                worker,
                                start,
                                end,
                                outcome,
                                trace,
                            });
                    }
                    Err(e) => {
                        first_err
                            .lock()
                            .expect("no worker panics holding the lock")
                            .get_or_insert(e);
                        break;
                    }
                }
            });
        }
    });
    if let Some(e) = first_err.into_inner().expect("workers joined") {
        return Err(e);
    }
    let pool_span = (place_span.1, ns_since(origin));

    let mut shards = done.into_inner().expect("workers joined");
    shards.sort_by_key(|s| s.shard);
    let mut accum = FleetAccum::new();
    for s in &shards {
        let fb = &spec.boards[s.shard];
        accum.absorb(
            s.shard,
            fb.board.name.clone(),
            fb.runtime.label(),
            &s.outcome,
        );
    }
    let outcome = accum.finish(&placement, schedule.len());
    let end = ns_since(origin);
    Ok(DrivenFleet {
        outcome,
        place: place_span,
        pool: pool_span,
        reduce: (pool_span.1, end),
        shards,
        unique_keys: cache.len() as u64,
        wall_s: end as f64 * 1e-9,
    })
}

/// Runs one shard exactly as the fleet pool does, returning its start
/// stamp, outcome and (when traced) its per-event spans.
fn run_one(
    spec: &FleetSpec,
    shard: usize,
    schedule: &[(u64, TenantSpec)],
    cache: &SharedSoloRateCache,
    origin: Instant,
    per_event: bool,
) -> Result<(u64, ScenarioOutcome, Option<ShardTrace>), String> {
    let start = ns_since(origin);
    let mut sink = per_event.then(|| TimingSink::start(NullSink, Layer::Trace, origin));
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
        faults: spec.fault_plan(shard),
    };
    let mut admission = fb.build_admission();
    let runtime = fb.runtime.build(&fb.board);
    let outcome = match sink.as_mut() {
        Some(s) => run_shard(
            &fb.board,
            &engine_cfg,
            schedule,
            &shard_cfg,
            admission.as_mut(),
            runtime,
            SoloCacheHandle::Shared(cache),
            s,
        ),
        None => run_shard(
            &fb.board,
            &engine_cfg,
            schedule,
            &shard_cfg,
            admission.as_mut(),
            runtime,
            SoloCacheHandle::Shared(cache),
            &mut NullSink,
        ),
    }
    .map_err(|e| format!("shard {shard}: {e:?}"))?;
    Ok((start, outcome, sink.map(|s| s.close().1)))
}

fn fleet_spec(w: Workload, seed: u64) -> FleetSpec {
    match w {
        Workload::Serve => workloads::serve(seed),
        Workload::Calibrate => workloads::calibrate(seed),
        Workload::Failover => workloads::failover(seed),
        Workload::Decide => unreachable!("decide is not a fleet"),
    }
}

/// Builds the fleet's spec, tenant schedule and per-board runtimes —
/// the inputs a serving deployment prepares before it runs.
fn fleet_setup(w: Workload, seed: u64) -> (FleetSpec, f64) {
    let spec = fleet_spec(w, seed);
    let schedule = spec.tenant_schedule();
    let runtimes: Vec<_> = spec
        .boards
        .iter()
        .map(|b| b.runtime.build(&b.board))
        .collect();
    std::hint::black_box(&runtimes);
    let hb = requested(&schedule);
    (spec, hb)
}

fn checked_fleet(spec: &FleetSpec, workers: usize) -> Result<(FleetOutcome, f64), String> {
    let (out, wall) = timed(|| run_fleet(spec, workers, &mut NullSink));
    let out = out.map_err(|e| format!("run_fleet at {workers} workers: {e:?}"))?;
    if !out.failed_shards.is_empty() {
        return Err(format!(
            "{} shards panicked: {:?}",
            out.failed_shards.len(),
            out.failed_shards
        ));
    }
    Ok((out, wall))
}

pub fn run(args: &Args, w: Workload, r: &mut Report) {
    let (spec, requested_hb) = fleet_setup(w, args.seed);
    if args.trace {
        return fleet_trace(args, w, &spec, r);
    }
    let setup = setup_s(|| {
        std::hint::black_box(fleet_setup(w, args.seed));
    });
    // Warm-up run: its outcome is the reference every timed run must
    // reproduce.
    let Some((reference, _)) = r.run(checked_fleet(&spec, FLEET_WORKERS)) else {
        return;
    };
    let mut walls = Vec::new();
    repeat_for(args.seconds, 3, || {
        if let Some((out, wall)) = r.run(checked_fleet(&spec, FLEET_WORKERS)) {
            r.check(out.fingerprint == reference.fingerprint, || {
                format!(
                    "fingerprint {:#018x} != {:#018x}",
                    out.fingerprint, reference.fingerprint
                )
            });
            walls.push(wall);
        }
    });
    let rss = peak_rss_mb();
    // Outside the timed region: one worker must reproduce two.
    if let Some((one, _)) = r.run(checked_fleet(&spec, 1)) {
        r.check(one.fingerprint == reference.fingerprint, || {
            format!(
                "1-worker fingerprint {:#018x} != {}-worker {:#018x}",
                one.fingerprint, FLEET_WORKERS, reference.fingerprint
            )
        });
    }
    print_fleet(&reference);
    print_walls(&walls);
    if walls.is_empty() {
        return;
    }
    r.metric("wall_s", median(&walls), "s");
    r.metric("setup_s", setup, "s");
    r.metric("peak_rss_mb", rss, "MiB");
    Model::of_fleet(&reference, requested_hb).report(r);
}

fn print_fleet(out: &FleetOutcome) {
    println!(
        "fingerprint fleet={:#018x} placement={:#018x} arrivals={} completed={} \
         cache_hits={} cache_misses={} boards_failed={} failed_over={} lost={}",
        out.fingerprint,
        out.placement_fingerprint,
        out.arrivals,
        out.completed,
        out.solo_cache_hits,
        out.solo_cache_misses,
        out.boards_failed,
        out.tenants_failed_over,
        out.failover_lost
    );
}

/// Per-layer metrics of one traced fleet run.
fn fleet_layers(d: &DrivenFleet, workers: usize) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    let traces: Vec<&ShardTrace> = d.shards.iter().filter_map(|s| s.trace.as_ref()).collect();
    let sums = layer_sums(traces.iter().flat_map(|t| &t.spans));
    let heartbeats: u64 = d
        .shards
        .iter()
        .flat_map(|s| &s.outcome.tenants)
        .map(|t| t.heartbeats)
        .sum();
    let events: u64 = traces.iter().map(|t| t.events).sum();
    layer_metrics(&mut m, &traces, &sums, heartbeats, d.outcome.adaptations);
    let (hits, misses) = (d.outcome.solo_cache_hits, d.outcome.solo_cache_misses);
    cache_metrics(&mut m, hits, misses, d.unique_keys);
    m.insert("telemetry.events", events as f64);

    let shard_s: Vec<f64> = d
        .shards
        .iter()
        .map(|s| (s.end - s.start) as f64 * 1e-9)
        .collect();
    let mut sorted = shard_s.clone();
    sorted.sort_by(f64::total_cmp);
    let p50 = percentile(&sorted, 50.0);
    let max = sorted.last().copied().unwrap_or(0.0);
    m.insert("fleet.place_s", span_s(d.place));
    m.insert("fleet.reduce_s", span_s(d.reduce));
    m.insert("fleet.shard_s_p50", p50);
    m.insert("fleet.shard_s_max", max);
    m.insert("fleet.straggler_ratio", max / p50);

    // Accounting: the busiest worker's layer spans plus the serial
    // placement and reduction must cover the traced wall.
    let busiest = |per_shard: &dyn Fn(&ShardRun) -> u64| {
        (0..workers)
            .map(|w| {
                d.shards
                    .iter()
                    .filter(|s| s.worker == w)
                    .map(per_shard)
                    .sum::<u64>()
            })
            .max()
            .unwrap_or(0) as f64
            * 1e-9
    };
    let layer_time = busiest(&|s| {
        s.trace
            .iter()
            .flat_map(|t| &t.spans)
            .map(|sp| sp.end - sp.start)
            .sum()
    });
    let accounted = span_s(d.place) + span_s(d.reduce) + layer_time;
    m.insert("trace.unattributed_frac", 1.0 - accounted / d.wall_s);
    // The pool's own cost on its critical worker: spawn, claims and
    // join, i.e. the pool span the busiest worker spent outside shards.
    let shard_time = busiest(&|s| s.end - s.start);
    m.insert("fleet.pool_overhead_s", span_s(d.pool) - shard_time);
    // Serial work measured in this run over the worker-seconds it took.
    let serial = span_s(d.place) + shard_s.iter().sum::<f64>() + span_s(d.reduce);
    m.insert("fleet.parallel_eff", serial / (workers as f64 * d.wall_s));
    m
}

fn fleet_trace(args: &Args, w: Workload, spec: &FleetSpec, r: &mut Report) {
    // The traced driver has no failover supervisor, so the failover
    // workload is traced with failover off; the re-run cost is measured
    // as the wall difference of the two untraced runs below.
    let mut off = spec.clone();
    if let Some(f) = off.faults.as_mut() {
        f.failover = false;
    }
    let Some((reference, _)) = r.run(checked_fleet(&off, FLEET_WORKERS)) else {
        return;
    };
    print_fleet(&reference);
    let mut layers = Vec::new();
    let (mut traced_walls, mut plain_walls, mut failover_walls) =
        (Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    let mut failover_counts = None;
    repeat_for(args.seconds, 2, || {
        if let Some(d) = r.run(drive(&off, FLEET_WORKERS, true)) {
            r.check(d.outcome.fingerprint == reference.fingerprint, || {
                format!(
                    "traced fingerprint {:#018x} != run_fleet {:#018x}",
                    d.outcome.fingerprint, reference.fingerprint
                )
            });
            traced_walls.push(d.wall_s);
            layers.push(fleet_layers(&d, FLEET_WORKERS));
            last = Some(d);
        }
        if let Some((out, wall)) = r.run(checked_fleet(&off, FLEET_WORKERS)) {
            r.check(out.fingerprint == reference.fingerprint, || {
                "untraced fingerprint moved".into()
            });
            plain_walls.push(wall);
        }
        if w == Workload::Failover {
            if let Some((out, wall)) = r.run(checked_fleet(spec, FLEET_WORKERS)) {
                failover_walls.push(wall);
                failover_counts = Some((out.tenants_failed_over, out.failover_lost));
            }
        }
    });
    // One worker, shard boundaries only: the calibration race cannot
    // happen, so misses must equal the distinct keys.
    let serial = r.run(drive(&off, 1, false));
    let (Some(last), Some(serial)) = (last, serial) else {
        return;
    };
    r.check(serial.outcome.fingerprint == reference.fingerprint, || {
        "1-worker traced fingerprint moved".into()
    });
    if plain_walls.is_empty() {
        return;
    }
    let mut m = merge_medians(&layers);
    let plain = median(&plain_walls);
    m.insert(
        "scenario.dup_calibrations_1w",
        serial
            .outcome
            .solo_cache_misses
            .saturating_sub(serial.unique_keys) as f64,
    );
    if let Some((failed_over, lost)) = failover_counts {
        m.insert("fleet.failover_rerun_s", median(&failover_walls) - plain);
        m.insert("fleet.tenants_failed_over", failed_over as f64);
        m.insert("fleet.failover_lost", lost as f64);
    }
    m.insert("trace.overhead_frac", median(&traced_walls) / plain);
    finish_trace(args, r, m, |out| write_fleet_spans(out, &last));
}

fn write_fleet_spans(out: &mut dyn std::io::Write, d: &DrivenFleet) -> std::io::Result<()> {
    let mut w = SpanWriter { out, next_id: 0 };
    let run = w.span(None, "fleet.run", None, None, (0, (d.wall_s * 1e9) as u64))?;
    w.span(Some(run), "fleet.place", None, None, d.place)?;
    let pool = w.span(Some(run), "fleet.pool", None, None, d.pool)?;
    for s in &d.shards {
        let shard = w.span(
            Some(pool),
            "fleet.shard",
            Some(s.worker),
            Some(s.shard),
            (s.start, s.end),
        )?;
        for sp in s.trace.iter().flat_map(|t| &t.spans) {
            w.span(
                Some(shard),
                sp.layer.name(),
                Some(s.worker),
                Some(s.shard),
                (sp.start, sp.end),
            )?;
        }
    }
    w.span(Some(run), "fleet.reduce", None, None, d.reduce)?;
    Ok(())
}
