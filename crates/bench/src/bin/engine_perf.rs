//! Engine-loop performance baseline: the machine-readable numbers
//! (`BENCH_engine.json`) behind the discrete-event engine core — the
//! control-event heap, tick/sensor quiescence and idle fast-forward.
//!
//! Two open-system scenarios bracket the engine's operating envelope:
//!
//! * **idle-churn** — a sparse arrival trace on the XU3 under stock
//!   GTS: four short tenants separated by long dead air, so the board
//!   is busy a few percent of the horizon. This is the idle-skip's
//!   target case: the fixed-step reference walks every scheduler tick
//!   of every idle span while the event-heap engine fast-forwards
//!   through them (replaying only the energy-integral boundaries that
//!   bit-identity requires).
//! * **dense** — Poisson churn heavy enough to keep the board busy
//!   end to end under MP-HARS-E. Here the heap cannot skip anything;
//!   the run checks the event machinery itself is (near) free.
//!
//! Both scenarios run in both [`ExecMode`]s and the run self-asserts
//! the refactor's contracts:
//!
//! 1. **bit-identity** — fixed-step and event-heap outcomes
//!    fingerprint identically (every tenant field, energy, search
//!    totals) and reach the same power-sensor sample count;
//! 2. **idle speedup** — the event-heap engine is ≥ 10× faster on the
//!    idle-churn trace;
//! 3. **dense parity** — the dense-scenario overhead of the heap mode
//!    stays small (≤ 10% in full mode; the quick/CI gate allows 50%
//!    to absorb shared-runner noise).
//!
//! ```sh
//! cargo run --release -p hars-bench --bin engine_perf [-- --quick] [--out BENCH_engine.json]
//! ```
//!
//! Without `--out` the JSON goes to `BENCH_engine.json`, or to
//! `BENCH_engine_quick.json` in quick mode, so a quick run never
//! overwrites the committed full-mode baseline.

use std::fmt::Write as _;
use std::time::Instant;

use hars_core::NullSink;
use hars_scenario::{
    run_scenario_with_sink, AlwaysAdmit, AppTemplate, ArrivalProcess, ScenarioOutcome,
    ScenarioRuntime, ScenarioSpec, SoloRateCache, TemplateSet,
};
use hmp_sim::clock::NS_PER_SEC;
use hmp_sim::{BoardSpec, EngineConfig, ExecMode};
use mp_hars::mp_hars_e;
use workloads::Benchmark;

/// Contract floor on the idle-churn trace.
const IDLE_SPEEDUP_FLOOR: f64 = 10.0;
/// Dense-parity ceilings on `event / fixed` wall time.
const DENSE_PARITY_FULL: f64 = 1.10;
const DENSE_PARITY_QUICK: f64 = 1.50;

struct Case {
    name: &'static str,
    arrivals: ArrivalProcess,
    horizon_secs: u64,
    seed: u64,
    /// `true`: MP-HARS-E manages the tenants; `false`: stock GTS.
    managed: bool,
}

fn cases(quick: bool) -> Vec<Case> {
    vec![
        Case {
            name: "idle-churn",
            // Four short tenancies separated by long fully-idle gaps:
            // each tenant runs for a handful of seconds, so the busy
            // fraction of the horizon stays around 1%. Same scale in
            // quick mode — the idle trace costs tens of milliseconds
            // even for the fixed-step reference, and a shorter horizon
            // would let the (mode-independent) busy prefix dilute the
            // speedup the contract measures.
            arrivals: ArrivalProcess::Trace((0..4).map(|i| i * 150 * NS_PER_SEC).collect()),
            horizon_secs: 600,
            seed: 17,
            managed: false,
        },
        Case {
            name: "dense",
            arrivals: ArrivalProcess::Poisson { rate_per_sec: 0.5 },
            horizon_secs: if quick { 60 } else { 120 },
            seed: 23,
            managed: true,
        },
    ]
}

fn templates() -> TemplateSet {
    TemplateSet::uniform(vec![
        AppTemplate {
            heartbeats: 25,
            ..AppTemplate::new(Benchmark::Swaptions)
        },
        AppTemplate {
            heartbeats: 20,
            ..AppTemplate::new(Benchmark::Bodytrack)
        },
    ])
}

fn run_once(
    board: &BoardSpec,
    case: &Case,
    mode: ExecMode,
    cache: &SoloRateCache,
) -> (ScenarioOutcome, f64) {
    let cfg = EngineConfig {
        exec: mode,
        ..EngineConfig::default()
    };
    let mut spec = ScenarioSpec::new(
        case.arrivals.clone(),
        templates(),
        case.horizon_secs * NS_PER_SEC,
        case.seed,
    );
    spec.solo_budget = 20;
    let runtime = if case.managed {
        ScenarioRuntime::mp_hars(board, mp_hars_e())
    } else {
        ScenarioRuntime::Gts
    };
    let t0 = Instant::now();
    let out = run_scenario_with_sink(
        board,
        &cfg,
        &spec,
        &mut AlwaysAdmit,
        runtime,
        cache,
        &mut NullSink,
    )
    .expect("scenario runs");
    (out, t0.elapsed().as_secs_f64())
}

struct Measured {
    outcome: ScenarioOutcome,
    wall_secs: f64,
}

/// Min-of-reps timing with a warm solo-rate cache: the first run pays
/// the per-mode solo calibrations (its time is discarded), the timed
/// repeats measure the scenario loop itself.
fn measure(board: &BoardSpec, case: &Case, mode: ExecMode, reps: usize) -> Measured {
    let cache = SoloRateCache::new();
    let (outcome, _) = run_once(board, case, mode, &cache);
    let mut wall = f64::INFINITY;
    for _ in 0..reps {
        let (again, secs) = run_once(board, case, mode, &cache);
        assert_eq!(
            again.fingerprint(),
            outcome.fingerprint(),
            "{}/{mode:?}: repeat runs must be deterministic",
            case.name
        );
        wall = wall.min(secs);
    }
    Measured {
        outcome,
        wall_secs: wall,
    }
}

struct CaseReport {
    name: &'static str,
    horizon_secs: u64,
    busy_frac: f64,
    fingerprint: u64,
    sensor_samples: u64,
    coalesced: u64,
    fixed_ms: f64,
    event_ms: f64,
    speedup: f64,
}

fn render_json(reports: &[CaseReport], quick: bool) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"bench\": \"engine_perf\",");
    let _ = writeln!(
        s,
        "  \"mode\": \"{}\",",
        if quick { "quick" } else { "full" }
    );
    let _ = writeln!(s, "  \"idle_speedup_floor_x\": {IDLE_SPEEDUP_FLOOR},");
    let _ = writeln!(s, "  \"cases\": [");
    for (i, r) in reports.iter().enumerate() {
        let _ = writeln!(s, "    {{");
        let _ = writeln!(s, "      \"case\": \"{}\",", r.name);
        let _ = writeln!(s, "      \"horizon_secs\": {},", r.horizon_secs);
        let _ = writeln!(s, "      \"busy_frac\": {:.4},", r.busy_frac);
        let _ = writeln!(s, "      \"fingerprint\": \"{:016x}\",", r.fingerprint);
        let _ = writeln!(s, "      \"sensor_samples\": {},", r.sensor_samples);
        let _ = writeln!(s, "      \"sensor_samples_coalesced\": {},", r.coalesced);
        let _ = writeln!(s, "      \"fixed_step_ms\": {:.2},", r.fixed_ms);
        let _ = writeln!(s, "      \"event_heap_ms\": {:.2},", r.event_ms);
        let _ = writeln!(s, "      \"speedup_x\": {:.2}", r.speedup);
        let _ = writeln!(s, "    }}{}", if i + 1 == reports.len() { "" } else { "," });
    }
    let _ = writeln!(s, "  ]");
    let _ = write!(s, "}}");
    s
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick" || a == "-q");
    let out_path = hars_bench::bench_out_path(&args, quick, "BENCH_engine");
    let reps = if quick { 3 } else { 5 };

    println!(
        "engine_perf ({} mode): fixed-step vs event-heap wall time\n",
        if quick { "quick" } else { "full" }
    );
    println!(
        "{:<12} {:>8} {:>10} {:>11} {:>11} {:>9}  fingerprint",
        "case", "busy%", "samples", "fixed(ms)", "event(ms)", "speedup"
    );

    let board = BoardSpec::odroid_xu3();
    let mut reports = Vec::new();
    for case in cases(quick) {
        let fixed = measure(&board, &case, ExecMode::FixedStep, reps);
        let event = measure(&board, &case, ExecMode::EventHeap, reps);

        // --- contract 1: bit-identity between the two loops.
        assert_eq!(
            fixed.outcome.fingerprint(),
            event.outcome.fingerprint(),
            "{}: the event-heap engine changed the outcome",
            case.name
        );
        assert_eq!(
            fixed.outcome.energy_joules.to_bits(),
            event.outcome.energy_joules.to_bits(),
            "{}: energy accounting must be bit-equal",
            case.name
        );
        assert_eq!(
            fixed.outcome.sensor_samples, event.outcome.sensor_samples,
            "{}: sample-count conservation",
            case.name
        );
        assert_eq!(fixed.outcome.sensor_samples_coalesced, 0);

        // Busy fraction estimate: completed tenancy spans over horizon.
        let busy_ns: u64 = fixed
            .outcome
            .tenants
            .iter()
            .filter_map(|t| Some(t.finished_ns?.saturating_sub(t.admitted_ns?)))
            .sum();
        let busy_frac = busy_ns as f64 / (case.horizon_secs * NS_PER_SEC) as f64;

        let speedup = fixed.wall_secs / event.wall_secs;
        println!(
            "{:<12} {:>7.1}% {:>10} {:>11.2} {:>11.2} {:>8.2}x  {:016x}",
            case.name,
            100.0 * busy_frac,
            event.outcome.sensor_samples,
            1e3 * fixed.wall_secs,
            1e3 * event.wall_secs,
            speedup,
            event.outcome.fingerprint()
        );
        reports.push(CaseReport {
            name: case.name,
            horizon_secs: case.horizon_secs,
            busy_frac,
            fingerprint: event.outcome.fingerprint(),
            sensor_samples: event.outcome.sensor_samples,
            coalesced: event.outcome.sensor_samples_coalesced,
            fixed_ms: 1e3 * fixed.wall_secs,
            event_ms: 1e3 * event.wall_secs,
            speedup,
        });
    }

    // --- contract 2: the idle trace really is idle, and the heap
    // engine skips it ≥ 10× faster.
    let idle = &reports[0];
    assert!(
        idle.busy_frac <= 0.05,
        "idle-churn busy fraction {:.3} exceeds the 5% duty ceiling",
        idle.busy_frac
    );
    assert!(
        idle.speedup >= IDLE_SPEEDUP_FLOOR,
        "idle-churn speedup {:.2}x below the {IDLE_SPEEDUP_FLOOR}x contract",
        idle.speedup
    );
    println!(
        "\nPASS idle: event-heap engine is {:.1}x faster on the {:.1}%-duty churn trace \
         ({} of {} sensor samples coalesced)",
        idle.speedup,
        100.0 * idle.busy_frac,
        idle.coalesced,
        idle.sensor_samples
    );

    // --- contract 3: dense parity.
    let dense = &reports[1];
    let ceiling = if quick {
        DENSE_PARITY_QUICK
    } else {
        DENSE_PARITY_FULL
    };
    let ratio = dense.event_ms / dense.fixed_ms;
    assert!(
        ratio <= ceiling,
        "dense event/fixed ratio {ratio:.3} exceeds the {ceiling:.2} parity ceiling"
    );
    println!(
        "PASS dense: event-heap overhead {:+.1}% on the always-busy scenario (ceiling {:.0}%)",
        100.0 * (ratio - 1.0),
        100.0 * (ceiling - 1.0)
    );
    println!(
        "PASS identity: both cases fingerprint-identical across modes, sample counts conserved"
    );

    let json = render_json(&reports, quick);
    std::fs::write(&out_path, &json).expect("write BENCH_engine.json");
    println!("\nwrote {out_path}");
}
