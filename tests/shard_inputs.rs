//! `run_shard` rejects out-of-range inputs with `SimError::InvalidSpec`
//! before the engine starts, instead of panicking mid-run: a negative
//! or non-finite guard band, a tenant whose target tolerance lies
//! outside `[0, 1)`, and a tenant that registers zero threads.
//! `run_scenario_with_sink` and `run_fleet` do the same for the inputs
//! their tenant schedule is drawn from: an arrival process with a NaN,
//! zero or negative rate or dwell time, and an out-of-range template.

use hars::hars_scenario::TenantSpec;
use hars::prelude::*;
use hmp_sim::clock::NS_PER_SEC;
use hmp_sim::SimError;

fn tenant() -> TenantSpec {
    AppTemplate {
        threads: 2,
        heartbeats: 10,
        ..AppTemplate::new(Benchmark::Swaptions)
    }
    .instantiate(1)
}

fn run(tenant: TenantSpec, target_guard: f64) -> (Result<u64, SimError>, usize) {
    let board = BoardSpec::odroid_xu3();
    let shard_cfg = ShardConfig {
        solo_budget: 10,
        target_guard,
        ..ShardConfig::new(30 * NS_PER_SEC)
    };
    let cache = SoloRateCache::new();
    let mut sink = VecSink::default();
    let out = run_shard(
        &board,
        &EngineConfig::default(),
        &[(0, tenant)],
        &shard_cfg,
        &mut AlwaysAdmit,
        ScenarioRuntime::mp_hars(&board, hars::mp_hars::mp_hars_i()),
        SoloCacheHandle::Shared(&cache),
        &mut sink,
    );
    (out.map(|o| o.fingerprint()), sink.events.len())
}

fn assert_rejected(tenant: TenantSpec, target_guard: f64, case: &str) {
    match run(tenant, target_guard) {
        (Err(SimError::InvalidSpec(_)), 0) => {}
        (other, events) => panic!(
            "{case}: expected InvalidSpec before any event, got {other:?} after {events} events"
        ),
    }
}

#[test]
fn valid_inputs_still_run() {
    let (out, events) = run(tenant(), 0.05);
    assert!(out.is_ok(), "{out:?}");
    assert!(events > 0);
}

#[test]
fn bad_target_guard_is_rejected() {
    for guard in [f64::NAN, -0.1, f64::INFINITY] {
        assert_rejected(tenant(), guard, &format!("guard {guard}"));
    }
}

#[test]
fn bad_target_tolerance_is_rejected() {
    for tolerance in [1.0, 1.5, -0.1, f64::NAN] {
        let t = TenantSpec {
            target_tolerance: tolerance,
            ..tenant()
        };
        assert_rejected(t, 0.0, &format!("tolerance {tolerance}"));
    }
}

#[test]
fn zero_thread_tenant_is_rejected() {
    let t = TenantSpec {
        threads: 0,
        ..tenant()
    };
    assert_rejected(t, 0.0, "zero threads");
}

#[test]
fn non_finite_target_frac_is_rejected() {
    for frac in [f64::INFINITY, f64::NAN] {
        let t = TenantSpec {
            target_frac: frac,
            ..tenant()
        };
        assert_rejected(t, 0.0, &format!("target_frac {frac}"));
    }
}

/// Arrival processes no schedule can be drawn from.
fn bad_arrivals() -> Vec<ArrivalProcess> {
    let poisson = |rate_per_sec| ArrivalProcess::Poisson { rate_per_sec };
    let bursty = |on_rate_per_sec, mean_on_secs, mean_off_secs| ArrivalProcess::Bursty {
        on_rate_per_sec,
        mean_on_secs,
        mean_off_secs,
    };
    vec![
        poisson(f64::NAN),
        poisson(0.0),
        poisson(-1.0),
        bursty(f64::NAN, 1.0, 1.0),
        bursty(0.0, 1.0, 1.0),
        bursty(-1.0, 1.0, 1.0),
        bursty(1.0, f64::NAN, 1.0),
        bursty(1.0, 0.0, 1.0),
        bursty(1.0, 1.0, -1.0),
    ]
}

/// Templates with one parameter out of range each.
fn bad_templates() -> Vec<AppTemplate> {
    let ok = AppTemplate::new(Benchmark::Swaptions);
    vec![
        AppTemplate {
            threads: 0,
            ..ok.clone()
        },
        AppTemplate {
            heartbeats: 0,
            ..ok.clone()
        },
        AppTemplate {
            size_jitter: 1.0,
            ..ok.clone()
        },
        AppTemplate {
            target_frac: f64::NAN,
            ..ok.clone()
        },
        AppTemplate {
            target_frac: 0.05,
            target_jitter: 0.05,
            ..ok.clone()
        },
        AppTemplate {
            target_tolerance: 1.0,
            ..ok
        },
    ]
}

/// Every spec input case: a bad arrival process with a good template,
/// then a good arrival process with each bad template.
fn bad_draws() -> Vec<(ArrivalProcess, AppTemplate)> {
    let good_arrivals = ArrivalProcess::Poisson { rate_per_sec: 0.5 };
    let good_template = AppTemplate::new(Benchmark::Swaptions);
    bad_arrivals()
        .into_iter()
        .map(|a| (a, good_template.clone()))
        .chain(
            bad_templates()
                .into_iter()
                .map(|t| (good_arrivals.clone(), t)),
        )
        .collect()
}

fn assert_invalid_spec<T: std::fmt::Debug>(
    out: Result<T, SimError>,
    events: usize,
    case: &(ArrivalProcess, AppTemplate),
) {
    match (out, events) {
        (Err(SimError::InvalidSpec(_)), 0) => {}
        (other, events) => panic!(
            "{case:?}: expected InvalidSpec before any event, got {other:?} after {events} events"
        ),
    }
}

#[test]
fn scenario_rejects_bad_arrivals_and_templates() {
    let board = BoardSpec::odroid_xu3();
    for case in bad_draws() {
        let spec = ScenarioSpec::new(
            case.0.clone(),
            TemplateSet::uniform(vec![case.1.clone()]),
            10 * NS_PER_SEC,
            1,
        );
        let mut sink = VecSink::default();
        let out = run_scenario_with_sink(
            &board,
            &EngineConfig::default(),
            &spec,
            &mut AlwaysAdmit,
            ScenarioRuntime::Gts,
            &SoloRateCache::new(),
            &mut sink,
        );
        assert_invalid_spec(out.map(|o| o.fingerprint()), sink.events.len(), &case);
    }
}

#[test]
fn fleet_rejects_bad_arrivals_and_templates() {
    for case in bad_draws() {
        let board = FleetBoard {
            board: BoardSpec::odroid_xu3(),
            runtime: FleetRuntimeKind::Gts,
            admission: AdmissionSwap::AlwaysAdmit,
        };
        let spec = FleetSpec::new(
            vec![board],
            case.0.clone(),
            TemplateSet::uniform(vec![case.1.clone()]),
            10 * NS_PER_SEC,
            1,
        );
        let mut sink = VecSink::default();
        let out = run_fleet(&spec, 1, &mut sink);
        assert_invalid_spec(out.map(|o| o.fingerprint), sink.events.len(), &case);
    }
}
