//! `run_shard` rejects out-of-range inputs with `SimError::InvalidSpec`
//! before the engine starts, instead of panicking mid-run: a negative
//! or non-finite guard band, a tenant whose target tolerance lies
//! outside `[0, 1)`, and a tenant that registers zero threads.

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
