//! MP-HARS is HARS's own adaptation loop run per application: with a
//! single tenant that owns its fair share and nothing to share it
//! with, the multi-app manager must make exactly the decision the
//! single-app manager makes from the same state — same next state,
//! same search cost, same modeled decision time.

use hars::hars_core::policy::SearchPolicy;
use hars::hars_core::{HarsConfig, PowerEstimator, RuntimeManager};
use hars::mp_hars::{mp_hars_e, mp_hars_i, MpHarsManager};
use hars::prelude::*;

fn assert_same_decision(board: &BoardSpec, policy: SearchPolicy, rate: f64) {
    let case = format!("{} {policy:?} at {rate} hb/s", board.name);
    let target = PerfTarget::from_center(10.0, 0.10).expect("valid target");
    let perf = PerfEstimator::from_board(board);
    let power = PowerEstimator::synthetic_for_board(board);

    let mp_cfg = match policy {
        SearchPolicy::Incremental => mp_hars_i(),
        _ => mp_hars_e(),
    };
    let mut mp = MpHarsManager::new(board, perf, power.clone(), mp_cfg);
    mp.register_app(AppId(0), 8, target);
    assert!(
        mp.on_heartbeat(AppId(0), 0, None).is_some(),
        "{case}: initial allocation"
    );
    let start = mp.app_state(AppId(0)).expect("registered");

    let cfg = HarsConfig {
        policy,
        initial_state: Some(start),
        ..HarsConfig::default()
    };
    let mut hars = RuntimeManager::new(board, target, perf, power, 8, cfg);

    let mp_decision = mp.on_heartbeat(AppId(0), 10, Some(rate));
    let hars_decision = hars.on_heartbeat(10, Some(rate));
    assert_eq!(
        mp_decision.as_ref().map(|d| (d.stats, d.overhead_ns)),
        hars_decision.as_ref().map(|d| (d.stats, d.overhead_ns)),
        "{case}: decision stats"
    );
    assert_eq!(
        mp.app_state(AppId(0)),
        Some(hars.state()),
        "{case}: next state"
    );
    assert_eq!(
        mp.core().search_stats(),
        hars.core().search_stats(),
        "{case}: search stats, wall_ns included"
    );
    assert_eq!(mp.core().searches(), hars.core().searches(), "{case}");
    assert_eq!(mp.core().adaptations(), hars.core().adaptations(), "{case}");
}

#[test]
fn a_lone_mp_hars_tenant_decides_exactly_as_hars() {
    for board in [BoardSpec::odroid_xu3(), BoardSpec::server_4c_32core()] {
        for policy in [
            SearchPolicy::Incremental,
            SearchPolicy::exhaustive_default(),
        ] {
            for rate in [3.0, 30.0, 300.0] {
                assert_same_decision(&board, policy.clone(), rate);
            }
        }
    }
}
