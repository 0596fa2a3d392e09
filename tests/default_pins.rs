//! Pins on what the metrics and failover constants feed: a seeded
//! scenario's metrics summary (the 90 % SLO threshold and the
//! always-kept rate series) and a faulty fleet whose supervisor fails
//! tenants over with the fixed retry cap and backoff. A change to the
//! SLO threshold or the backoff moves a pin.

use hars::prelude::*;
use hmp_sim::clock::NS_PER_SEC;

#[test]
fn metrics_summary_is_pinned() {
    let board = BoardSpec::odroid_xu3();
    let mk = |bench, threads| AppTemplate {
        threads,
        heartbeats: 12,
        ..AppTemplate::new(bench)
    };
    let mut spec = ScenarioSpec::new(
        ArrivalProcess::Poisson { rate_per_sec: 0.2 },
        TemplateSet::uniform(vec![
            mk(Benchmark::Swaptions, 2),
            mk(Benchmark::Bodytrack, 4),
            mk(Benchmark::Blackscholes, 4),
        ]),
        60 * NS_PER_SEC,
        7,
    );
    spec.solo_budget = 12;
    let out = run_scenario_with_metrics(
        &board,
        &EngineConfig::default(),
        &spec,
        &mut AlwaysAdmit,
        ScenarioRuntime::mp_hars(&board, hars::mp_hars::mp_hars_i()),
        &SoloRateCache::new(),
        &mut NullSink,
    )
    .expect("scenario runs");
    let m = out.metrics.expect("metrics mounted");
    let render = m.render();
    assert_eq!(m.fingerprint(), 0x592e_123f_17ac_1ce4);
    assert_eq!(m.tenants.len(), 12);
    assert_eq!(m.tenants.iter().filter(|t| t.slo_met()).count(), 10);
    assert!(render.contains("\nslo threshold: 90%\n"), "{render}");
    for t in &m.tenants {
        assert_eq!(t.rate_series.len() as u64, t.rated, "tenant {}", t.tenant);
    }
}

/// The `failover_recovers_tenants_of_a_dead_board` fleet shape (three
/// mixed boards) under fault seed `fault_seed` at `board_fail_prob`
/// 0.5.
fn faulty_fleet(fault_seed: u64) -> FleetSpec {
    let presets = [
        BoardSpec::odroid_xu3(),
        BoardSpec::dynamiq_1p_3m_4l(),
        BoardSpec::server_4c_32core(),
    ];
    let boards: Vec<FleetBoard> = (0..3)
        .map(|i| FleetBoard {
            board: presets[i].clone(),
            runtime: if i == 2 {
                FleetRuntimeKind::Gts
            } else {
                FleetRuntimeKind::MpHarsI
            },
            admission: if i % 2 == 0 {
                AdmissionSwap::AlwaysAdmit
            } else {
                AdmissionSwap::CapacityGate { max_load: 0.9 }
            },
        })
        .collect();
    let mut template = AppTemplate::new(Benchmark::Swaptions);
    template.heartbeats = 15;
    let mut bg = AppTemplate::new(Benchmark::Blackscholes);
    bg.heartbeats = 12;
    bg.target_frac = 0.3;
    let mut spec = FleetSpec::new(
        boards,
        ArrivalProcess::Poisson { rate_per_sec: 0.5 },
        TemplateSet::uniform(vec![template, bg]),
        12 * NS_PER_SEC,
        17,
    );
    spec.solo_budget = 20;
    spec.placement = PlacementPolicy::LeastLoaded;
    let mut faults = FleetFaultSpec::new(fault_seed);
    faults.board_fail_prob = 0.5;
    spec.faults = Some(faults);
    spec
}

/// Fault seed 1 (the first that kills one of the three boards) fails
/// one tenant over; seed 7 kills two boards and loses one tenant whose
/// backed-off re-arrival falls past the horizon. The fingerprints move
/// with the backoff.
#[test]
fn failover_outcome_is_pinned() {
    for (fault_seed, boards_failed, fingerprint, failed_over, lost) in [
        (1, 1, 0x0796_1616_c86f_9ee2, 1, 0),
        (7, 2, 0x05c7_dba5_8aef_8893, 5, 1),
    ] {
        let out = run_fleet(&faulty_fleet(fault_seed), 2, &mut NullSink).expect("fleet runs");
        let got = (
            out.boards_failed,
            out.fingerprint,
            out.tenants_failed_over,
            out.failover_lost,
        );
        assert_eq!(
            got,
            (boards_failed, fingerprint, failed_over, lost),
            "fault seed {fault_seed}"
        );
        assert!(out.failed_shards.is_empty(), "no worker panicked");
    }
}
