//! Live round trip of the event kinds no replayed capture contains:
//! fault, quarantine, degraded-calibration and control-plane events
//! from a faulted scenario, and placement and failover events from a
//! fleet that loses a board. Every captured event must parse back
//! equal, and replaying the capture must give the same summary as
//! folding the events directly.

use std::collections::BTreeSet;

use hars_core::{TelemetryEvent, VecSink};
use hars_fleet::{run_fleet, FleetBoard, FleetFaultSpec, FleetRuntimeKind, FleetSpec};
use hars_obs::{parse_capture, replay_capture, summarize};
use hars_scenario::{
    run_scenario_with_sink, AdmissionSwap, AlwaysAdmit, AppTemplate, ArrivalProcess, ScenarioEvent,
    ScenarioRuntime, ScenarioSpec, SoloRateCache, TemplateSet,
};
use hmp_sim::clock::NS_PER_SEC;
use hmp_sim::{BoardSpec, ClusterId, EngineConfig, FaultKind, FaultPlan, TimedFault};
use workloads::Benchmark;

/// Asserts the capture round-trips and returns the kinds it holds.
fn round_trip(events: &[TelemetryEvent]) -> BTreeSet<&'static str> {
    let jsonl: String = events.iter().map(|e| e.to_json() + "\n").collect();
    assert_eq!(parse_capture(&jsonl).expect("capture parses"), events);
    assert_eq!(
        replay_capture(&jsonl).expect("capture parses"),
        summarize(events)
    );
    events.iter().map(TelemetryEvent::kind).collect()
}

fn template() -> AppTemplate {
    let mut t = AppTemplate::new(Benchmark::Swaptions);
    t.threads = 2;
    t.heartbeats = 20;
    t
}

#[test]
fn faulted_scenario_with_control_events_round_trips() {
    let board = BoardSpec::odroid_xu3();
    let s = NS_PER_SEC;
    let faults = FaultPlan::new(vec![
        TimedFault {
            at_ns: 4 * s,
            kind: FaultKind::ClusterCap {
                cluster: ClusterId(1),
                until_ns: 7 * s,
            },
        },
        TimedFault {
            at_ns: 6 * s,
            kind: FaultKind::SensorDropout { until_ns: 14 * s },
        },
        TimedFault {
            at_ns: 9 * s,
            kind: FaultKind::ClusterOffline {
                cluster: ClusterId(0),
                until_ns: 11 * s,
            },
        },
        TimedFault {
            at_ns: 16 * s,
            kind: FaultKind::BoardFail,
        },
    ]);
    let mut spec = ScenarioSpec::new(
        ArrivalProcess::Poisson { rate_per_sec: 1.0 },
        TemplateSet::uniform(vec![template()]),
        20 * s,
        3,
    )
    .with_event(3 * s, ScenarioEvent::SetTargetGuard(0.05))
    .with_event(5 * s, ScenarioEvent::SetTargetGuard(-1.0))
    .with_faults(faults);
    spec.solo_budget = 20;
    let mut sink = VecSink::new();
    run_scenario_with_sink(
        &board,
        &EngineConfig::default(),
        &spec,
        &mut AlwaysAdmit,
        ScenarioRuntime::mp_hars(&board, mp_hars::mp_hars_i()),
        &SoloRateCache::new(),
        &mut sink,
    )
    .expect("scenario runs");
    let kinds = round_trip(&sink.events);
    for kind in [
        "fault_injected",
        "cluster_quarantined",
        "cluster_restored",
        "board_failed",
        "degraded_calibration",
        "config_rejected",
        "guard_changed",
    ] {
        assert!(kinds.contains(kind), "no {kind} event in {kinds:?}");
    }
}

#[test]
fn fleet_with_a_board_death_round_trips() {
    let boards: Vec<FleetBoard> = (0..3)
        .map(|_| FleetBoard {
            board: BoardSpec::odroid_xu3(),
            runtime: FleetRuntimeKind::MpHarsI,
            admission: AdmissionSwap::AlwaysAdmit,
        })
        .collect();
    let mut spec = FleetSpec::new(
        boards,
        ArrivalProcess::Poisson { rate_per_sec: 0.5 },
        TemplateSet::uniform(vec![template()]),
        20 * NS_PER_SEC,
        5,
    );
    spec.solo_budget = 20;
    // The first fault seed that kills some, but not every, board.
    let chaos = |seed| {
        let mut f = FleetFaultSpec::new(seed);
        f.board_fail_prob = 0.4;
        f
    };
    let dies = |f: &FleetFaultSpec, b: usize| {
        f.plan_for(b, 2, spec.horizon_ns)
            .iter()
            .any(|t| t.kind == FaultKind::BoardFail)
    };
    let seed = (0..1_000)
        .find(|&seed| {
            let dead = (0..3).filter(|&b| dies(&chaos(seed), b)).count();
            (1..3).contains(&dead)
        })
        .expect("partial board loss is reachable");
    spec.faults = Some(chaos(seed));
    let mut sink = VecSink::new();
    let out = run_fleet(&spec, 2, &mut sink).expect("fleet runs");
    assert!(out.boards_failed >= 1);
    let kinds = round_trip(&sink.events);
    for kind in ["placement", "tenant_failed_over"] {
        assert!(kinds.contains(kind), "no {kind} event in {kinds:?}");
    }
}
