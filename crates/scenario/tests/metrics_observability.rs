//! Observability contracts at the scenario level: metrics never
//! perturb the run, and a replay of the captured JSONL reproduces the
//! live summary byte for byte.

use hars_core::NullSink;
use hars_obs::replay_capture;
use hars_scenario::{
    run_scenario, run_scenario_with_metrics, AlwaysAdmit, AppTemplate, ArrivalProcess,
    BoundedQueue, JsonlSink, ScenarioRuntime, ScenarioSpec, SoloRateCache, TemplateSet,
};
use hmp_sim::clock::NS_PER_SEC;
use hmp_sim::{BoardSpec, EngineConfig};
use workloads::Benchmark;

fn bursty_spec(seed: u64) -> ScenarioSpec {
    let mut fast = AppTemplate::new(Benchmark::Swaptions);
    fast.heartbeats = 20;
    let mut slow = AppTemplate::new(Benchmark::Blackscholes);
    slow.heartbeats = 15;
    slow.target_frac = 0.35;
    let mut spec = ScenarioSpec::new(
        ArrivalProcess::Bursty {
            on_rate_per_sec: 2.0,
            mean_on_secs: 3.0,
            mean_off_secs: 4.0,
        },
        TemplateSet::uniform(vec![fast, slow]),
        20 * NS_PER_SEC,
        seed,
    );
    spec.solo_budget = 20;
    spec
}

#[test]
fn metrics_run_fingerprints_identically_to_null_sink_run() {
    let board = BoardSpec::odroid_xu3();
    let cfg = EngineConfig::default();
    let spec = bursty_spec(7);
    let plain = run_scenario(
        &board,
        &cfg,
        &spec,
        &mut BoundedQueue::new(0.85, 4),
        ScenarioRuntime::mp_hars(&board, mp_hars::mp_hars_i()),
    )
    .expect("runs");
    let metered = run_scenario_with_metrics(
        &board,
        &cfg,
        &spec,
        &mut BoundedQueue::new(0.85, 4),
        ScenarioRuntime::mp_hars(&board, mp_hars::mp_hars_i()),
        &SoloRateCache::new(),
        &mut NullSink,
    )
    .expect("runs");
    assert_eq!(plain.fingerprint(), metered.fingerprint());
    assert!(plain.metrics.is_none());
    let summary = metered.metrics.expect("metrics entry point fills it");
    assert_eq!(summary.rollup.admitted as usize, metered.admitted);
    assert_eq!(summary.rollup.rejected as usize, metered.rejected);
    assert_eq!(summary.rollup.departed as usize, metered.completed);
    assert!(summary.rollup.heartbeat_latency_ns.count() > 0);
    assert!(!summary.rollup.classes.is_empty());
}

#[test]
fn replayed_capture_matches_live_summary_byte_for_byte() {
    let board = BoardSpec::odroid_xu3();
    let cfg = EngineConfig::default();
    let spec = bursty_spec(11);
    let mut capture = JsonlSink::new(Vec::new());
    let out = run_scenario_with_metrics(
        &board,
        &cfg,
        &spec,
        &mut AlwaysAdmit,
        ScenarioRuntime::mp_hars(&board, mp_hars::mp_hars_i()),
        &SoloRateCache::new(),
        &mut capture,
    )
    .expect("runs");
    let live = out.metrics.expect("filled");
    let (written, dropped, bytes) = capture.finish();
    assert_eq!(dropped, 0);
    // The capture carries every event; the fold excludes only the
    // cache-accounting kinds (their hit/miss split is scheduling-
    // dependent under shard races, so they live in outcome counters).
    assert_eq!(
        written,
        live.rollup.events + out.solo_cache_hits + out.solo_cache_misses,
        "capture covers every event; fold skips only cache accounting"
    );
    let text = String::from_utf8(bytes).expect("utf8 capture");
    let replayed = replay_capture(&text).expect("capture parses against the schema");
    assert_eq!(live, replayed);
    assert_eq!(live.render(), replayed.render());
    assert_eq!(live.fingerprint(), replayed.fingerprint());
}
