//! One `SoloRateCache` serves every entry point: a cold
//! `run_scenario_with_sink`, a warm rerun and a `run_shard` of the same
//! schedule all share it, produce one fingerprint, and calibrate each
//! distinct `(benchmark, threads)` key exactly once.

use std::collections::HashSet;

use hars::prelude::*;
use hmp_sim::clock::NS_PER_SEC;

fn spec() -> ScenarioSpec {
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
    spec.target_guard = 0.05;
    spec
}

#[test]
fn one_cache_serves_every_entry_point() {
    let board = BoardSpec::odroid_xu3();
    let cfg = EngineConfig::default();
    let spec = spec();
    let runtime = || ScenarioRuntime::mp_hars(&board, hars::mp_hars::mp_hars_i());
    let cache = SoloRateCache::new();
    let scenario = |cache: &SoloRateCache| {
        run_scenario_with_sink(
            &board,
            &cfg,
            &spec,
            &mut AlwaysAdmit,
            runtime(),
            cache,
            &mut NullSink,
        )
        .expect("scenario runs")
    };

    let cold = scenario(&cache);
    let warm = scenario(&cache);
    let schedule = spec.tenant_schedule();
    let shard_cfg = ShardConfig {
        solo_budget: spec.solo_budget,
        target_guard: spec.target_guard,
        ..ShardConfig::new(spec.horizon_ns)
    };
    let shard = run_shard(
        &board,
        &cfg,
        &schedule,
        &shard_cfg,
        &mut AlwaysAdmit,
        runtime(),
        SoloCacheHandle::Shared(&cache),
        &mut NullSink,
    )
    .expect("shard runs");

    assert!(cold.admitted > 1, "the scenario admits several tenants");
    assert_eq!(warm.fingerprint(), cold.fingerprint());
    assert_eq!(shard.fingerprint(), cold.fingerprint());
    assert_eq!((warm.solo_cache_misses, shard.solo_cache_misses), (0, 0));

    let keys: HashSet<_> = schedule
        .iter()
        .map(|(_, ts)| (ts.bench, ts.threads))
        .collect();
    assert!(keys.len() > 1, "the schedule draws several templates");
    assert_eq!(cold.solo_cache_misses, keys.len() as u64);
    assert_eq!(cache.misses(), keys.len() as u64);
    assert_eq!(cache.len(), keys.len());
    assert_eq!(
        cache.hits(),
        cold.solo_cache_hits + warm.solo_cache_hits + shard.solo_cache_hits
    );
}
