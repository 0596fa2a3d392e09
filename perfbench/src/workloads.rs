//! The four workloads, each built from the workload seed alone.
//!
//! Every simulated arrival stream is open-loop Poisson in model time:
//! tenants arrive on schedule whatever the boards are doing, so an
//! overloaded board queues or rejects rather than slowing the source.
//! Each stream has a fixed number of arrivals ([`poisson_arrivals`]) and
//! the failover fleet a fixed number of board deaths, so a seed moves
//! when things happen and which tenants arrive, not how much work a run
//! holds.

use hars_fleet::{
    FleetBoard, FleetCacheMode, FleetFaultSpec, FleetRuntimeKind, FleetSpec, PlacementPolicy,
};
use hars_scenario::{
    AdmissionSwap, AppTemplate, ArrivalProcess, ScenarioRuntime, ScenarioSpec, TemplateSet,
};
use hmp_sim::clock::NS_PER_SEC;
use hmp_sim::{BoardSpec, FaultKind};
use workloads::Benchmark;

/// Worker threads for the fleet workloads (the benchmark host's core
/// count is 2; more workers would only measure oversubscription).
pub const FLEET_WORKERS: usize = 2;

/// A workload name the benchmark accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The production serving path: a 256-board fleet, no faults.
    Serve,
    /// Cold-cache calibration across every board preset.
    Calibrate,
    /// Exhaustive manager search on the two server boards, with the
    /// telemetry stream written and replayed.
    Decide,
    /// A fault-ridden fleet with shard supervision and failover.
    Failover,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "serve" => Some(Workload::Serve),
            "calibrate" => Some(Workload::Calibrate),
            "decide" => Some(Workload::Decide),
            "failover" => Some(Workload::Failover),
            _ => None,
        }
    }
}

/// SplitMix64, the arrival instants' own uniform stream.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// `n` arrivals of a Poisson process over `[0, horizon_ns)`: conditioned
/// on its count, a Poisson process places its arrivals at sorted
/// uniform instants.
pub fn poisson_arrivals(n: usize, horizon_ns: u64, seed: u64) -> ArrivalProcess {
    let mut rng = SplitMix64(seed ^ 0x0A77_1A15);
    let mut instants: Vec<u64> = (0..n).map(|_| rng.next() % horizon_ns).collect();
    instants.sort_unstable();
    ArrivalProcess::Trace(instants)
}

fn template(bench: Benchmark, threads: usize, heartbeats: u64, target_frac: f64) -> AppTemplate {
    AppTemplate {
        threads,
        heartbeats,
        target_frac,
        target_jitter: 0.03,
        target_tolerance: 0.20,
        ..AppTemplate::new(bench)
    }
}

/// `serve`: the `fleet_bench` full fleet — 256 boards over five board
/// classes, short mixed tenants, round-robin placement, one shared
/// calibration cache — with four times its tenants (12 per board)
/// arriving within 15 s instead of 120 s. One run then takes about a
/// second of host time, and the horizon cuts a share of tenants large
/// enough to be the same for every seed.
pub fn serve(seed: u64) -> FleetSpec {
    const BOARDS: usize = 256;
    const HORIZON_SECS: u64 = 15;
    const ARRIVALS: usize = 12 * BOARDS;
    let classes = [
        (
            BoardSpec::odroid_xu3(),
            FleetRuntimeKind::MpHarsI,
            AdmissionSwap::AlwaysAdmit,
        ),
        (
            BoardSpec::dynamiq_1p_3m_4l(),
            FleetRuntimeKind::MpHarsI,
            AdmissionSwap::CapacityGate { max_load: 0.95 },
        ),
        (
            BoardSpec::x86_hybrid_6p_8e(),
            FleetRuntimeKind::Gts,
            AdmissionSwap::AlwaysAdmit,
        ),
        (
            BoardSpec::server_4c_32core(),
            FleetRuntimeKind::MpHarsI,
            AdmissionSwap::AlwaysAdmit,
        ),
        (
            BoardSpec::server_5c_48core(),
            FleetRuntimeKind::MpHarsI,
            AdmissionSwap::CapacityGate { max_load: 0.95 },
        ),
    ];
    let boards = (0..BOARDS)
        .map(|i| {
            let (board, runtime, admission) = classes[i % classes.len()].clone();
            FleetBoard {
                board,
                runtime,
                admission,
            }
        })
        .collect();
    let hb = 12;
    let templates = TemplateSet::uniform(vec![
        template(Benchmark::Swaptions, 2, hb, 0.6),
        template(Benchmark::Bodytrack, 8, hb, 0.25),
        template(Benchmark::Blackscholes, 8, hb, 0.25),
    ]);
    let horizon_ns = HORIZON_SECS * NS_PER_SEC;
    let arrivals = poisson_arrivals(ARRIVALS, horizon_ns, seed);
    let mut spec = FleetSpec::new(boards, arrivals, templates, horizon_ns, seed);
    spec.solo_budget = 320;
    spec.target_guard = 0.10;
    spec.placement = PlacementPolicy::RoundRobin;
    spec.cache = FleetCacheMode::Shared;
    spec
}

/// `calibrate`: three boards of each of the six board presets, grouped
/// by preset so that neighbouring shards — the ones two workers run at
/// the same time — share calibration keys. Tiny tenants drawn from all
/// six benchmarks at 1, 2, 4 and 8 threads, a long solo budget and a
/// cache that starts cold: isolated calibration runs are most of the
/// host time, and concurrent misses on one key are visible.
pub fn calibrate(seed: u64) -> FleetSpec {
    const PER_PRESET: usize = 3;
    const HORIZON_SECS: u64 = 10;
    const ARRIVALS: usize = 1440;
    let presets = [
        BoardSpec::odroid_xu3(),
        BoardSpec::phone_2big_4little(),
        BoardSpec::dynamiq_1p_3m_4l(),
        BoardSpec::x86_hybrid_6p_8e(),
        BoardSpec::server_4c_32core(),
        BoardSpec::server_5c_48core(),
    ];
    let boards = presets
        .iter()
        .flat_map(|b| std::iter::repeat_n(b, PER_PRESET))
        .map(|b| FleetBoard {
            board: b.clone(),
            runtime: FleetRuntimeKind::MpHarsI,
            admission: AdmissionSwap::AlwaysAdmit,
        })
        .collect();
    let templates = TemplateSet::uniform(
        Benchmark::ALL
            .iter()
            .flat_map(|&b| [1, 2, 4, 8].map(|t| template(b, t, 3, 0.2)))
            .collect(),
    );
    let horizon_ns = HORIZON_SECS * NS_PER_SEC;
    let arrivals = poisson_arrivals(ARRIVALS, horizon_ns, seed);
    let mut spec = FleetSpec::new(boards, arrivals, templates, horizon_ns, seed);
    spec.solo_budget = 200;
    spec.placement = PlacementPolicy::RoundRobin;
    spec.cache = FleetCacheMode::Shared;
    spec
}

/// `failover`: the `chaos` bench's fleet scaled from 12 to 256 boards,
/// with four tenants per board arriving within 40 s (the bench: two
/// within 120 s), and its fault model — board deaths,
/// cluster caps, offline clusters, sensor faults and heartbeat stalls —
/// drawn from the workload seed, and shard supervision with failover on.
/// The fault seed is the first one derived from the workload seed that
/// kills exactly [`FAILOVER_DEAD_BOARDS`] boards.
pub fn failover(seed: u64) -> FleetSpec {
    const BOARDS: usize = 256;
    const HORIZON_SECS: u64 = 40;
    const ARRIVALS: usize = 4 * BOARDS;
    let classes = [
        (BoardSpec::odroid_xu3(), AdmissionSwap::AlwaysAdmit),
        (
            BoardSpec::dynamiq_1p_3m_4l(),
            AdmissionSwap::CapacityGate { max_load: 0.95 },
        ),
        (BoardSpec::x86_hybrid_6p_8e(), AdmissionSwap::AlwaysAdmit),
    ];
    let boards = (0..BOARDS)
        .map(|i| {
            let (board, admission) = classes[i % classes.len()].clone();
            FleetBoard {
                board,
                runtime: FleetRuntimeKind::MpHarsI,
                admission,
            }
        })
        .collect();
    let hb = 80;
    let templates = TemplateSet::uniform(vec![
        template(Benchmark::Swaptions, 2, hb, 0.5),
        template(Benchmark::Bodytrack, 4, hb, 0.25),
        template(Benchmark::Blackscholes, 4, hb, 0.25),
    ]);
    let horizon_ns = HORIZON_SECS * NS_PER_SEC;
    let arrivals = poisson_arrivals(ARRIVALS, horizon_ns, seed);
    let mut spec = FleetSpec::new(boards, arrivals, templates, horizon_ns, seed);
    spec.solo_budget = 40;
    spec.target_guard = 0.10;
    spec.placement = PlacementPolicy::RoundRobin;
    let model = |fault_seed| {
        let mut f = FleetFaultSpec::new(fault_seed);
        f.board_fail_prob = 0.35;
        f.cluster_cap_prob = 0.25;
        f.cluster_offline_prob = 0.15;
        f.sensor_fault_prob = 0.25;
        f.hb_stall_prob = 0.25;
        f.failover = true;
        f
    };
    let dead = |f: &FleetFaultSpec| {
        (0..BOARDS)
            .filter(|&b| {
                f.plan_for(b, spec.boards[b].board.n_clusters(), horizon_ns)
                    .iter()
                    .any(|t| t.kind == FaultKind::BoardFail)
            })
            .count()
    };
    let mut rng = SplitMix64(seed ^ 0xC4A0_5FA1);
    let faults = std::iter::repeat_with(|| model(rng.next()))
        .find(|f| dead(f) == FAILOVER_DEAD_BOARDS)
        .expect("some fault seed kills the target number of boards");
    spec.faults = Some(faults);
    spec
}

/// Boards the `failover` fault plan kills, near the model's expected
/// 0.35 × 256.
pub const FAILOVER_DEAD_BOARDS: usize = 85;

/// One `decide` scenario: a server board under MP-HARS-E.
#[derive(Debug, Clone)]
pub struct DecideCase {
    /// The board.
    pub board: BoardSpec,
    /// The scenario.
    pub spec: ScenarioSpec,
}

impl DecideCase {
    /// A fresh MP-HARS-E runtime (exhaustive search, paper defaults).
    pub fn runtime(&self) -> ScenarioRuntime {
        ScenarioRuntime::mp_hars(&self.board, mp_hars::mp_hars_e())
    }

    /// A fresh admission policy.
    pub fn admission(&self) -> Box<dyn hars_scenario::AdmissionPolicy> {
        AdmissionSwap::CapacityGate { max_load: 0.5 }.build()
    }
}

/// `decide`: 24 short single-board scenarios on the 4- and 5-cluster
/// servers under MP-HARS-E, four per server and benchmark, each from its
/// own seed. One benchmark per scenario keeps the tenant mix the same
/// for every seed, and many short scenarios average the search's
/// heavy-tailed cost. Arrivals outpace a capacity gate at half load, so
/// each board runs at its admission limit and the exhaustive search
/// always has a full board of tenants to place.
pub fn decide(seed: u64) -> Vec<DecideCase> {
    const HORIZON_SECS: u64 = 30;
    const ARRIVALS: usize = 120;
    const REPEATS: usize = 4;
    let mut cases = Vec::new();
    for board in [BoardSpec::server_4c_32core(), BoardSpec::server_5c_48core()] {
        for (bench, target_frac) in [
            (Benchmark::Swaptions, 0.5),
            (Benchmark::Bodytrack, 0.4),
            (Benchmark::Blackscholes, 0.4),
        ]
        .into_iter()
        .flat_map(|t| std::iter::repeat_n(t, REPEATS))
        {
            let seed = seed.wrapping_add(cases.len() as u64);
            let horizon_ns = HORIZON_SECS * NS_PER_SEC;
            let arrivals = poisson_arrivals(ARRIVALS, horizon_ns, seed);
            let templates = TemplateSet::uniform(vec![template(bench, 8, 40, target_frac)]);
            let mut spec = ScenarioSpec::new(arrivals, templates, horizon_ns, seed);
            spec.solo_budget = 40;
            spec.target_guard = 0.10;
            cases.push(DecideCase {
                board: board.clone(),
                spec,
            });
        }
    }
    cases
}
