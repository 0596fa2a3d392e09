//! Pinned outputs of one churn-heavy engine run.
//!
//! Both executor modes share the engine's thread and core walks, so
//! the cross-mode equivalence proptests cannot see a drift that both
//! modes make together. This test pins one run's digest and total
//! energy to constants recorded before the walks were rewritten to
//! visit only live threads and busy cores: 60 tenants arrive on the
//! 48-core, 5-cluster server, oversubscribing it for a while, and most
//! of them finish; a duty-cycle sleeper runs throughout, deferred
//! affinity actions and immediate frequency actions land mid-run, and
//! the board dies before the horizon.

use hmp_sim::clock::NS_PER_SEC;
use hmp_sim::{
    Action, AppSpec, BoardSpec, ClusterId, Engine, EngineConfig, ExecMode, FaultKind, FaultPlan,
    ParallelismModel, SpeedProfile, TimedFault, WorkSource,
};

/// Digest of the pinned run, recorded on the commit before the rewrite.
const PINNED_FINGERPRINT: u64 = 0x63f4_8888_69db_d9c5;
/// `energy().total_joules().to_bits()` of the pinned run.
const PINNED_ENERGY_BITS: u64 = 0x406e_4a1e_8745_9e3f;

const TENANTS: u64 = 60;
const ARRIVAL_GAP_NS: u64 = 30_000_000;
const FAIL_AT_NS: u64 = 4_500_000_000;
const HORIZON_NS: u64 = 6 * NS_PER_SEC;

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// SplitMix64: the tenant mix is a pure function of the tenant index.
fn mix(i: u64) -> u64 {
    let mut z = i.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn tenant(i: u64) -> AppSpec {
    let r = mix(i);
    let threads = 1 + (r % 8) as usize;
    let unit_work = 400.0 + (r >> 8) as f64 % 1600.0;
    let mut spec = if i % 5 == 3 && threads >= 3 {
        AppSpec {
            name: format!("pipe{i}"),
            threads,
            model: ParallelismModel::Pipeline {
                stage_threads: vec![1, threads - 2, 1],
                stage_work_frac: vec![0.25, 0.5, 0.25],
                queue_capacity: 3,
            },
            speed: SpeedProfile::compute_bound(1.8),
            work: WorkSource::Constant(unit_work),
            items_per_heartbeat: 1,
            startup_work: 0.0,
            serial_frac: 0.0,
            max_heartbeats: None,
        }
    } else {
        let mut s = AppSpec::data_parallel(format!("dp{i}"), threads, unit_work);
        if i.is_multiple_of(3) {
            s.serial_frac = 0.1;
        }
        s
    };
    spec.max_heartbeats = Some(2 + (r >> 20) % 8);
    spec
}

/// Runs the engine to `until`, folding every heartbeat into `fp`.
fn pump(e: &mut Engine, until: u64, fp: &mut Fnv) {
    while let Some(hb) = e.next_heartbeat(until) {
        fp.word(hb.app.0);
        fp.word(hb.index);
        fp.word(hb.time_ns);
    }
    e.run_until(until);
}

struct Run {
    fingerprint: u64,
    energy_j: f64,
    finished: u64,
}

fn run(mode: ExecMode) -> Run {
    let board = BoardSpec::server_5c_48core();
    let mut e = Engine::new(
        board.clone(),
        EngineConfig {
            exec: mode,
            ..EngineConfig::default()
        },
    );
    e.install_faults(FaultPlan::new(vec![TimedFault {
        at_ns: FAIL_AT_NS,
        kind: FaultKind::BoardFail,
    }]));
    let mut spinner = AppSpec::data_parallel("spinner", 2, 1.0);
    spinner.model = ParallelismModel::DutyCycle {
        duty: 0.2,
        period_ns: 40_000_000,
    };
    let spinner = e.add_app(spinner).expect("valid spec");
    let mut fp = Fnv::new();
    let mut apps = vec![spinner];
    for i in 0..TENANTS {
        let at = i * ARRIVAL_GAP_NS;
        pump(&mut e, at, &mut fp);
        if i % 10 == 0 {
            // Loads and placement of every thread still running.
            for &app in &apps {
                if e.app_done(app) {
                    continue;
                }
                for t in 0..e.app_threads(app) {
                    fp.word(e.thread_load(app, t).expect("known thread").to_bits());
                    let core = e.thread_core(app, t).expect("known thread");
                    fp.word(core.map_or(u64::MAX, |c| c.0 as u64));
                }
            }
        }
        let app = e.add_app(tenant(i)).expect("valid spec");
        apps.push(app);
        if i % 7 == 0 {
            let cluster = ClusterId((i / 7) as usize % board.n_clusters());
            e.schedule_action(
                at + 20_000_000,
                Action::SetThreadAffinity {
                    app,
                    thread: 0,
                    affinity: board.cluster_cores(cluster),
                },
            )
            .expect("valid affinity");
        }
        if i % 11 == 0 {
            let cluster = ClusterId((i / 11) as usize % board.n_clusters());
            let ladder = board.ladder(cluster);
            let freq = if i % 22 == 0 {
                ladder.min()
            } else {
                ladder.max()
            };
            // Between arrivals, on an instant the engine has already
            // settled: the action is due at once and is the only change.
            let mid = at + ARRIVAL_GAP_NS / 2;
            pump(&mut e, mid, &mut fp);
            e.schedule_action(mid, Action::SetClusterFreq { cluster, freq })
                .expect("on-ladder frequency");
        }
    }
    pump(&mut e, HORIZON_NS, &mut fp);
    fp.word(e.now_ns());
    fp.word(e.board_failed().unwrap_or(u64::MAX));
    fp.word(e.sensor().total_samples());
    for c in board.cluster_ids() {
        fp.word(e.energy().cluster_joules(c).to_bits());
        fp.word(e.energy().busy_core_secs(c).to_bits());
    }
    for core in board.all_cores().iter() {
        fp.word(e.core_busy_ns(core));
    }
    let mut finished = 0;
    for &app in &apps {
        fp.word(e.app_heartbeats(app));
        fp.word(e.app_units_done(app));
        finished += u64::from(e.app_done(app));
    }
    Run {
        fingerprint: fp.0,
        energy_j: e.energy().total_joules(),
        finished,
    }
}

#[test]
fn churn_run_matches_pinned_outputs_in_both_modes() {
    for mode in [ExecMode::EventHeap, ExecMode::FixedStep] {
        let r = run(mode);
        println!(
            "{mode:?}: fingerprint {:#018x} energy bits {:#018x} finished {}",
            r.fingerprint,
            r.energy_j.to_bits(),
            r.finished
        );
        assert!(
            r.finished >= TENANTS * 2 / 3,
            "most tenants finish before the board dies ({} of {TENANTS})",
            r.finished
        );
        assert_eq!(r.fingerprint, PINNED_FINGERPRINT, "{mode:?} digest drifted");
        assert_eq!(
            r.energy_j.to_bits(),
            PINNED_ENERGY_BITS,
            "{mode:?} energy drifted"
        );
    }
}
