//! Open-system churn: MP-HARS versus baseline GTS when applications
//! arrive and depart at runtime.
//!
//! Three scenarios per board (light Poisson, heavy Poisson, bursty
//! on/off), a mixed-criticality tenant population (high-target
//! foreground swaptions, low-target background bodytrack/blackscholes),
//! and three runtimes:
//!
//! * **GTS** — stock scheduler at the maximum state. Target-blind: it
//!   gives every tenant a fair time-share, so foreground tenants starve
//!   whenever the board is contended while background tenants overshoot
//!   (burning energy for rate nobody asked for).
//! * **MP-HARS-I / MP-HARS-E** — the paper's multi-application manager:
//!   per-tenant targets, disjoint core partitions, interference-aware
//!   DVFS. On the 4-cluster server part the exhaustive policy is
//!   replaced by the adaptive-beam policy (`MP-HARS-B`) — the 8-D sweep
//!   would dominate wall time for no decision-quality gain.
//!
//! A second section runs the heavy scenario under the three admission
//! policies (always-admit, capacity gate, bounded FIFO queue) and
//! reports admitted/queued/rejected counts and queue waits.
//!
//! The run self-asserts its contracts:
//!
//! 1. **determinism** — re-running a scenario with the same seed
//!    reproduces the identical outcome fingerprint;
//! 2. **churn value** — on the heavy scenario of every board, the best
//!    MP-HARS variant achieves at least GTS's mean target-satisfaction
//!    rate at no more total energy.
//!
//! ```sh
//! cargo run --release -p hars-bench --bin churn [-- --quick]
//! ```

use hars_core::policy::SearchPolicy;
use hars_core::NullSink;
use hars_scenario::{
    run_scenario_with_sink, AdmissionPolicy, AlwaysAdmit, AppTemplate, ArrivalProcess,
    BoundedQueue, CapacityGate, ScenarioOutcome, ScenarioRuntime, ScenarioSpec, SoloRateCache,
    TemplateSet,
};
use hmp_sim::clock::NS_PER_SEC;
use hmp_sim::{BoardSpec, EngineConfig};
use mp_hars::{mp_hars_e, mp_hars_i, MpHarsConfig};
use workloads::Benchmark;

/// The mixed-criticality tenant population: a small, demanding
/// foreground template (2 threads, 65% of its solo rate) and two
/// relaxed 8-thread background templates (25% of solo — alive, but
/// most of the board is not for them). The split is what a
/// target-blind fair scheduler cannot serve: GTS shares *per thread*,
/// so whenever two 8-thread background tenants co-run, a 2-thread
/// foreground tenant is diluted to 2/18 of the board's core time —
/// far below its target — while the background pair overshoots.
/// MP-HARS partitions per *application*: two dedicated big cores hold
/// the foreground at full margin for a fraction of the board.
fn templates(quick: bool) -> TemplateSet {
    let scale = if quick { 1 } else { 2 };
    TemplateSet::weighted(vec![
        (
            1.0,
            AppTemplate {
                threads: 2,
                heartbeats: 60 * scale,
                target_frac: 0.65,
                target_jitter: 0.03,
                target_tolerance: 0.15,
                ..AppTemplate::new(Benchmark::Swaptions)
            },
        ),
        (
            1.0,
            AppTemplate {
                heartbeats: 40 * scale,
                target_frac: 0.25,
                target_jitter: 0.03,
                target_tolerance: 0.30,
                ..AppTemplate::new(Benchmark::Bodytrack)
            },
        ),
        (
            1.0,
            AppTemplate {
                heartbeats: 40 * scale,
                target_frac: 0.25,
                target_jitter: 0.03,
                target_tolerance: 0.30,
                ..AppTemplate::new(Benchmark::Fluidanimate)
            },
        ),
    ])
}

struct ScenarioDef {
    name: &'static str,
    spec: ScenarioSpec,
}

/// `(runtime label, mean satisfaction, energy J)` of one MP-HARS row.
type MpRow = (String, f64, f64);

/// One board's heavy-churn comparison: GTS satisfaction and energy
/// against every MP-HARS variant's.
struct HeavyResult {
    board: String,
    gts_sat: f64,
    gts_energy: f64,
    mp_rows: Vec<MpRow>,
}

fn scenarios(quick: bool, per_core_scale: f64) -> Vec<ScenarioDef> {
    let horizon_secs: u64 = if quick { 200 } else { 500 };
    let horizon = horizon_secs * NS_PER_SEC;
    // Arrival rates grow with board capacity (sublinearly: tenants on
    // the server board finish faster, so proportional scaling would
    // overshoot into permanent overload) and shrink with tenant size
    // (full-scale tenants carry twice the heartbeat budget, so offered
    // load stays comparable between --quick and full runs).
    let budget_scale = if quick { 1.0 } else { 2.0 };
    let light = 0.05 * per_core_scale.sqrt() / budget_scale;
    let heavy = 0.35 * per_core_scale.sqrt() / budget_scale;
    let mut defs = vec![
        ScenarioDef {
            name: "light",
            spec: ScenarioSpec::new(
                ArrivalProcess::Poisson {
                    rate_per_sec: light,
                },
                templates(quick),
                horizon,
                0xC0FFEE,
            ),
        },
        ScenarioDef {
            name: "heavy",
            spec: ScenarioSpec::new(
                ArrivalProcess::Poisson {
                    rate_per_sec: heavy,
                },
                templates(quick),
                horizon,
                0xC0FFEE + 1,
            ),
        },
        ScenarioDef {
            name: "bursty",
            spec: ScenarioSpec::new(
                ArrivalProcess::Bursty {
                    on_rate_per_sec: 2.5 * heavy,
                    mean_on_secs: 12.0,
                    mean_off_secs: 45.0,
                },
                templates(quick),
                horizon,
                0xC0FFEE + 2,
            ),
        },
    ];
    for def in &mut defs {
        // A 10% SLO guard: the manager aims a notch above each band so
        // estimator bias and window noise do not flip marginal
        // heartbeats below the scored minimum.
        def.spec.target_guard = 0.10;
    }
    defs
}

/// The runtimes compared on one board. The exhaustive policy only runs
/// where its sweep is tractable (2 clusters); many-cluster boards get
/// the adaptive-beam policy instead.
fn runtimes(board: &BoardSpec) -> Vec<ScenarioRuntime> {
    // A 5-heartbeat adaptation period: churn punishes the default
    // 10-heartbeat cadence (tenants live for 40-180 heartbeats, so
    // every adaptation saved matters twice).
    let tuned = |cfg: MpHarsConfig| MpHarsConfig {
        adapt_every: 5,
        ..cfg
    };
    let mut v = vec![
        ScenarioRuntime::Gts,
        ScenarioRuntime::mp_hars(board, tuned(mp_hars_i())),
    ];
    if board.n_clusters() <= 2 {
        v.push(ScenarioRuntime::mp_hars(board, tuned(mp_hars_e())));
    } else {
        v.push(ScenarioRuntime::mp_hars(
            board,
            tuned(MpHarsConfig {
                policy: SearchPolicy::adaptive_beam_default(),
                ..mp_hars_e()
            }),
        ));
    }
    v
}

fn run_one(
    board: &BoardSpec,
    spec: &ScenarioSpec,
    runtime: ScenarioRuntime,
    admission: &mut dyn AdmissionPolicy,
    solo_cache: &SoloRateCache,
) -> ScenarioOutcome {
    // A 10-heartbeat rate window (the tri-cluster bench's setting):
    // the default 20 blends pre- and post-adaptation rates for so long
    // that a corrected state change still reads as a target miss.
    let engine_cfg = EngineConfig {
        hb_window: 10,
        ..EngineConfig::default()
    };
    // One cross-scenario calibration cache for the whole bench: the
    // solo rate of a (board, benchmark, threads) triple is scenario-
    // independent, and this bin runs dozens of scenarios per board.
    run_scenario_with_sink(
        board,
        &engine_cfg,
        spec,
        admission,
        runtime,
        solo_cache,
        &mut NullSink,
    )
    .expect("scenario runs")
}

fn print_row(label: &str, out: &ScenarioOutcome) {
    println!(
        "{label:<12} {:>4} {:>4} {:>5} {:>6.1}% {:>6.3} {:>6.2}x {:>8.1} J {:>6.2} W {:>6}",
        out.admitted,
        out.completed,
        out.arrivals,
        100.0 * out.mean_satisfaction,
        out.mean_norm_perf,
        out.mean_slowdown,
        out.energy_joules,
        out.avg_watts,
        out.adaptations,
    );
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick" || a == "-q");
    let boards = [BoardSpec::odroid_xu3(), BoardSpec::server_4c_32core()];
    let mut heavy_results: Vec<HeavyResult> = Vec::new();
    // Shared across every scenario, runtime and board (keys carry the
    // board/engine-config fingerprint): each (benchmark, threads) solo
    // calibration runs once per board for the whole bench.
    let solo_cache = SoloRateCache::new();

    for board in &boards {
        let per_core_scale = board.n_cores() as f64 / 8.0;
        println!(
            "\n== {} ({} clusters, {} cores) ==",
            board.name,
            board.n_clusters(),
            board.n_cores()
        );
        println!(
            "{:<12} {:>4} {:>4} {:>5} {:>7} {:>6} {:>7} {:>10} {:>8} {:>6}",
            "scenario", "adm", "done", "arr", "sat", "norm", "slow", "energy", "power", "adapt"
        );
        for def in scenarios(quick, per_core_scale) {
            let mut gts_sat_energy: Option<(f64, f64)> = None;
            let mut mp_rows: Vec<MpRow> = Vec::new();
            for runtime in runtimes(board) {
                let label = format!("{} {}", def.name, runtime.label());
                let is_gts = matches!(runtime, ScenarioRuntime::Gts);
                let is_mp = !is_gts;
                let rt_label = runtime.label().to_string();
                let out = run_one(board, &def.spec, runtime, &mut AlwaysAdmit, &solo_cache);
                print_row(&label, &out);
                assert_eq!(
                    out.admitted, out.arrivals,
                    "always-admit must admit everyone"
                );
                if is_gts {
                    gts_sat_energy = Some((out.mean_satisfaction, out.energy_joules));
                }
                if is_mp {
                    mp_rows.push((rt_label, out.mean_satisfaction, out.energy_joules));
                }
            }
            if def.name == "heavy" {
                let (gts_sat, gts_energy) = gts_sat_energy.expect("GTS ran");
                heavy_results.push(HeavyResult {
                    board: board.name.clone(),
                    gts_sat,
                    gts_energy,
                    mp_rows,
                });
            }
        }
    }

    // ------------------------------------------------------------------
    // Admission policies on the heavy scenario (first board, MP-HARS-E).
    // ------------------------------------------------------------------
    let board = &boards[0];
    let per_core_scale = board.n_cores() as f64 / 8.0;
    let heavy = scenarios(quick, per_core_scale)
        .into_iter()
        .find(|d| d.name == "heavy")
        .expect("heavy scenario exists");
    println!(
        "\n== admission control: heavy churn on {} under MP-HARS-E ==",
        board.name
    );
    println!(
        "{:<16} {:>4} {:>6} {:>4} {:>6} {:>9} {:>7}",
        "policy", "adm", "queued", "rej", "done", "wait", "sat"
    );
    let mut policies: Vec<Box<dyn AdmissionPolicy>> = vec![
        Box::new(AlwaysAdmit),
        Box::new(CapacityGate::new(0.85)),
        Box::new(BoundedQueue::new(0.85, 8)),
    ];
    let mut always_admit_fp = None;
    for policy in policies.iter_mut() {
        let name = policy.name();
        let out = run_one(
            board,
            &heavy.spec,
            ScenarioRuntime::mp_hars(board, mp_hars_e()),
            policy.as_mut(),
            &solo_cache,
        );
        println!(
            "{:<16} {:>4} {:>6} {:>4} {:>6} {:>7.1} s {:>6.1}%",
            name,
            out.admitted,
            out.queued,
            out.rejected,
            out.completed,
            out.mean_queue_wait_secs,
            100.0 * out.mean_satisfaction,
        );
        assert_eq!(
            out.admitted + out.rejected + (out.queued_waiting()),
            out.arrivals,
            "{name}: every arrival is admitted, rejected, or still queued"
        );
        if name == AlwaysAdmit.name() {
            always_admit_fp = Some(out.fingerprint());
        }
    }

    // ------------------------------------------------------------------
    // Self-check 1: bit-level determinism for a fixed seed — one fresh
    // run against the configuration-identical always-admit row above.
    // ------------------------------------------------------------------
    let a = always_admit_fp.expect("always-admit row ran");
    let b = run_one(
        board,
        &heavy.spec,
        ScenarioRuntime::mp_hars(board, mp_hars_e()),
        &mut AlwaysAdmit,
        &solo_cache,
    )
    .fingerprint();
    assert_eq!(a, b, "same seed must reproduce the outcome bit for bit");
    println!("\ndeterminism: heavy-churn fingerprint {a:#018x} reproduced");

    // ------------------------------------------------------------------
    // Self-check 2: on heavy churn, the best MP-HARS variant meets or
    // beats GTS's target-satisfaction rate at no more energy.
    // ------------------------------------------------------------------
    println!();
    let mut wins = 0usize;
    for HeavyResult {
        board: board_name,
        gts_sat,
        gts_energy,
        mp_rows,
    } in &heavy_results
    {
        let best = mp_rows
            .iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("an MP-HARS variant ran");
        let win = best.1 >= *gts_sat && best.2 <= *gts_energy;
        wins += usize::from(win);
        println!(
            "heavy churn on {board_name}: {} satisfaction {:.1}% vs GTS {:.1}%, \
             energy {:.0} J vs GTS {:.0} J{}",
            best.0,
            100.0 * best.1,
            100.0 * gts_sat,
            best.2,
            gts_energy,
            if win { "  [win]" } else { "" }
        );
        // MP-HARS must never pay MORE energy than the
        // maximum-state baseline to serve the same churn.
        assert!(
            mp_rows.iter().all(|(_, _, e)| e <= gts_energy),
            "{board_name}: an MP-HARS variant burned more energy than GTS"
        );
    }
    assert!(
        wins >= 1,
        "on at least one board, heavy churn must show MP-HARS >= GTS \
         target satisfaction at no more energy"
    );
    println!(
        "\nsolo calibrations: {} isolated runs served every scenario \
         (previously one set per scenario run)",
        solo_cache.len()
    );
    println!("\nall churn contracts hold");
}
