//! Telemetry replay: parse a captured `telemetry.jsonl` against the
//! pinned schema and reproduce the live run's metrics summary.
//!
//! The contract this binary exists to check (and that CI's `obs-smoke`
//! job asserts): feeding a capture back through the
//! [`hars_obs::MetricsEngine`] produces a [`hars_obs::MetricsSummary`]
//! **byte-identical** to the one the live run computed while emitting
//! that capture. The metrics fold is a pure function of the event
//! stream, and the JSONL round-trip is exact (floats use Rust's
//! shortest round-trip formatting) — so live and replay cannot
//! disagree without a schema or parser bug, which is exactly what the
//! assertion would catch.
//!
//! ```sh
//! # Replay a capture and print its summary (optionally to a file):
//! cargo run --release -p hars-bench --bin telemetry_replay -- capture.jsonl [--out summary.txt]
//!
//! # Run a churn scenario live with the metrics sink, write its
//! # capture, and print the LIVE summary (CI replays the capture and
//! # compares the two summaries byte for byte):
//! cargo run --release -p hars-bench --bin telemetry_replay -- --capture capture.jsonl --seed 7 [--out live.txt]
//!
//! # Self-test: run live, replay in-process, assert byte-identity:
//! cargo run --release -p hars-bench --bin telemetry_replay -- --selftest --seed 7
//! ```

use std::fs;
use std::process::ExitCode;

use hars_obs::replay_capture;
use hars_scenario::{
    run_scenario_with_metrics, AppTemplate, ArrivalProcess, BoundedQueue, JsonlSink,
    ScenarioRuntime, ScenarioSpec, SoloRateCache, TemplateSet,
};
use hmp_sim::clock::NS_PER_SEC;
use hmp_sim::{BoardSpec, EngineConfig};
use workloads::Benchmark;

/// The churn scenario live captures run: a bursty mixed population on
/// the big.LITTLE board under a bounded admission queue — enough
/// queueing, satisfaction churn and departures to exercise every
/// tenant-scoped event kind.
fn obs_scenario(seed: u64) -> (BoardSpec, ScenarioSpec) {
    let mut fg = AppTemplate::new(Benchmark::Swaptions);
    fg.threads = 2;
    fg.heartbeats = 40;
    fg.target_frac = 0.6;
    let mut bg = AppTemplate::new(Benchmark::Blackscholes);
    bg.heartbeats = 25;
    bg.target_frac = 0.3;
    let mut spec = ScenarioSpec::new(
        ArrivalProcess::Bursty {
            on_rate_per_sec: 1.5,
            mean_on_secs: 4.0,
            mean_off_secs: 3.0,
        },
        TemplateSet::uniform(vec![fg, bg]),
        30 * NS_PER_SEC,
        seed,
    );
    spec.solo_budget = 25;
    (BoardSpec::odroid_xu3(), spec)
}

/// Runs the live scenario, streaming the capture into `capture_path`,
/// and returns the live summary's rendering.
fn run_live(seed: u64, capture_path: &str) -> Result<String, String> {
    let (board, spec) = obs_scenario(seed);
    let file =
        fs::File::create(capture_path).map_err(|e| format!("cannot create {capture_path}: {e}"))?;
    let mut sink = JsonlSink::new(std::io::BufWriter::new(file));
    let out = run_scenario_with_metrics(
        &board,
        &EngineConfig::default(),
        &spec,
        &mut BoundedQueue::new(0.85, 6),
        ScenarioRuntime::mp_hars(&board, mp_hars::mp_hars_i()),
        &SoloRateCache::new(),
        &mut sink,
    )
    .map_err(|e| format!("scenario failed: {e:?}"))?;
    let (written, dropped, _) = sink.finish();
    if dropped > 0 {
        return Err(format!("capture dropped {dropped} of {written} events"));
    }
    Ok(out
        .metrics
        .expect("metrics entry point fills the summary")
        .render())
}

fn write_or_print(out: &Option<String>, text: &str) -> Result<(), String> {
    match out {
        Some(path) => fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}")),
        None => {
            print!("{text}");
            Ok(())
        }
    }
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag_value = |name: &str| -> Option<String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let seed: u64 = flag_value("--seed")
        .map(|s| s.parse().map_err(|_| format!("bad --seed: {s}")))
        .transpose()?
        .unwrap_or(7);
    let out_path = flag_value("--out");

    if args.iter().any(|a| a == "--selftest") {
        let dir = std::env::temp_dir().join("hars-obs-selftest");
        fs::create_dir_all(&dir).map_err(|e| format!("tempdir: {e}"))?;
        let capture = dir.join(format!("telemetry_{seed}.jsonl"));
        let capture = capture.to_string_lossy().into_owned();
        let live = run_live(seed, &capture)?;
        let text = fs::read_to_string(&capture).map_err(|e| format!("read capture: {e}"))?;
        let replayed = replay_capture(&text)
            .map_err(|e| format!("replay parse failed: {e}"))?
            .render();
        if live != replayed {
            return Err(format!(
                "live and replayed summaries diverge\n--- live ---\n{live}\n--- replay ---\n{replayed}"
            ));
        }
        println!(
            "selftest ok: seed {seed}, {} capture lines, live == replay ({} bytes)",
            text.lines().count(),
            live.len()
        );
        return Ok(());
    }

    if let Some(capture_path) = flag_value("--capture") {
        let live = run_live(seed, &capture_path)?;
        return write_or_print(&out_path, &live);
    }

    // Replay mode: first non-flag argument is the capture path.
    let mut positional = args.iter().filter(|a| !a.starts_with("--"));
    let skip: Vec<String> = ["--seed", "--out", "--capture"]
        .iter()
        .filter_map(|f| flag_value(f))
        .collect();
    let capture_path = positional
        .find(|a| !skip.contains(a))
        .ok_or("usage: telemetry_replay <capture.jsonl> | --capture <file> | --selftest")?;
    let text = fs::read_to_string(capture_path).map_err(|e| format!("read {capture_path}: {e}"))?;
    let summary = replay_capture(&text).map_err(|e| format!("parse failed: {e}"))?;
    write_or_print(&out_path, &summary.render())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("telemetry_replay: {e}");
            ExitCode::FAILURE
        }
    }
}
