//! The HARS stack's benchmark: one workload, one seed, one result.
//!
//! ```sh
//! perfbench --workload <serve|calibrate|decide|failover> --seed <n> \
//!           --seconds <s> --trace <0|1> --trace-dir <dir> \
//!           --unattributed-tolerance <share>
//! ```
//!
//! With `--trace 0` the workload runs untraced through the public entry
//! points (`hars_fleet::run_fleet`, `hars_scenario::run_scenario_with_sink`)
//! for `--seconds` of host time, and the end-to-end metrics are
//! printed. With `--trace 1` the benchmark drives the same work step by
//! step with host-time stamps on every telemetry event and prints the
//! per-layer metrics; the spans of the last traced run go to
//! `--trace-dir`, and the layer spans must account for the traced wall
//! to within `--unattributed-tolerance`. Either way every output check runs, and the last line
//! of standard output is one JSON object; a failed check makes it
//! report `"correct": false` and the process exit with code 1.

mod decide;
mod fleet;
mod report;
mod stats;
mod trace;
mod workloads;

use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use crate::report::Report;
use crate::workloads::Workload;

/// Command-line arguments.
#[derive(Debug)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub trace_dir: PathBuf,
    /// Largest share of the traced wall the layer spans may leave
    /// unaccounted before the trace check fails.
    pub unattributed_tolerance: f64,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<String, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        args.get(i + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = Workload::parse(&name).ok_or(format!("unknown workload {name}"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("bad --seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("bad --seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match value("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    let trace_dir = PathBuf::from(value("--trace-dir")?);
    let unattributed_tolerance: f64 = value("--unattributed-tolerance")?
        .parse()
        .map_err(|e| format!("bad --unattributed-tolerance: {e}"))?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        trace_dir,
        unattributed_tolerance,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench workload={:?} seed={} seconds={} trace={} nproc={nproc} profile={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }
    );
    let mut report = Report::default();
    match args.workload {
        Workload::Decide => decide::run(&args, &mut report),
        w => fleet::run(&args, w, &mut report),
    }
    for (name, (value, unit)) in &report.metrics {
        if !value.is_finite() {
            report.failures.push(format!("{name} is not finite"));
        }
        println!("{name:<32} {value:>16.6} {unit}");
    }
    for f in &report.failures {
        println!("CHECK FAILED: {f}");
    }
    println!("{}", report.json());
    let _ = std::io::stdout().flush();
    if report.failures.is_empty() && report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
