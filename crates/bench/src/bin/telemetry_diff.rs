//! Telemetry diff: align two captured `telemetry.jsonl` streams
//! event-by-event and report where — and how — they diverge.
//!
//! Both captures are first parsed strictly against the pinned schema
//! (a malformed capture is an error, not a diff). The diff then walks
//! the two streams in lockstep on their canonical JSON lines: the
//! first index where they disagree is reported with surrounding
//! context from both captures, followed by a per-event-type delta
//! table (event counts by kind, side by side) that shows *what class*
//! of behavior moved, not just where it first became visible.
//!
//! Exit codes: `0` identical, `1` diverged, `2` usage/parse error —
//! so CI can assert either direction (`obs-smoke` expects two
//! different-seed runs to exit 1).
//!
//! ```sh
//! cargo run --release -p hars-bench --bin telemetry_diff -- a.jsonl b.jsonl [--context N]
//! ```

use std::collections::BTreeMap;
use std::fs;
use std::process::ExitCode;

use hars_core::TelemetryEvent;
use hars_obs::parse_capture;

/// Events per kind.
fn counts_by_kind(events: &[TelemetryEvent]) -> BTreeMap<&'static str, u64> {
    let mut by_kind = BTreeMap::new();
    for event in events {
        *by_kind.entry(event.kind()).or_insert(0u64) += 1;
    }
    by_kind
}

fn print_context(label: &str, lines: &[&str], at: usize, context: usize) {
    println!("  {label}:");
    let lo = at.saturating_sub(context);
    let hi = (at + context + 1).min(lines.len());
    for (i, line) in lines.iter().enumerate().take(hi).skip(lo) {
        let marker = if i == at { ">" } else { " " };
        println!("  {marker} {:>6}  {line}", i + 1);
    }
    if at >= lines.len() {
        println!("  > {:>6}  <end of capture>", lines.len() + 1);
    }
}

fn run() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let context: usize = args
        .iter()
        .position(|a| a == "--context")
        .and_then(|i| args.get(i + 1))
        .map(|s| s.parse().map_err(|_| format!("bad --context: {s}")))
        .transpose()?
        .unwrap_or(2);
    let paths: Vec<&String> = {
        let mut skip_next = false;
        args.iter()
            .filter(|a| {
                if skip_next {
                    skip_next = false;
                    return false;
                }
                if *a == "--context" {
                    skip_next = true;
                    return false;
                }
                !a.starts_with("--")
            })
            .collect()
    };
    let [path_a, path_b] = paths.as_slice() else {
        return Err("usage: telemetry_diff <a.jsonl> <b.jsonl> [--context N]".to_string());
    };

    let text_a = fs::read_to_string(path_a).map_err(|e| format!("read {path_a}: {e}"))?;
    let text_b = fs::read_to_string(path_b).map_err(|e| format!("read {path_b}: {e}"))?;
    // Strict validation first: a diff against a malformed capture
    // would report garbage as divergence.
    let events_a = parse_capture(&text_a).map_err(|e| format!("{path_a}: {e}"))?;
    let events_b = parse_capture(&text_b).map_err(|e| format!("{path_b}: {e}"))?;

    let lines_a: Vec<&str> = text_a.lines().filter(|l| !l.trim().is_empty()).collect();
    let lines_b: Vec<&str> = text_b.lines().filter(|l| !l.trim().is_empty()).collect();

    let first_divergence = lines_a
        .iter()
        .zip(&lines_b)
        .position(|(a, b)| a != b)
        .or_else(|| (lines_a.len() != lines_b.len()).then(|| lines_a.len().min(lines_b.len())));

    let Some(at) = first_divergence else {
        println!(
            "captures identical: {} events, {} == {}",
            lines_a.len(),
            path_a,
            path_b
        );
        return Ok(true);
    };

    println!(
        "captures diverge at event {} ({} has {} events, {} has {}):",
        at + 1,
        path_a,
        lines_a.len(),
        path_b,
        lines_b.len()
    );
    print_context(path_a, &lines_a, at, context);
    print_context(path_b, &lines_b, at, context);

    // The per-kind delta table: which event classes moved, and by how
    // much — the aggregate view of the divergence.
    let (ca, cb) = (counts_by_kind(&events_a), counts_by_kind(&events_b));
    let mut kinds: Vec<&str> = ca.keys().chain(cb.keys()).copied().collect();
    kinds.sort();
    kinds.dedup();
    println!();
    println!(
        "  {:<20} {:>10} {:>10} {:>8}",
        "event kind", "a", "b", "delta"
    );
    for kind in kinds {
        let a = *ca.get(kind).unwrap_or(&0);
        let b = *cb.get(kind).unwrap_or(&0);
        let delta = b as i64 - a as i64;
        let marker = if delta != 0 { " *" } else { "" };
        println!("  {kind:<20} {a:>10} {b:>10} {delta:>+8}{marker}");
    }
    Ok(false)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("telemetry_diff: {e}");
            ExitCode::from(2)
        }
    }
}
