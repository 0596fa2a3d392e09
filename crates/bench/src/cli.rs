//! Tiny shared CLI handling for the experiment binaries: every binary
//! accepts `--quick` for a reduced-scale run.

use crate::multi::MpScale;
use crate::single::RunScale;

/// Scales selected by the command line.
#[derive(Debug, Clone, Copy)]
pub struct CliScales {
    /// Single-application run scale.
    pub single: RunScale,
    /// Multi-application run scale.
    pub multi: MpScale,
    /// Whether `--quick` was passed.
    pub quick: bool,
}

/// Parses `std::env::args` for the experiment binaries.
pub fn parse_args() -> CliScales {
    let quick = std::env::args().any(|a| a == "--quick" || a == "-q");
    if quick {
        CliScales {
            single: RunScale::quick(),
            multi: MpScale::quick(),
            quick,
        }
    } else {
        CliScales {
            single: RunScale::full(),
            multi: MpScale::full(),
            quick,
        }
    }
}

/// Where a `BENCH_*` binary writes its JSON: the value of `--out`, or
/// else `{stem}.json` in full mode and `{stem}_quick.json` in quick
/// mode, so a quick run never overwrites the committed full-mode file.
pub fn bench_out_path(args: &[String], quick: bool, stem: &str) -> String {
    args.iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| {
            if quick {
                format!("{stem}_quick.json")
            } else {
                format!("{stem}.json")
            }
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_runs_default_to_the_quick_bench_file() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(
            bench_out_path(&args(&["--quick"]), true, "BENCH_engine"),
            "BENCH_engine_quick.json"
        );
        assert_eq!(
            bench_out_path(&args(&[]), false, "BENCH_engine"),
            "BENCH_engine.json"
        );
        assert_eq!(
            bench_out_path(&args(&["--quick", "--out", "x.json"]), true, "BENCH_engine"),
            "x.json"
        );
    }

    #[test]
    fn default_args_are_full_scale() {
        // The test harness passes its own args; just check the structure.
        let s = parse_args();
        assert!(s.single.hb_budget >= RunScale::quick().hb_budget);
    }
}
