//! The static-optimal (SO) baseline (Section 5.1.1).
//!
//! The paper's SO version "runs with the optimal number of cores and
//! frequency level determined by the offline simulations ... that sweep
//! all available system states and estimate the performance/watt", then
//! executes under the stock Linux HMP scheduler. [`oracle_sweep`]
//! measures each state with a caller-supplied evaluation (e.g. a short
//! simulation run) and keeps the best: the offline-profiling
//! interpretation, and what the evaluation harness uses.

use crate::search::CandidateEval;
use crate::state::{StateSpace, SystemState};

/// Result of a static-optimal sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StaticOptimal {
    /// The chosen state.
    pub state: SystemState,
    /// Its measured objective (packed into `perf_per_watt`).
    pub eval: CandidateEval,
    /// States considered.
    pub considered: usize,
}

/// Offline oracle sweep: `measure` returns the *measured*
/// `(normalized perf, perf/watt)` of a state (typically from a short
/// simulation); the best measured perf/watt among target-satisfying
/// states wins, falling back to the highest normalized performance when
/// nothing satisfies.
///
/// `satisfy_threshold` is the normalized-performance level treated as
/// "achieves the target" (1.0 − tolerance; the paper's ±5% band maps to
/// ~0.9 with `g = t.avg`).
pub fn oracle_sweep<F>(space: &StateSpace, satisfy_threshold: f64, mut measure: F) -> StaticOptimal
where
    F: FnMut(&SystemState) -> (f64, f64),
{
    let mut best: Option<(SystemState, f64, f64, bool)> = None;
    let mut considered = 0;
    for cand in space.iter_all() {
        let (norm_perf, pp) = measure(&cand);
        considered += 1;
        let satisfies = norm_perf >= satisfy_threshold;
        let replace = match &best {
            None => true,
            Some((_, b_np, b_pp, b_sat)) => match (satisfies, *b_sat) {
                (true, false) => true,
                (false, true) => false,
                (true, true) => pp > *b_pp,
                (false, false) => norm_perf > *b_np,
            },
        };
        if replace {
            best = Some((cand, norm_perf, pp, satisfies));
        }
    }
    let (state, norm_perf, pp, satisfies) = best.expect("state space is never empty");
    StaticOptimal {
        state,
        eval: CandidateEval {
            est_rate: norm_perf,
            est_watts: if pp > 0.0 { norm_perf / pp } else { 0.0 },
            perf_per_watt: pp,
            satisfies,
        },
        considered,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmp_sim::{BoardSpec, FreqKhz};

    fn space() -> StateSpace {
        StateSpace::from_board(&BoardSpec::odroid_xu3())
    }

    #[test]
    fn oracle_sweep_picks_measured_best() {
        let sp = space();
        // Fake oracle: pp is maximized by exactly one known state.
        let favorite =
            SystemState::big_little(1, 3, FreqKhz::from_mhz(1_000), FreqKhz::from_mhz(1_100));
        let so = oracle_sweep(&sp, 0.9, |s| {
            if *s == favorite {
                (1.0, 5.0)
            } else {
                (1.0, 1.0)
            }
        });
        assert_eq!(so.state, favorite);
        assert_eq!(so.considered, sp.len());
    }

    #[test]
    fn oracle_sweep_prefers_satisfying_states() {
        let sp = space();
        // States with more than 2 total cores "satisfy"; among them pp
        // favors small states. A non-satisfying state has huge pp.
        let so = oracle_sweep(&sp, 0.9, |s| {
            if s.total_cores() > 2 {
                (1.0, 1.0 / s.total_cores() as f64)
            } else {
                (0.5, 100.0)
            }
        });
        assert!(so.eval.satisfies);
        assert_eq!(so.state.total_cores(), 3);
    }
}
