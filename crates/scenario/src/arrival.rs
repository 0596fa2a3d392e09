//! Arrival processes: when new tenants show up.
//!
//! Every experiment before this subsystem was closed-world — a fixed
//! application set registered before `t = 0`. An [`ArrivalProcess`]
//! turns the platform into an open system: it generates the instants at
//! which fresh applications arrive over a finite horizon. All sampling
//! runs on the workspace's SplitMix64 `rand` shim seeded explicitly, so
//! a `(process, horizon, seed)` triple always produces the same
//! schedule bit for bit.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use hmp_sim::clock::NS_PER_SEC;

/// How tenant arrivals are distributed over the scenario horizon.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalProcess {
    /// Memoryless arrivals: exponential interarrival times with the
    /// given mean rate (arrivals per second of virtual time).
    Poisson {
        /// Mean arrival rate (tenants per second).
        rate_per_sec: f64,
    },
    /// An on/off MMPP-style burst process: the source alternates between
    /// an *on* state emitting Poisson arrivals at `on_rate_per_sec` and
    /// an *off* state emitting none, with exponentially distributed
    /// dwell times in each state.
    Bursty {
        /// Arrival rate while the source is on (tenants per second).
        on_rate_per_sec: f64,
        /// Mean dwell time in the on state (seconds).
        mean_on_secs: f64,
        /// Mean dwell time in the off state (seconds).
        mean_off_secs: f64,
    },
    /// Explicit arrival instants (ns), e.g. replayed from a recorded
    /// trace. Out-of-range or unsorted entries are sorted and clamped
    /// to the horizon by [`ArrivalProcess::schedule`].
    Trace(Vec<u64>),
}

impl ArrivalProcess {
    /// Generates the arrival instants (ns, ascending) within
    /// `[0, horizon_ns)` for this process under `seed`.
    pub fn schedule(&self, horizon_ns: u64, seed: u64) -> Vec<u64> {
        match self {
            ArrivalProcess::Poisson { rate_per_sec } => {
                assert!(
                    rate_per_sec.is_finite() && *rate_per_sec > 0.0,
                    "Poisson rate must be positive"
                );
                let mut rng = StdRng::seed_from_u64(seed);
                let mut out = Vec::new();
                let mut t = 0.0f64;
                let horizon = horizon_ns as f64;
                loop {
                    t += exp_sample_ns(&mut rng, 1.0 / rate_per_sec);
                    if t >= horizon {
                        break;
                    }
                    out.push(t as u64);
                }
                out
            }
            ArrivalProcess::Bursty {
                on_rate_per_sec,
                mean_on_secs,
                mean_off_secs,
            } => {
                assert!(
                    on_rate_per_sec.is_finite() && *on_rate_per_sec > 0.0,
                    "burst rate must be positive"
                );
                assert!(
                    *mean_on_secs > 0.0 && *mean_off_secs > 0.0,
                    "dwell times must be positive"
                );
                let mut rng = StdRng::seed_from_u64(seed);
                let mut out = Vec::new();
                let horizon = horizon_ns as f64;
                let mut t = 0.0f64;
                let mut on = true; // bursts start hot: churn from t=0
                loop {
                    let dwell =
                        exp_sample_ns(&mut rng, if on { *mean_on_secs } else { *mean_off_secs });
                    let state_end = t + dwell;
                    if on {
                        let mut a = t;
                        loop {
                            a += exp_sample_ns(&mut rng, 1.0 / on_rate_per_sec);
                            if a >= state_end || a >= horizon {
                                break;
                            }
                            out.push(a as u64);
                        }
                    }
                    t = state_end;
                    if t >= horizon {
                        break;
                    }
                    on = !on;
                }
                out
            }
            ArrivalProcess::Trace(times) => {
                let mut out: Vec<u64> = times.iter().copied().filter(|&t| t < horizon_ns).collect();
                out.sort_unstable();
                out
            }
        }
    }
}

/// One exponential sample in nanoseconds with the given mean (seconds).
fn exp_sample_ns(rng: &mut StdRng, mean_secs: f64) -> f64 {
    // u in [0, 1): ln(1 - u) is finite.
    let u: f64 = rng.random_range(0.0..1.0);
    -mean_secs * (1.0 - u).ln() * NS_PER_SEC as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    const HORIZON: u64 = 200 * NS_PER_SEC;

    #[test]
    fn poisson_is_deterministic_and_sorted() {
        let p = ArrivalProcess::Poisson { rate_per_sec: 0.5 };
        let a = p.schedule(HORIZON, 7);
        let b = p.schedule(HORIZON, 7);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|&t| t < HORIZON));
        let c = p.schedule(HORIZON, 8);
        assert_ne!(a, c, "different seeds, different schedules");
    }

    #[test]
    fn poisson_rate_roughly_matches() {
        let p = ArrivalProcess::Poisson { rate_per_sec: 1.0 };
        let n = p.schedule(1_000 * NS_PER_SEC, 42).len() as f64;
        assert!((800.0..1200.0).contains(&n), "got {n} arrivals at rate 1");
    }

    #[test]
    fn bursty_clusters_arrivals() {
        let p = ArrivalProcess::Bursty {
            on_rate_per_sec: 2.0,
            mean_on_secs: 5.0,
            mean_off_secs: 20.0,
        };
        let sched = p.schedule(2_000 * NS_PER_SEC, 3);
        assert!(!sched.is_empty());
        assert!(sched.windows(2).all(|w| w[0] <= w[1]));
        // The on/off structure shows as heavy-tailed gaps: the largest
        // interarrival gap dwarfs the median one.
        let gaps: Vec<u64> = sched.windows(2).map(|w| w[1] - w[0]).collect();
        let mut sorted = gaps.clone();
        sorted.sort_unstable();
        let median = sorted[sorted.len() / 2];
        let max = *sorted.last().unwrap();
        assert!(
            max > 8 * median.max(1),
            "no burst structure: max gap {max} vs median {median}"
        );
    }

    #[test]
    fn trace_is_sorted_and_clamped() {
        let p = ArrivalProcess::Trace(vec![5, 1, 3, HORIZON + 1]);
        assert_eq!(p.schedule(HORIZON, 0), vec![1, 3, 5]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_panics() {
        let _ = ArrivalProcess::Poisson { rate_per_sec: 0.0 }.schedule(HORIZON, 0);
    }
}
