//! Per-cluster energy integration.
//!
//! The engine calls [`EnergyMeter::accumulate`] on every event interval
//! (within which the busy-core set and frequencies are constant), so the
//! integral is exact, independent of sensor sampling.

use crate::board::{BoardSpec, ClusterId, MAX_CLUSTERS};
use crate::clock::ns_to_secs;
use crate::freq::FreqKhz;
use crate::power::cluster_power;

/// Exact integrator of cluster energy over simulated time.
#[derive(Debug, Clone, Default)]
pub struct EnergyMeter {
    /// Joules consumed per cluster (indexed by cluster).
    joules: Vec<f64>,
    /// Busy core-seconds per cluster (∫ busy_cores dt).
    busy_core_secs: Vec<f64>,
    /// Total integrated time in seconds.
    elapsed_secs: f64,
}

impl EnergyMeter {
    /// A meter with all accumulators at zero.
    pub fn new() -> Self {
        Self::default()
    }

    fn ensure_clusters(&mut self, n: usize) {
        if self.joules.len() < n {
            self.joules.resize(n, 0.0);
            self.busy_core_secs.resize(n, 0.0);
        }
    }

    /// Integrates `dt_ns` of operation with `busy[c]` cores busy on
    /// cluster `c` at frequency `freqs[c]`.
    ///
    /// # Panics
    ///
    /// Panics when the slices do not cover every cluster of `board`.
    pub fn accumulate(&mut self, board: &BoardSpec, freqs: &[FreqKhz], busy: &[f64], dt_ns: u64) {
        let n = board.n_clusters();
        assert!(freqs.len() >= n && busy.len() >= n, "per-cluster slices");
        let mut powers = [0.0f64; MAX_CLUSTERS];
        for cluster in board.cluster_ids() {
            let i = cluster.index();
            powers[i] = cluster_power(
                board,
                cluster,
                freqs[i],
                busy[i],
                board.cluster_size(cluster),
            );
        }
        self.accumulate_powers(&powers[..n], &busy[..n], dt_ns);
    }

    /// [`EnergyMeter::accumulate`] with the per-cluster powers already
    /// computed (the engine memoizes them): `joules[i] += p·dt` and
    /// `busy_core_secs[i] += busy[i]·dt` per cluster in cluster order,
    /// then `elapsed_secs += dt`.
    pub(crate) fn accumulate_powers(&mut self, powers: &[f64], busy: &[f64], dt_ns: u64) {
        let dt = ns_to_secs(dt_ns);
        if dt <= 0.0 {
            return;
        }
        self.ensure_clusters(powers.len());
        for (i, (&p, &b)) in powers.iter().zip(busy).enumerate() {
            self.joules[i] += p * dt;
            self.busy_core_secs[i] += b * dt;
        }
        self.elapsed_secs += dt;
    }

    /// Integrates `dt_ns` of fully-idle operation with the per-cluster
    /// powers already computed (the engine precomputes them once per
    /// idle span — frequencies are frozen and no core is busy, so they
    /// are constant across the span's boundaries).
    ///
    /// Bit-compatibility contract: this performs exactly the floating-
    /// point operations [`EnergyMeter::accumulate`] would for
    /// `busy = [0.0; n]` — same `dt` conversion and guard, one
    /// `joules[i] += p·dt` per cluster in cluster order, then
    /// `elapsed_secs += dt`. The `busy_core_secs[i] += 0.0 · dt` adds
    /// are skipped: the accumulators are never `-0.0` (they start at
    /// `+0.0` and only ever gain non-negative terms), so adding
    /// `+0.0` is an exact no-op.
    pub(crate) fn accumulate_idle(&mut self, powers: &[f64], dt_ns: u64) {
        let dt = ns_to_secs(dt_ns);
        if dt <= 0.0 {
            return;
        }
        self.ensure_clusters(powers.len());
        for (i, &p) in powers.iter().enumerate() {
            self.joules[i] += p * dt;
        }
        self.elapsed_secs += dt;
    }

    /// `k` consecutive [`EnergyMeter::accumulate_idle`] calls with the
    /// same `dt_ns` (a run of whole scheduler ticks inside a fully-idle
    /// span), with the accumulators held in registers instead of being
    /// loaded and stored once per call.
    ///
    /// Bit-compatibility contract: every accumulator receives exactly
    /// the adds the `k` calls would give it, in the same order, and
    /// `p·dt` is the same product each time; the accumulators are
    /// independent, so grouping the adds per call or per run cannot
    /// change a bit.
    pub(crate) fn accumulate_idle_repeat(&mut self, powers: &[f64], dt_ns: u64, k: u64) {
        let dt = ns_to_secs(dt_ns);
        if dt <= 0.0 {
            return;
        }
        let n = powers.len();
        self.ensure_clusters(n);
        // Fixed-width lanes so the loop body is branch-free; lanes past
        // `n` add zeros and are never written back.
        let mut step = [0.0f64; MAX_CLUSTERS];
        let mut acc = [0.0f64; MAX_CLUSTERS];
        for i in 0..n {
            step[i] = powers[i] * dt;
            acc[i] = self.joules[i];
        }
        let mut elapsed = self.elapsed_secs;
        for _ in 0..k {
            for (a, s) in acc.iter_mut().zip(&step) {
                *a += s;
            }
            elapsed += dt;
        }
        self.joules[..n].copy_from_slice(&acc[..n]);
        self.elapsed_secs = elapsed;
    }

    /// Energy consumed by `cluster` so far (J).
    pub fn cluster_joules(&self, cluster: ClusterId) -> f64 {
        self.joules.get(cluster.index()).copied().unwrap_or(0.0)
    }

    /// Total board energy so far (J).
    pub fn total_joules(&self) -> f64 {
        self.joules.iter().sum()
    }

    /// Busy core-seconds accumulated on `cluster`.
    pub fn busy_core_secs(&self, cluster: ClusterId) -> f64 {
        self.busy_core_secs
            .get(cluster.index())
            .copied()
            .unwrap_or(0.0)
    }

    /// Time integrated so far (s).
    pub fn elapsed_secs(&self) -> f64 {
        self.elapsed_secs
    }

    /// Average board power over the integrated interval (W), or 0 before
    /// any time has passed.
    pub fn average_power(&self) -> f64 {
        if self.elapsed_secs > 0.0 {
            self.total_joules() / self.elapsed_secs
        } else {
            0.0
        }
    }

    /// Average power of one cluster (W).
    pub fn average_cluster_power(&self, cluster: ClusterId) -> f64 {
        if self.elapsed_secs > 0.0 {
            self.cluster_joules(cluster) / self.elapsed_secs
        } else {
            0.0
        }
    }

    /// Snapshot of the meter for differential measurements: subtracting
    /// two snapshots gives the energy of the interval between them.
    pub fn snapshot(&self) -> EnergySnapshot {
        EnergySnapshot {
            joules: self.total_joules(),
            elapsed_secs: self.elapsed_secs,
        }
    }
}

/// A point-in-time copy of an [`EnergyMeter`]'s totals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergySnapshot {
    joules: f64,
    elapsed_secs: f64,
}

impl EnergySnapshot {
    /// Energy and time elapsed since `earlier`. Returns
    /// `(joules, seconds)`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier` is actually later.
    pub fn since(&self, earlier: &EnergySnapshot) -> (f64, f64) {
        let j = self.joules - earlier.joules;
        let t = self.elapsed_secs - earlier.elapsed_secs;
        debug_assert!(j >= -1e-9 && t >= -1e-12, "snapshots out of order");
        (j.max(0.0), t.max(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::board::ClusterId as C;
    use crate::clock::NS_PER_SEC;

    fn xu3() -> BoardSpec {
        BoardSpec::odroid_xu3()
    }

    fn max_freqs(b: &BoardSpec) -> Vec<FreqKhz> {
        b.cluster_ids().map(|c| b.ladder(c).max()).collect()
    }

    #[test]
    fn energy_equals_power_times_time() {
        let b = xu3();
        let mut m = EnergyMeter::new();
        let freqs = max_freqs(&b);
        m.accumulate(&b, &freqs, &[4.0, 4.0], 2 * NS_PER_SEC);
        let p = crate::power::board_power(&b, &freqs, &[4.0, 4.0]);
        assert!((m.total_joules() - 2.0 * p).abs() < 1e-9);
        assert!((m.average_power() - p).abs() < 1e-9);
        assert!((m.elapsed_secs() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn zero_interval_is_noop() {
        let b = xu3();
        let mut m = EnergyMeter::new();
        m.accumulate(&b, &max_freqs(&b), &[1.0, 1.0], 0);
        assert_eq!(m.total_joules(), 0.0);
        assert_eq!(m.average_power(), 0.0);
    }

    #[test]
    fn busy_core_seconds_accumulate() {
        let b = xu3();
        let mut m = EnergyMeter::new();
        m.accumulate(&b, &max_freqs(&b), &[2.0, 3.0], NS_PER_SEC);
        m.accumulate(&b, &max_freqs(&b), &[1.0, 0.0], NS_PER_SEC);
        assert!((m.busy_core_secs(C::LITTLE) - 3.0).abs() < 1e-9);
        assert!((m.busy_core_secs(C::BIG) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn snapshots_give_interval_energy() {
        let b = xu3();
        let mut m = EnergyMeter::new();
        let freqs = max_freqs(&b);
        m.accumulate(&b, &freqs, &[4.0, 4.0], NS_PER_SEC);
        let s1 = m.snapshot();
        m.accumulate(&b, &freqs, &[0.0, 0.0], NS_PER_SEC);
        let s2 = m.snapshot();
        let (j, t) = s2.since(&s1);
        let p_idle = crate::power::board_power(&b, &freqs, &[0.0, 0.0]);
        assert!((j - p_idle).abs() < 1e-9);
        assert!((t - 1.0).abs() < 1e-12);
    }

    #[test]
    fn idle_accumulate_is_bit_equal_to_the_general_path() {
        let b = xu3();
        let freqs = max_freqs(&b);
        let powers: Vec<f64> = b
            .cluster_ids()
            .map(|c| crate::power::cluster_power(&b, c, freqs[c.index()], 0.0, b.cluster_size(c)))
            .collect();
        let mut general = EnergyMeter::new();
        let mut idle = EnergyMeter::new();
        // Mixed busy/idle prefix so the accumulators are mid-stream.
        general.accumulate(&b, &freqs, &[3.0, 1.0], 7_123_456);
        idle.accumulate(&b, &freqs, &[3.0, 1.0], 7_123_456);
        for dt in [1_u64, 4_000_000, 263_808_000, 999] {
            general.accumulate(&b, &freqs, &[0.0, 0.0], dt);
            idle.accumulate_idle(&powers, dt);
        }
        for c in b.cluster_ids() {
            assert_eq!(
                general.cluster_joules(c).to_bits(),
                idle.cluster_joules(c).to_bits(),
                "idle path must replay the exact fp ops"
            );
            assert_eq!(
                general.busy_core_secs(c).to_bits(),
                idle.busy_core_secs(c).to_bits(),
                "skipping the += 0.0 adds must be an exact no-op"
            );
        }
        assert_eq!(
            general.elapsed_secs().to_bits(),
            idle.elapsed_secs().to_bits()
        );
    }

    #[test]
    fn repeated_idle_accumulate_is_bit_equal_to_single_calls() {
        let b = BoardSpec::dynamiq_1p_3m_4l();
        let freqs = max_freqs(&b);
        let powers: Vec<f64> = b
            .cluster_ids()
            .map(|c| crate::power::cluster_power(&b, c, freqs[c.index()], 0.0, b.cluster_size(c)))
            .collect();
        let busy = vec![1.0; b.n_clusters()];
        let mut single = EnergyMeter::new();
        let mut repeat = EnergyMeter::new();
        single.accumulate(&b, &freqs, &busy, 7_123_456);
        repeat.accumulate(&b, &freqs, &busy, 7_123_456);
        for (dt, k) in [
            (4_000_000_u64, 1_u64),
            (4_000_000, 997),
            (333, 5),
            (4_000_000, 0),
        ] {
            for _ in 0..k {
                single.accumulate_idle(&powers, dt);
            }
            repeat.accumulate_idle_repeat(&powers, dt, k);
        }
        for c in b.cluster_ids() {
            assert_eq!(
                single.cluster_joules(c).to_bits(),
                repeat.cluster_joules(c).to_bits()
            );
        }
        assert_eq!(
            single.elapsed_secs().to_bits(),
            repeat.elapsed_secs().to_bits()
        );
    }

    #[test]
    fn lower_frequency_costs_less_energy_for_same_time() {
        let b = xu3();
        let mut hi = EnergyMeter::new();
        let mut lo = EnergyMeter::new();
        let min_freqs: Vec<FreqKhz> = b.cluster_ids().map(|c| b.ladder(c).min()).collect();
        hi.accumulate(&b, &max_freqs(&b), &[4.0, 4.0], NS_PER_SEC);
        lo.accumulate(&b, &min_freqs, &[4.0, 4.0], NS_PER_SEC);
        assert!(lo.total_joules() < hi.total_joules());
    }

    #[test]
    fn tri_cluster_meter_tracks_three_clusters() {
        let b = BoardSpec::dynamiq_1p_3m_4l();
        let mut m = EnergyMeter::new();
        let freqs = max_freqs(&b);
        m.accumulate(&b, &freqs, &[1.0, 2.0, 1.0], NS_PER_SEC);
        assert!(m.cluster_joules(C(0)) > 0.0);
        assert!(m.cluster_joules(C(2)) > 0.0);
        assert!((m.busy_core_secs(C(1)) - 2.0).abs() < 1e-12);
        let sum: f64 = b.cluster_ids().map(|c| m.cluster_joules(c)).sum();
        assert!((sum - m.total_joules()).abs() < 1e-12);
    }
}
