//! Board descriptions: cluster topology, DVFS ladders, voltage tables and
//! ground-truth power coefficients.
//!
//! A board is an ordered list of [`ClusterSpec`]s. Cores are numbered
//! cluster by cluster in cluster-index order, and the convention (kept by
//! every preset) is slowest cluster first — index 0 is the ODROID-XU3's
//! little cluster, the last index its big cluster. The HARS paper fixes
//! the platform to two clusters; this simulator carries the
//! generalization the paper only sketches: any number of clusters, each
//! with its own core count, ladder, power model and nominal per-core
//! performance ratio.

use crate::cpuset::{CoreId, CpuSet};
use crate::freq::{FreqKhz, FreqLadder};

/// Maximum clusters a board may have. Fixed so per-cluster state can
/// live in inline arrays on the adaptation hot path. Raised from 8 to
/// 16 for many-cluster server parts (NUMA-node-per-cluster boxes,
/// chiplet designs); [`crate::CpuSet`]'s 64-core bitmask remains the
/// core-count ceiling.
pub const MAX_CLUSTERS: usize = 16;

/// Identifier of one cluster of a board: its index in
/// [`BoardSpec::clusters`].
///
/// Clusters are ordered slowest first, so on every two-cluster preset
/// [`ClusterId::LITTLE`] (index 0) is the efficiency cluster and
/// [`ClusterId::BIG`] (index 1) the performance cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClusterId(pub usize);

impl ClusterId {
    /// The efficiency cluster of a two-cluster big.LITTLE board.
    pub const LITTLE: ClusterId = ClusterId(0);
    /// The performance cluster of a two-cluster big.LITTLE board.
    pub const BIG: ClusterId = ClusterId(1);

    /// Index into per-cluster arrays.
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for ClusterId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cluster{}", self.0)
    }
}

/// Ground-truth power coefficients for one cluster.
///
/// The simulator's *true* power model (what the board's power sensor
/// measures) is deliberately nonlinear in frequency, unlike the linear
/// model HARS fits — reproducing the estimation-error structure of the
/// real system:
///
/// ```text
/// P_cluster = Σ_busy κ·V(f)²·f_GHz  (dynamic, per busy core)
///           + n_online · σ·V(f)     (leakage, per online core)
///           + υ·V(f)²·f_GHz + χ     (uncore, when the cluster is active)
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterPowerModel {
    /// Dynamic switching coefficient κ (W per V²·GHz per busy core).
    pub kappa: f64,
    /// Leakage coefficient σ (W per volt per online core).
    pub sigma: f64,
    /// Uncore dynamic coefficient υ (W per V²·GHz).
    pub upsilon: f64,
    /// Uncore constant χ (W).
    pub chi: f64,
    /// Voltage at the lowest ladder level (V).
    pub volt_lo: f64,
    /// Voltage at the highest ladder level (V).
    pub volt_hi: f64,
}

impl ClusterPowerModel {
    /// Operating voltage at frequency `f`, linearly interpolated across
    /// the ladder span (clamped at the ends).
    pub fn voltage(&self, f: FreqKhz, ladder: &FreqLadder) -> f64 {
        let lo = ladder.min().ghz();
        let hi = ladder.max().ghz();
        if hi <= lo {
            return self.volt_lo;
        }
        let t = ((f.ghz() - lo) / (hi - lo)).clamp(0.0, 1.0);
        self.volt_lo + t * (self.volt_hi - self.volt_lo)
    }
}

/// One cluster of a board: core count, DVFS ladder, ground-truth power
/// model, and the nominal per-core performance ratio relative to the
/// board's reference (slowest) cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// Human-readable cluster name ("little", "big", "mid", "P", ...).
    pub name: String,
    /// Number of cores in the cluster.
    pub cores: usize,
    /// The cluster's DVFS ladder.
    pub ladder: FreqLadder,
    /// Ground-truth power model.
    pub power: ClusterPowerModel,
    /// Nominal per-core speed multiple of this cluster relative to the
    /// reference cluster at equal frequency (1.0 for the reference; the
    /// XU3 big cluster's issue-width-derived value is 1.5). HARS's
    /// estimators assume exactly these ratios; per-application truth
    /// may deviate (see `SpeedProfile`).
    pub perf_ratio: f64,
}

impl ClusterSpec {
    /// A cluster spec with the given shape.
    pub fn new(
        name: impl Into<String>,
        cores: usize,
        ladder: FreqLadder,
        power: ClusterPowerModel,
        perf_ratio: f64,
    ) -> Self {
        assert!(cores > 0, "a cluster needs at least one core");
        assert!(
            perf_ratio.is_finite() && perf_ratio > 0.0,
            "perf ratio must be positive"
        );
        Self {
            name: name.into(),
            cores,
            ladder,
            power,
            perf_ratio,
        }
    }
}

/// A complete heterogeneous board description.
///
/// Use [`BoardSpec::odroid_xu3`] for the paper's evaluation platform,
/// one of the other presets for different topologies, or build the
/// fields directly for custom boards.
#[derive(Debug, Clone, PartialEq)]
pub struct BoardSpec {
    /// Human-readable board name.
    pub name: String,
    /// The board's clusters, slowest first. Cores are numbered cluster
    /// by cluster in this order.
    pub clusters: Vec<ClusterSpec>,
    /// Baseline frequency `f0` for performance ratios (the paper uses
    /// the common 1.0 GHz point of both XU3 ladders).
    pub base_freq: FreqKhz,
    /// Work units per second executed at `base_freq` by a fully
    /// compute-bound thread on one reference-cluster core. Sets the
    /// absolute time scale.
    pub units_per_sec: f64,
    /// Power sensor sampling period in nanoseconds (the XU3's INA231
    /// setup samples every 263,808 µs).
    pub sensor_period_ns: u64,
}

impl BoardSpec {
    /// The ODROID-XU3 (Samsung Exynos 5422): 4×Cortex-A15 at
    /// 0.8–1.6 GHz + 4×Cortex-A7 at 0.8–1.3 GHz, per-cluster DVFS,
    /// on-board power sensors sampling every 263,808 µs.
    ///
    /// Power coefficients are chosen so the full-load envelope matches
    /// published XU3 measurements (big cluster ≈ 6 W at 1.6 GHz, little
    /// cluster ≈ 0.7 W at 1.3 GHz). This is the canonical two-cluster
    /// instance: all paper-reproduction numbers run on it.
    pub fn odroid_xu3() -> Self {
        Self {
            name: "ODROID-XU3 (Exynos 5422)".to_string(),
            clusters: vec![
                ClusterSpec::new(
                    "little",
                    4,
                    FreqLadder::from_mhz_range(800, 1_300, 100),
                    ClusterPowerModel {
                        kappa: 0.100,
                        sigma: 0.020,
                        upsilon: 0.012,
                        chi: 0.012,
                        volt_lo: 1.00,
                        volt_hi: 1.10,
                    },
                    1.0,
                ),
                ClusterSpec::new(
                    "big",
                    4,
                    FreqLadder::from_mhz_range(800, 1_600, 100),
                    ClusterPowerModel {
                        kappa: 0.650,
                        sigma: 0.150,
                        upsilon: 0.080,
                        chi: 0.050,
                        volt_lo: 0.90,
                        volt_hi: 1.13,
                    },
                    1.5,
                ),
            ],
            base_freq: FreqKhz::from_mhz(1_000),
            units_per_sec: 1_000.0,
            sensor_period_ns: 263_808_000,
        }
    }

    /// A phone-class SoC with an asymmetric split: 2 big cores
    /// (0.8–2.0 GHz) + 4 little cores (0.6–1.4 GHz). Exercises every
    /// code path that must not assume the XU3's 4+4 symmetry (state
    /// spaces, Table 3.1, partitioning).
    pub fn phone_2big_4little() -> Self {
        Self {
            name: "phone-class 2+4 SoC".to_string(),
            clusters: vec![
                ClusterSpec::new(
                    "little",
                    4,
                    FreqLadder::from_mhz_range(600, 1_400, 200),
                    ClusterPowerModel {
                        kappa: 0.080,
                        sigma: 0.015,
                        upsilon: 0.010,
                        chi: 0.010,
                        volt_lo: 0.95,
                        volt_hi: 1.05,
                    },
                    1.0,
                ),
                ClusterSpec::new(
                    "big",
                    2,
                    FreqLadder::from_mhz_range(800, 2_000, 200),
                    ClusterPowerModel {
                        kappa: 0.700,
                        sigma: 0.180,
                        upsilon: 0.090,
                        chi: 0.060,
                        volt_lo: 0.85,
                        volt_hi: 1.20,
                    },
                    1.5,
                ),
            ],
            base_freq: FreqKhz::from_mhz(1_000),
            units_per_sec: 1_000.0,
            sensor_period_ns: 100_000_000,
        }
    }

    /// An Arm DynamIQ-style tri-cluster SoC (4 little + 3 mid + 1
    /// prime, the Snapdragon-855 shape): the first board beyond the
    /// paper's two-cluster world. Exercises 6-dimensional system states
    /// `(C_0..C_2, f_0..f_2)` end to end.
    pub fn dynamiq_1p_3m_4l() -> Self {
        Self {
            name: "DynamIQ 1+3+4 tri-cluster".to_string(),
            clusters: vec![
                ClusterSpec::new(
                    "little",
                    4,
                    FreqLadder::from_mhz_range(600, 1_400, 200),
                    ClusterPowerModel {
                        kappa: 0.090,
                        sigma: 0.018,
                        upsilon: 0.011,
                        chi: 0.012,
                        volt_lo: 0.95,
                        volt_hi: 1.05,
                    },
                    1.0,
                ),
                ClusterSpec::new(
                    "mid",
                    3,
                    FreqLadder::from_mhz_range(800, 2_000, 200),
                    ClusterPowerModel {
                        kappa: 0.350,
                        sigma: 0.080,
                        upsilon: 0.040,
                        chi: 0.030,
                        volt_lo: 0.85,
                        volt_hi: 1.10,
                    },
                    1.6,
                ),
                ClusterSpec::new(
                    "prime",
                    1,
                    FreqLadder::from_mhz_range(800, 2_600, 200),
                    ClusterPowerModel {
                        kappa: 0.550,
                        sigma: 0.130,
                        upsilon: 0.070,
                        chi: 0.040,
                        volt_lo: 0.85,
                        volt_hi: 1.20,
                    },
                    2.0,
                ),
            ],
            base_freq: FreqKhz::from_mhz(1_000),
            units_per_sec: 1_000.0,
            sensor_period_ns: 100_000_000,
        }
    }

    /// An x86 hybrid (P/E-core) desktop part: 8 efficiency cores +
    /// 6 performance cores with wide DVFS ranges — the server/desktop
    /// face of the same N-cluster abstraction.
    pub fn x86_hybrid_6p_8e() -> Self {
        Self {
            name: "x86 hybrid 6P+8E".to_string(),
            clusters: vec![
                ClusterSpec::new(
                    "E",
                    8,
                    FreqLadder::from_mhz_range(800, 2_400, 400),
                    ClusterPowerModel {
                        kappa: 0.300,
                        sigma: 0.100,
                        upsilon: 0.050,
                        chi: 0.100,
                        volt_lo: 0.80,
                        volt_hi: 1.05,
                    },
                    1.0,
                ),
                ClusterSpec::new(
                    "P",
                    6,
                    FreqLadder::from_mhz_range(800, 3_200, 400),
                    ClusterPowerModel {
                        kappa: 1.100,
                        sigma: 0.300,
                        upsilon: 0.150,
                        chi: 0.200,
                        volt_lo: 0.80,
                        volt_hi: 1.25,
                    },
                    1.7,
                ),
            ],
            base_freq: FreqKhz::from_mhz(1_600),
            units_per_sec: 1_600.0,
            sensor_period_ns: 50_000_000,
        }
    }

    /// A 4-cluster, 32-core heterogeneous server board: 8 low-power
    /// cores, a 12-core efficiency tier, 8 performance cores and a
    /// 4-core prime tier. The shape the beam/frontier search policies
    /// exist for — the exhaustive sweep's `9^8` candidate neighborhood
    /// is already intractable per adaptation period here.
    pub fn server_4c_32core() -> Self {
        Self {
            name: "server 4-cluster 32-core".to_string(),
            clusters: vec![
                ClusterSpec::new(
                    "lp",
                    8,
                    FreqLadder::from_mhz_range(600, 1_400, 200),
                    ClusterPowerModel {
                        kappa: 0.090,
                        sigma: 0.020,
                        upsilon: 0.012,
                        chi: 0.015,
                        volt_lo: 0.80,
                        volt_hi: 1.00,
                    },
                    1.0,
                ),
                ClusterSpec::new(
                    "eff",
                    12,
                    FreqLadder::from_mhz_range(800, 2_000, 200),
                    ClusterPowerModel {
                        kappa: 0.280,
                        sigma: 0.080,
                        upsilon: 0.040,
                        chi: 0.060,
                        volt_lo: 0.80,
                        volt_hi: 1.05,
                    },
                    1.3,
                ),
                ClusterSpec::new(
                    "perf",
                    8,
                    FreqLadder::from_mhz_range(1_000, 2_600, 200),
                    ClusterPowerModel {
                        kappa: 0.750,
                        sigma: 0.200,
                        upsilon: 0.100,
                        chi: 0.120,
                        volt_lo: 0.82,
                        volt_hi: 1.18,
                    },
                    1.7,
                ),
                ClusterSpec::new(
                    "prime",
                    4,
                    FreqLadder::from_mhz_range(1_000, 3_000, 250),
                    ClusterPowerModel {
                        kappa: 1.000,
                        sigma: 0.260,
                        upsilon: 0.130,
                        chi: 0.150,
                        volt_lo: 0.85,
                        volt_hi: 1.25,
                    },
                    2.1,
                ),
            ],
            base_freq: FreqKhz::from_mhz(1_000),
            units_per_sec: 1_000.0,
            sensor_period_ns: 50_000_000,
        }
    }

    /// A 5-cluster, 48-core server board — the stress preset for
    /// search scaling: `2N = 10` search dimensions, a state space in
    /// the billions, `O(9^10)` exhaustive candidates per adaptation
    /// period. Only the beam-limited and frontier policies are
    /// practical here.
    pub fn server_5c_48core() -> Self {
        Self {
            name: "server 5-cluster 48-core".to_string(),
            clusters: vec![
                ClusterSpec::new(
                    "lp",
                    8,
                    FreqLadder::from_mhz_range(600, 1_400, 200),
                    ClusterPowerModel {
                        kappa: 0.090,
                        sigma: 0.020,
                        upsilon: 0.012,
                        chi: 0.015,
                        volt_lo: 0.80,
                        volt_hi: 1.00,
                    },
                    1.0,
                ),
                ClusterSpec::new(
                    "eff",
                    16,
                    FreqLadder::from_mhz_range(800, 2_000, 200),
                    ClusterPowerModel {
                        kappa: 0.260,
                        sigma: 0.075,
                        upsilon: 0.038,
                        chi: 0.055,
                        volt_lo: 0.80,
                        volt_hi: 1.05,
                    },
                    1.25,
                ),
                ClusterSpec::new(
                    "std",
                    12,
                    FreqLadder::from_mhz_range(1_000, 2_200, 200),
                    ClusterPowerModel {
                        kappa: 0.480,
                        sigma: 0.130,
                        upsilon: 0.065,
                        chi: 0.080,
                        volt_lo: 0.82,
                        volt_hi: 1.10,
                    },
                    1.5,
                ),
                ClusterSpec::new(
                    "perf",
                    8,
                    FreqLadder::from_mhz_range(1_000, 2_800, 200),
                    ClusterPowerModel {
                        kappa: 0.820,
                        sigma: 0.210,
                        upsilon: 0.105,
                        chi: 0.130,
                        volt_lo: 0.83,
                        volt_hi: 1.20,
                    },
                    1.8,
                ),
                ClusterSpec::new(
                    "prime",
                    4,
                    FreqLadder::from_mhz_range(1_200, 3_200, 250),
                    ClusterPowerModel {
                        kappa: 1.100,
                        sigma: 0.280,
                        upsilon: 0.140,
                        chi: 0.160,
                        volt_lo: 0.86,
                        volt_hi: 1.28,
                    },
                    2.2,
                ),
            ],
            base_freq: FreqKhz::from_mhz(1_000),
            units_per_sec: 1_000.0,
            sensor_period_ns: 50_000_000,
        }
    }

    /// Number of clusters.
    pub fn n_clusters(&self) -> usize {
        self.clusters.len()
    }

    /// All cluster ids, in index order.
    pub fn cluster_ids(&self) -> impl DoubleEndedIterator<Item = ClusterId> + Clone {
        (0..self.clusters.len()).map(ClusterId)
    }

    /// The spec of `cluster`.
    ///
    /// # Panics
    ///
    /// Panics if `cluster` is out of range for this board.
    pub fn cluster(&self, cluster: ClusterId) -> &ClusterSpec {
        &self.clusters[cluster.0]
    }

    /// The cluster's display name.
    pub fn cluster_name(&self, cluster: ClusterId) -> &str {
        &self.clusters[cluster.0].name
    }

    /// Total number of cores.
    pub fn n_cores(&self) -> usize {
        self.clusters.iter().map(|c| c.cores).sum()
    }

    /// The cluster a core belongs to.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range for this board.
    pub fn cluster_of(&self, core: CoreId) -> ClusterId {
        let mut start = 0;
        for (i, c) in self.clusters.iter().enumerate() {
            if core.0 < start + c.cores {
                return ClusterId(i);
            }
            start += c.cores;
        }
        panic!("core {core} out of range");
    }

    /// Number of cores in `cluster`.
    pub fn cluster_size(&self, cluster: ClusterId) -> usize {
        self.clusters[cluster.0].cores
    }

    /// The cores of `cluster` as a set.
    pub fn cluster_cores(&self, cluster: ClusterId) -> CpuSet {
        let start = self.cluster_start(cluster).0;
        CpuSet::from_range(start..start + self.clusters[cluster.0].cores)
    }

    /// All cores of the board as a set.
    pub fn all_cores(&self) -> CpuSet {
        CpuSet::first_n(self.n_cores())
    }

    /// The DVFS ladder of `cluster`.
    pub fn ladder(&self, cluster: ClusterId) -> &FreqLadder {
        &self.clusters[cluster.0].ladder
    }

    /// The ground-truth power model of `cluster`.
    pub fn power_model(&self, cluster: ClusterId) -> &ClusterPowerModel {
        &self.clusters[cluster.0].power
    }

    /// The nominal per-core performance ratio of `cluster`.
    pub fn perf_ratio(&self, cluster: ClusterId) -> f64 {
        self.clusters[cluster.0].perf_ratio
    }

    /// The largest nominal per-core performance ratio on the board.
    pub fn max_perf_ratio(&self) -> f64 {
        self.clusters
            .iter()
            .map(|c| c.perf_ratio)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// First board-level core id of `cluster` (the paper's
    /// `bigStartIndex` for the XU3 big cluster).
    pub fn cluster_start(&self, cluster: ClusterId) -> CoreId {
        assert!(cluster.0 < self.clusters.len(), "{cluster} out of range");
        CoreId(self.clusters[..cluster.0].iter().map(|c| c.cores).sum())
    }

    /// The next-faster cluster after `cluster` in nominal-performance
    /// order (ties broken by index), or `None` when `cluster` is the
    /// fastest. Drives GTS up-migration on N-cluster boards.
    pub fn faster_cluster(&self, cluster: ClusterId) -> Option<ClusterId> {
        let key = |i: usize| (self.clusters[i].perf_ratio, i);
        let me = key(cluster.0);
        (0..self.clusters.len())
            .filter(|&i| (key(i).0, key(i).1) > me)
            .min_by(|&a, &b| key(a).partial_cmp(&key(b)).expect("finite ratios"))
            .map(ClusterId)
    }

    /// The next-slower cluster before `cluster` (ties broken by index),
    /// or `None` when `cluster` is the slowest. Drives GTS
    /// down-migration.
    pub fn slower_cluster(&self, cluster: ClusterId) -> Option<ClusterId> {
        let key = |i: usize| (self.clusters[i].perf_ratio, i);
        let me = key(cluster.0);
        (0..self.clusters.len())
            .filter(|&i| (key(i).0, key(i).1) < me)
            .max_by(|&a, &b| key(a).partial_cmp(&key(b)).expect("finite ratios"))
            .map(ClusterId)
    }

    /// Validates the board shape (non-empty, within [`MAX_CLUSTERS`],
    /// base frequency positive).
    ///
    /// # Panics
    ///
    /// Panics on an invalid shape — boards are experiment-setup inputs.
    pub fn assert_valid(&self) {
        assert!(!self.clusters.is_empty(), "a board needs clusters");
        assert!(
            self.clusters.len() <= MAX_CLUSTERS,
            "at most {MAX_CLUSTERS} clusters supported"
        );
        assert!(self.base_freq.khz() > 0, "base frequency must be positive");
        assert!(self.n_cores() <= CpuSet::MAX_CORES, "too many cores");
    }
}

impl Default for BoardSpec {
    fn default() -> Self {
        Self::odroid_xu3()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xu3_topology() {
        let b = BoardSpec::odroid_xu3();
        assert_eq!(b.n_cores(), 8);
        assert_eq!(b.n_clusters(), 2);
        assert_eq!(b.cluster_of(CoreId(0)), ClusterId::LITTLE);
        assert_eq!(b.cluster_of(CoreId(3)), ClusterId::LITTLE);
        assert_eq!(b.cluster_of(CoreId(4)), ClusterId::BIG);
        assert_eq!(b.cluster_of(CoreId(7)), ClusterId::BIG);
        assert_eq!(b.cluster_start(ClusterId::BIG), CoreId(4));
        assert_eq!(b.ladder(ClusterId::BIG).len(), 9);
        assert_eq!(b.ladder(ClusterId::LITTLE).len(), 6);
        assert_eq!(b.cluster_name(ClusterId::BIG), "big");
        assert!((b.max_perf_ratio() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn cluster_sets_partition_the_board() {
        for b in [
            BoardSpec::odroid_xu3(),
            BoardSpec::phone_2big_4little(),
            BoardSpec::dynamiq_1p_3m_4l(),
            BoardSpec::x86_hybrid_6p_8e(),
            BoardSpec::server_4c_32core(),
            BoardSpec::server_5c_48core(),
        ] {
            b.assert_valid();
            let mut union = CpuSet::empty();
            for c in b.cluster_ids() {
                let set = b.cluster_cores(c);
                assert!(set.is_disjoint(union), "{}: {c} overlaps", b.name);
                union = union.union(set);
            }
            assert_eq!(union, b.all_cores(), "{}", b.name);
        }
    }

    #[test]
    fn voltage_interpolation_clamps() {
        let b = BoardSpec::odroid_xu3();
        let pm = b.power_model(ClusterId::BIG);
        let ladder = b.ladder(ClusterId::BIG);
        let v_lo = pm.voltage(FreqKhz::from_mhz(800), ladder);
        let v_hi = pm.voltage(FreqKhz::from_mhz(1600), ladder);
        assert!((v_lo - pm.volt_lo).abs() < 1e-12);
        assert!((v_hi - pm.volt_hi).abs() < 1e-12);
        let v_mid = pm.voltage(FreqKhz::from_mhz(1200), ladder);
        assert!(v_lo < v_mid && v_mid < v_hi);
        // Out-of-range frequencies clamp.
        assert!((pm.voltage(FreqKhz::from_mhz(100), ladder) - pm.volt_lo).abs() < 1e-12);
        assert!((pm.voltage(FreqKhz::from_mhz(9000), ladder) - pm.volt_hi).abs() < 1e-12);
    }

    #[test]
    fn cluster_id_helpers() {
        assert_eq!(ClusterId::BIG.index(), 1);
        assert_eq!(ClusterId::LITTLE.to_string(), "cluster0");
        let b = BoardSpec::odroid_xu3();
        assert_eq!(b.faster_cluster(ClusterId::LITTLE), Some(ClusterId::BIG));
        assert_eq!(b.faster_cluster(ClusterId::BIG), None);
        assert_eq!(b.slower_cluster(ClusterId::BIG), Some(ClusterId::LITTLE));
        assert_eq!(b.slower_cluster(ClusterId::LITTLE), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn cluster_of_out_of_range_panics() {
        BoardSpec::odroid_xu3().cluster_of(CoreId(8));
    }

    #[test]
    fn phone_preset_is_asymmetric() {
        let b = BoardSpec::phone_2big_4little();
        assert_eq!(b.n_cores(), 6);
        assert_eq!(b.cluster_size(ClusterId::BIG), 2);
        assert_eq!(b.cluster_of(CoreId(3)), ClusterId::LITTLE);
        assert_eq!(b.cluster_of(CoreId(4)), ClusterId::BIG);
        assert_eq!(b.cluster_start(ClusterId::BIG), CoreId(4));
        assert!(b
            .cluster_cores(ClusterId::BIG)
            .is_disjoint(b.cluster_cores(ClusterId::LITTLE)));
    }

    #[test]
    fn tri_cluster_preset_shape() {
        let b = BoardSpec::dynamiq_1p_3m_4l();
        assert_eq!(b.n_clusters(), 3);
        assert_eq!(b.n_cores(), 8);
        assert_eq!(b.cluster_size(ClusterId(1)), 3);
        assert_eq!(b.cluster_start(ClusterId(2)), CoreId(7));
        assert_eq!(b.cluster_of(CoreId(7)), ClusterId(2));
        // Perf ordering little < mid < prime.
        assert_eq!(b.faster_cluster(ClusterId(0)), Some(ClusterId(1)));
        assert_eq!(b.faster_cluster(ClusterId(1)), Some(ClusterId(2)));
        assert_eq!(b.slower_cluster(ClusterId(2)), Some(ClusterId(1)));
    }

    #[test]
    fn server_presets_shape() {
        let b4 = BoardSpec::server_4c_32core();
        assert_eq!(b4.n_clusters(), 4);
        assert_eq!(b4.n_cores(), 32);
        assert_eq!(b4.cluster_size(ClusterId(1)), 12);
        assert_eq!(b4.cluster_start(ClusterId(3)), CoreId(28));
        assert_eq!(b4.cluster_of(CoreId(31)), ClusterId(3));

        let b5 = BoardSpec::server_5c_48core();
        assert_eq!(b5.n_clusters(), 5);
        assert_eq!(b5.n_cores(), 48);
        assert_eq!(b5.cluster_start(ClusterId(4)), CoreId(44));
        assert_eq!(b5.cluster_of(CoreId(47)), ClusterId(4));
        // Nominal ratios strictly increase with the cluster index on
        // both server presets (GTS migration order relies on it).
        for b in [&b4, &b5] {
            let mut prev = 0.0;
            for c in b.cluster_ids() {
                assert!(b.perf_ratio(c) > prev, "{}: {c} not increasing", b.name);
                prev = b.perf_ratio(c);
            }
        }
    }

    #[test]
    fn sixteen_cluster_boards_validate() {
        // MAX_CLUSTERS is 16 now: a board with 16 single-core clusters
        // must validate, one with 17 must not.
        let mk = |n: usize| BoardSpec {
            name: format!("{n}-cluster"),
            clusters: (0..n)
                .map(|i| {
                    ClusterSpec::new(
                        format!("c{i}"),
                        1,
                        FreqLadder::from_mhz_range(800, 1_200, 200),
                        BoardSpec::odroid_xu3().power_model(ClusterId(0)).clone(),
                        1.0 + 0.1 * i as f64,
                    )
                })
                .collect(),
            base_freq: FreqKhz::from_mhz(1_000),
            units_per_sec: 1_000.0,
            sensor_period_ns: 100_000_000,
        };
        mk(MAX_CLUSTERS).assert_valid();
        let too_many = mk(MAX_CLUSTERS + 1);
        assert!(std::panic::catch_unwind(move || too_many.assert_valid()).is_err());
    }

    #[test]
    fn x86_preset_shape() {
        let b = BoardSpec::x86_hybrid_6p_8e();
        assert_eq!(b.n_clusters(), 2);
        assert_eq!(b.n_cores(), 14);
        assert_eq!(b.cluster_size(ClusterId(0)), 8);
        assert_eq!(b.cluster_size(ClusterId(1)), 6);
        assert!(b.ladder(ClusterId(1)).contains(b.base_freq));
        assert!(b.ladder(ClusterId(0)).contains(b.base_freq));
    }
}
