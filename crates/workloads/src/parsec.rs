//! PARSEC-analog benchmark presets.
//!
//! The paper evaluates HARS on six PARSEC benchmarks. We cannot run the
//! actual binaries on a simulator, so each analog reproduces the traits
//! the paper's analysis hinges on:
//!
//! | bench | structure | true r (big/little) | notes |
//! |-------|-----------|---------------------|-------|
//! | blackscholes | data-parallel | **1.0** | the paper measured identical big/little performance (Section 5.1.2); flat workload; heartbeat-less input-parsing startup phase (Section 5.2.2, case 6) |
//! | bodytrack | data-parallel | 1.5 | per-frame phase alternation |
//! | facesim | data-parallel | 1.6 | heavy units, low heartbeat rate |
//! | ferret | **6-stage pipeline** | 1.4 | the paper's performance-imbalance case for the chunk scheduler |
//! | fluidanimate | data-parallel | 1.5 | bursty frames |
//! | swaptions | data-parallel | 1.7 | very regular units |
//!
//! HARS's estimator assumes `r₀ = 1.5` for everything — the blackscholes
//! mismatch is what drives its suboptimal adaptation in Figures 5.1/5.2.

use hmp_sim::{AppSpec, ParallelismModel, SpeedProfile, WorkSource};

use crate::variation::{Phase, VariationSpec};

/// The six PARSEC benchmarks of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Benchmark {
    /// blackscholes (BL) — option pricing; the paper's model-error case.
    Blackscholes,
    /// bodytrack (BO) — body tracking with per-frame phases.
    Bodytrack,
    /// facesim (FA) — physics simulation with heavy iterations.
    Facesim,
    /// ferret (FE) — 6-stage similarity-search pipeline.
    Ferret,
    /// fluidanimate (FL) — fluid dynamics, bursty frames.
    Fluidanimate,
    /// swaptions (SW) — Monte-Carlo pricing, very regular.
    Swaptions,
}

impl Benchmark {
    /// All six benchmarks in the paper's figure order.
    pub const ALL: [Benchmark; 6] = [
        Benchmark::Blackscholes,
        Benchmark::Bodytrack,
        Benchmark::Facesim,
        Benchmark::Ferret,
        Benchmark::Fluidanimate,
        Benchmark::Swaptions,
    ];

    /// The paper's two-letter abbreviation.
    pub fn abbrev(&self) -> &'static str {
        match self {
            Benchmark::Blackscholes => "BL",
            Benchmark::Bodytrack => "BO",
            Benchmark::Facesim => "FA",
            Benchmark::Ferret => "FE",
            Benchmark::Fluidanimate => "FL",
            Benchmark::Swaptions => "SW",
        }
    }

    /// Full lowercase benchmark name.
    pub fn name(&self) -> &'static str {
        match self {
            Benchmark::Blackscholes => "blackscholes",
            Benchmark::Bodytrack => "bodytrack",
            Benchmark::Facesim => "facesim",
            Benchmark::Ferret => "ferret",
            Benchmark::Fluidanimate => "fluidanimate",
            Benchmark::Swaptions => "swaptions",
        }
    }

    /// Parses an abbreviation or name (case-insensitive).
    pub fn parse(s: &str) -> Option<Benchmark> {
        let lower = s.to_ascii_lowercase();
        Benchmark::ALL
            .into_iter()
            .find(|b| b.abbrev().eq_ignore_ascii_case(&lower) || b.name() == lower)
    }

    /// The benchmark's *true* speed profile on the simulated board
    /// (what the application really does; HARS assumes `r = 1.5`, φ = 0).
    pub fn speed_profile(&self) -> SpeedProfile {
        match self {
            // Measured r ≈ 1.0 in the paper; strongly memory-bound.
            Benchmark::Blackscholes => SpeedProfile {
                big_little_ratio: 1.0,
                mem_bound_frac: 0.50,
            },
            Benchmark::Bodytrack => SpeedProfile {
                big_little_ratio: 1.5,
                mem_bound_frac: 0.10,
            },
            Benchmark::Facesim => SpeedProfile {
                big_little_ratio: 1.6,
                mem_bound_frac: 0.25,
            },
            // Pipeline stages block on queues, so GTS spreads ferret
            // over both clusters even at baseline; the little cluster
            // alone cannot carry the 50% target, forcing HARS into
            // mixed states (where the chunk scheduler's stage
            // imbalance bites).
            Benchmark::Ferret => SpeedProfile {
                big_little_ratio: 1.7,
                mem_bound_frac: 0.05,
            },
            Benchmark::Fluidanimate => SpeedProfile {
                big_little_ratio: 1.5,
                mem_bound_frac: 0.30,
            },
            // Regular Monte-Carlo units; ratio calibrated so that the
            // 50%-of-solo-max target stays reachable from a little-
            // cluster-dominated share in multi-application runs.
            Benchmark::Swaptions => SpeedProfile {
                big_little_ratio: 1.45,
                mem_bound_frac: 0.05,
            },
        }
    }

    /// Amdahl serial fraction of each data-parallel unit: real PARSEC
    /// applications do not scale linearly to 8 threads (bodytrack and
    /// facesim in particular spend 10-15% of each frame in serial
    /// sections), which is why two co-running benchmarks barely slow
    /// each other down on the paper's board (Figures 5.5-5.7 show both
    /// apps over-performing at the shared maximum state).
    pub fn serial_fraction(&self) -> f64 {
        match self {
            Benchmark::Blackscholes => 0.02,
            Benchmark::Bodytrack => 0.15,
            Benchmark::Facesim => 0.12,
            Benchmark::Ferret => 0.0, // single-threaded input/output stages
            Benchmark::Fluidanimate => 0.10,
            Benchmark::Swaptions => 0.03,
        }
    }

    /// Per-unit workload variation (phase pattern + noise).
    fn variation(&self, seed: u64) -> VariationSpec {
        let (base, cv, phases) = match self {
            // Flat: "this benchmark workload variation is stable".
            Benchmark::Blackscholes => (400.0, 0.01, vec![]),
            Benchmark::Bodytrack => (600.0, 0.08, vec![Phase::new(1.0, 40), Phase::new(1.35, 20)]),
            Benchmark::Facesim => (
                2_000.0,
                0.05,
                vec![Phase::new(1.0, 30), Phase::new(1.2, 15)],
            ),
            Benchmark::Ferret => (300.0, 0.10, vec![]),
            Benchmark::Fluidanimate => (
                700.0,
                0.07,
                vec![Phase::new(0.85, 25), Phase::new(1.25, 25)],
            ),
            Benchmark::Swaptions => (500.0, 0.02, vec![]),
        };
        VariationSpec {
            base_work: base,
            noise_cv: cv,
            phases,
            len: 256,
            seed,
        }
    }

    /// Builds the benchmark's [`AppSpec`] with the paper's thread-count
    /// parameter `threads` (`-n`, set to the core count 8 in the
    /// evaluation) and a deterministic workload seed.
    ///
    /// For ferret, `-n` follows the real benchmark's semantics: `n`
    /// threads per middle pipeline stage, so the process has `4n + 2`
    /// OS threads — the crux of the paper's chunk-scheduler imbalance
    /// analysis (Section 5.1.2).
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn spec(&self, threads: usize, seed: u64) -> AppSpec {
        let schedule = self.variation(seed).generate();
        let mut spec = AppSpec {
            name: self.name().to_string(),
            threads,
            model: ParallelismModel::DataParallel,
            speed: self.speed_profile(),
            work: WorkSource::Schedule(schedule),
            items_per_heartbeat: 1,
            startup_work: 0.0,
            serial_frac: self.serial_fraction(),
            max_heartbeats: None,
        };
        match self {
            Benchmark::Blackscholes => {
                // Heartbeat-less input-parsing phase (~5 s single-threaded
                // on a big core) — drives the paper's case-6 discussion.
                spec.startup_work = 6_500.0;
            }
            Benchmark::Ferret => {
                // The real benchmark's `-n` spawns n threads in each of
                // the four middle stages plus single-threaded input and
                // output stages: 4n + 2 OS threads in total (34 for the
                // paper's n = 8).
                let stage_threads = ferret_stage_threads(threads);
                spec.threads = stage_threads.iter().sum();
                spec.model = ParallelismModel::Pipeline {
                    stage_threads,
                    stage_work_frac: vec![0.02, 0.40, 0.26, 0.17, 0.13, 0.02],
                    queue_capacity: 8,
                };
                spec.items_per_heartbeat = 1;
            }
            _ => {}
        }
        debug_assert!(spec.validate().is_ok(), "preset must validate");
        spec
    }

    /// Convenience: [`Benchmark::spec`] with a heartbeat budget so runs
    /// terminate on their own (the paper's finite native inputs).
    pub fn spec_with_budget(&self, threads: usize, seed: u64, max_heartbeats: u64) -> AppSpec {
        let mut spec = self.spec(threads, seed);
        spec.max_heartbeats = Some(max_heartbeats);
        spec
    }
}

impl std::fmt::Display for Benchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Ferret's stage layout for thread-count parameter `n`: single-threaded
/// input and output stages plus `n` threads in each of the four middle
/// stages (segmentation, extraction, vectorization, ranking) — the real
/// benchmark's `-n` semantics, `4n + 2` threads in total.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn ferret_stage_threads(n: usize) -> Vec<usize> {
    assert!(n >= 1, "ferret needs at least one thread per stage");
    vec![1, n, n, n, n, 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_specs_validate() {
        for b in &Benchmark::ALL {
            let spec = b.spec(8, 42);
            assert!(spec.validate().is_ok(), "{b} spec invalid");
            let expect = if *b == Benchmark::Ferret { 34 } else { 8 };
            assert_eq!(spec.threads, expect);
        }
    }

    #[test]
    fn abbreviations_match_paper() {
        let abbrevs: Vec<&str> = Benchmark::ALL.iter().map(|b| b.abbrev()).collect();
        assert_eq!(abbrevs, vec!["BL", "BO", "FA", "FE", "FL", "SW"]);
    }

    #[test]
    fn parse_roundtrip() {
        for b in Benchmark::ALL {
            assert_eq!(Benchmark::parse(b.abbrev()), Some(b));
            assert_eq!(Benchmark::parse(b.name()), Some(b));
        }
        assert_eq!(Benchmark::parse("bl"), Some(Benchmark::Blackscholes));
        assert_eq!(Benchmark::parse("nope"), None);
    }

    #[test]
    fn blackscholes_has_unity_ratio_and_startup() {
        let spec = Benchmark::Blackscholes.spec(8, 1);
        assert!((spec.speed.big_little_ratio - 1.0).abs() < 1e-12);
        assert!(spec.startup_work > 0.0);
    }

    #[test]
    fn ferret_is_a_six_stage_pipeline_with_4n_plus_2_threads() {
        let spec = Benchmark::Ferret.spec(8, 1);
        assert_eq!(spec.threads, 34, "-n 8 spawns 4*8 + 2 threads");
        match &spec.model {
            ParallelismModel::Pipeline {
                stage_threads,
                stage_work_frac,
                ..
            } => {
                assert_eq!(stage_threads.len(), 6);
                assert_eq!(*stage_threads, vec![1, 8, 8, 8, 8, 1]);
                assert!((stage_work_frac.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            }
            _ => panic!("ferret must be a pipeline"),
        }
        assert!(spec.validate().is_ok());
    }

    #[test]
    fn ferret_stage_distribution() {
        assert_eq!(ferret_stage_threads(1), vec![1, 1, 1, 1, 1, 1]);
        assert_eq!(ferret_stage_threads(8), vec![1, 8, 8, 8, 8, 1]);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn tiny_ferret_panics() {
        let _ = ferret_stage_threads(0);
    }

    #[test]
    fn specs_are_deterministic_per_seed() {
        let a = Benchmark::Fluidanimate.spec(8, 5);
        let b = Benchmark::Fluidanimate.spec(8, 5);
        let c = Benchmark::Fluidanimate.spec(8, 6);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn budgeted_spec_sets_max_heartbeats() {
        let spec = Benchmark::Swaptions.spec_with_budget(8, 1, 300);
        assert_eq!(spec.max_heartbeats, Some(300));
    }

    #[test]
    fn ferret_little_cluster_cannot_carry_half_the_big_cluster() {
        // The premise of the chunk-imbalance analysis: 4 little cores at
        // max frequency deliver less than half of the baseline (big-
        // packed) capacity, so ferret's 50% target needs big cores too.
        let p = Benchmark::Ferret.speed_profile();
        // Baseline ferret spreads over BOTH clusters (pipeline threads
        // block, so GTS mixes them); 4 little cores must be under 45%
        // of the whole board's capacity.
        let little_cap = 4.0 * (p.mem_bound_frac + (1.0 - p.mem_bound_frac) * 1.3);
        let big_cap =
            4.0 * p.big_little_ratio * (p.mem_bound_frac + (1.0 - p.mem_bound_frac) * 1.6);
        assert!(
            little_cap < 0.45 * (little_cap + big_cap),
            "{little_cap} vs total {}",
            little_cap + big_cap
        );
    }

    #[test]
    fn estimator_assumption_differs_from_truth_for_blackscholes() {
        // The crux of the paper's Figures 5.1/5.2 analysis: HARS assumes
        // r = 1.5 while blackscholes really has r = 1.0.
        let assumed = SpeedProfile::default();
        let actual = Benchmark::Blackscholes.speed_profile();
        assert!((assumed.big_little_ratio - actual.big_little_ratio).abs() > 0.4);
    }
}
