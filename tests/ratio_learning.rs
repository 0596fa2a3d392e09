//! The ratio-learning acceptance test: the full HARS stack on the
//! DynamIQ tri-cluster preset with the mid cluster's nominal ratio
//! deliberately misstated by 25% (assumed 1.2, true 1.6).
//!
//! Runs the exact scenario of the `ratio_learning` experiment binary
//! ([`hars_bench::ratio_scenario`]): a steady compute-bound workload
//! under a target band that toggles between a low and a high fraction
//! of the maximum rate, forcing share-moving transitions — the
//! evidence stream the per-cluster learner regresses over.

use hars_bench::ratio_scenario::{calibrated_power, run_mode, target_bands, ASSUMED_MID, TRUE_MID};
use hars_core::RatioLearning;
use hmp_sim::BoardSpec;

/// The acceptance criterion end to end: per-cluster learning converges
/// the 25%-misstated mid ratio to within 10% of the truth and beats the
/// legacy fastest-only nudge on steady-state rate-prediction error over
/// share-moving transitions — the nudge structurally cannot move a
/// middle cluster's ratio at all.
#[test]
fn per_cluster_converges_where_fast_only_cannot() {
    let board = BoardSpec::dynamiq_1p_3m_4l();
    let power = calibrated_power(&board, true);
    let bands = target_bands(&board);
    let budget = 2_000;

    let per = run_mode(&board, &power, bands, budget, RatioLearning::PerCluster);
    let fast = run_mode(&board, &power, bands, budget, RatioLearning::FastOnly);
    let off = run_mode(&board, &power, bands, budget, RatioLearning::Off);

    assert_eq!(
        fast.mid_estimate, ASSUMED_MID,
        "the legacy nudge must leave the mid cluster at its nominal ratio"
    );
    assert_eq!(off.mid_estimate, ASSUMED_MID, "Off must not learn");
    assert_eq!(off.prediction_error, None, "Off arms no predictions");
    assert!(
        (per.mid_estimate - TRUE_MID).abs() / TRUE_MID <= 0.10,
        "per-cluster mid estimate {} not within 10% of {TRUE_MID} (started at {ASSUMED_MID})",
        per.mid_estimate
    );
    // Compare prediction quality where the ratio model matters:
    // share-moving transitions. Frequency-only transitions predict
    // well under any assumed ratios and would dilute the comparison.
    let per_err = per.informative_error.expect("predictions consumed");
    let fast_err = fast.informative_error.expect("predictions consumed");
    assert!(
        per_err < fast_err,
        "per-cluster steady-state prediction error {per_err} not below fast-only {fast_err}"
    );
    // The exact trajectory of the learner's constants (window,
    // evidence, gain, step and drift bounds): any change to one moves
    // these bits.
    assert_eq!(per.mid_estimate.to_bits(), 0x3ffa_6b9d_b4ba_78ee);
    assert_eq!(
        per.prediction_error.map(f64::to_bits),
        Some(0x3fb4_eab7_9689_d8c8)
    );
    assert_eq!(per_err.to_bits(), 0x3fb6_b44a_1a3c_d80e);
    assert_eq!(per.adaptations, 37);
}
