//! The state & freeze decision table (the paper's Table 4.3).
//!
//! Used when multiple applications share a frequency domain: the
//! adaptation decision of the application currently in its adaptation
//! period (`AppInPeriod`) is combined with the worst-case classification
//! of the other applications (`TheOthers`) and the domain's frozen
//! state. The table's invariants:
//!
//! * anyone under-performing ⇒ the system may only speed up (`INC`),
//!   and an under-performer's need unfreezes a frozen domain;
//! * performance is only decreased when **everyone** over-performs and
//!   the domain is not frozen — and that decrease freezes the domain
//!   until every affected application has collected fresh data.

use crate::app_data::PerfClass;

/// The shared-state decision (`StateDecision` column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StateDecision {
    /// Increase the shared performance state.
    Inc,
    /// Leave it unchanged.
    Keep,
    /// Decrease it.
    Dec,
}

/// The freeze-flag decision (`FreezeDecision` column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FreezeDecision {
    /// Set the frozen flag.
    Freeze,
    /// Clear it.
    Unfreeze,
    /// Leave it as it is.
    Keep,
}

/// Table 4.3, row for (`app`, `others`, `frozen`).
///
/// `others` is the worst-case class over the other applications sharing
/// the domain ([`combine_others`]); pass `None` when the application is
/// alone, which reduces to the single-application rules (under ⇒ INC,
/// achieve ⇒ KEEP, over ⇒ DEC-with-freeze, still respecting an existing
/// frozen flag).
///
/// Two rows are amended relative to the thesis' literal Table 4.3,
/// which maps `(Overperf, Achieve, FREEZE)` and `(Overperf, Overperf,
/// FREEZE)` to `INC`. Taken literally, any over-performer adapting
/// right after a freeze would *raise* a system state that satisfies
/// everyone — each decrease would be immediately rolled back and the
/// conservative model could never settle (a live-lock we observed
/// directly). We read those rows as "only increases are *permitted*
/// while frozen" and map them to `KEEP`; the `(Overperf, Underperf,
/// FREEZE) → INC` row is kept literally (rolling back a decrease that
/// left a neighbor starving).
pub fn decide(
    app: PerfClass,
    others: Option<PerfClass>,
    frozen: bool,
) -> (StateDecision, FreezeDecision) {
    use FreezeDecision as F;
    use PerfClass as P;
    use StateDecision as S;
    match (app, others, frozen) {
        // AppInPeriod under-performing: always INC; INC unfreezes.
        (P::Underperf, _, true) => (S::Inc, F::Unfreeze),
        (P::Underperf, _, false) => (S::Inc, F::Keep),
        // AppInPeriod achieving: never disturb the system.
        (P::Achieve, _, _) => (S::Keep, F::Keep),
        // AppInPeriod over-performing:
        //  - a frozen domain that left another app starving is rolled
        //    back up (literal row); otherwise nobody raises a satisfied
        //    system (amended rows, see the function docs).
        (P::Overperf, Some(P::Underperf), true) => (S::Inc, F::Keep),
        (P::Overperf, Some(P::Underperf), false) => (S::Keep, F::Keep),
        (P::Overperf, Some(P::Achieve), true) => (S::Keep, F::Keep),
        (P::Overperf, Some(P::Achieve), false) => (S::Keep, F::Keep),
        //  - everyone over-performs: frozen still blocks the decrease;
        //    otherwise decrease and freeze.
        (P::Overperf, Some(P::Overperf), true) => (S::Keep, F::Keep),
        (P::Overperf, Some(P::Overperf), false) => (S::Dec, F::Freeze),
        //  - alone on the domain: the same logic without interference.
        (P::Overperf, None, true) => (S::Keep, F::Keep),
        (P::Overperf, None, false) => (S::Dec, F::Freeze),
    }
}

/// Worst-case aggregation of the other applications' classes: any
/// under-performer dominates, then any achiever; only a unanimous
/// over-performing set counts as `Overperf`. Apps without observations
/// (e.g. still in a heartbeat-less startup phase) are skipped.
pub fn combine_others<I: IntoIterator<Item = Option<PerfClass>>>(others: I) -> Option<PerfClass> {
    let mut combined: Option<PerfClass> = None;
    for c in others.into_iter().flatten() {
        combined = Some(match (combined, c) {
            (None, c) => c,
            (Some(PerfClass::Underperf), _) | (_, PerfClass::Underperf) => PerfClass::Underperf,
            (Some(PerfClass::Achieve), _) | (_, PerfClass::Achieve) => PerfClass::Achieve,
            (Some(PerfClass::Overperf), PerfClass::Overperf) => PerfClass::Overperf,
        });
    }
    combined
}

#[cfg(test)]
mod tests {
    use super::*;
    use FreezeDecision as F;
    use PerfClass as P;
    use StateDecision as S;

    /// Every row of Table 4.3 (with the two amended Overperf/FREEZE
    /// rows — see `decide`).
    #[test]
    fn table_4_3_all_rows() {
        let rows = [
            // (app, others, frozen) -> (state, freeze)
            (P::Underperf, P::Underperf, true, S::Inc, F::Unfreeze),
            (P::Underperf, P::Underperf, false, S::Inc, F::Keep),
            (P::Underperf, P::Achieve, true, S::Inc, F::Unfreeze),
            (P::Underperf, P::Achieve, false, S::Inc, F::Keep),
            (P::Underperf, P::Overperf, true, S::Inc, F::Unfreeze),
            (P::Underperf, P::Overperf, false, S::Inc, F::Keep),
            (P::Achieve, P::Underperf, true, S::Keep, F::Keep),
            (P::Achieve, P::Underperf, false, S::Keep, F::Keep),
            (P::Achieve, P::Achieve, true, S::Keep, F::Keep),
            (P::Achieve, P::Achieve, false, S::Keep, F::Keep),
            (P::Achieve, P::Overperf, true, S::Keep, F::Keep),
            (P::Achieve, P::Overperf, false, S::Keep, F::Keep),
            (P::Overperf, P::Underperf, true, S::Inc, F::Keep),
            (P::Overperf, P::Underperf, false, S::Keep, F::Keep),
            // Amended rows (see `decide` docs): literal table says INC.
            (P::Overperf, P::Achieve, true, S::Keep, F::Keep),
            (P::Overperf, P::Overperf, true, S::Keep, F::Keep),
            (P::Overperf, P::Achieve, false, S::Keep, F::Keep),
            (P::Overperf, P::Overperf, false, S::Dec, F::Freeze),
        ];
        for (app, others, frozen, want_s, want_f) in rows {
            let (s, f) = decide(app, Some(others), frozen);
            assert_eq!(
                (s, f),
                (want_s, want_f),
                "row ({app:?}, {others:?}, frozen={frozen})"
            );
        }
    }

    #[test]
    fn solo_app_rules() {
        assert_eq!(decide(P::Underperf, None, false), (S::Inc, F::Keep));
        assert_eq!(decide(P::Achieve, None, false), (S::Keep, F::Keep));
        assert_eq!(decide(P::Overperf, None, false), (S::Dec, F::Freeze));
        assert_eq!(decide(P::Overperf, None, true), (S::Keep, F::Keep));
        assert_eq!(decide(P::Underperf, None, true), (S::Inc, F::Unfreeze));
    }

    #[test]
    fn decreases_only_when_unanimous_and_unfrozen() {
        for app in [P::Underperf, P::Achieve, P::Overperf] {
            for others in [
                None,
                Some(P::Underperf),
                Some(P::Achieve),
                Some(P::Overperf),
            ] {
                for frozen in [true, false] {
                    let (s, f) = decide(app, others, frozen);
                    if s == S::Dec {
                        assert_eq!(app, P::Overperf);
                        assert!(others.is_none() || others == Some(P::Overperf));
                        assert!(!frozen);
                        assert_eq!(f, F::Freeze, "every decrease freezes");
                    }
                }
            }
        }
    }

    #[test]
    fn underperformer_always_gets_inc() {
        for others in [
            None,
            Some(P::Underperf),
            Some(P::Achieve),
            Some(P::Overperf),
        ] {
            for frozen in [true, false] {
                let (s, _) = decide(P::Underperf, others, frozen);
                assert_eq!(s, S::Inc);
            }
        }
    }

    #[test]
    fn combine_is_worst_case() {
        assert_eq!(combine_others([None, None]), None);
        assert_eq!(
            combine_others([Some(P::Overperf), Some(P::Overperf)]),
            Some(P::Overperf)
        );
        assert_eq!(
            combine_others([Some(P::Overperf), Some(P::Achieve)]),
            Some(P::Achieve)
        );
        assert_eq!(
            combine_others([Some(P::Achieve), Some(P::Underperf), Some(P::Overperf)]),
            Some(P::Underperf)
        );
        assert_eq!(combine_others([None, Some(P::Overperf)]), Some(P::Overperf));
    }
}
