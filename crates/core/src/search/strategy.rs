//! The pluggable strategy layer of the search subsystem: the
//! [`SearchStrategy`] trait every decision policy implements, the
//! [`SearchContext`] bundle the managers hand to it, the per-period
//! [`EvalCache`] memoizing [`super::evaluate_state`] by [`StateIndex`],
//! and the shared candidate-ranking machinery (Algorithm 2's
//! satisfaction-first ordering, the tabu/aspiration rules, and the
//! optional ratio-learning [`ExplorationBonus`]).
//!
//! Strategies differ only in *which* states they enumerate; how a
//! candidate is evaluated, ranked against the incumbent, and gated by
//! tabu is identical across them — that is what makes
//! [`ExhaustiveSweep`](super::ExhaustiveSweep) with the same bounds a
//! drop-in, bit-identical replacement for the legacy free functions,
//! and what future policies (EAS-style energy models, exact small-N
//! DP) plug into.

use std::collections::HashMap;

use heartbeats::PerfTarget;
use hmp_sim::MAX_CLUSTERS;

use crate::perf_est::PerfEstimator;
use crate::power_est::PowerEstimator;
use crate::state::{StateIndex, StateSpace, SystemState};

use super::delta::PartialEvaluator;
use super::{CandidateEval, SearchConstraints, SearchOutcome};

/// Cost accounting of one search (or, summed, of a whole run): how many
/// candidates the strategy *considered*, how many distinct states the
/// estimators actually *evaluated* (cache misses — the unit the
/// runtime-overhead model charges), how often the incumbent best
/// changed (a convergence diagnostic: a beam whose best never changes
/// after ring 1 is over-provisioned), the modeled decision time, and
/// whether an anytime budget cut the search short.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SearchStats {
    /// Candidate states considered, including the current state and
    /// cache hits.
    pub explored: usize,
    /// Distinct states evaluated by the estimators (cache misses).
    pub evaluated: usize,
    /// Times the incumbent best candidate was replaced.
    pub best_rank_changes: usize,
    /// Modeled decision time (ns), charged on the sim clock as
    /// `evaluated × cost_per_state_ns` by the managers — monotonic and
    /// deterministic, so overhead reporting reads it directly instead
    /// of re-deriving it from `evaluated` and a config knob.
    pub wall_ns: u64,
    /// Enumeration nodes walked to *produce* the candidates — the
    /// distance-ball tree nodes (or sweep lattice points) visited,
    /// including interior nodes that never became candidates. This is
    /// the per-node micro-cost unit of the overhead model: `wall_ns`
    /// charges `evaluated × cost_per_state_ns + nodes ×
    /// cost_per_node_ns`, so enumeration work the evaluation cache
    /// absorbs still costs decision time.
    pub nodes: u64,
    /// `true` when an anytime budget ([`SearchPolicy::Budgeted`])
    /// stopped the search before it ran to completion and the outcome
    /// is the best-so-far incumbent. ORs across merges: a run-level
    /// total reports whether *any* decision was truncated.
    ///
    /// [`SearchPolicy::Budgeted`]: crate::policy::SearchPolicy::Budgeted
    pub truncated: bool,
}

impl SearchStats {
    /// Accumulates another search's stats (run-level totals).
    pub fn merge(&mut self, other: SearchStats) {
        self.explored += other.explored;
        self.evaluated += other.evaluated;
        self.best_rank_changes += other.best_rank_changes;
        self.wall_ns += other.wall_ns;
        self.nodes += other.nodes;
        self.truncated |= other.truncated;
    }
}

/// The ratio-learning exploration bonus: a tiny multiplicative tiebreak
/// on the ranking keys of candidates whose modeled thread assignment
/// moves share onto a cluster that has not yet collected a full window
/// of learning evidence.
///
/// Rationale (the ROADMAP's learning caveat): a cluster whose assumed
/// ratio is *under*stated loses every close call against the clusters
/// the estimator believes in, so the search never routes threads there
/// and no prediction evidence ever arrives to correct the ratio.
/// Nudging near-ties toward evidence-starved clusters closes that
/// loop. The bonus keys on the *assignment* (threads placed), not on
/// core allocation alone — allocating cores the waterfill leaves idle
/// moves no share and teaches the learner nothing. The bounded
/// `weight` (a few percent) caps how much ranking quality a nudged
/// decision may give up, so clearly-worse states keep losing.
///
/// With `weight == 0` (the default) every ranking key is multiplied by
/// exactly `1.0`, so the search is bit-identical to the bonus-free
/// implementation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExplorationBonus {
    weight: f64,
    needy: [bool; MAX_CLUSTERS],
}

impl ExplorationBonus {
    /// No bonus: ranking is exactly Algorithm 2's.
    pub fn none() -> Self {
        Self {
            weight: 0.0,
            needy: [false; MAX_CLUSTERS],
        }
    }

    /// A bonus of `weight` for growing any cluster flagged in `needy`
    /// (indexed by cluster).
    ///
    /// # Panics
    ///
    /// Panics on a non-finite or negative `weight` (it is a tiebreak,
    /// not a penalty).
    pub fn new(weight: f64, needy: [bool; MAX_CLUSTERS]) -> Self {
        assert!(
            weight.is_finite() && weight >= 0.0,
            "bonus weight must be finite and non-negative"
        );
        Self { weight, needy }
    }

    /// The bonus a manager should run its next search with: `weight`
    /// on every cluster `learner` still flags evidence-starved, or
    /// [`ExplorationBonus::none`] when the weight is zero or no cluster
    /// needs evidence.
    pub fn from_learner(
        weight: f64,
        learner: &crate::ratio_learn::RatioLearner,
        clusters: impl Iterator<Item = hmp_sim::ClusterId>,
    ) -> Self {
        if weight <= 0.0 {
            return Self::none();
        }
        let mut needy = [false; MAX_CLUSTERS];
        let mut any = false;
        for c in clusters {
            if learner.needs_evidence(c) {
                needy[c.index()] = true;
                any = true;
            }
        }
        if !any {
            return Self::none();
        }
        Self::new(weight, needy)
    }

    /// Whether any candidate can receive a bonus at all.
    pub fn is_active(&self) -> bool {
        self.weight > 0.0 && self.needy.iter().any(|&b| b)
    }

    /// The bonus weight.
    pub fn weight(&self) -> f64 {
        self.weight
    }

    /// Whether `cluster` is flagged evidence-starved.
    pub fn is_needy(&self, cluster: hmp_sim::ClusterId) -> bool {
        self.needy[cluster.index()]
    }
}

/// Everything a [`SearchStrategy`] needs to make one decision — the
/// managers build one per adaptation period.
#[derive(Debug, Clone, Copy)]
pub struct SearchContext<'a> {
    /// The board's explorable state space.
    pub space: &'a StateSpace,
    /// The state currently applied (the search center and incumbent).
    pub current: &'a SystemState,
    /// The observed heartbeat rate driving the estimates.
    pub observed_rate: f64,
    /// The application's thread count.
    pub threads: usize,
    /// The target band.
    pub target: &'a PerfTarget,
    /// Per-cluster core/frequency restrictions (MP-HARS partitioning).
    pub constraints: &'a SearchConstraints,
    /// The performance estimator.
    pub perf: &'a PerfEstimator,
    /// The power estimator.
    pub power: &'a PowerEstimator,
    /// Recently visited states to avoid (empty disables tabu).
    pub tabu: &'a [SystemState],
    /// The ratio-learning exploration tiebreak
    /// ([`ExplorationBonus::none`] outside learning runs).
    pub exploration: ExplorationBonus,
    /// Anytime evaluation limit (`None` = unlimited): strategies check
    /// it *before* each estimator evaluation and stop with
    /// [`SearchStats::truncated`] set once `evaluated` reaches it. Set
    /// by [`BudgetedSearch`](super::BudgetedSearch); leave `None`
    /// elsewhere.
    pub eval_limit: Option<usize>,
}

impl SearchContext<'_> {
    /// Evaluates `state` through the per-period cache and wraps it with
    /// its ranking keys. Both the estimator verdict and the exploration
    /// factor are pure functions of the state, so cache hits pay for
    /// neither. Cache misses go through the period's
    /// [`PartialEvaluator`] — the factored, table-driven equivalent of
    /// [`evaluate_state`], bit-identical by construction (and by
    /// proptest).
    ///
    /// [`evaluate_state`]: super::evaluate_state
    pub fn evaluate(
        &self,
        idx: &StateIndex,
        state: &SystemState,
        cache: &mut EvalCache,
    ) -> RankedEval {
        if let Some(&(eval, factor)) = cache.map.get(idx) {
            cache.hits += 1;
            return RankedEval::new(eval, factor);
        }
        if cache.partial.is_none() {
            cache.partial = Some(PartialEvaluator::new(self));
        }
        let eval = cache.partial.as_ref().expect("just built").evaluate(idx);
        let factor = self.bonus_factor(state, cache);
        cache.map.insert(*idx, (eval, factor));
        RankedEval::new(eval, factor)
    }

    /// [`SearchContext::evaluate`] without the memoization map — for
    /// strategies that visit every state exactly once (the exhaustive
    /// sweep's ball enumeration), where probing and populating the map
    /// is pure overhead. The evaluation still counts toward
    /// [`EvalCache::evaluated`] and still goes through the shared
    /// `PartialEvaluator`, so stats and results are identical.
    pub fn evaluate_uncached(
        &self,
        idx: &StateIndex,
        state: &SystemState,
        cache: &mut EvalCache,
    ) -> RankedEval {
        if cache.partial.is_none() {
            cache.partial = Some(PartialEvaluator::new(self));
        }
        let eval = cache.partial.as_ref().expect("just built").evaluate(idx);
        let factor = self.bonus_factor(state, cache);
        cache.uncached += 1;
        RankedEval::new(eval, factor)
    }

    /// `true` once the anytime evaluation limit is exhausted — checked
    /// by every strategy before it evaluates another candidate, so a
    /// budgeted search never exceeds its allowance by more than the
    /// mandatory current-state evaluation.
    pub fn out_of_budget(&self, cache: &EvalCache) -> bool {
        self.eval_limit
            .is_some_and(|limit| cache.evaluated() >= limit)
    }

    /// [`SearchContext::out_of_budget`] for a *specific* next
    /// candidate: a state already in the cache is a free hit under the
    /// overhead model (no charge), so an exhausted budget only stops
    /// the search when the candidate would actually be evaluated.
    /// Used by the frontier, whose descent deliberately revisits
    /// coordinate lines.
    pub fn out_of_budget_for(&self, idx: &StateIndex, cache: &EvalCache) -> bool {
        self.out_of_budget(cache) && !cache.map.contains_key(idx)
    }

    /// The exploration ranking factor of `cand`: `1 + weight` when its
    /// modeled thread assignment places more threads on some
    /// evidence-starved cluster than the current state's does, `1.0`
    /// otherwise (always `1.0` with the bonus inactive — the default).
    /// The current state's assignment is invariant across the search,
    /// so it is computed once and kept in the per-period cache.
    fn bonus_factor(&self, cand: &SystemState, cache: &mut EvalCache) -> f64 {
        if !self.exploration.is_active() {
            return 1.0;
        }
        let cur_a = cache
            .current_assignment
            .get_or_insert_with(|| self.perf.assignment(self.threads, self.current));
        let cand_a = self.perf.assignment(self.threads, cand);
        for c in self.space.cluster_ids() {
            if self.exploration.is_needy(c) && cand_a.threads(c) > cur_a.threads(c) {
                return 1.0 + self.exploration.weight();
            }
        }
        1.0
    }
}

/// The search containers' build hasher ([`crate::fnv`]: deterministic,
/// zero-state, far cheaper per probe than the default SipHash for the
/// small integer keys of the per-period containers).
pub(crate) type FnvBuild = crate::fnv::FnvBuildHasher;

/// A per-adaptation-period memoization cache for candidate
/// evaluations, keyed by [`StateIndex`]. Beam rings and greedy-frontier
/// walks re-derive the same neighbors along different paths; the
/// estimator verdict and the exploration factor are identical, so only
/// the first visit pays for them. The cache also owns the period's
/// [`PartialEvaluator`] — the hoisted current-state barrier time and
/// the per-cluster speed/power partial-term tables delta evaluation
/// recombines per candidate.
#[derive(Debug, Default)]
pub struct EvalCache {
    /// `(estimator verdict, exploration factor)` per visited state.
    map: HashMap<StateIndex, (CandidateEval, f64), FnvBuild>,
    hits: usize,
    /// Evaluations taken through the map-free path
    /// ([`SearchContext::evaluate_uncached`]).
    uncached: usize,
    /// The current state's thread assignment, computed once on demand
    /// for the exploration bonus (see `SearchContext::bonus_factor`).
    current_assignment: Option<crate::assign::ThreadAssignment>,
    /// The period's factored evaluator, built lazily at the first miss.
    partial: Option<PartialEvaluator>,
}

impl EvalCache {
    /// A fresh cache (one per decision).
    pub fn new() -> Self {
        Self::default()
    }

    /// Distinct states evaluated so far (cache misses plus map-free
    /// evaluations).
    pub fn evaluated(&self) -> usize {
        self.map.len() + self.uncached
    }

    /// Lookups served from the cache.
    pub fn hits(&self) -> usize {
        self.hits
    }
}

/// A candidate evaluation paired with its (bonus-adjusted) ranking
/// keys. With no bonus the keys equal the raw evaluation exactly.
#[derive(Debug, Clone, Copy)]
pub struct RankedEval {
    /// The estimators' raw verdict about the state.
    pub eval: CandidateEval,
    key_pp: f64,
    key_rate: f64,
}

impl RankedEval {
    /// Wraps an evaluation with its ranking keys scaled by the
    /// exploration `factor` (`1.0` outside learning runs —
    /// [`SearchContext::evaluate`] computes the right factor for you).
    pub fn new(eval: CandidateEval, factor: f64) -> Self {
        Self {
            eval,
            key_pp: eval.perf_per_watt * factor,
            key_rate: eval.est_rate * factor,
        }
    }

    /// Algorithm 2's ordering on the ranking keys: satisfying beats
    /// non-satisfying; among satisfying, higher perf/watt; among
    /// non-satisfying, higher estimated rate.
    pub fn better_than(&self, other: &RankedEval) -> bool {
        match (self.eval.satisfies, other.eval.satisfies) {
            (true, false) => true,
            (false, true) => false,
            (true, true) => self.key_pp > other.key_pp,
            (false, false) => self.key_rate > other.key_rate,
        }
    }

    /// Total order for beam-frontier sorting: better states first, ties
    /// kept in visit order by the caller's stable sort.
    pub fn cmp_better_first(&self, other: &RankedEval) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        if self.better_than(other) {
            Ordering::Less
        } else if other.better_than(self) {
            Ordering::Greater
        } else {
            Ordering::Equal
        }
    }
}

/// The shared incumbent tracker: holds the best admitted state, applies
/// the tabu/aspiration rules identically across strategies, and counts
/// rank changes. Public so out-of-crate [`SearchStrategy`] impls rank,
/// tabu-gate and aspire exactly like the shipped ones.
#[derive(Debug)]
pub struct BestTracker<'a> {
    tabu: &'a [SystemState],
    best_state: SystemState,
    best: RankedEval,
    rank_changes: usize,
}

impl<'a> BestTracker<'a> {
    /// Starts with the current state as incumbent (`getBetterState`:
    /// the search never moves to a state its estimators rank worse).
    pub fn new(current: SystemState, current_ranked: RankedEval, tabu: &'a [SystemState]) -> Self {
        Self {
            tabu,
            best_state: current,
            best: current_ranked,
            rank_changes: 0,
        }
    }

    /// Whether moving to `cand` is permitted by the tabu list: either
    /// it is not tabu, or it aspires — a target-satisfying candidate
    /// strictly dominating the best seen so far (the classic aspiration
    /// criterion, >5% better perf/watt).
    pub fn admits(&self, cand: &SystemState, ranked: &RankedEval) -> bool {
        if !self.tabu.contains(cand) {
            return true;
        }
        ranked.eval.satisfies && self.best.eval.satisfies && ranked.key_pp > self.best.key_pp * 1.05
    }

    /// Offers a candidate; returns `true` when it became the new best.
    pub fn offer(&mut self, cand: SystemState, ranked: RankedEval) -> bool {
        if self.admits(&cand, &ranked) && ranked.better_than(&self.best) {
            self.best_state = cand;
            self.best = ranked;
            self.rank_changes += 1;
            return true;
        }
        false
    }

    /// Finalizes into a [`SearchOutcome`].
    pub fn finish(self, explored: usize, evaluated: usize) -> SearchOutcome {
        SearchOutcome {
            state: self.best_state,
            eval: self.best.eval,
            stats: SearchStats {
                explored,
                evaluated,
                best_rank_changes: self.rank_changes,
                ..SearchStats::default()
            },
        }
    }
}

/// A decision-search policy: enumerate some subset of the state space
/// around the current state and return the best admitted candidate (or
/// the current state). This is the extension point new policies plug
/// into; the three shipped implementations are
/// [`ExhaustiveSweep`](super::ExhaustiveSweep) (Algorithm 2's bounded
/// sweep), [`BeamSearch`](super::BeamSearch) (best-k ring expansion)
/// and [`GreedyFrontier`](super::GreedyFrontier) (coordinate descent).
///
/// Out-of-crate implementations get the full ranking core: evaluate
/// candidates through [`SearchContext::evaluate`] (or
/// [`SearchContext::evaluate_uncached`]) and track the incumbent with
/// [`BestTracker`] so tabu, aspiration and the satisfaction-first
/// ordering behave exactly like the shipped strategies. Plug one into a
/// running manager with a [`SearchStrategyFactory`]
/// (`RuntimeManager::set_search_strategy_factory` /
/// `MpHarsManager::set_search_strategy_factory`).
pub trait SearchStrategy {
    /// Short display name ("exhaustive", "beam(8,7)", ...).
    fn name(&self) -> &'static str;

    /// Runs the search, additionally reporting every first-visited
    /// candidate (excluding the current state) to `observer` — the hook
    /// the candidate-for-candidate equivalence tests use.
    fn next_state_observed(
        &self,
        ctx: &SearchContext<'_>,
        observer: &mut dyn FnMut(SystemState),
    ) -> SearchOutcome;

    /// Runs the search.
    fn next_state(&self, ctx: &SearchContext<'_>) -> SearchOutcome {
        self.next_state_observed(ctx, &mut |_| {})
    }
}

/// The manager-level hook for out-of-crate search policies: installed
/// with `set_search_strategy_factory`, it is consulted *instead of*
/// [`SearchPolicy::strategy_for`](crate::policy::SearchPolicy::strategy_for)
/// at every decision, with the manager's current over/under-performance
/// verdict and the live
/// [`RuntimeConfig`](crate::config::RuntimeConfig)'s
/// `cost_per_state_ns` so anytime budgets price evaluations the same
/// way the shipped strategies do.
///
/// `Send + Sync` because managers are `Send`-shareable across scenario
/// shards; `Debug` because the managers derive it. The factory itself
/// must be deterministic (same inputs → same strategy) or scenario
/// fingerprint stability is forfeit.
pub trait SearchStrategyFactory: std::fmt::Debug + Send + Sync {
    /// Builds the strategy for one decision.
    fn strategy_for(&self, overperforming: bool, cost_per_state_ns: u64)
        -> Box<dyn SearchStrategy>;
}

/// A concrete, clonable carrier for any shipped strategy — what
/// [`crate::policy::SearchPolicy::strategy_for`] hands the managers,
/// which then call through `&dyn SearchStrategy`.
#[derive(Debug, Clone, PartialEq)]
pub enum AnyStrategy {
    /// Algorithm 2's bounded exhaustive sweep.
    Exhaustive(super::ExhaustiveSweep),
    /// Best-k Manhattan-ring beam search.
    Beam(super::BeamSearch),
    /// Greedy single-dimension coordinate descent.
    Frontier(super::GreedyFrontier),
    /// Any of the above under an anytime decision budget.
    Budgeted(super::BudgetedSearch),
}

impl SearchStrategy for AnyStrategy {
    fn name(&self) -> &'static str {
        match self {
            AnyStrategy::Exhaustive(s) => s.name(),
            AnyStrategy::Beam(s) => s.name(),
            AnyStrategy::Frontier(s) => s.name(),
            AnyStrategy::Budgeted(s) => s.name(),
        }
    }

    fn next_state_observed(
        &self,
        ctx: &SearchContext<'_>,
        observer: &mut dyn FnMut(SystemState),
    ) -> SearchOutcome {
        match self {
            AnyStrategy::Exhaustive(s) => s.next_state_observed(ctx, observer),
            AnyStrategy::Beam(s) => s.next_state_observed(ctx, observer),
            AnyStrategy::Frontier(s) => s.next_state_observed(ctx, observer),
            AnyStrategy::Budgeted(s) => s.next_state_observed(ctx, observer),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval(satisfies: bool, pp: f64, rate: f64) -> CandidateEval {
        CandidateEval {
            est_rate: rate,
            est_watts: 1.0,
            perf_per_watt: pp,
            satisfies,
        }
    }

    fn state(cores: usize) -> SystemState {
        SystemState::new(&[(cores, hmp_sim::FreqKhz::from_mhz(1_000))])
    }

    #[test]
    fn ranking_matches_algorithm_2() {
        let sat_low = RankedEval::new(eval(true, 1.0, 5.0), 1.0);
        let sat_high = RankedEval::new(eval(true, 2.0, 4.0), 1.0);
        let unsat_fast = RankedEval::new(eval(false, 9.0, 8.0), 1.0);
        let unsat_slow = RankedEval::new(eval(false, 9.0, 7.0), 1.0);
        assert!(sat_low.better_than(&unsat_fast));
        assert!(sat_high.better_than(&sat_low));
        assert!(unsat_fast.better_than(&unsat_slow));
        assert!(!unsat_fast.better_than(&sat_low));
    }

    #[test]
    fn aspiration_admits_only_dominating_satisfying_tabu_states() {
        let current = state(1);
        let tabu_state = state(2);
        let tabu = [tabu_state];
        let incumbent = RankedEval::new(eval(true, 1.0, 10.0), 1.0);
        let tracker = BestTracker::new(current, incumbent, &tabu);
        // 4% better: under the 5% aspiration bar -> rejected.
        let close = RankedEval::new(eval(true, 1.04, 10.0), 1.0);
        assert!(!tracker.admits(&tabu_state, &close));
        // 6% better and satisfying -> aspires.
        let dominating = RankedEval::new(eval(true, 1.06, 10.0), 1.0);
        assert!(tracker.admits(&tabu_state, &dominating));
        // Non-satisfying never aspires.
        let unsat = RankedEval::new(eval(false, 99.0, 99.0), 1.0);
        assert!(!tracker.admits(&tabu_state, &unsat));
        // Non-tabu states are always admissible.
        assert!(tracker.admits(&state(3), &close));
    }

    #[test]
    fn unit_factor_ranking_keys_are_exact_identity() {
        // The inactive bonus yields factor 1.0, and `x * 1.0` is exact:
        // the keys are bit-identical to the raw evaluation — the
        // invariant the sweep's bit-compatibility rests on.
        let e = eval(true, 0.123456789, 7.654321);
        let r = RankedEval::new(e, 1.0);
        assert_eq!(r.key_pp.to_bits(), e.perf_per_watt.to_bits());
        assert_eq!(r.key_rate.to_bits(), e.est_rate.to_bits());
    }

    #[test]
    fn bonus_activation_and_flags() {
        assert!(!ExplorationBonus::none().is_active());
        assert!(!ExplorationBonus::new(0.05, [false; MAX_CLUSTERS]).is_active());
        let mut needy = [false; MAX_CLUSTERS];
        needy[1] = true;
        let bonus = ExplorationBonus::new(0.05, needy);
        assert!(bonus.is_active());
        assert!(bonus.is_needy(hmp_sim::ClusterId(1)));
        assert!(!bonus.is_needy(hmp_sim::ClusterId(0)));
        assert_eq!(bonus.weight(), 0.05);
    }

    #[test]
    fn stats_merge_accumulates() {
        let mut a = SearchStats {
            explored: 3,
            evaluated: 2,
            best_rank_changes: 1,
            wall_ns: 6_000,
            nodes: 4,
            truncated: false,
        };
        a.merge(SearchStats {
            explored: 10,
            evaluated: 5,
            best_rank_changes: 0,
            wall_ns: 15_000,
            nodes: 11,
            truncated: true,
        });
        assert_eq!(
            a,
            SearchStats {
                explored: 13,
                evaluated: 7,
                best_rank_changes: 1,
                wall_ns: 21_000,
                nodes: 15,
                truncated: true,
            }
        );
        // A later untruncated decision must not clear the run-level flag.
        a.merge(SearchStats::default());
        assert!(a.truncated);
    }
}
