//! Fleet-level outcome reduction: commutative, order-independent
//! merging of per-shard [`ScenarioOutcome`]s.
//!
//! Workers finish shards in nondeterministic order, so the reduction
//! must not care: every aggregate is either a commutative fold (sums,
//! wrapping-add fingerprint terms, max makespan) or computed after a
//! deterministic sort (per-shard rows, satisfaction means). Merging
//! the same shard set in any order yields the identical
//! [`FleetOutcome`], fingerprint included.

use hars_obs::MetricsRollup;
use hars_scenario::ScenarioOutcome;

use crate::placement::Placement;
use crate::spec::mix64;

/// One shard's row in the fleet report.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSummary {
    /// Shard id (board index in the fleet spec).
    pub shard: usize,
    /// Board display name.
    pub board: String,
    /// Runtime label serving the shard.
    pub runtime: &'static str,
    /// Tenants routed to this shard.
    pub arrivals: usize,
    /// Tenants the shard admitted.
    pub admitted: usize,
    /// Tenants that completed their budget.
    pub completed: usize,
    /// Tenants the shard's admission policy turned away at run time.
    pub rejected: usize,
    /// Mean per-tenant target-satisfaction rate on this shard.
    pub mean_satisfaction: f64,
    /// Shard energy (J).
    pub energy_joules: f64,
    /// Shard makespan (s).
    pub makespan_secs: f64,
    /// The shard's own [`ScenarioOutcome::fingerprint`].
    pub fingerprint: u64,
    /// Fault-plane injections this shard observed (0 without faults).
    pub faults_injected: u64,
    /// The instant this shard's board died mid-run, if it did.
    pub board_failed_at: Option<u64>,
}

/// A shard that produced no outcome at all: its worker panicked (a
/// driver bug, distinct from a *simulated* board failure, which yields
/// a normal truncated outcome). Reported as a structured row instead
/// of unwinding through the pool.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardFailure {
    /// Shard id (board index in the fleet spec).
    pub shard: usize,
    /// Board display name.
    pub board: String,
    /// The panic payload, stringified.
    pub reason: String,
}

/// The merged outcome of one fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetOutcome {
    /// Global arrivals within the horizon.
    pub arrivals: usize,
    /// Arrivals routed to a board (rest were fleet-rejected at
    /// placement).
    pub placed: usize,
    /// Arrivals rejected fleet-wide by the placement tier.
    pub fleet_rejected: usize,
    /// Tenants admitted across all shards.
    pub admitted: usize,
    /// Tenants completed across all shards.
    pub completed: usize,
    /// Tenants rejected by shard admission policies at run time.
    pub shard_rejected: usize,
    /// Admission-weighted mean target-satisfaction rate over shards
    /// with at least one admitted tenant.
    pub mean_satisfaction: f64,
    /// Total fleet energy (J).
    pub energy_joules: f64,
    /// Fleet makespan (s): the slowest shard's.
    pub makespan_secs: f64,
    /// Runtime-manager adaptations across all shards.
    pub adaptations: u64,
    /// Solo calibrations served from cache across all shards
    /// (reporting only, not fingerprinted: under a shared cache which
    /// shard pays for a key depends on timing).
    pub solo_cache_hits: u64,
    /// Solo calibrations computed across all shards (reporting only).
    /// Misses are single-flight, so with a shared cache this is the
    /// number of distinct calibration keys at any worker count.
    pub solo_cache_misses: u64,
    /// Per-shard rows, ascending shard id.
    pub shards: Vec<ShardSummary>,
    /// The placement tier's routing digest.
    pub placement_fingerprint: u64,
    /// The order-independent fleet digest (see [`FleetAccum`]).
    pub fingerprint: u64,
    /// The fleet-wide observability rollup — shard-level
    /// [`MetricsRollup`]s merged in ascending shard order (queue-wait
    /// percentiles, heartbeat-latency histograms, per-class SLO
    /// rollups). `Some` only for metrics runs
    /// ([`crate::run_fleet_with_metrics`]); every field of the rollup
    /// is integral, so the merged value is bit-identical for any
    /// worker count. Not part of [`Self::fingerprint`] (observe-only).
    pub metrics: Option<MetricsRollup>,
    /// Fault-plane injections across all shards (0 when the fault
    /// plane is off). Reporting — not part of [`Self::fingerprint`]
    /// (the per-shard fingerprints already cover every behavioral
    /// consequence of a fault).
    pub faults_injected: u64,
    /// Boards that died mid-run to a simulated
    /// [`hmp_sim::FaultKind::BoardFail`]. Not fingerprinted.
    pub boards_failed: u64,
    /// Shards whose worker panicked and produced no outcome (see
    /// [`ShardFailure`]); their tenants are failed over like those of
    /// a dead board when failover is on. Not fingerprinted.
    pub failed_shards: Vec<ShardFailure>,
    /// Successful tenant failovers: victims of a dead board re-placed
    /// onto a surviving board by the shard supervisor. A tenant
    /// retried more than once counts once per landing. Not
    /// fingerprinted.
    pub tenants_failed_over: u64,
    /// Victims the supervisor gave up on: retry budget exhausted, no
    /// surviving board admitted them, or the retry arrival fell past
    /// the horizon. Not fingerprinted.
    pub failover_lost: u64,
    /// Fleet service level in `[0, 1]`: satisfaction-weighted
    /// heartbeats served over heartbeats requested,
    /// `Σ(satisfaction·heartbeats) / Σ(budget)` across every arrival.
    /// Unlike [`Self::mean_satisfaction`] (which averages over tenants
    /// that ran), this charges the fleet for work it never served —
    /// dead boards, lost tenants, rejections — making it the honest
    /// chaos-bench objective: failover raises it, faults lower it. Not
    /// fingerprinted.
    pub service_level: f64,
}

impl FleetOutcome {
    /// Fleet-wide cache hit rate in `[0, 1]` (1.0 when nothing was
    /// looked up).
    pub fn cache_hit_rate(&self) -> f64 {
        let (h, m) = (self.solo_cache_hits, self.solo_cache_misses);
        if h + m == 0 {
            1.0
        } else {
            h as f64 / (h + m) as f64
        }
    }
}

/// The commutative fleet accumulator workers fold shard outcomes into,
/// in whatever order they finish.
///
/// The fingerprint term for shard `i` with outcome fingerprint `f` is
/// `mix64(mix64(i + 1) ^ f)`, and the fleet digest is the *wrapping
/// sum* of all terms (plus the placement digest, folded in at
/// [`FleetAccum::finish`]): addition commutes, so any completion order
/// produces the same digest, while the per-shard mixing keeps the
/// digest sensitive to *which* shard produced *which* outcome.
#[derive(Debug, Default)]
pub struct FleetAccum {
    shards: Vec<ShardSummary>,
    fingerprint_sum: u64,
    adaptations: u64,
    cache_hits: u64,
    cache_misses: u64,
    faults_injected: u64,
    boards_failed: u64,
    /// Shard metrics rollups, tagged by shard id. Collected in
    /// completion order, merged in ascending shard order at
    /// [`FleetAccum::finish`] — the rollup merge is commutative
    /// bit-for-bit anyway (all-integer), but sorting keeps the policy
    /// uniform with the float aggregates above.
    rollups: Vec<(usize, MetricsRollup)>,
}

impl FleetAccum {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Absorbs one finished shard (any order).
    pub fn absorb(
        &mut self,
        shard: usize,
        board: String,
        runtime: &'static str,
        out: &ScenarioOutcome,
    ) {
        let fp = out.fingerprint();
        self.fingerprint_sum = self
            .fingerprint_sum
            .wrapping_add(mix64(mix64(shard as u64 + 1) ^ fp));
        self.adaptations += out.adaptations;
        // Per-run counters sum to the same totals whether shards hit a
        // shared cache or private ones — every lookup is counted at
        // the shard that issued it.
        self.cache_hits += out.solo_cache_hits;
        self.cache_misses += out.solo_cache_misses;
        if let Some(m) = &out.metrics {
            self.rollups.push((shard, m.rollup.clone()));
        }
        self.faults_injected += out.faults_injected;
        self.boards_failed += u64::from(out.board_failed_at.is_some());
        self.shards.push(ShardSummary {
            shard,
            board,
            runtime,
            arrivals: out.arrivals,
            admitted: out.admitted,
            completed: out.completed,
            rejected: out.rejected,
            mean_satisfaction: out.mean_satisfaction,
            energy_joules: out.energy_joules,
            makespan_secs: out.makespan_secs,
            fingerprint: fp,
            faults_injected: out.faults_injected,
            board_failed_at: out.board_failed_at,
        });
    }

    /// Closes the books: sorts shard rows by id, computes the
    /// deterministic aggregates, folds the placement digest into the
    /// fleet fingerprint.
    pub fn finish(mut self, placement: &Placement, arrivals: usize) -> FleetOutcome {
        self.shards.sort_by_key(|s| s.shard);
        self.rollups.sort_by_key(|(shard, _)| *shard);
        let metrics = self.rollups.drain(..).map(|(_, r)| r).reduce(|mut a, b| {
            a.merge(&b);
            a
        });
        let admitted: usize = self.shards.iter().map(|s| s.admitted).sum();
        let completed: usize = self.shards.iter().map(|s| s.completed).sum();
        let shard_rejected: usize = self.shards.iter().map(|s| s.rejected).sum();
        let rated: Vec<&ShardSummary> = self.shards.iter().filter(|s| s.admitted > 0).collect();
        let mean_satisfaction = if rated.is_empty() {
            0.0
        } else {
            rated
                .iter()
                .map(|s| s.mean_satisfaction * s.admitted as f64)
                .sum::<f64>()
                / rated.iter().map(|s| s.admitted as f64).sum::<f64>()
        };
        let placement_fingerprint = placement.fingerprint();
        FleetOutcome {
            arrivals,
            placed: arrivals - placement.fleet_rejected,
            fleet_rejected: placement.fleet_rejected,
            admitted,
            completed,
            shard_rejected,
            mean_satisfaction,
            energy_joules: self.shards.iter().map(|s| s.energy_joules).sum(),
            makespan_secs: self
                .shards
                .iter()
                .map(|s| s.makespan_secs)
                .fold(0.0, f64::max),
            adaptations: self.adaptations,
            solo_cache_hits: self.cache_hits,
            solo_cache_misses: self.cache_misses,
            shards: self.shards,
            placement_fingerprint,
            fingerprint: self
                .fingerprint_sum
                .wrapping_add(mix64(placement_fingerprint)),
            metrics,
            faults_injected: self.faults_injected,
            boards_failed: self.boards_failed,
            // The pool's supervisor fills these after the fold — the
            // accumulator only sees per-shard outcomes, not the
            // supervision history or the global schedule.
            failed_shards: Vec::new(),
            tenants_failed_over: 0,
            failover_lost: 0,
            service_level: 0.0,
        }
    }
}
