//! Admission control: what happens when a tenant arrives on a busy
//! board.
//!
//! In an open system, "run it and hope" is itself a policy — and often
//! a bad one. An [`AdmissionPolicy`] decides per arrival whether the
//! tenant starts immediately, waits in a FIFO queue, or is turned away,
//! based on the runtime's current [`LoadEstimate`]. Queued and rejected
//! arrivals are first-class outcomes reported in
//! [`crate::ScenarioOutcome`].

/// The driver's estimate of how loaded the platform is at an arrival
/// instant.
///
/// For MP-HARS runs the per-cluster values are the manager's ownership
/// shares (`1 − free/size` from the Table 4.2 free lists) — cores the
/// partitioner has granted, whether or not their owner is saturating
/// them — and `total` additionally counts the thread demand of tenants
/// admitted but not yet through their first-heartbeat allocation. For
/// manager-less GTS runs the values are the thread-pressure ratio
/// (runnable tenant threads over board cores, uncapped: values above
/// 1.0 mean time-sharing).
#[derive(Debug, Clone, PartialEq)]
pub struct LoadEstimate {
    /// Per-cluster load estimate, indexed by cluster.
    pub per_cluster: Vec<f64>,
    /// Whole-board load: total owned cores / total cores (MP-HARS) or
    /// total live threads / total cores (GTS).
    pub total: f64,
    /// Live (admitted, unfinished) tenants.
    pub live_tenants: usize,
}

/// What to do with one arriving tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionDecision {
    /// Start the tenant now.
    Admit,
    /// Hold the tenant in the FIFO queue until capacity frees up.
    Queue,
    /// Turn the tenant away; it never runs.
    Reject,
}

/// Per-arrival admission policy. `decide` is also consulted when a
/// departure frees capacity, to drain the FIFO queue head-first; a
/// queued tenant is admitted once `decide` answers [`AdmissionDecision::Admit`]
/// for it.
pub trait AdmissionPolicy: std::fmt::Debug {
    /// Display name for report tables.
    fn name(&self) -> &'static str;

    /// Decides the fate of the next tenant given the current load and
    /// the number of other tenants waiting *ahead* of it (the whole
    /// queue for a fresh arrival; zero for the queue head at drain
    /// time).
    fn decide(&mut self, load: &LoadEstimate, queue_len: usize) -> AdmissionDecision;
}

/// The null policy: every arrival starts immediately (the closed-world
/// default, now explicit).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AlwaysAdmit;

impl AdmissionPolicy for AlwaysAdmit {
    fn name(&self) -> &'static str {
        "always-admit"
    }

    fn decide(&mut self, _load: &LoadEstimate, _queue_len: usize) -> AdmissionDecision {
        AdmissionDecision::Admit
    }
}

/// Rejects arrivals while the estimated board load exceeds `max_load`
/// (load shedding: protect the tenants already running).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapacityGate {
    /// Admission threshold on [`LoadEstimate::total`].
    pub max_load: f64,
}

impl CapacityGate {
    /// A gate at `max_load` (e.g. `0.9` = keep 10% headroom).
    ///
    /// # Panics
    ///
    /// Panics on a non-positive threshold.
    pub fn new(max_load: f64) -> Self {
        assert!(
            max_load.is_finite() && max_load > 0.0,
            "load threshold must be positive"
        );
        Self { max_load }
    }
}

impl AdmissionPolicy for CapacityGate {
    fn name(&self) -> &'static str {
        "capacity-gate"
    }

    fn decide(&mut self, load: &LoadEstimate, _queue_len: usize) -> AdmissionDecision {
        if load.total > self.max_load {
            AdmissionDecision::Reject
        } else {
            AdmissionDecision::Admit
        }
    }
}

/// FIFO backpressure: arrivals beyond `max_load` wait in a bounded
/// queue (drained head-first as departures free capacity); arrivals
/// that find the queue full are rejected.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundedQueue {
    /// Admission threshold on [`LoadEstimate::total`].
    pub max_load: f64,
    /// Maximum tenants waiting at once.
    pub capacity: usize,
}

impl BoundedQueue {
    /// A queue of `capacity` slots behind a `max_load` gate.
    ///
    /// # Panics
    ///
    /// Panics on a non-positive threshold or zero capacity.
    pub fn new(max_load: f64, capacity: usize) -> Self {
        assert!(
            max_load.is_finite() && max_load > 0.0,
            "load threshold must be positive"
        );
        assert!(capacity > 0, "queue capacity must be positive");
        Self { max_load, capacity }
    }
}

impl AdmissionPolicy for BoundedQueue {
    fn name(&self) -> &'static str {
        "bounded-queue"
    }

    fn decide(&mut self, load: &LoadEstimate, queue_len: usize) -> AdmissionDecision {
        if load.total <= self.max_load && queue_len == 0 {
            // Capacity available and nobody ahead: start now. (With
            // waiters ahead, FIFO order wins — the arrival queues.)
            AdmissionDecision::Admit
        } else if queue_len < self.capacity {
            AdmissionDecision::Queue
        } else {
            AdmissionDecision::Reject
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load(total: f64) -> LoadEstimate {
        LoadEstimate {
            per_cluster: vec![total, total],
            total,
            live_tenants: 1,
        }
    }

    #[test]
    fn always_admit_admits() {
        assert_eq!(
            AlwaysAdmit.decide(&load(99.0), 42),
            AdmissionDecision::Admit
        );
    }

    #[test]
    fn capacity_gate_sheds_over_threshold() {
        let mut g = CapacityGate::new(0.75);
        assert_eq!(g.decide(&load(0.5), 0), AdmissionDecision::Admit);
        assert_eq!(g.decide(&load(0.75), 0), AdmissionDecision::Admit);
        assert_eq!(g.decide(&load(0.76), 0), AdmissionDecision::Reject);
    }

    #[test]
    fn bounded_queue_queues_then_rejects() {
        let mut q = BoundedQueue::new(0.75, 2);
        assert_eq!(q.decide(&load(0.5), 0), AdmissionDecision::Admit);
        // Loaded: queue while there is room, then reject.
        assert_eq!(q.decide(&load(0.9), 0), AdmissionDecision::Queue);
        assert_eq!(q.decide(&load(0.9), 1), AdmissionDecision::Queue);
        assert_eq!(q.decide(&load(0.9), 2), AdmissionDecision::Reject);
        // Even with capacity free, FIFO order holds behind waiters.
        assert_eq!(q.decide(&load(0.1), 1), AdmissionDecision::Queue);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        let _ = BoundedQueue::new(0.5, 0);
    }
}
