//! Engine event tracing: an optional, bounded log of scheduling and
//! DVFS events for debugging runs and validating driver behaviour.
//!
//! Disabled by default (zero cost beyond a branch); enable with
//! [`TraceLog::enabled`] or [`crate::Engine::enable_trace`].

use crate::board::ClusterId;
use crate::cpuset::CoreId;
use crate::freq::FreqKhz;

/// One traced engine event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// A cluster's frequency changed.
    FreqChange {
        /// When (ns).
        time_ns: u64,
        /// Which cluster.
        cluster: ClusterId,
        /// Previous operating point.
        from: FreqKhz,
        /// New operating point.
        to: FreqKhz,
    },
    /// A thread moved between cores (GTS migration, affinity change, or
    /// placement after wake-up onto a different core).
    Migration {
        /// When (ns).
        time_ns: u64,
        /// Application index in the engine's table.
        app: u64,
        /// Thread index within the application.
        thread: usize,
        /// Core left (`None` for initial placement).
        from: Option<CoreId>,
        /// Core entered.
        to: CoreId,
    },
    /// An application emitted a heartbeat.
    Heartbeat {
        /// When (ns).
        time_ns: u64,
        /// Application id.
        app: u64,
        /// Heartbeat index.
        index: u64,
    },
}

impl TraceEvent {
    /// The event's timestamp (ns).
    pub fn time_ns(&self) -> u64 {
        match self {
            TraceEvent::FreqChange { time_ns, .. }
            | TraceEvent::Migration { time_ns, .. }
            | TraceEvent::Heartbeat { time_ns, .. } => *time_ns,
        }
    }
}

/// A bounded in-memory event log.
#[derive(Debug, Clone, Default)]
pub struct TraceLog {
    enabled: bool,
    capacity: usize,
    events: Vec<TraceEvent>,
    dropped: u64,
}

impl TraceLog {
    /// A disabled log (records nothing).
    pub fn disabled() -> Self {
        Self::default()
    }

    /// An enabled log retaining up to `capacity` events; further events
    /// are counted as dropped rather than silently lost.
    pub fn enabled(capacity: usize) -> Self {
        Self {
            enabled: true,
            capacity,
            events: Vec::new(),
            dropped: 0,
        }
    }

    /// Whether the log records events.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records an event (no-op when disabled; counts drops when full).
    pub fn record(&mut self, event: TraceEvent) {
        if !self.enabled {
            return;
        }
        if self.events.len() < self.capacity {
            self.events.push(event);
        } else {
            self.dropped += 1;
        }
    }

    /// The recorded events, in order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Events that arrived after the log filled up.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of migration events recorded (a cheap thrash metric).
    pub fn migration_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Migration { .. }))
            .count()
    }

    /// Clears the log (keeps it enabled).
    pub fn clear(&mut self) {
        self.events.clear();
        self.dropped = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn freq_event(t: u64) -> TraceEvent {
        TraceEvent::FreqChange {
            time_ns: t,
            cluster: ClusterId::BIG,
            from: FreqKhz::from_mhz(1_600),
            to: FreqKhz::from_mhz(1_000),
        }
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = TraceLog::disabled();
        log.record(freq_event(1));
        assert!(log.events().is_empty());
        assert_eq!(log.dropped(), 0);
        assert!(!log.is_enabled());
    }

    #[test]
    fn enabled_log_retains_in_order() {
        let mut log = TraceLog::enabled(10);
        log.record(freq_event(1));
        log.record(TraceEvent::Heartbeat {
            time_ns: 2,
            app: 0,
            index: 0,
        });
        assert_eq!(log.events().len(), 2);
        assert!(log.events()[0].time_ns() <= log.events()[1].time_ns());
    }

    #[test]
    fn capacity_bound_counts_drops() {
        let mut log = TraceLog::enabled(2);
        for t in 0..5 {
            log.record(freq_event(t));
        }
        assert_eq!(log.events().len(), 2);
        assert_eq!(log.dropped(), 3);
        log.clear();
        assert!(log.events().is_empty());
        assert_eq!(log.dropped(), 0);
    }

    #[test]
    fn migration_counting() {
        let mut log = TraceLog::enabled(10);
        log.record(TraceEvent::Migration {
            time_ns: 1,
            app: 0,
            thread: 2,
            from: Some(CoreId(0)),
            to: CoreId(4),
        });
        log.record(freq_event(2));
        assert_eq!(log.migration_count(), 1);
    }
}
