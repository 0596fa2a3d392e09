use crate::NANOS_PER_SEC;

/// A single heartbeat: a monotonically increasing index paired with the
/// (virtual or wall-clock) time at which the application finished one unit
/// of work.
///
/// ```
/// use heartbeats::HeartbeatRecord;
/// let hb = HeartbeatRecord::new(3, 1_500_000_000);
/// assert_eq!(hb.index(), 3);
/// assert_eq!(hb.timestamp_ns(), 1_500_000_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HeartbeatRecord {
    index: u64,
    timestamp_ns: u64,
}

impl HeartbeatRecord {
    /// Creates a heartbeat record.
    pub fn new(index: u64, timestamp_ns: u64) -> Self {
        Self {
            index,
            timestamp_ns,
        }
    }

    /// Zero-based sequence number of this heartbeat.
    pub fn index(&self) -> u64 {
        self.index
    }

    /// Emission time in nanoseconds.
    pub fn timestamp_ns(&self) -> u64 {
        self.timestamp_ns
    }
}

/// A heartbeat rate: how many units of work complete per second.
///
/// Stored as heartbeats/second; constructed from a heartbeat count and the
/// time span it covers so callers cannot mix the two up.
///
/// ```
/// use heartbeats::HeartbeatRate;
/// let rate = HeartbeatRate::from_span(10, 2_000_000_000).unwrap();
/// assert!((rate.heartbeats_per_sec() - 5.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct HeartbeatRate(f64);

impl HeartbeatRate {
    /// Builds a rate from a raw heartbeats/second value.
    ///
    /// Returns `None` when `hps` is negative or non-finite.
    pub fn from_hps(hps: f64) -> Option<Self> {
        if hps.is_finite() && hps >= 0.0 {
            Some(Self(hps))
        } else {
            None
        }
    }

    /// Builds a rate from `count` heartbeats observed over `span_ns`
    /// nanoseconds. Returns `None` for a zero-length span.
    pub fn from_span(count: u64, span_ns: u64) -> Option<Self> {
        if span_ns == 0 {
            return None;
        }
        Some(Self(count as f64 * NANOS_PER_SEC as f64 / span_ns as f64))
    }

    /// The rate in heartbeats per second.
    pub fn heartbeats_per_sec(&self) -> f64 {
        self.0
    }
}

impl std::fmt::Display for HeartbeatRate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.4} hb/s", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_from_span_basic() {
        let r = HeartbeatRate::from_span(100, NANOS_PER_SEC).unwrap();
        assert!((r.heartbeats_per_sec() - 100.0).abs() < 1e-12);
    }

    #[test]
    fn rate_from_span_zero_span_is_none() {
        assert!(HeartbeatRate::from_span(5, 0).is_none());
    }

    #[test]
    fn rate_from_hps_rejects_bad_values() {
        assert!(HeartbeatRate::from_hps(-1.0).is_none());
        assert!(HeartbeatRate::from_hps(f64::NAN).is_none());
        assert!(HeartbeatRate::from_hps(f64::INFINITY).is_none());
        assert!(HeartbeatRate::from_hps(0.0).is_some());
    }

    #[test]
    fn record_accessors() {
        let hb = HeartbeatRecord::new(7, 42);
        assert_eq!(hb.index(), 7);
        assert_eq!(hb.timestamp_ns(), 42);
    }

    #[test]
    fn display_mentions_units() {
        let r = HeartbeatRate::from_hps(2.5).unwrap();
        assert!(r.to_string().contains("hb/s"));
    }
}
