//! Host-time tracing from outside the stack.
//!
//! The benchmark cannot put spans inside the program, so it times the
//! telemetry stream instead: a [`TimingSink`] stamps host time at every
//! event a shard emits, and each gap between two stamps is given to
//! the layer that ran in it ([`gap_layer`]). The time spent inside the
//! wrapped sink (encoding and the metrics fold) is a span of its own,
//! whose self time excludes the encode child ([`self_time`]).

use std::time::Instant;

use hars_core::{TelemetryEvent, TelemetrySink};

/// A layer of the stack, named for the module whose code ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `hmp_sim`: engine advance plus the driver's per-heartbeat
    /// bookkeeping.
    Engine,
    /// `scenario`: an isolated solo calibration run.
    Calibrate,
    /// `scenario`: shard setup before the first event and the books
    /// closed after the last.
    Driver,
    /// `mp_hars`: a manager decision (`MpHarsManager::on_heartbeat`).
    Decide,
    /// `telemetry`: JSON encoding and writing of one event.
    Encode,
    /// `obs`: the metrics fold over one event.
    Fold,
    /// The tracer's own cost inside a sink that forwards nowhere.
    Trace,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 7] = [
        Layer::Engine,
        Layer::Calibrate,
        Layer::Driver,
        Layer::Decide,
        Layer::Encode,
        Layer::Fold,
        Layer::Trace,
    ];

    /// The span name written to the trace file.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Engine => "hmp_sim.advance",
            Layer::Calibrate => "scenario.calibrate",
            Layer::Driver => "scenario.driver",
            Layer::Decide => "mp_hars.decide",
            Layer::Encode => "telemetry.encode",
            Layer::Fold => "obs.fold",
            Layer::Trace => "trace.self",
        }
    }
}

/// The gap-to-layer rule: which layer ran between an event of kind
/// `prev` and the next event of kind `next` (`None` marks the shard's
/// start or end).
///
/// * After `cache_miss` the driver runs the isolated calibration.
/// * Between a heartbeat's `heartbeat_rate` (or the `satisfaction`
///   flip that follows it) and `decision`, only the manager ran.
/// * Before the first event and after the last the driver sets up and
///   closes the books.
/// * Every other gap is engine advance up to the next heartbeat or
///   arrival, with the driver's bookkeeping. That includes manager
///   heartbeats that return no decision, and decisions with no rate
///   event before them (a tenant's initial allocation at its first
///   heartbeat), whose gap also holds the engine advance.
pub fn gap_layer(prev: Option<&str>, next: Option<&str>) -> Layer {
    match (prev, next) {
        (Some("cache_miss"), _) => Layer::Calibrate,
        (Some("heartbeat_rate" | "satisfaction"), Some("decision")) => Layer::Decide,
        (None, _) | (_, None) => Layer::Driver,
        _ => Layer::Engine,
    }
}

/// Self time of `span` (`[start, end)` in ns): its duration minus the
/// part its `children` cover, overlapping children counted once.
pub fn self_time(span: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(span.0), e.min(span.1)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = span.0;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (span.1 - span.0) - covered
}

/// One recorded span, in ns since the trace origin.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The layer that ran.
    pub layer: Layer,
    /// Start (ns since the trace origin).
    pub start: u64,
    /// End (ns since the trace origin).
    pub end: u64,
}

/// Times the encode-and-write of every event forwarded to `inner`.
#[derive(Debug)]
pub struct EncodeTimer<S> {
    inner: S,
    origin: Instant,
    /// Encode spans, one per event.
    spans: Vec<(u64, u64)>,
}

impl<S> EncodeTimer<S> {
    /// Wraps `inner`, stamping against `origin`.
    pub fn new(inner: S, origin: Instant) -> Self {
        Self {
            inner,
            origin,
            spans: Vec::new(),
        }
    }

    /// Hands the inner sink back with the recorded spans.
    pub fn finish(self) -> (S, Vec<(u64, u64)>) {
        (self.inner, self.spans)
    }
}

impl<S: TelemetrySink> TelemetrySink for EncodeTimer<S> {
    fn emit(&mut self, event: &TelemetryEvent) {
        let start = ns_since(self.origin);
        self.inner.emit(event);
        self.spans.push((start, ns_since(self.origin)));
    }
}

/// What one shard's tracer recorded.
#[derive(Debug, Default)]
pub struct ShardTrace {
    /// Every span, in order; consecutive spans share their boundary.
    pub spans: Vec<Span>,
    /// Events seen.
    pub events: u64,
    /// `decision` events seen.
    pub decisions: u64,
    /// Search evaluations summed over `decision` events.
    pub evaluated: u64,
}

/// The per-shard tracer: stamps every event, gives each gap to a layer,
/// and records the span of the forwarded `inner` sink.
#[derive(Debug)]
pub struct TimingSink<S> {
    inner: S,
    /// The layer the forwarded sink's own time belongs to.
    inner_layer: Layer,
    origin: Instant,
    last: u64,
    prev: Option<&'static str>,
    trace: ShardTrace,
}

impl<S: TelemetrySink> TimingSink<S> {
    /// Starts a shard's trace now; `origin` is the run's shared clock
    /// origin.
    pub fn start(inner: S, inner_layer: Layer, origin: Instant) -> Self {
        Self {
            inner,
            inner_layer,
            origin,
            last: ns_since(origin),
            prev: None,
            trace: ShardTrace::default(),
        }
    }

    /// Closes the trailing gap; returns the inner sink and the trace.
    pub fn close(mut self) -> (S, ShardTrace) {
        let now = ns_since(self.origin);
        self.push(gap_layer(self.prev, None), now);
        (self.inner, self.trace)
    }

    fn push(&mut self, layer: Layer, end: u64) {
        self.trace.spans.push(Span {
            layer,
            start: self.last,
            end,
        });
        self.last = end;
    }
}

impl<S: TelemetrySink> TelemetrySink for TimingSink<S> {
    fn emit(&mut self, event: &TelemetryEvent) {
        let now = ns_since(self.origin);
        let kind = event.kind();
        self.push(gap_layer(self.prev, Some(kind)), now);
        self.trace.events += 1;
        if let TelemetryEvent::Decision { stats, .. } = event {
            self.trace.decisions += 1;
            self.trace.evaluated += stats.evaluated as u64;
        }
        self.inner.emit(event);
        let layer = self.inner_layer;
        self.push(layer, ns_since(self.origin));
        self.prev = Some(kind);
    }
}

/// Host ns elapsed since `origin`.
pub fn ns_since(origin: Instant) -> u64 {
    origin.elapsed().as_nanos() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gaps_go_to_the_layer_that_ran() {
        assert_eq!(
            gap_layer(Some("cache_miss"), Some("tenant_admitted")),
            Layer::Calibrate
        );
        assert_eq!(
            gap_layer(Some("heartbeat_rate"), Some("decision")),
            Layer::Decide
        );
        assert_eq!(
            gap_layer(Some("satisfaction"), Some("decision")),
            Layer::Decide
        );
        assert_eq!(
            gap_layer(Some("decision"), Some("heartbeat_rate")),
            Layer::Engine
        );
        // An initial allocation has no rate event before it: the gap
        // also holds the engine advance to the tenant's first heartbeat.
        assert_eq!(
            gap_layer(Some("tenant_admitted"), Some("decision")),
            Layer::Engine
        );
        assert_eq!(
            gap_layer(Some("admission"), Some("cache_hit")),
            Layer::Engine
        );
        assert_eq!(gap_layer(None, Some("admission")), Layer::Driver);
        assert_eq!(gap_layer(Some("cluster_power"), None), Layer::Driver);
        // A calibration is the last thing a shard can do before it ends.
        assert_eq!(gap_layer(Some("cache_miss"), None), Layer::Calibrate);
    }

    #[test]
    fn self_time_subtracts_covered_children_once() {
        assert_eq!(self_time((0, 100), &[]), 100);
        assert_eq!(self_time((0, 100), &[(10, 20), (30, 50)]), 70);
        // Overlapping and nested children are counted once.
        assert_eq!(self_time((0, 100), &[(10, 40), (20, 30), (35, 60)]), 50);
        // Children are clipped to the span.
        assert_eq!(self_time((10, 20), &[(0, 15), (18, 99)]), 3);
        assert_eq!(self_time((10, 20), &[(20, 30), (0, 10)]), 10);
    }

    #[test]
    fn timing_sink_accounts_for_every_nanosecond() {
        let origin = Instant::now();
        let mut sink = TimingSink::start(hars_core::NullSink, Layer::Trace, origin);
        let start = sink.last;
        for t_ns in 0..50 {
            sink.emit(&TelemetryEvent::CacheMiss {
                t_ns,
                bench: "swaptions",
                threads: 2,
            });
        }
        let (_, trace) = sink.close();
        let covered: u64 = trace.spans.iter().map(|s| s.end - s.start).sum();
        let end = trace.spans.last().expect("spans").end;
        assert_eq!(covered, end - start);
        assert_eq!(trace.events, 50);
        assert_eq!(trace.spans.len(), 101);
        assert!(trace.spans.windows(2).all(|w| w[0].end == w[1].start));
    }
}
