//! Streaming telemetry: the serializable event vocabulary the runtime
//! emits, its line codec, and the [`TelemetrySink`] trait consumers
//! implement.
//!
//! The runtime's observability surface is a flat stream of
//! [`TelemetryEvent`]s — per-decision search cost stamped with the
//! [`ConfigVersion`](crate::config::ConfigVersion) that made the
//! decision, per-tenant satisfaction transitions, per-cluster power,
//! admission verdicts and config accept/reject diagnostics. Producers
//! (the scenario driver, benches) push events into a `&mut dyn
//! TelemetrySink`; the [`NullSink`] default makes telemetry free and
//! keeps every golden output bit-identical, [`VecSink`] captures
//! streams for tests, and the scenario crate's `JsonlSink` writes one
//! JSON object per line for dashboards and replay.
//!
//! The vocabulary is declared once, in the table at the
//! `telemetry_events!` invocation below: one row per event, giving its
//! variant, its kind string and its typed, documented fields. The table
//! generates the [`TelemetryEvent`] enum, [`SCHEMA`],
//! [`TelemetryEvent::kind`], [`TelemetryEvent::t_ns`],
//! [`TelemetryEvent::to_json`] and the strict decoder behind
//! [`parse_line`], so adding an event is adding a row.
//!
//! Serialization is hand-written: a hand-rolled line format is what
//! keeps the schema hash ([`schema_text`]) honest — CI recomputes it and
//! fails when the vocabulary drifts without the golden being updated.

mod codec;

pub use codec::{parse_capture, parse_line, Interner, ParseError};
use codec::{Field, Reader};

use crate::search::SearchStats;

/// The schema field names of one table row: `t_ns`, then each field's
/// name, or its listed members when the field is flattened.
macro_rules! schema_keys {
    ([$($key:expr),*]) => { &[$($key),*] };
    ([$($key:expr),*] $field:ident [$($member:ident),+] $($rest:tt)*) => {
        schema_keys!([$($key,)* $(stringify!($member)),+] $($rest)*)
    };
    ([$($key:expr),*] $field:ident $($rest:tt)*) => {
        schema_keys!([$($key,)* stringify!($field)] $($rest)*)
    };
}

/// Appends one table field as `,"name":value`, or each listed member
/// of a flattened field in turn.
macro_rules! encode_field {
    ($out:ident, $field:ident [$($member:ident),+]) => {
        $(
            $out.push_str(concat!(",\"", stringify!($member), "\":"));
            $field.$member.encode(&mut $out);
        )+
    };
    ($out:ident, $field:ident) => {
        $out.push_str(concat!(",\"", stringify!($field), "\":"));
        $field.encode(&mut $out);
    };
}

/// Reads one table field back, mirroring `encode_field!`.
macro_rules! decode_field {
    ($r:ident, $field:ident: $ty:ty [$($member:ident),+]) => {{
        // A struct literal cannot name a `ty` fragment; an alias can.
        type Flat = $ty;
        Flat {
            $($member: $r.field(stringify!($member))?,)+
        }
    }};
    ($r:ident, $field:ident: $ty:ty) => {
        $r.field(stringify!($field))?
    };
}

/// Expands the vocabulary table into the event enum, `SCHEMA`, and
/// the encoder and decoder. Every row gets a leading `t_ns: u64`
/// field. A field followed by `[a, b, ...]` is flattened: it is written
/// as its struct's members `a`, `b`, ... in that order.
macro_rules! telemetry_events {
    ($(
        $(#[$doc:meta])*
        $variant:ident = $kind:literal {
            $($(#[$fdoc:meta])* $field:ident: $ty:ty $([$($member:ident),+])?),* $(,)?
        }
    )*) => {
        /// One telemetry event. Every variant carries the emission instant
        /// `t_ns` (engine clock); [`TelemetryEvent::kind`] is the stable
        /// discriminator the JSON lines lead with.
        #[derive(Debug, Clone, PartialEq)]
        pub enum TelemetryEvent {
            $(
                $(#[$doc])*
                $variant {
                    /// Emission instant (engine ns).
                    t_ns: u64,
                    $($(#[$fdoc])* $field: $ty,)*
                },
            )*
        }

        /// The stable event vocabulary: `(kind, field names)` per variant,
        /// in emission-format order. This is what the schema hash covers —
        /// adding an event or a field changes it, value changes do not.
        pub const SCHEMA: &[(&str, &[&str])] = &[
            $(($kind, schema_keys!(["t_ns"] $($field $([$($member),+])?)*)),)*
        ];

        impl TelemetryEvent {
            /// The stable discriminator: the row's kind string in the
            /// vocabulary table.
            pub fn kind(&self) -> &'static str {
                match self {
                    $(Self::$variant { .. } => $kind,)*
                }
            }

            /// The emission instant (engine ns).
            pub fn t_ns(&self) -> u64 {
                match self {
                    $(Self::$variant { t_ns, .. })|* => *t_ns,
                }
            }

            /// One JSON object (no trailing newline), field order as in
            /// [`SCHEMA`]. Floats use Rust's shortest round-trip form
            /// (`{:?}`) when finite and `null` otherwise; strings escape
            /// `"`, `\`, newline and tab — exactly what [`parse_line`]
            /// decodes.
            pub fn to_json(&self) -> String {
                let mut out = String::with_capacity(128);
                match self {
                    $(Self::$variant { t_ns, $($field),* } => {
                        out.push_str(concat!("{\"event\":\"", $kind, "\",\"t_ns\":"));
                        t_ns.encode(&mut out);
                        $(encode_field!(out, $field $([$($member),+])?);)*
                    })*
                }
                out.push('}');
                out
            }

            /// Reads a `kind` event's fields from `r`, in schema order.
            fn decode(kind: &str, r: &mut Reader<'_>) -> Result<Self, String> {
                Ok(match kind {
                    $($kind => Self::$variant {
                        t_ns: r.field("t_ns")?,
                        $($field: decode_field!(r, $field: $ty $([$($member),+])?),)*
                    },)*
                    _ => return Err(format!("unknown event kind {kind:?}")),
                })
            }
        }
    };
}

telemetry_events! {
    /// A runtime-manager decision: which app re-pinned, under which
    /// config version, at what modeled search cost.
    Decision = "decision" {
        /// The deciding application's id.
        app: u64,
        /// The manager's config version at decision time.
        config_version: u64,
        /// The decision's search-cost accounting, written flattened as
        /// its six members.
        stats: SearchStats [explored, evaluated, best_rank_changes, wall_ns, nodes, truncated],
    }
    /// A [`ConfigDelta`](crate::config::ConfigDelta) was accepted.
    ConfigApplied = "config_applied" {
        /// The version the manager moved to.
        version: u64,
    }
    /// A [`ConfigDelta`](crate::config::ConfigDelta) was rejected.
    ConfigRejected = "config_rejected" {
        /// The stable [`RejectReason::code`](crate::config::RejectReason::code).
        reason: &'static str,
    }
    /// An admission verdict for one arriving (or queue-drained) tenant.
    AdmissionVerdict = "admission" {
        /// Tenant index in arrival order.
        tenant: u64,
        /// `"admit"`, `"queue"` or `"reject"`.
        verdict: &'static str,
    }
    /// The admission policy was swapped mid-run.
    AdmissionSwapped = "admission_swapped" {
        /// The new policy's display name.
        policy: &'static str,
    }
    /// The scenario's SLO guard band changed mid-run (applies to
    /// tenants registered from now on).
    GuardChanged = "guard_changed" {
        /// The new guard fraction.
        target_guard: f64,
    }
    /// A tenant's windowed rate crossed its target minimum (either
    /// direction). Emitted on transitions only, not per heartbeat.
    SatisfactionFlip = "satisfaction" {
        /// Tenant index in arrival order.
        tenant: u64,
        /// `true`: now meeting the target minimum.
        satisfied: bool,
    }
    /// One cluster's average power so far (reported at reconfigure
    /// instants and at scenario end).
    ClusterPower = "cluster_power" {
        /// Cluster index.
        cluster: usize,
        /// Average power over [0, `t_ns`] (W).
        watts: f64,
    }
    /// A solo-rate calibration lookup was served from the cache: the
    /// tenant's target resolved without an isolated calibration run.
    CacheHit = "cache_hit" {
        /// The benchmark whose solo rate was requested.
        bench: &'static str,
        /// The requested thread count.
        threads: u64,
    }
    /// A solo-rate calibration lookup missed: an isolated calibration
    /// run was paid for and its result inserted into the cache.
    CacheMiss = "cache_miss" {
        /// The benchmark whose solo rate was requested.
        bench: &'static str,
        /// The requested thread count.
        threads: u64,
    }
    /// A fleet placement decision: which board an arriving tenant was
    /// routed to, at what estimated-load score. Emitted by the fleet
    /// placement tier; `board` is `u64::MAX` for fleet-rejected
    /// tenants (every board's admission gate refused the arrival).
    Placement = "placement" {
        /// Tenant index in fleet arrival order.
        tenant: u64,
        /// The chosen board's shard index (`u64::MAX` = rejected).
        board: u64,
        /// The chosen board's placement score (estimated load plus
        /// penalties; lower is better). Infinity for rejections.
        score: f64,
    }
    /// A tenant crossed from the admission gate into the runtime: its
    /// target band is resolved and the app is registered. Carries the
    /// class identity (benchmark) the observability layer's SLO
    /// rollups group by, and the admission-queue wait the
    /// queue-percentile histograms fold in.
    TenantAdmitted = "tenant_admitted" {
        /// Tenant index in arrival order.
        tenant: u64,
        /// The tenant's benchmark (its template class).
        bench: &'static str,
        /// The tenant's thread count.
        threads: u64,
        /// The resolved target band minimum (hb/s).
        target_min: f64,
        /// Time spent waiting for admission (ns; 0 when admitted on
        /// arrival).
        queue_wait_ns: u64,
    }
    /// A tenant finished its heartbeat budget and left the runtime.
    /// Closes the tenant's timeline; tenants still running at the
    /// scenario horizon never emit one.
    TenantDeparted = "tenant_departed" {
        /// Tenant index in arrival order.
        tenant: u64,
        /// Heartbeats the tenant emitted over its whole tenancy.
        heartbeats: u64,
    }
    /// One rated heartbeat: the tenant's windowed rate at this
    /// instant, and whether it cleared the tenant's own target-band
    /// minimum. This is the per-tenant heartbeat-latency series —
    /// high-volume by design (one event per rated heartbeat), which
    /// the free [`NullSink`] default makes costless.
    HeartbeatRate = "heartbeat_rate" {
        /// Tenant index in arrival order.
        tenant: u64,
        /// The windowed heartbeat rate (hb/s).
        rate_hz: f64,
        /// `true` when `rate_hz` meets the tenant's target minimum.
        satisfied: bool,
    }
    /// A platform fault was injected by the deterministic fault plane
    /// (`hmp_sim::FaultPlan`). `cluster` is `-1` for board-scoped
    /// faults; `until_ns` is `u64::MAX` for permanent ones.
    FaultInjected = "fault_injected" {
        /// The fault's stable discriminator
        /// ([`FaultKind::name`](hmp_sim::FaultKind::name)).
        fault: &'static str,
        /// Affected cluster index, `-1` when board-scoped.
        cluster: i64,
        /// Recovery instant (exclusive; `u64::MAX` = permanent).
        until_ns: u64,
    }
    /// The runtime quarantined a cluster in reaction to a thermal-cap
    /// or offline fault: the manager's search space no longer grows
    /// onto it and its frequency is pinned.
    ClusterQuarantined = "cluster_quarantined" {
        /// Quarantined cluster index.
        cluster: usize,
        /// `"cap"` (frequency pinned at the floor) or `"offline"`
        /// (additionally evicted from the core search space).
        mode: &'static str,
        /// Quarantine expiry (exclusive; `u64::MAX` = permanent).
        until_ns: u64,
    }
    /// A cluster's quarantine expired: the runtime returned it to the
    /// search space.
    ClusterRestored = "cluster_restored" {
        /// Restored cluster index.
        cluster: usize,
    }
    /// The board died mid-run: serving stops, in-flight tenants are
    /// marked for failover by the fleet supervisor.
    BoardFailed = "board_failed" {
        /// Tenants that were in flight (admitted, budget incomplete).
        tenants_in_flight: u64,
    }
    /// Degraded-mode calibration: a sensor-fault window was active at
    /// admission, so the tenant's target was resolved from the
    /// last-known-good solo rate instead of a fresh calibration run.
    DegradedCalibration = "degraded_calibration" {
        /// Tenant index in arrival order.
        tenant: u64,
        /// The benchmark whose stale solo rate was reused.
        bench: &'static str,
        /// Staleness of the reused rate (ns since it was calibrated).
        age_ns: u64,
    }
    /// The fleet supervisor failed a tenant over from a dead board onto
    /// a surviving one (capped retries, deterministic backoff). `t_ns`
    /// is the rescheduled arrival.
    TenantFailedOver = "tenant_failed_over" {
        /// Tenant index in fleet arrival order.
        tenant: u64,
        /// The dead board's shard index.
        from_board: u64,
        /// The surviving destination's shard index (`u64::MAX` = no
        /// feasible destination; the tenant is lost).
        to_board: u64,
        /// Failover attempt number (1-based).
        attempt: u64,
    }
}

/// The canonical schema text (one `kind: field,field,...` line per
/// event) whose SHA-256 is the CI schema golden
/// (`ci/telemetry_schema.sha256`).
pub fn schema_text() -> String {
    let mut s = String::from("hars telemetry schema v1\n");
    for (kind, fields) in SCHEMA {
        s.push_str(kind);
        s.push_str(": ");
        s.push_str(&fields.join(","));
        s.push('\n');
    }
    s
}

impl TelemetryEvent {
    /// The tenant a tenant-scoped event refers to (arrival-order
    /// index), `None` for run-scoped events. The observability layer's
    /// per-tenant timelines key on this.
    pub fn tenant(&self) -> Option<u64> {
        match self {
            TelemetryEvent::AdmissionVerdict { tenant, .. }
            | TelemetryEvent::SatisfactionFlip { tenant, .. }
            | TelemetryEvent::Placement { tenant, .. }
            | TelemetryEvent::TenantAdmitted { tenant, .. }
            | TelemetryEvent::TenantDeparted { tenant, .. }
            | TelemetryEvent::HeartbeatRate { tenant, .. }
            | TelemetryEvent::DegradedCalibration { tenant, .. }
            | TelemetryEvent::TenantFailedOver { tenant, .. } => Some(*tenant),
            _ => None,
        }
    }
}

/// A telemetry consumer. Sinks must be cheap when idle — the driver
/// calls [`TelemetrySink::emit`] on the hot path — and must never
/// influence the simulation (events are read-only borrows).
pub trait TelemetrySink: std::fmt::Debug {
    /// Consumes one event.
    fn emit(&mut self, event: &TelemetryEvent);
}

// A `&mut` to any sink is itself a sink, so composing sinks (a metrics
// fold teeing into a JSONL writer, say) never forces a move: wrappers
// can borrow their inner sink for the run and hand it back after.
impl<T: TelemetrySink + ?Sized> TelemetrySink for &mut T {
    fn emit(&mut self, event: &TelemetryEvent) {
        (**self).emit(event);
    }
}

/// The default sink: drops everything. With it, a telemetry-threaded
/// run is bit-identical to a pre-telemetry run — the golden contract.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSink;

impl TelemetrySink for NullSink {
    fn emit(&mut self, _event: &TelemetryEvent) {}
}

/// An in-memory sink for tests and replay checks.
#[derive(Debug, Clone, Default)]
pub struct VecSink {
    /// Every event emitted, in order.
    pub events: Vec<TelemetryEvent>,
}

impl VecSink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }
}

impl TelemetrySink for VecSink {
    fn emit(&mut self, event: &TelemetryEvent) {
        self.events.push(event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenant_accessor_covers_tenant_scoped_events() {
        let scoped = TelemetryEvent::HeartbeatRate {
            t_ns: 1,
            tenant: 9,
            rate_hz: 3.0,
            satisfied: false,
        };
        assert_eq!(scoped.tenant(), Some(9));
        let unscoped = TelemetryEvent::ConfigApplied {
            t_ns: 1,
            version: 2,
        };
        assert_eq!(unscoped.tenant(), None);
    }

    #[test]
    fn mut_refs_compose_as_sinks() {
        let mut inner = VecSink::new();
        {
            let mut as_dyn: &mut dyn TelemetrySink = &mut inner;
            as_dyn.emit(&TelemetryEvent::ConfigApplied {
                t_ns: 1,
                version: 1,
            });
            let reborrow = &mut as_dyn;
            reborrow.emit(&TelemetryEvent::ConfigApplied {
                t_ns: 2,
                version: 2,
            });
        }
        assert_eq!(inner.events.len(), 2);
    }

    #[test]
    fn rejected_placement_scores_serialize_as_null() {
        let ev = TelemetryEvent::Placement {
            t_ns: 5,
            tenant: 2,
            board: u64::MAX,
            score: f64::INFINITY,
        };
        assert!(ev.to_json().contains("\"score\":null"), "{}", ev.to_json());
    }

    #[test]
    fn float_fields_are_valid_json_numbers() {
        let ev = TelemetryEvent::ClusterPower {
            t_ns: 7,
            cluster: 2,
            watts: 1.0,
        };
        // `{:?}` keeps the decimal point: "1.0", not "1".
        assert_eq!(
            ev.to_json(),
            "{\"event\":\"cluster_power\",\"t_ns\":7,\"cluster\":2,\"watts\":1.0}"
        );
    }

    #[test]
    fn vec_sink_captures_in_order_and_null_sink_drops() {
        let a = TelemetryEvent::ConfigApplied {
            t_ns: 1,
            version: 1,
        };
        let b = TelemetryEvent::ConfigApplied {
            t_ns: 2,
            version: 2,
        };
        let mut vec = VecSink::new();
        vec.emit(&a);
        vec.emit(&b);
        assert_eq!(vec.events, vec![a.clone(), b]);
        let mut null = NullSink;
        null.emit(&a); // no observable effect, and no panic
    }

    #[test]
    fn schema_text_is_deterministic_and_covers_every_kind() {
        let text = schema_text();
        assert_eq!(text, schema_text());
        for (kind, _) in SCHEMA {
            assert!(text.contains(kind));
        }
        assert_eq!(text.lines().count(), SCHEMA.len() + 1);
    }
}
