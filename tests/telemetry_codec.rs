//! Byte pins for the telemetry line format: one `(event, exact JSON
//! line)` row per event kind, in schema order. A kind added to the
//! vocabulary without a row here fails `rows_follow_schema_order`; a
//! change to how any value is written fails `encoder_bytes_are_pinned`.

use hars::hars_core::search::SearchStats;
use hars::hars_core::telemetry::{parse_line, Interner, SCHEMA};
use hars::hars_core::TelemetryEvent;

fn rows() -> Vec<(TelemetryEvent, &'static str)> {
    vec![
        (
            TelemetryEvent::Decision {
                t_ns: 1_500_000_000,
                app: 3,
                config_version: 2,
                stats: SearchStats {
                    explored: 40,
                    evaluated: 12,
                    best_rank_changes: 3,
                    wall_ns: 48_000,
                    nodes: 97,
                    truncated: true,
                },
            },
            r#"{"event":"decision","t_ns":1500000000,"app":3,"config_version":2,"explored":40,"evaluated":12,"best_rank_changes":3,"wall_ns":48000,"nodes":97,"truncated":true}"#,
        ),
        (
            TelemetryEvent::ConfigApplied {
                t_ns: 2_000_000_000,
                version: 1,
            },
            r#"{"event":"config_applied","t_ns":2000000000,"version":1}"#,
        ),
        (
            TelemetryEvent::ConfigRejected {
                t_ns: 2_000_000_000,
                reason: "zero-budget",
            },
            r#"{"event":"config_rejected","t_ns":2000000000,"reason":"zero-budget"}"#,
        ),
        (
            TelemetryEvent::AdmissionVerdict {
                t_ns: 0,
                tenant: 0,
                verdict: "queue",
            },
            r#"{"event":"admission","t_ns":0,"tenant":0,"verdict":"queue"}"#,
        ),
        (
            TelemetryEvent::AdmissionSwapped {
                t_ns: 5,
                policy: "bounded-queue",
            },
            r#"{"event":"admission_swapped","t_ns":5,"policy":"bounded-queue"}"#,
        ),
        (
            TelemetryEvent::GuardChanged {
                t_ns: 6,
                target_guard: 0.1,
            },
            r#"{"event":"guard_changed","t_ns":6,"target_guard":0.1}"#,
        ),
        (
            TelemetryEvent::SatisfactionFlip {
                t_ns: 7,
                tenant: 2,
                satisfied: false,
            },
            r#"{"event":"satisfaction","t_ns":7,"tenant":2,"satisfied":false}"#,
        ),
        (
            TelemetryEvent::ClusterPower {
                t_ns: 8,
                cluster: 1,
                watts: 1.0,
            },
            r#"{"event":"cluster_power","t_ns":8,"cluster":1,"watts":1.0}"#,
        ),
        (
            TelemetryEvent::CacheHit {
                t_ns: 9,
                bench: "swaptions",
                threads: 4,
            },
            r#"{"event":"cache_hit","t_ns":9,"bench":"swaptions","threads":4}"#,
        ),
        (
            TelemetryEvent::CacheMiss {
                t_ns: 10,
                bench: "blackscholes",
                threads: 8,
            },
            r#"{"event":"cache_miss","t_ns":10,"bench":"blackscholes","threads":8}"#,
        ),
        (
            TelemetryEvent::Placement {
                t_ns: 11,
                tenant: 4,
                board: u64::MAX,
                score: f64::INFINITY,
            },
            r#"{"event":"placement","t_ns":11,"tenant":4,"board":18446744073709551615,"score":null}"#,
        ),
        (
            TelemetryEvent::TenantAdmitted {
                t_ns: 12,
                tenant: 4,
                bench: "bodytrack",
                threads: 2,
                target_min: 6.5,
                queue_wait_ns: 250,
            },
            r#"{"event":"tenant_admitted","t_ns":12,"tenant":4,"bench":"bodytrack","threads":2,"target_min":6.5,"queue_wait_ns":250}"#,
        ),
        (
            TelemetryEvent::TenantDeparted {
                t_ns: 13,
                tenant: 4,
                heartbeats: 60,
            },
            r#"{"event":"tenant_departed","t_ns":13,"tenant":4,"heartbeats":60}"#,
        ),
        (
            TelemetryEvent::HeartbeatRate {
                t_ns: 14,
                tenant: 4,
                rate_hz: 0.1 + 0.2,
                satisfied: true,
            },
            r#"{"event":"heartbeat_rate","t_ns":14,"tenant":4,"rate_hz":0.30000000000000004,"satisfied":true}"#,
        ),
        (
            TelemetryEvent::FaultInjected {
                t_ns: 15,
                fault: "board_fail",
                cluster: -1,
                until_ns: u64::MAX,
            },
            r#"{"event":"fault_injected","t_ns":15,"fault":"board_fail","cluster":-1,"until_ns":18446744073709551615}"#,
        ),
        (
            TelemetryEvent::ClusterQuarantined {
                t_ns: 16,
                cluster: 2,
                mode: "offline",
                until_ns: 9_000_000_000,
            },
            r#"{"event":"cluster_quarantined","t_ns":16,"cluster":2,"mode":"offline","until_ns":9000000000}"#,
        ),
        (
            TelemetryEvent::ClusterRestored {
                t_ns: 17,
                cluster: 2,
            },
            r#"{"event":"cluster_restored","t_ns":17,"cluster":2}"#,
        ),
        (
            TelemetryEvent::BoardFailed {
                t_ns: 18,
                tenants_in_flight: 3,
            },
            r#"{"event":"board_failed","t_ns":18,"tenants_in_flight":3}"#,
        ),
        (
            TelemetryEvent::DegradedCalibration {
                t_ns: 19,
                tenant: 6,
                bench: "x264",
                age_ns: 250_000_000,
            },
            r#"{"event":"degraded_calibration","t_ns":19,"tenant":6,"bench":"x264","age_ns":250000000}"#,
        ),
        (
            TelemetryEvent::TenantFailedOver {
                t_ns: 20,
                tenant: 6,
                from_board: 1,
                to_board: 3,
                attempt: 2,
            },
            r#"{"event":"tenant_failed_over","t_ns":20,"tenant":6,"from_board":1,"to_board":3,"attempt":2}"#,
        ),
    ]
}

#[test]
fn encoder_bytes_are_pinned() {
    for (event, line) in rows() {
        assert_eq!(event.to_json(), line);
    }
}

#[test]
fn rows_follow_schema_order() {
    let kinds: Vec<&str> = rows().iter().map(|(event, _)| event.kind()).collect();
    let schema: Vec<&str> = SCHEMA.iter().map(|(kind, _)| *kind).collect();
    assert_eq!(kinds, schema);
}

#[test]
fn every_kind_round_trips() {
    let mut interner = Interner::new();
    for (event, line) in rows() {
        assert_eq!(parse_line(&mut interner, line), Ok(event));
    }
}

#[test]
fn string_fields_are_escaped_and_round_trip() {
    let event = TelemetryEvent::AdmissionSwapped {
        t_ns: 1,
        policy: r#"a"b\c"#,
    };
    let line = event.to_json();
    assert_eq!(
        line,
        r#"{"event":"admission_swapped","t_ns":1,"policy":"a\"b\\c"}"#
    );
    let mut interner = Interner::new();
    assert_eq!(parse_line(&mut interner, &line), Ok(event));
    for policy in ["tab\there", "two\nlines", r#"\""#, ""] {
        let event = TelemetryEvent::AdmissionSwapped { t_ns: 1, policy };
        assert_eq!(parse_line(&mut interner, &event.to_json()), Ok(event));
    }
}
