//! The `decide` workload: single-board scenarios streamed through
//! `JsonlSink` → `MetricsSink`, with the capture replayed.

use std::collections::BTreeMap;
use std::time::Instant;

use hars_obs::{replay_capture, MetricsSink};
use hars_scenario::{run_scenario_with_sink, JsonlSink, ScenarioOutcome, SoloRateCache};
use hmp_sim::EngineConfig;

use crate::report::{
    cache_metrics, finish_trace, layer_metrics, layer_sums, median, merge_medians, peak_rss_mb,
    print_walls, repeat_for, requested, setup_s, timed, Model, Report, SpanWriter,
};
use crate::trace::{ns_since, self_time, EncodeTimer, Layer, ShardTrace, TimingSink};
use crate::workloads::{self, DecideCase};
use crate::Args;

/// Builds the scenarios, their tenant schedules and their runtimes.
fn decide_setup(seed: u64) -> (Vec<DecideCase>, f64) {
    let cases = workloads::decide(seed);
    let hb = cases
        .iter()
        .map(|c| requested(&c.spec.tenant_schedule()))
        .sum();
    let runtimes: Vec<_> = cases.iter().map(DecideCase::runtime).collect();
    std::hint::black_box(&runtimes);
    (cases, hb)
}

/// One decide case's result.
struct CaseRun {
    outcome: ScenarioOutcome,
    live: hars_obs::MetricsSummary,
    replayed: hars_obs::MetricsSummary,
    events: u64,
    bytes: u64,
    trace: Option<CaseTrace>,
}

/// What a traced case recorded (ns since the run's origin).
struct CaseTrace {
    /// The per-event spans; the sink spans are `obs.fold` spans.
    stream: ShardTrace,
    /// One encode span per event, nested in that event's fold span.
    encode: Vec<(u64, u64)>,
    /// The replay of the capture.
    replay: (u64, u64),
}

/// Runs one case streaming through `JsonlSink` → `MetricsSink`, then
/// replays the capture. Traced, the stream is stamped per event and the
/// encoder and replay are timed.
fn decide_case(
    case: &DecideCase,
    cache: &mut SoloRateCache,
    origin: Option<Instant>,
) -> Result<CaseRun, String> {
    let mut admission = case.admission();
    let runtime = case.runtime();
    let run = |sink: &mut dyn hars_core::TelemetrySink, cache: &mut SoloRateCache| {
        run_scenario_with_sink(
            &case.board,
            &EngineConfig::default(),
            &case.spec,
            admission.as_mut(),
            runtime,
            cache,
            sink,
        )
        .map_err(|e| format!("{}: {e:?}", case.board.name))
    };
    let (outcome, live, jsonl, trace_parts) = match origin {
        None => {
            let mut sink = MetricsSink::wrap(JsonlSink::new(Vec::new()));
            let outcome = run(&mut sink, cache)?;
            let (live, jsonl) = sink.finish();
            (outcome, live, jsonl, None)
        }
        Some(origin) => {
            let encoder = EncodeTimer::new(JsonlSink::new(Vec::new()), origin);
            let mut sink = TimingSink::start(MetricsSink::wrap(encoder), Layer::Fold, origin);
            let outcome = run(&mut sink, cache)?;
            let (metrics, trace) = sink.close();
            let (live, encoder) = metrics.finish();
            let (jsonl, encode_spans) = encoder.finish();
            (outcome, live, jsonl, Some((trace, encode_spans)))
        }
    };
    let (events, dropped, buf) = jsonl.finish();
    if dropped > 0 {
        return Err(format!(
            "{}: {dropped} telemetry events dropped",
            case.board.name
        ));
    }
    let bytes = buf.len() as u64;
    let replay_start = origin.map(ns_since);
    let text = String::from_utf8(buf).map_err(|e| format!("capture is not UTF-8: {e}"))?;
    let replayed = replay_capture(&text).map_err(|e| format!("replay: {e}"))?;
    let trace = trace_parts.map(|(stream, encode)| CaseTrace {
        stream,
        encode,
        replay: (
            replay_start.expect("traced"),
            ns_since(origin.expect("traced")),
        ),
    });
    Ok(CaseRun {
        outcome,
        live,
        replayed,
        events,
        bytes,
        trace,
    })
}

fn decide_all(
    cases: &[DecideCase],
    origin: Option<Instant>,
) -> Result<(Vec<CaseRun>, u64, f64), String> {
    let mut cache = SoloRateCache::new();
    let (runs, wall) = timed(|| {
        cases
            .iter()
            .map(|c| decide_case(c, &mut cache, origin))
            .collect::<Result<Vec<_>, _>>()
    });
    Ok((runs?, cache.len() as u64, wall))
}

fn check_decide(r: &mut Report, runs: &[CaseRun], reference: &[u64]) {
    for (run, fp) in runs.iter().zip(reference) {
        r.check(run.replayed.fingerprint() == run.live.fingerprint(), || {
            format!(
                "replayed summary {:#018x} != live {:#018x}",
                run.replayed.fingerprint(),
                run.live.fingerprint()
            )
        });
        r.check(run.outcome.fingerprint() == *fp, || {
            format!(
                "scenario fingerprint {:#018x} != {fp:#018x}",
                run.outcome.fingerprint()
            )
        });
    }
}

pub fn run(args: &Args, r: &mut Report) {
    let setup = setup_s(|| {
        std::hint::black_box(decide_setup(args.seed));
    });
    let (cases, requested_hb) = decide_setup(args.seed);
    let Some((warm, _, _)) = r.run(decide_all(&cases, None)) else {
        return;
    };
    let reference: Vec<u64> = warm.iter().map(|c| c.outcome.fingerprint()).collect();
    check_decide(r, &warm, &reference);
    for (case, c) in cases.iter().zip(&warm) {
        println!(
            "fingerprint scenario={:#018x} summary={:#018x} board={} arrivals={} admitted={} \
             completed={} satisfaction={:.4} energy_j={:.1} events={}",
            c.outcome.fingerprint(),
            c.live.fingerprint(),
            case.board.name,
            c.outcome.arrivals,
            c.outcome.admitted,
            c.outcome.completed,
            c.outcome.mean_satisfaction,
            c.outcome.energy_joules,
            c.events
        );
    }
    if args.trace {
        return decide_trace(args, r, &cases, &reference);
    }
    let mut walls = Vec::new();
    repeat_for(args.seconds, 3, || {
        if let Some((runs, _, wall)) = r.run(decide_all(&cases, None)) {
            check_decide(r, &runs, &reference);
            walls.push(wall);
        }
    });
    print_walls(&walls);
    if walls.is_empty() {
        return;
    }
    r.metric("wall_s", median(&walls), "s");
    r.metric("setup_s", setup, "s");
    r.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    let outs: Vec<ScenarioOutcome> = warm.into_iter().map(|c| c.outcome).collect();
    Model::of_scenarios(&outs, requested_hb).report(r);
}

fn decide_layers(runs: &[CaseRun], unique: u64, wall: f64) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    let traces: Vec<&CaseTrace> = runs.iter().filter_map(|c| c.trace.as_ref()).collect();
    let mut sums = layer_sums(traces.iter().flat_map(|t| &t.stream.spans));
    // Each event's fold span holds its encode span: split by self time.
    let mut encode = 0u64;
    let mut fold = 0u64;
    for t in &traces {
        let folds = t.stream.spans.iter().filter(|s| s.layer == Layer::Fold);
        for (s, &e) in folds.zip(&t.encode) {
            fold += self_time((s.start, s.end), &[e]);
            encode += e.1 - e.0;
        }
    }
    *sums.get_mut(Layer::Fold.name()).expect("listed") = fold;
    *sums.get_mut(Layer::Encode.name()).expect("listed") = encode;
    let heartbeats: u64 = runs
        .iter()
        .flat_map(|c| &c.outcome.tenants)
        .map(|t| t.heartbeats)
        .sum();
    let adaptations: u64 = runs.iter().map(|c| c.outcome.adaptations).sum();
    let shard_traces: Vec<&ShardTrace> = traces.iter().map(|t| &t.stream).collect();
    layer_metrics(&mut m, &shard_traces, &sums, heartbeats, adaptations);
    let hits: u64 = runs.iter().map(|c| c.outcome.solo_cache_hits).sum();
    let misses: u64 = runs.iter().map(|c| c.outcome.solo_cache_misses).sum();
    cache_metrics(&mut m, hits, misses, unique);
    let events: u64 = runs.iter().map(|c| c.events).sum();
    let bytes: u64 = runs.iter().map(|c| c.bytes).sum();
    m.insert("telemetry.events", events as f64);
    m.insert("telemetry.bytes_per_event", bytes as f64 / events as f64);
    m.insert("telemetry.encode_s", encode as f64 * 1e-9);
    m.insert("obs.fold_s", fold as f64 * 1e-9);
    let replay: u64 = traces.iter().map(|t| t.replay.1 - t.replay.0).sum();
    m.insert("obs.replay_s", replay as f64 * 1e-9);
    let streamed: u64 = traces
        .iter()
        .flat_map(|t| &t.stream.spans)
        .map(|s| s.end - s.start)
        .sum();
    let covered = streamed + replay;
    m.insert(
        "trace.unattributed_frac",
        1.0 - covered as f64 * 1e-9 / wall,
    );
    m
}

fn decide_trace(args: &Args, r: &mut Report, cases: &[DecideCase], reference: &[u64]) {
    let mut layers = Vec::new();
    let (mut traced_walls, mut plain_walls) = (Vec::new(), Vec::new());
    let mut last = None;
    repeat_for(args.seconds, 2, || {
        if let Some((runs, unique, wall)) = r.run(decide_all(cases, Some(Instant::now()))) {
            check_decide(r, &runs, reference);
            traced_walls.push(wall);
            layers.push(decide_layers(&runs, unique, wall));
            last = Some(runs);
        }
        if let Some((runs, _, wall)) = r.run(decide_all(cases, None)) {
            check_decide(r, &runs, reference);
            plain_walls.push(wall);
        }
    });
    let Some(last) = last else { return };
    if plain_walls.is_empty() {
        return;
    }
    let mut m = merge_medians(&layers);
    m.insert(
        "trace.overhead_frac",
        median(&traced_walls) / median(&plain_walls),
    );
    finish_trace(args, r, m, |out| {
        let mut w = SpanWriter { out, next_id: 0 };
        for (i, c) in last.iter().enumerate() {
            let Some(t) = &c.trace else {
                continue;
            };
            let first = t.stream.spans.first().map_or(0, |s| s.start);
            let case = w.span(None, "scenario.run", None, Some(i), (first, t.replay.1))?;
            for sp in &t.stream.spans {
                w.span(
                    Some(case),
                    sp.layer.name(),
                    None,
                    Some(i),
                    (sp.start, sp.end),
                )?;
            }
            for &e in &t.encode {
                w.span(Some(case), "telemetry.encode", None, Some(i), e)?;
            }
            w.span(Some(case), "obs.replay", None, Some(i), t.replay)?;
        }
        Ok(())
    });
}
