//! What a run reports: the result object, the model metrics, the
//! per-layer metrics shared by every traced workload, and the trace file.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::time::Instant;

use hars_fleet::FleetOutcome;
use hars_scenario::{ScenarioOutcome, TenantSpec};

pub use crate::stats::median;
use crate::stats::{percentile, tail};
use crate::trace::{Layer, ShardTrace, Span};
use crate::Args;

/// Set-ups timed per run; the median is reported.
pub const SETUP_REPEATS: usize = 9;

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: BTreeMap<&'static str, (f64, &'static str)>,
    pub failures: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.insert(name, (value, unit));
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Records one workload run: counted as attempted, and as failed
    /// when it errored.
    pub fn run<T>(&mut self, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                self.failures.push(e);
                None
            }
        }
    }

    pub fn json(&self) -> String {
        let mut s = String::new();
        let correct = self.failures.is_empty() && self.failed == 0;
        write!(
            s,
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted.max(1),
            self.failed
        )
        .expect("write to String");
        for (i, (name, (value, unit))) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // JSON has no NaN or infinity; such a value also fails the run.
            let value = if value.is_finite() {
                format!("{value:?}")
            } else {
                "null".to_string()
            };
            write!(
                s,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )
            .expect("write to String");
        }
        s.push_str("}}");
        s
    }
}

/// Prints every timed run's wall, so the spread inside a run shows.
pub fn print_walls(walls: &[f64]) {
    let list: Vec<String> = walls.iter().map(|w| format!("{w:.4}")).collect();
    println!("wall samples (s): {}", list.join(" "));
}

/// Host seconds `f` takes, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let v = f();
    (v, t.elapsed().as_secs_f64())
}

/// Peak resident set of this process (MiB), from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs `f` repeatedly for at least `seconds` and `min_runs` runs. Each
/// run's results are consumed inside `f`, so memory does not grow with
/// the number of runs.
pub fn repeat_for(seconds: f64, min_runs: usize, mut f: impl FnMut()) {
    let start = Instant::now();
    let mut runs = 0;
    while runs < min_runs || start.elapsed().as_secs_f64() < seconds {
        f();
        runs += 1;
    }
}

pub fn setup_s(mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..SETUP_REPEATS).map(|_| timed(&mut f).1).collect();
    median(&samples)
}

/// The four model metrics, from simulated outcomes only.
#[derive(Debug, Clone, Copy)]
pub struct Model {
    service_level: f64,
    target_satisfaction: f64,
    energy_mj_per_hb: f64,
    tenant_fail_frac: f64,
}

impl Model {
    pub fn report(&self, r: &mut Report) {
        r.metric("service_level", self.service_level, "ratio");
        r.metric("target_satisfaction", self.target_satisfaction, "ratio");
        r.metric("energy_mj_per_hb", self.energy_mj_per_hb, "mJ/hb");
        r.metric("tenant_fail_frac", self.tenant_fail_frac, "ratio");
    }

    pub fn of_fleet(out: &FleetOutcome, requested_hb: f64) -> Self {
        let served = out.service_level * requested_hb;
        Model {
            service_level: out.service_level,
            target_satisfaction: out.mean_satisfaction,
            energy_mj_per_hb: out.energy_joules * 1e3 / served,
            tenant_fail_frac: (out.arrivals - out.completed) as f64 / out.arrivals as f64,
        }
    }

    /// `Σ(satisfaction·hb)/Σ(budget)` over every arrival, the same way
    /// `FleetOutcome::service_level` is computed.
    pub fn of_scenarios(outs: &[ScenarioOutcome], requested_hb: f64) -> Self {
        let served: f64 = outs
            .iter()
            .flat_map(|o| &o.tenants)
            .map(|t| t.satisfaction * t.heartbeats as f64)
            .sum();
        let rated: Vec<&ScenarioOutcome> = outs.iter().filter(|o| o.admitted > 0).collect();
        let admitted: f64 = rated.iter().map(|o| o.admitted as f64).sum();
        let arrivals: usize = outs.iter().map(|o| o.arrivals).sum();
        let completed: usize = outs.iter().map(|o| o.completed).sum();
        Model {
            service_level: served / requested_hb,
            target_satisfaction: rated
                .iter()
                .map(|o| o.mean_satisfaction * o.admitted as f64)
                .sum::<f64>()
                / admitted,
            energy_mj_per_hb: outs.iter().map(|o| o.energy_joules).sum::<f64>() * 1e3 / served,
            tenant_fail_frac: (arrivals - completed) as f64 / arrivals as f64,
        }
    }
}

/// Heartbeats requested by a tenant schedule.
pub fn requested<'a>(budgets: impl IntoIterator<Item = &'a (u64, TenantSpec)>) -> f64 {
    budgets.into_iter().map(|(_, ts)| ts.budget as f64).sum()
}

pub fn span_s(span: (u64, u64)) -> f64 {
    (span.1 - span.0) as f64 * 1e-9
}

/// Host ns per layer over `spans`.
pub fn layer_sums<'a>(spans: impl IntoIterator<Item = &'a Span>) -> BTreeMap<&'static str, u64> {
    let mut sums: BTreeMap<&'static str, u64> = Layer::ALL.iter().map(|l| (l.name(), 0)).collect();
    for s in spans {
        *sums.get_mut(s.layer.name()).expect("every layer listed") += s.end - s.start;
    }
    sums
}

/// The engine, calibration, manager and driver metrics every traced
/// workload shares. Decision latencies come from the decisions the gap
/// rule can time on their own (`mp_hars.decisions_timed`).
pub fn layer_metrics(
    m: &mut BTreeMap<&'static str, f64>,
    traces: &[&ShardTrace],
    sums: &BTreeMap<&'static str, u64>,
    heartbeats: u64,
    adaptations: u64,
) {
    let s = |l: Layer| sums[l.name()] as f64 * 1e-9;
    m.insert("hmp_sim.advance_s", s(Layer::Engine));
    m.insert("hmp_sim.heartbeats", heartbeats as f64);
    m.insert(
        "hmp_sim.ns_per_hb",
        if heartbeats == 0 {
            0.0
        } else {
            s(Layer::Engine) * 1e9 / heartbeats as f64
        },
    );
    m.insert("scenario.calibrate_s", s(Layer::Calibrate));
    m.insert("scenario.driver_s", s(Layer::Driver));
    m.insert("mp_hars.decide_s", s(Layer::Decide));
    m.insert("trace.self_s", s(Layer::Trace));
    let timed_us: Vec<f64> = traces
        .iter()
        .flat_map(|t| &t.spans)
        .filter(|s| s.layer == Layer::Decide)
        .map(|s| (s.end - s.start) as f64 * 1e-3)
        .collect();
    let decisions: u64 = traces.iter().map(|t| t.decisions).sum();
    let evaluated: u64 = traces.iter().map(|t| t.evaluated).sum();
    m.insert("mp_hars.decisions", decisions as f64);
    m.insert("mp_hars.decisions_timed", timed_us.len() as f64);
    if decisions > 0 {
        m.insert(
            "mp_hars.states_per_decision",
            evaluated as f64 / decisions as f64,
        );
        m.insert("mp_hars.adapt_ratio", adaptations as f64 / decisions as f64);
    }
    if !timed_us.is_empty() {
        let mut sorted = timed_us.clone();
        sorted.sort_by(f64::total_cmp);
        let (pct, v) = tail(&timed_us);
        m.insert("mp_hars.decide_us_p50", percentile(&sorted, 50.0));
        m.insert("mp_hars.decide_us_tail", v);
        m.insert("mp_hars.decide_tail_pct", pct);
    }
}

pub fn cache_metrics(m: &mut BTreeMap<&'static str, f64>, hits: u64, misses: u64, unique: u64) {
    m.insert("scenario.calibrations", misses as f64);
    m.insert("scenario.cache_hits", hits as f64);
    m.insert(
        "scenario.cache_hit_ratio",
        if hits + misses == 0 {
            1.0
        } else {
            hits as f64 / (hits + misses) as f64
        },
    );
    m.insert("scenario.unique_keys", unique as f64);
    m.insert(
        "scenario.dup_calibrations",
        misses.saturating_sub(unique) as f64,
    );
}

/// The median of each metric over several traced runs.
pub fn merge_medians(runs: &[BTreeMap<&'static str, f64>]) -> BTreeMap<&'static str, f64> {
    let mut keys: Vec<&'static str> = runs.iter().flat_map(|m| m.keys().copied()).collect();
    keys.sort_unstable();
    keys.dedup();
    keys.into_iter()
        .map(|k| {
            let v: Vec<f64> = runs.iter().filter_map(|m| m.get(k).copied()).collect();
            (k, median(&v))
        })
        .collect()
}

/// Every per-layer metric with its unit; a layer a workload does not
/// exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("hmp_sim.advance_s", "s"),
    ("hmp_sim.heartbeats", "count"),
    ("hmp_sim.ns_per_hb", "ns"),
    ("scenario.calibrate_s", "s"),
    ("scenario.calibrations", "count"),
    ("scenario.cache_hits", "count"),
    ("scenario.cache_hit_ratio", "ratio"),
    ("scenario.unique_keys", "count"),
    ("scenario.dup_calibrations", "count"),
    ("scenario.dup_calibrations_1w", "count"),
    ("scenario.driver_s", "s"),
    ("mp_hars.decide_s", "s"),
    ("mp_hars.decisions", "count"),
    ("mp_hars.decisions_timed", "count"),
    ("mp_hars.decide_us_p50", "us"),
    ("mp_hars.decide_us_tail", "us"),
    ("mp_hars.decide_tail_pct", "pct"),
    ("mp_hars.states_per_decision", "count"),
    ("mp_hars.adapt_ratio", "ratio"),
    ("fleet.place_s", "s"),
    ("fleet.shard_s_p50", "s"),
    ("fleet.shard_s_max", "s"),
    ("fleet.straggler_ratio", "ratio"),
    ("fleet.reduce_s", "s"),
    ("fleet.pool_overhead_s", "s"),
    ("fleet.parallel_eff", "ratio"),
    ("fleet.failover_rerun_s", "s"),
    ("fleet.tenants_failed_over", "count"),
    ("fleet.failover_lost", "count"),
    ("telemetry.encode_s", "s"),
    ("telemetry.events", "count"),
    ("telemetry.bytes_per_event", "B"),
    ("obs.fold_s", "s"),
    ("obs.replay_s", "s"),
    ("trace.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_frac", "ratio"),
];

/// Reports the per-layer metrics, checks the accounting, and writes the
/// last traced run's spans.
pub fn finish_trace(
    args: &Args,
    r: &mut Report,
    m: BTreeMap<&'static str, f64>,
    write: impl FnOnce(&mut dyn std::io::Write) -> std::io::Result<()>,
) {
    for &(name, unit) in PER_LAYER {
        r.metric(name, m.get(name).copied().unwrap_or(0.0), unit);
    }
    let unattributed = m.get("trace.unattributed_frac").copied().unwrap_or(1.0);
    r.check(unattributed.abs() <= args.unattributed_tolerance, || {
        format!("layer spans leave {unattributed:.4} of the traced wall unaccounted")
    });
    let path = args.trace_dir.join(format!(
        "{}-{}.jsonl",
        format!("{:?}", args.workload).to_lowercase(),
        args.seed
    ));
    let written = std::fs::create_dir_all(&args.trace_dir)
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|f| {
            let mut w = std::io::BufWriter::new(f);
            write(&mut w)?;
            w.flush()
        });
    match written {
        Ok(()) => println!("trace spans written to {}", path.display()),
        Err(e) => r
            .failures
            .push(format!("cannot write {}: {e}", path.display())),
    }
}

/// Writes one JSON span per line: `id`, `parent`, `name`, `worker`,
/// `shard`, `start_ns`, `end_ns` (host ns since the run's origin).
pub struct SpanWriter<'a> {
    pub out: &'a mut dyn std::io::Write,
    pub next_id: u64,
}

impl SpanWriter<'_> {
    pub fn span(
        &mut self,
        parent: Option<u64>,
        name: &str,
        worker: Option<usize>,
        shard: Option<usize>,
        (start, end): (u64, u64),
    ) -> std::io::Result<u64> {
        let id = self.next_id;
        self.next_id += 1;
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        writeln!(
            self.out,
            "{{\"id\": {id}, \"parent\": {}, \"name\": \"{name}\", \"worker\": {}, \
             \"shard\": {}, \"start_ns\": {start}, \"end_ns\": {end}}}",
            opt(parent),
            opt(worker.map(|w| w as u64)),
            opt(shard.map(|s| s as u64)),
        )?;
        Ok(id)
    }
}
