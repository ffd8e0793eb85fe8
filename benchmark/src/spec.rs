//! `BENCHMARK.json` is the single list of workloads and metrics: the
//! harness reads names, units, directions and bounds from it, and refuses
//! to print a result whose metric set differs from the file's.

use crate::stats::{geomean, median, ClassRow, Classes};
use crate::sys;
use crate::trace::Tracer;
use pasgal_service::json::{self, Json};
use std::collections::BTreeMap;

#[derive(Clone)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    /// `"lower"` or `"higher"`.
    pub better: String,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; per-layer metrics have none.
    pub bound: Option<f64>,
}

pub struct Spec {
    pub run_seconds: u64,
    /// `(name, why)` in file order.
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

fn text(v: &Json, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("BENCHMARK.json: missing string {key:?}"))
}

fn list<'a>(v: &'a Json, key: &str) -> Result<&'a [Json], String> {
    match v.get(key) {
        Some(Json::Arr(xs)) => Ok(xs),
        _ => Err(format!("BENCHMARK.json: missing array {key:?}")),
    }
}

pub fn number(v: &Json) -> Option<f64> {
    match v {
        Json::Int(i) => Some(*i as f64),
        Json::Float(f) => Some(*f),
        _ => None,
    }
}

fn metrics(v: &Json, key: &str) -> Result<Vec<Metric>, String> {
    list(v, key)?
        .iter()
        .map(|m| {
            Ok(Metric {
                name: text(m, "name")?,
                unit: text(m, "unit")?,
                better: text(m, "better")?,
                bound: m.get("bound").and_then(number),
            })
        })
        .collect()
}

impl Spec {
    /// Load `BENCHMARK.json` from the current directory (the checkout
    /// root; `run.sh` changes into it).
    pub fn load() -> Result<Spec, String> {
        let raw = std::fs::read_to_string("BENCHMARK.json")
            .map_err(|e| format!("BENCHMARK.json: {e} (run from the checkout root)"))?;
        let v = json::parse(&raw).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        Ok(Spec {
            run_seconds: v
                .get("run_seconds")
                .and_then(Json::as_u64)
                .ok_or("BENCHMARK.json: missing run_seconds")?,
            workloads: list(&v, "workloads")?
                .iter()
                .map(|w| Ok((text(w, "name")?, text(w, "why")?)))
                .collect::<Result<_, String>>()?,
            end_to_end: metrics(&v, "end_to_end")?,
            per_layer: metrics(&v, "per_layer")?,
        })
    }
}

/// What one run of one workload found.
#[derive(Default)]
pub struct Report {
    /// Operations whose answer was checked.
    pub attempted: u64,
    /// Of those: wrong, failed, refused or missing answers.
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
    /// Samples behind a metric, where that is not `attempted`.
    pub samples: BTreeMap<String, usize>,
    pub fingerprint: u64,
    pub rows: Vec<ClassRow>,
    /// Free-form lines for the human reader (failures, calibration).
    pub notes: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    pub fn set_n(&mut self, name: &str, value: f64, samples: usize) {
        self.set(name, value);
        self.samples.insert(name.to_string(), samples);
    }

    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.notes.len() < 20 {
            self.notes.push(format!("FAIL {why}"));
        }
    }

    /// The five end-to-end metrics of an untraced run, from the samples
    /// of its main loop, its throughput and its set-up times.
    pub fn end_to_end(
        &mut self,
        classes: &Classes,
        ops_per_s: f64,
        ops_samples: usize,
        setups: &[f64],
    ) {
        let rows = classes.rows();
        let over_classes =
            |f: fn(&ClassRow) -> f64| geomean(&rows.iter().map(f).collect::<Vec<_>>());
        self.set_n("ops_per_s", ops_per_s, ops_samples);
        self.set_n(
            "latency_ms_p50",
            over_classes(|r| r.p50_ms),
            classes.total(),
        );
        self.set_n(
            "latency_ms_tail",
            over_classes(|r| r.tail_ms),
            classes.total(),
        );
        self.set_n("setup_s", median(setups), setups.len());
        self.set("peak_rss_mb", sys::peak_rss_mb());
        self.rows = rows;
    }

    /// `trace.<layer>.self_ms` for every layer the tracer saw.
    pub fn trace_self_times(&mut self, tracer: &Tracer) {
        for (layer, ms) in tracer.self_ms_by_layer() {
            self.set(&format!("trace.{layer}.self_ms"), ms);
        }
    }

    /// Count one checked operation, failed when `ok` is false.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(why());
        }
    }
}

/// Print the run for a human, then — as the last line of stdout — the one
/// JSON object the driver reads. Returns the process exit code.
pub fn emit(spec: &Spec, workload: &str, trace: bool, report: &Report) -> u8 {
    println!(
        "workload {workload}  ops_fingerprint {:016x}",
        report.fingerprint
    );
    for r in &report.rows {
        println!(
            "  class {:<24} n={:<7} p50 {:>10.4} ms   p{:<5.1} {:>10.4} ms",
            r.class,
            r.n,
            r.p50_ms,
            r.tail_q * 100.0,
            r.tail_ms
        );
    }
    for note in &report.notes {
        println!("  {note}");
    }
    let wanted = if trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let mut out = BTreeMap::new();
    for m in wanted {
        let value = match report.metrics.get(&m.name) {
            Some(&v) => v,
            // A layer this workload does not touch reads 0 (README,
            // "per-layer metrics"); an end-to-end metric may not be absent.
            None if trace => 0.0,
            None => {
                eprintln!("error: workload {workload} did not measure {}", m.name);
                return 2;
            }
        };
        let n = report
            .samples
            .get(&m.name)
            .map_or(String::new(), |n| format!("  n={n}"));
        let bound = m.bound.map_or(String::new(), |b| format!("  bound {b}"));
        println!(
            "  {:<40} {:>16.6} {:<10} better={}{bound}{n}",
            m.name, value, m.unit, m.better
        );
        out.insert(
            m.name.clone(),
            Json::obj([
                ("value", Json::Float(value)),
                ("unit", Json::from(m.unit.as_str())),
            ]),
        );
    }
    let correct = report.failed == 0 && report.attempted > 0;
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::from(report.attempted.max(1))),
            ("failed", Json::from(report.failed)),
            ("metrics", Json::Obj(out)),
        ])
    );
    u8::from(!correct)
}
