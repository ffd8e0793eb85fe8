//! The whole benchmark in one command, and the tool that compares two of
//! its results.
//!
//! `run_all` runs every workload of `BENCHMARK.json` in a process of its
//! own (so set-up time and peak memory are per workload): `repeat`
//! untraced runs, then one traced run. It prints every metric by name and
//! writes `benchmark/out/results.json`. `compare` reads two such files
//! and applies each end-to-end metric's direction and bound.

use crate::spec::{number, Metric, Spec};
use crate::stats::median;
use crate::sys;
use crate::Args;
use pasgal_service::json::{self, Json};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

pub fn list(spec: &Spec) {
    println!("workloads ({} s measured per run):", spec.run_seconds);
    for (name, why) in &spec.workloads {
        println!("  {name:<22} {why}");
    }
    let show = |title: &str, metrics: &[Metric]| {
        println!("{title}:");
        for m in metrics {
            let bound = m.bound.map_or(String::new(), |b| format!("  bound {b}"));
            println!("  {:<40} {:<8} better={}{bound}", m.name, m.unit, m.better);
        }
    };
    show("end-to-end metrics (untraced run)", &spec.end_to_end);
    show("per-layer metrics (traced run)", &spec.per_layer);
}

/// What one child run printed: its fingerprint line and its result line.
struct ChildRun {
    fingerprint: String,
    result: Json,
}

/// Run this binary again for one workload, passing its output through.
fn child(workload: &str, args: &Args, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let last = text.lines().last().unwrap_or_default();
    for line in text.lines().filter(|l| *l != last) {
        println!("{line}");
    }
    let result = json::parse(last).map_err(|e| format!("{workload}: no result line ({e})"))?;
    let fingerprint = text
        .lines()
        .find_map(|l| l.split("ops_fingerprint ").nth(1))
        .unwrap_or_default()
        .to_string();
    if !out.status.success() {
        eprintln!("{workload}: exited with {}", out.status);
    }
    Ok(ChildRun {
        fingerprint,
        result,
    })
}

fn metric_values(result: &Json) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    if let Some(Json::Obj(m)) = result.get("metrics") {
        for (name, v) in m {
            if let Some(x) = v.get("value").and_then(number) {
                out.insert(name.clone(), x);
            }
        }
    }
    out
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_string(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        })
}

/// Machine and build facts every result file carries.
fn envelope(args: &Args, repeat: usize) -> Json {
    let cache = |index: usize| {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |f: &str| {
            std::fs::read_to_string(format!("{dir}/{f}"))
                .unwrap_or_default()
                .trim()
                .to_string()
        };
        format!("L{} {} {}", read("level"), read("type"), read("size"))
    };
    Json::obj([
        (
            "git_rev",
            Json::from(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Json::from(command_line("rustc", &["--version"]))),
        ("nproc", Json::from(sys::nproc())),
        ("threads", Json::from(sys::nproc())),
        (
            "caches",
            Json::Arr((0..4).map(|i| Json::from(cache(i))).collect()),
        ),
        ("seed", Json::from(args.seed)),
        ("seconds", Json::Float(args.seconds)),
        ("repeat", Json::from(repeat)),
    ])
}

pub fn run_all(spec: &Spec, args: &Args, repeat: usize) -> ExitCode {
    let mut workloads = BTreeMap::new();
    let mut all_correct = true;
    for (name, _) in &spec.workloads {
        let mut end_to_end: BTreeMap<String, Vec<Json>> = BTreeMap::new();
        let mut per_layer = BTreeMap::new();
        let (mut attempted, mut failed, mut fingerprint) = (0, 0, String::new());
        for run in 0..=repeat {
            let trace = run == repeat;
            println!(
                "== {name}  {}",
                if trace {
                    "traced".to_string()
                } else {
                    format!("run {}/{repeat}", run + 1)
                }
            );
            let done = match child(name, args, trace) {
                Ok(done) => done,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::from(2);
                }
            };
            all_correct &= done.result.get("correct") == Some(&Json::Bool(true));
            attempted += done
                .result
                .get("attempted")
                .and_then(Json::as_u64)
                .unwrap_or(0);
            failed += done
                .result
                .get("failed")
                .and_then(Json::as_u64)
                .unwrap_or(0);
            if !fingerprint.is_empty() && fingerprint != done.fingerprint {
                eprintln!("error: {name} generated different operations from the same seed");
                all_correct = false;
            }
            fingerprint = done.fingerprint;
            for (metric, value) in metric_values(&done.result) {
                if trace {
                    per_layer.insert(metric, Json::Float(value));
                } else {
                    end_to_end
                        .entry(metric)
                        .or_default()
                        .push(Json::Float(value));
                }
            }
        }
        workloads.insert(
            name.clone(),
            Json::obj([
                ("ops_fingerprint", Json::from(fingerprint)),
                ("attempted", Json::from(attempted)),
                ("failed", Json::from(failed)),
                (
                    "fail_ratio",
                    Json::Float(failed as f64 / attempted.max(1) as f64),
                ),
                (
                    "end_to_end",
                    Json::Obj(
                        end_to_end
                            .into_iter()
                            .map(|(k, v)| (k, Json::Arr(v)))
                            .collect(),
                    ),
                ),
                ("per_layer", Json::Obj(per_layer)),
            ]),
        );
    }
    let doc = Json::obj([
        ("envelope", envelope(args, repeat)),
        ("workloads", Json::Obj(workloads)),
    ]);
    let path = sys::out_dir().join("results.json");
    if let Err(e) = std::fs::create_dir_all(sys::out_dir())
        .and_then(|()| std::fs::write(&path, format!("{doc}\n")))
    {
        eprintln!("error: writing {}: {e}", path.display());
        return ExitCode::from(2);
    }
    println!("results: {}", path.display());
    if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: at least one workload returned a wrong, failed or missing answer");
        ExitCode::FAILURE
    }
}

/// Quartiles the way Python's `statistics.quantiles(v, n=4)` cuts them
/// (exclusive method); `None` below two values.
fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    if m < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

fn values(doc: &Json, workload: &str, metric: &str) -> Vec<f64> {
    match doc
        .get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("end_to_end"))
        .and_then(|e| e.get(metric))
    {
        Some(Json::Arr(xs)) => xs.iter().filter_map(number).collect(),
        _ => Vec::new(),
    }
}

/// `better`, `same`, `worse` or `unresolved` for B against A.
fn verdict(m: &Metric, a: &[f64], b: &[f64]) -> (&'static str, f64, f64, f64) {
    let (ma, mb) = (median(a), median(b));
    let bound = m.bound.unwrap_or(0.0);
    let spread = [a, b]
        .iter()
        .filter_map(|v| {
            quartiles(v).map(|(q1, q3)| (q3 - q1) / median(v).abs().max(f64::MIN_POSITIVE))
        })
        .fold(0.0, f64::max);
    // Positive = B is worse, as a share of A's median.
    let worse_by = if m.better == "lower" {
        mb - ma
    } else {
        ma - mb
    } / ma.abs().max(f64::MIN_POSITIVE);
    let word = if spread > bound {
        "unresolved"
    } else if worse_by > bound {
        "worse"
    } else if worse_by < -bound {
        "better"
    } else {
        "same"
    };
    (word, ma, mb, spread)
}

pub fn compare(spec: &Spec, a_path: &str, b_path: &str) -> ExitCode {
    let load = |p: &str| {
        std::fs::read_to_string(p)
            .map_err(|e| e.to_string())
            .and_then(|s| json::parse(s.trim()))
    };
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: cannot read results: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{:<22} {:<18} {:>14} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "spread", "bound"
    );
    let mut bad = 0;
    for (workload, _) in &spec.workloads {
        for m in &spec.end_to_end {
            let (va, vb) = (values(&a, workload, &m.name), values(&b, workload, &m.name));
            if va.is_empty() || vb.is_empty() {
                println!("{workload:<22} {:<18} missing from one side", m.name);
                bad += 1;
                continue;
            }
            let (word, ma, mb, spread) = verdict(m, &va, &vb);
            bad += usize::from(word == "worse" || word == "unresolved");
            println!(
                "{workload:<22} {:<18} {ma:>14.4} {mb:>14.4} {spread:>8.4} {:>7.2}  {word}",
                m.name,
                m.bound.unwrap_or(0.0)
            );
        }
        // Counts that must repeat exactly on one commit.
        let side = |doc: &Json, key: &str| {
            doc.get("workloads")
                .and_then(|w| w.get(workload))
                .and_then(|w| w.get(key))
                .cloned()
        };
        if side(&a, "ops_fingerprint") != side(&b, "ops_fingerprint") {
            println!("{workload:<22} ops_fingerprint differs: the two sides did not run the same operations");
        }
        for m in spec
            .per_layer
            .iter()
            .filter(|m| m.unit == "B/edge" || m.name == "runtime.region_allocs")
        {
            let at =
                |doc: &Json| side(doc, "per_layer").and_then(|p| p.get(&m.name).and_then(number));
            if let (Some(x), Some(y)) = (at(&a), at(&b)) {
                if x != y {
                    println!("{workload:<22} {:<40} {x} -> {y}", m.name);
                }
            }
        }
    }
    if bad == 0 {
        println!("no end-to-end metric is worse or unresolved");
        ExitCode::SUCCESS
    } else {
        println!("{bad} end-to-end metric(s) worse or unresolved");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[10.0, 40.0, 20.0]), Some((10.0, 40.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn verdict_applies_direction_bound_and_spread() {
        let lower = Metric {
            name: "x".into(),
            unit: "ms".into(),
            better: "lower".into(),
            bound: Some(0.1),
        };
        let higher = Metric {
            better: "higher".into(),
            ..lower.clone()
        };
        let steady = |c: f64| vec![c, c * 1.01, c * 0.99, c];
        assert_eq!(verdict(&lower, &steady(100.0), &steady(120.0)).0, "worse");
        assert_eq!(verdict(&lower, &steady(100.0), &steady(80.0)).0, "better");
        assert_eq!(verdict(&lower, &steady(100.0), &steady(105.0)).0, "same");
        assert_eq!(verdict(&higher, &steady(100.0), &steady(80.0)).0, "worse");
        assert_eq!(
            verdict(&lower, &[50.0, 100.0, 150.0, 200.0], &steady(100.0)).0,
            "unresolved"
        );
        assert_eq!(verdict(&lower, &[100.0], &[104.0]).0, "same");
    }
}
