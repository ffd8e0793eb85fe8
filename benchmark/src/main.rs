//! `pasgal-benchmark`: one harness for the whole stack (README.md).
//!
//! ```text
//! pasgal-benchmark --workload NAME --seed N --seconds T --trace 0|1   one run
//! pasgal-benchmark [--seed N] [--seconds T] [--repeat K]              every workload
//! pasgal-benchmark --list
//! pasgal-benchmark --compare A.json B.json
//! ```
//!
//! Run from the checkout root (`benchmark/run.sh` does): `BENCHMARK.json`
//! is read from the current directory and everything the harness writes
//! goes under `benchmark/out/`.

mod gen;
mod kernels;
mod probes;
mod serve;
mod spec;
mod stats;
mod storage;
mod suite;
mod sys;
mod trace;

use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static ALLOC: sys::CountingAlloc = sys::CountingAlloc;

/// Arguments of one run of one workload.
pub struct Args {
    pub seed: u64,
    /// Length of the measured section.
    pub seconds: f64,
    pub trace: bool,
    /// Flip one expected answer (checks that a wrong answer fails the run).
    pub corrupt: bool,
}

impl Args {
    /// Set up a workload the way every run does: three times when the
    /// run reports `setup_s` (the median steadies it), once when traced,
    /// each result dropped before the next is built. Returns the last
    /// result and every duration in seconds.
    pub fn set_up<T>(&self, mut build: impl FnMut() -> T) -> (T, Vec<f64>) {
        let mut seconds = Vec::new();
        let mut built = None;
        for _ in 0..if self.trace { 1 } else { 3 } {
            drop(built.take());
            let (s, b) = probes::secs(&mut build);
            seconds.push(s);
            built = Some(b);
        }
        (built.expect("at least one set-up"), seconds)
    }
}

const DEFAULT_SEED: u64 = 42;

fn usage() -> ExitCode {
    eprintln!(
        "usage: run.sh [--workload NAME] [--seed N] [--seconds T] [--trace 0|1] [--repeat K]\n       \
         run.sh --list\n       run.sh --compare A.json B.json"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |key: &str| {
        argv.iter()
            .position(|a| a == key)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let number = |key: &str| value(key).map(|v| v.parse::<f64>());
    let flag = |key: &str| argv.iter().any(|a| a == key);

    if flag("--help") || flag("-h") {
        return usage();
    }
    let spec = match spec::Spec::load() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if flag("--list") {
        suite::list(&spec);
        return ExitCode::SUCCESS;
    }
    if let Some(i) = argv.iter().position(|a| a == "--compare") {
        return match (argv.get(i + 1), argv.get(i + 2)) {
            (Some(a), Some(b)) => suite::compare(&spec, a, b),
            _ => usage(),
        };
    }

    let (Ok(seed), Ok(seconds), Ok(repeat), Ok(trace)) = (
        value("--seed").map_or(Ok(DEFAULT_SEED), str::parse::<u64>),
        number("--seconds").unwrap_or(Ok(spec.run_seconds as f64)),
        number("--repeat").unwrap_or(Ok(1.0)),
        number("--trace").unwrap_or(Ok(0.0)),
    ) else {
        return usage();
    };
    if !(seconds > 0.0 && seconds <= 600.0) || repeat < 1.0 {
        return usage();
    }
    let args = Args {
        seed,
        seconds,
        trace: trace != 0.0,
        corrupt: flag("--corrupt"),
    };

    let Some(name) = value("--workload") else {
        return suite::run_all(&spec, &args, repeat as usize);
    };
    if !spec.workloads.iter().any(|(w, _)| w == name) {
        eprintln!("error: unknown workload {name:?}; --list names them");
        return ExitCode::from(2);
    }
    let mut tracer = trace::Tracer::new(started, args.trace);
    let report = if let Some(w) = kernels::ALL.iter().find(|w| w.name == name) {
        kernels::run(w, &args, &mut tracer)
    } else if let Some(w) = serve::ALL.iter().find(|w| w.name == name) {
        serve::run(w, &args, &mut tracer)
    } else if name == storage::NAME {
        storage::run(&args, &mut tracer)
    } else {
        eprintln!(
            "error: BENCHMARK.json names workload {name:?} but the harness has none of that name"
        );
        return ExitCode::from(2);
    };
    if args.trace {
        let path = sys::out_dir().join(format!("trace-{name}.json"));
        match tracer.write_json(&path, name) {
            Ok(()) => println!("trace: {} spans in {}", tracer.len(), path.display()),
            Err(e) => {
                eprintln!("error: writing {}: {e}", path.display());
                return ExitCode::from(2);
            }
        }
    }
    ExitCode::from(spec::emit(&spec, name, args.trace, &report))
}
