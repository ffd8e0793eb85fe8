//! Argument parsing and command dispatch for the `pasgal` command-line
//! tool (kept in a library so it is unit-testable; `main.rs` is a shim).
//!
//! ```text
//! pasgal <command> <graph-file> [options]
//!
//! commands:
//!   bfs        hop distances from --src (default 0)
//!   sssp       shortest paths from --src (weights from file, else unit)
//!   scc        strongly connected components
//!   bcc        biconnected components (input is symmetrized if needed)
//!   cc         connected components
//!   kcore      coreness of every vertex
//!   ptp        point-to-point distance --src → --dst
//!   oracle     bit-parallel multi-source BFS: one flight over --sources
//!              (default: just --src) answers hop queries by lookup
//!   stats      graph statistics (the Table-1 row)
//!   gen        generate a suite graph: pasgal gen <NAME> <out-file>
//!   pack       write a graph into the mmap-ready on-disk container:
//!              pasgal pack <graph-file> <out.pasgal> [--compress] [--force]
//!              (an existing output is never overwritten without --force)
//!   verify     re-check a container's section checksums and offset/bounds
//!              invariants; prints one verdict per section and exits
//!              non-zero on corruption: pasgal verify <file.pasgal>
//!   serve      start the query service: pasgal serve [graph-files...]
//!
//! options:
//!   --algo <name>     implementation to use (default: the PASGAL one;
//!                     see --help output per command for alternatives)
//!   --src N --dst N   source/target vertex
//!   --sources a,b,c   distinct source vertices for `oracle` (≤ 128;
//!                     --src is added if missing; default: just --src)
//!   --tau N           VGC budget (default 512)
//!   --threads N       rayon worker threads (default: all; must be ≥ 1)
//!   --scale tiny|small|full   for `gen` (default small)
//!   --compress        for `pack`: byte-compressed payload (delta/varint)
//!   --force           for `pack`: overwrite an existing output file
//!   serve flags       `--host S --port N` (default 127.0.0.1:7421; port 0
//!                     binds an ephemeral port, resolved in the banner),
//!                     `--storage plain|compressed|mmap`, `--shards N`,
//!                     `--workers N`, `--drain-ms N`, …: `pasgal serve
//!                     --help` prints all of them with range and default,
//!                     straight from the `SERVE_FLAGS` table that
//!                     parses them
//!   --trace-rounds    print one line per synchronization round (frontier
//!                     size, edges traversed, elapsed time) before the
//!                     summary; bfs/sssp/scc/bcc/cc/kcore, default --algo
//! ```
//!
//! Graph format is chosen by extension: `.adj` (PBBS text), `.bin`
//! (binary CSR), `.pasgal` (packed container), anything else is read as
//! an edge list.

use pasgal_core::common::VgcConfig;
use pasgal_graph::io;
use pasgal_service::{EventServer, FrontendConfig, ServiceConfig, ShardedService};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Cli {
    /// Subcommand name.
    pub command: String,
    /// Positional arguments after the command.
    pub positional: Vec<String>,
    /// `--key value` options.
    pub options: HashMap<String, String>,
}

/// Errors surfaced to the user with a usage hint.
#[derive(Debug, PartialEq)]
pub struct UsageError(pub String);

impl std::fmt::Display for UsageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}
impl std::error::Error for UsageError {}

/// Options that are bare flags: their presence means "true" and no value
/// is consumed from the argument stream.
const FLAG_OPTIONS: &[&str] = &["trace-rounds", "help", "compress", "force"];

/// How a flag's value is checked, and what an absent flag means.
enum FlagKind {
    /// An integer in `lo..=hi`. `default` reads it off the configs the
    /// flag overrides; `None` leaves the setting off.
    Num {
        lo: u64,
        hi: u64,
        default: fn(&ServiceConfig, &FrontendConfig) -> Option<u64>,
    },
    /// One of the listed words; absent means "decide per input".
    Choice(&'static [&'static str]),
    /// Free text.
    Text { default: &'static str },
    /// No value: presence alone switches it on.
    Bare,
}

/// One `pasgal serve` flag.
struct ServeFlag {
    name: &'static str,
    kind: FlagKind,
    help: &'static str,
}

const fn num(
    name: &'static str,
    lo: u64,
    hi: u64,
    default: fn(&ServiceConfig, &FrontendConfig) -> Option<u64>,
    help: &'static str,
) -> ServeFlag {
    ServeFlag {
        name,
        kind: FlagKind::Num { lo, hi, default },
        help,
    }
}

const MAX_SOURCES: u64 = pasgal_core::multi::MAX_SOURCES as u64;

/// Every `pasgal serve` flag. This table *is* the parser: the allowlist
/// (a serve option not listed here is a [`UsageError`], never silently
/// ignored), each value's range check and default, and the
/// `serve --help` text are all read off it, and [`start_service`] can
/// only read a flag through its row.
const SERVE_FLAGS: &[ServeFlag] = &[
    ServeFlag {
        name: "host",
        kind: FlagKind::Text { default: "127.0.0.1" },
        help: "bind address",
    },
    num("port", 0, 65_535, |_, _| Some(7421), "TCP port; 0 picks an ephemeral port, resolved in the banner"),
    num("io-threads", 1, 64, |_, f| Some(f.io_threads as u64), "front-end I/O threads, each polling its share of connections"),
    num("shards", 1, 64, |_, _| Some(1), "worker-pool/cache shards; queries route by hash of graph name"),
    num("pipeline-depth", 1, 4096, |_, f| Some(f.pipeline_depth as u64), "pipelined requests one connection may have in flight before its reads pause"),
    num("workers", 1, 4096, |s, _| Some(s.workers as u64), "worker threads executing traversals, divided across shards"),
    num("queue", 1, 1_000_000, |s, _| Some(s.queue_capacity as u64), "bounded admission queue depth; a full queue rejects with overloaded"),
    num("timeout-ms", 1, 86_400_000, |s, _| Some(s.query_timeout.as_millis() as u64), "per-attempt query timeout in milliseconds"),
    num("cache", 1, 1_000_000, |s, _| Some(s.cache_capacity as u64), "result-cache capacity in entries, LRU evicted"),
    num("tau", 1, 1 << 20, |s, _| Some(s.tau as u64), "VGC granularity τ for all traversals"),
    num("threads", 1, 4096, |_, _| None, "rayon threads inside each traversal (default: all cores)"),
    num("max-retries", 0, 100, |s, _| Some(u64::from(s.resilience.max_retries)), "retry budget for transient failures: panics, injected faults, overload; 0 disables retry"),
    num("breaker-threshold", 0, 1_000_000, |s, _| Some(u64::from(s.resilience.breaker_threshold)), "consecutive flight failures that open a key's circuit breaker; 0 disables breakers"),
    num("breaker-cooldown-ms", 0, 600_000, |s, _| Some(s.resilience.breaker_cooldown.as_millis() as u64), "how long an open breaker waits before admitting a half-open probe"),
    num("oracle-resident", 0, MAX_SOURCES, |s, _| Some(s.oracle_resident_max as u64), "graphs with ≤ N vertices promote a resident all-pairs distance oracle into the cache; 0 disables"),
    num("oracle-sources", 1, MAX_SOURCES, |s, _| Some(s.oracle_max_sources as u64), "seats per multi-source oracle flight"),
    num("default-deadline-ms", 1, 86_400_000, |_, _| None, "end-to-end deadline applied to queries that carry no deadline_ms of their own (default: none)"),
    num("memory-budget-mb", 1, 1_048_576, |_, _| None, "resident-memory budget feeding the brownout controller; pressure above it sheds oracle promotion and flight width (default: none)"),
    num("compact-delta-kb", 1, 4_194_304, |s, _| Some((s.compact_delta_bytes / 1024) as u64), "mutation-overlay delta size that triggers background compaction into a fresh CSR"),
    ServeFlag {
        name: "storage",
        kind: FlagKind::Choice(&["plain", "compressed", "mmap"]),
        help: "backend positional graphs load into (default: mmap for .pasgal containers, plain otherwise)",
    },
    num("drain-ms", 0, 600_000, |_, _| Some(5_000), "shutdown drain deadline for in-flight work on SIGINT/SIGTERM"),
    ServeFlag {
        name: "help",
        kind: FlagKind::Bare,
        help: "print this flag listing and exit",
    },
];

impl ServeFlag {
    /// `--name VALUE` as the help text spells it.
    fn usage(&self) -> String {
        match self.kind {
            FlagKind::Num { .. } => format!("{} N", self.name),
            FlagKind::Choice(words) => format!("{} {}", self.name, words.join("|")),
            FlagKind::Text { .. } => format!("{} S", self.name),
            FlagKind::Bare => self.name.to_string(),
        }
    }
}

/// Render `pasgal serve --help`.
pub fn serve_help() -> String {
    let mut out = String::from(
        "usage: pasgal serve [graph-files...] [options]\n\n\
         Start the query service (JSON lines or the PGB1 binary protocol\n\
         over TCP); each positional graph file is registered under its\n\
         file stem.\n\noptions:\n",
    );
    let (service, frontend) = (ServiceConfig::default(), FrontendConfig::default());
    let width = SERVE_FLAGS
        .iter()
        .map(|f| f.usage().len())
        .max()
        .unwrap_or(0);
    for flag in SERVE_FLAGS {
        out.push_str(&format!("  --{:<width$}  {}", flag.usage(), flag.help));
        match flag.kind {
            FlagKind::Num { lo, hi, default } => {
                out.push_str(&format!(" [{lo}..={hi}"));
                if let Some(d) = default(&service, &frontend) {
                    out.push_str(&format!(", default {d}"));
                }
                out.push(']');
            }
            FlagKind::Text { default } => out.push_str(&format!(" [default {default}]")),
            FlagKind::Choice(_) | FlagKind::Bare => {}
        }
        out.push('\n');
    }
    out
}

/// Every number `pasgal serve` runs with, by flag name: the given value,
/// else the row's default (`None`: the setting stays off). Reading a
/// name that is not a `Num` row of [`SERVE_FLAGS`] panics.
type ServeNumbers = HashMap<&'static str, Option<u64>>;

/// The one pass over `serve`'s options: every `--key` must be a
/// `SERVE_FLAGS` row and every value must pass its row's check. A typo
/// like `--breaker-treshold` errors instead of silently running with
/// defaults.
pub fn validate_serve_options(cli: &Cli) -> Result<ServeNumbers, UsageError> {
    if let Some(key) = cli
        .options
        .keys()
        .find(|key| SERVE_FLAGS.iter().all(|f| f.name != key.as_str()))
    {
        return Err(UsageError(format!(
            "unknown serve option --{key} (see pasgal serve --help)"
        )));
    }
    let (service, frontend) = (ServiceConfig::default(), FrontendConfig::default());
    let mut numbers = ServeNumbers::new();
    for &ServeFlag { name, ref kind, .. } in SERVE_FLAGS {
        match (kind, cli.options.get(name)) {
            (FlagKind::Num { default, .. }, None) => {
                numbers.insert(name, default(&service, &frontend));
            }
            (&FlagKind::Num { lo, hi, .. }, Some(raw)) => match raw.parse::<u64>() {
                Ok(v) if (lo..=hi).contains(&v) => {
                    numbers.insert(name, Some(v));
                }
                _ => {
                    return Err(UsageError(format!(
                        "--{name} must be a number in {lo}..={hi} (got {raw:?})"
                    )))
                }
            },
            (FlagKind::Choice(words), Some(raw)) if !words.contains(&raw.as_str()) => {
                return Err(UsageError(format!(
                    "--{name} must be one of {} (got {raw:?})",
                    words.join(", ")
                )))
            }
            _ => {}
        }
    }
    Ok(numbers)
}

/// Parse raw arguments (excluding `argv[0]`).
pub fn parse_args(args: &[String]) -> Result<Cli, UsageError> {
    let mut it = args.iter().peekable();
    let command = it
        .next()
        .ok_or_else(|| UsageError("missing command".into()))?
        .clone();
    let mut positional = Vec::new();
    let mut options = HashMap::new();
    while let Some(a) = it.next() {
        if let Some(key) = a.strip_prefix("--") {
            if FLAG_OPTIONS.contains(&key) {
                options.insert(key.to_string(), "true".to_string());
                continue;
            }
            let val = it
                .next()
                .ok_or_else(|| UsageError(format!("option --{key} needs a value")))?;
            options.insert(key.to_string(), val.clone());
        } else {
            positional.push(a.clone());
        }
    }
    Ok(Cli {
        command,
        positional,
        options,
    })
}

impl Cli {
    /// Numeric option with a default.
    pub fn num(&self, key: &str, default: u64) -> Result<u64, UsageError> {
        match self.options.get(key) {
            None => Ok(default),
            Some(s) => s
                .parse()
                .map_err(|_| UsageError(format!("--{key} expects a number, got {s:?}"))),
        }
    }

    /// String option with a default.
    pub fn opt<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.options.get(key).map(|s| s.as_str()).unwrap_or(default)
    }
}

/// Validate `--threads`: absent is fine (0 = use every core), but an
/// explicit value must parse and be in `1..=4096`. Callers apply the
/// result to the global pool; this only validates.
pub fn threads_option(cli: &Cli) -> Result<usize, UsageError> {
    let t = cli.num("threads", 0)?;
    if cli.options.contains_key("threads") && t == 0 {
        return Err(UsageError("--threads must be at least 1".into()));
    }
    if t > 4096 {
        return Err(UsageError(format!(
            "--threads {t} is not a sane thread count"
        )));
    }
    Ok(t as usize)
}

/// Parse `--drain-ms`: how long a shutting-down server waits for
/// in-flight queries after cancelling them (default 5 s). Zero is
/// allowed and means "cancel and exit immediately".
pub fn drain_option(cli: &Cli) -> Result<std::time::Duration, UsageError> {
    let ms = validate_serve_options(cli)?["drain-ms"].expect("the row has a default");
    Ok(std::time::Duration::from_millis(ms))
}

/// The start-up banner for `pasgal serve`: bound address (first line,
/// address last so scripts can grab it), front end tuning, and the
/// registered-graph listing across every shard.
pub fn serve_banner(service: &ShardedService, server: &EventServer) -> String {
    let rows: Vec<String> = service
        .list()
        .into_iter()
        .map(|(name, n, m, kind, _)| format!("  {name}: n = {n}, m = {m}, storage {kind}"))
        .collect();
    let c = server.config();
    let mut out = format!(
        "pasgal-service listening on {}\nfront end: {} io threads, {} shards, pipeline depth {}",
        server.local_addr(),
        c.io_threads,
        service.num_shards(),
        c.pipeline_depth
    );
    if !rows.is_empty() {
        out.push_str(&format!("\nregistered graphs:\n{}", rows.join("\n")));
    }
    out
}

/// The word given for the `Text` or `Choice` row `name` of
/// [`SERVE_FLAGS`], else the row's default (`None`: decided per input).
/// Panics on a name that has no such row.
fn serve_word<'a>(cli: &'a Cli, name: &str) -> Option<&'a str> {
    let default = match SERVE_FLAGS.iter().find(|f| f.name == name).map(|f| &f.kind) {
        Some(FlagKind::Text { default }) => Some(*default),
        Some(FlagKind::Choice(_)) => None,
        _ => panic!("--{name} is not a word flag in SERVE_FLAGS"),
    };
    cli.options.get(name).map(String::as_str).or(default)
}

/// The shard and front-end tuning `numbers` asks for. Split from
/// [`start_service`] so a test can see each flag land in its field.
fn serve_configs(numbers: &ServeNumbers) -> (ServiceConfig, FrontendConfig) {
    use std::time::Duration;
    let value = |name: &str| numbers[name].expect("the row has a default");
    let defaults = ServiceConfig::default();
    let config = ServiceConfig {
        workers: value("workers") as usize,
        queue_capacity: value("queue") as usize,
        query_timeout: Duration::from_millis(value("timeout-ms")),
        cache_capacity: value("cache") as usize,
        tau: value("tau") as usize,
        resilience: pasgal_service::ResilienceConfig {
            max_retries: value("max-retries") as u32,
            breaker_threshold: value("breaker-threshold") as u32,
            breaker_cooldown: Duration::from_millis(value("breaker-cooldown-ms")),
            ..defaults.resilience
        },
        oracle_resident_max: value("oracle-resident") as usize,
        oracle_max_sources: value("oracle-sources") as usize,
        default_deadline: numbers["default-deadline-ms"].map(Duration::from_millis),
        memory_budget: numbers["memory-budget-mb"].map(|mb| mb * 1024 * 1024),
        compact_delta_bytes: value("compact-delta-kb") as usize * 1024,
        ..defaults
    };
    let frontend = FrontendConfig {
        io_threads: value("io-threads") as usize,
        pipeline_depth: value("pipeline-depth") as usize,
        ..FrontendConfig::default()
    };
    (config, frontend)
}

/// Build the query service for `pasgal serve`: check every option against
/// `SERVE_FLAGS`, build the shard fleet, register every positional
/// graph file under its file stem, and bind the front end. Returns both
/// so the caller controls their lifetime.
pub fn start_service(cli: &Cli) -> Result<(Arc<ShardedService>, EventServer), String> {
    let numbers = validate_serve_options(cli).map_err(|e| e.to_string())?;
    let value = |name: &str| numbers[name].expect("the row has a default");
    let (config, frontend) = serve_configs(&numbers);
    let sharded = Arc::new(ShardedService::new(config, value("shards") as usize));
    for file in &cli.positional {
        let name = Path::new(file)
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or(file.as_str());
        let store = io::load_store_by_ext(file, serve_word(cli, "storage"))?;
        sharded.register(name, store);
    }
    let host = serve_word(cli, "host").expect("--host has a default");
    let addr = format!("{host}:{}", value("port"));
    let server = EventServer::spawn(Arc::clone(&sharded), &addr, frontend)
        .map_err(|e| format!("cannot bind {addr}: {e}"))?;
    Ok((sharded, server))
}

/// Run a driver-backed algorithm under a `TracingObserver`, returning its
/// result plus the rendered per-round trace (for `--trace-rounds`). The
/// token is fresh, so the `Cancelled` branch is unreachable.
fn traced<R>(
    f: impl FnOnce(
        &pasgal_core::common::CancelToken,
        &dyn pasgal_core::engine::RoundObserver,
    ) -> Result<R, pasgal_core::common::Cancelled>,
) -> (R, String) {
    let tracer = pasgal_core::engine::TracingObserver::new();
    let r =
        f(&pasgal_core::common::CancelToken::new(), &tracer).expect("fresh token cannot cancel");
    (r, tracer.lines().join("\n"))
}

/// Run a parsed one-shot command (everything but `serve`, which `main`
/// drives through [`start_service`]) against a loaded graph world.
/// Returns the text to print. Separated from IO for testability.
pub fn run(cli: &Cli) -> Result<String, String> {
    use pasgal_core::{bcc, bfs, cc, kcore, scc, sssp};
    use pasgal_graph::transform::symmetrize;

    let usage_err = |m: &str| Err(m.to_string());
    match cli.command.as_str() {
        "gen" => {
            let [name, out] = cli.positional.as_slice() else {
                return usage_err("usage: pasgal gen <SUITE-NAME> <out-file> [--scale s]");
            };
            let entry = pasgal_graph::gen::suite::by_name(name)
                .ok_or_else(|| format!("unknown suite graph {name:?}"))?;
            let scale = match cli.opt("scale", "small") {
                "tiny" => pasgal_graph::gen::suite::SuiteScale::Tiny,
                "full" => pasgal_graph::gen::suite::SuiteScale::Full,
                _ => pasgal_graph::gen::suite::SuiteScale::Small,
            };
            let g = entry.build(scale);
            let write = if out.ends_with(".adj") {
                io::write_adj(&g, out)
            } else if out.ends_with(".bin") {
                io::write_bin(&g, out)
            } else {
                io::write_edge_list(&g, out)
            };
            write.map_err(|e| format!("cannot write {out}: {e}"))?;
            return Ok(format!(
                "wrote {} (n = {}, m = {})",
                out,
                g.num_vertices(),
                g.num_edges()
            ));
        }
        "pack" => {
            let [input, out] = cli.positional.as_slice() else {
                return usage_err(
                    "usage: pasgal pack <graph-file> <out.pasgal> [--compress] [--force]",
                );
            };
            if !out.ends_with(".pasgal") {
                return usage_err(&format!(
                    "pack output must end in .pasgal (got {out:?}) so loaders recognize the container"
                ));
            }
            // packing a container onto itself would read and truncate the
            // same file; catch it before any byte is written
            if let (Ok(a), Ok(b)) = (std::fs::canonicalize(input), std::fs::canonicalize(out)) {
                if a == b {
                    return usage_err(&format!(
                        "pack input and output are the same file ({input}); refusing"
                    ));
                }
            }
            let compress = cli.options.contains_key("compress");
            let force = cli.options.contains_key("force");
            let g = io::load_graph_by_ext(input)?;
            pasgal_graph::disk::pack_checked(&g, out, compress, force)
                .map_err(|e| format!("cannot write {out}: {e}"))?;
            let packed_bytes = std::fs::metadata(out).map(|m| m.len()).unwrap_or(0);
            return Ok(format!(
                "packed {} -> {} (n = {}, m = {}, payload {}, {} bytes)",
                input,
                out,
                g.num_vertices(),
                g.num_edges(),
                if compress { "compressed" } else { "plain" },
                packed_bytes
            ));
        }
        "verify" => {
            let [file] = cli.positional.as_slice() else {
                return usage_err("usage: pasgal verify <file.pasgal>");
            };
            let report =
                pasgal_graph::disk::verify(file).map_err(|e| format!("cannot read {file}: {e}"))?;
            let mut out = String::new();
            for c in &report.checks {
                out.push_str(&format!(
                    "{} {:<12} {}\n",
                    if c.ok { "ok  " } else { "FAIL" },
                    c.name,
                    c.detail
                ));
            }
            if report.ok() {
                out.push_str(&format!("{}: container verifies clean", file));
                return Ok(out);
            }
            // corruption exits non-zero: main prints Err to stderr and
            // exits 1, so `pasgal verify` is scriptable as a gate
            out.push_str(&format!("{}: container is corrupt", file));
            return Err(out);
        }
        "stats" | "bfs" | "sssp" | "scc" | "bcc" | "cc" | "kcore" | "ptp" | "oracle"
        | "validate" => {}
        other => return usage_err(&format!("unknown command {other:?}")),
    }

    let [file] = cli.positional.as_slice() else {
        return usage_err("usage: pasgal <command> <graph-file> [options]");
    };
    threads_option(cli).map_err(|e| e.to_string())?;
    let g = io::load_graph_by_ext(file)?;
    let n = g.num_vertices();
    if n == 0 {
        return usage_err("graph is empty");
    }
    let tau = cli.num("tau", 512).map_err(|e| e.to_string())? as usize;
    let cfg = VgcConfig::with_tau(tau);
    let src = cli.num("src", 0).map_err(|e| e.to_string())? as u32;
    if (src as usize) >= n {
        return usage_err(&format!("--src {src} out of range (n = {n})"));
    }
    let algo = cli.opt("algo", "pasgal").to_string();
    let trace = cli.options.contains_key("trace-rounds");
    let mut trace_out = String::new();
    let trace_unsupported = |a: &str| {
        Err(format!(
            "--trace-rounds needs a round-driver implementation; --algo {a} does not use one"
        ))
    };

    let out = match cli.command.as_str() {
        "validate" => {
            let vs = pasgal_graph::validate::validate(
                &g,
                &pasgal_graph::validate::ValidateOptions::default(),
            );
            if vs.is_empty() {
                "graph is structurally valid".to_string()
            } else {
                let mut s = format!("{} violations:\n", vs.len());
                for v in &vs {
                    s.push_str(&format!("  {v}\n"));
                }
                return Err(s);
            }
        }
        "stats" => {
            let info = pasgal_graph::stats::graph_info(&g, 16, 1);
            let d = pasgal_graph::stats::degree_stats(&g);
            format!(
                "n = {}\nm' = {:?}\nm = {}\nD' ≥ {:?}\nD ≥ {}\ndegrees: min {} avg {:.2} max {}",
                info.n,
                info.m_directed,
                info.m_symmetric,
                info.diam_directed,
                info.diam_symmetric,
                d.min,
                d.avg,
                d.max
            )
        }
        "bfs" => {
            let r = if trace {
                let (r, t) = match algo.as_str() {
                    "flat" | "gbbs" => traced(|tk, ob| {
                        bfs::flat::bfs_flat_observed(
                            &g,
                            src,
                            None,
                            &bfs::flat::DirOptConfig::default(),
                            tk,
                            ob,
                        )
                    }),
                    "pasgal" | "vgc" => {
                        traced(|tk, ob| bfs::vgc::bfs_vgc_dir_observed(&g, src, None, &cfg, tk, ob))
                    }
                    other => return trace_unsupported(other),
                };
                trace_out = t;
                r
            } else {
                match algo.as_str() {
                    "seq" => bfs::seq::bfs_seq(&g, src),
                    "flat" | "gbbs" => {
                        bfs::flat::bfs_flat(&g, src, None, &bfs::flat::DirOptConfig::default())
                    }
                    "gap" | "gapbs" => bfs::gap::bfs_gap(&g, src, None),
                    _ => bfs::vgc::bfs_vgc(&g, src, &cfg),
                }
            };
            let reached = r.dist.iter().filter(|&&d| d != u32::MAX).count();
            let ecc = r.dist.iter().filter(|&&d| d != u32::MAX).max().unwrap();
            format!(
                "bfs from {src}: reached {reached}/{n}, eccentricity {ecc}, rounds {}",
                r.stats.rounds
            )
        }
        "sssp" => {
            let r = if trace {
                let (r, t) = match algo.as_str() {
                    "pasgal" | "rho" => traced(|tk, ob| {
                        sssp::stepping::sssp_rho_stepping_observed(
                            &g,
                            src,
                            &sssp::stepping::RhoConfig::default(),
                            tk,
                            ob,
                        )
                    }),
                    other => return trace_unsupported(other),
                };
                trace_out = t;
                r
            } else {
                match algo.as_str() {
                    "seq" | "dijkstra" => sssp::sssp_dijkstra(&g, src),
                    "delta" => sssp::sssp_delta_stepping(
                        &g,
                        src,
                        cli.num("delta", 1024).map_err(|e| e.to_string())?,
                    ),
                    "bf" | "bellman-ford" => sssp::sssp_bellman_ford(&g, src),
                    _ => sssp::sssp_rho_stepping(&g, src, &sssp::stepping::RhoConfig::default()),
                }
            };
            let reached = r.dist.iter().filter(|&&d| d != u64::MAX).count();
            let far = r.dist.iter().filter(|&&d| d != u64::MAX).max().unwrap();
            format!(
                "sssp from {src}: reached {reached}/{n}, max distance {far}, rounds {}",
                r.stats.rounds
            )
        }
        "scc" => {
            let r = if trace {
                let (r, t) = match algo.as_str() {
                    "pasgal" | "vgc" => {
                        traced(|tk, ob| scc::fwbw::scc_vgc_observed(&g, &cfg, tk, ob))
                    }
                    other => return trace_unsupported(other),
                };
                trace_out = t;
                r
            } else {
                match algo.as_str() {
                    "seq" | "tarjan" => scc::scc_tarjan(&g),
                    "gbbs" | "bfs" => scc::scc_bfs_based(&g),
                    "bgss" => scc::scc_bgss_bfs(&g),
                    "bgss-vgc" => scc::scc_bgss_vgc(&g, &cfg),
                    "multistep" => scc::scc_multistep(&g).map_err(|e| e.to_string())?,
                    _ => scc::scc_vgc(&g, &cfg),
                }
            };
            format!("scc: {} components, rounds {}", r.num_sccs, r.stats.rounds)
        }
        "bcc" => {
            let gs = if g.is_symmetric() { g } else { symmetrize(&g) };
            let r = if trace {
                let (r, t) = match algo.as_str() {
                    "pasgal" | "fast" => traced(|tk, ob| bcc::fast::bcc_fast_observed(&gs, tk, ob)),
                    other => return trace_unsupported(other),
                };
                trace_out = t;
                r
            } else {
                match algo.as_str() {
                    "seq" | "hopcroft-tarjan" => bcc::bcc_hopcroft_tarjan(&gs),
                    "tv" | "tarjan-vishkin" => bcc::bcc_tarjan_vishkin(&gs),
                    "gbbs" | "bfs" => bcc::bcc_bfs_based(&gs),
                    _ => bcc::bcc_fast(&gs),
                }
            };
            let arts = bcc::articulation_points(&gs, &r.edge_labels)
                .iter()
                .filter(|&&a| a)
                .count();
            format!(
                "bcc: {} blocks, {} articulation points, rounds {}",
                r.num_bccs, arts, r.stats.rounds
            )
        }
        "cc" => {
            let r = if trace {
                let (r, t) = traced(|tk, ob| cc::connectivity_observed(&g, tk, ob));
                trace_out = t;
                r
            } else {
                cc::connectivity(&g)
            };
            format!("cc: {} components", r.num_components)
        }
        "kcore" => {
            let gs = if g.is_symmetric() { g } else { symmetrize(&g) };
            let r = if trace {
                let (r, t) = match algo.as_str() {
                    "pasgal" | "peel" => {
                        traced(|tk, ob| kcore::kcore_peel_observed(&gs, tau, tk, ob))
                    }
                    other => return trace_unsupported(other),
                };
                trace_out = t;
                r
            } else {
                match algo.as_str() {
                    "seq" | "bz" => kcore::kcore_seq(&gs),
                    _ => kcore::kcore_peel(&gs, tau),
                }
            };
            format!(
                "kcore: degeneracy {}, rounds {}",
                r.degeneracy, r.stats.rounds
            )
        }
        "ptp" => {
            let dst = cli.num("dst", (n - 1) as u64).map_err(|e| e.to_string())? as u32;
            if (dst as usize) >= n {
                return usage_err(&format!("--dst {dst} out of range (n = {n})"));
            }
            let r = match algo.as_str() {
                "seq" | "dijkstra" => sssp::ptp::ptp_dijkstra(&g, src, dst),
                "bidi" => sssp::ptp::ptp_bidirectional_auto(&g, src, dst),
                _ => {
                    sssp::ptp::ptp_rho_stepping(&g, src, dst, &sssp::stepping::RhoConfig::default())
                }
            };
            if r.distance == u64::MAX {
                format!("ptp {src} → {dst}: unreachable (settled {})", r.settled)
            } else {
                format!(
                    "ptp {src} → {dst}: distance {}, settled {}",
                    r.distance, r.settled
                )
            }
        }
        "oracle" => {
            use pasgal_core::multi::{DistanceOracle, MAX_SOURCES};
            let mut sources: Vec<u32> = match cli.options.get("sources") {
                Some(list) => {
                    let mut v = Vec::new();
                    for part in list.split(',').filter(|p| !p.is_empty()) {
                        let s: u32 = part
                            .parse()
                            .map_err(|_| format!("--sources: {part:?} is not a vertex id"))?;
                        if (s as usize) >= n {
                            return usage_err(&format!(
                                "--sources: vertex {s} out of range (n = {n})"
                            ));
                        }
                        if !v.contains(&s) {
                            v.push(s);
                        }
                    }
                    v
                }
                None => vec![src],
            };
            if !sources.contains(&src) {
                sources.push(src);
            }
            if sources.len() > MAX_SOURCES {
                return usage_err(&format!(
                    "--sources: at most {MAX_SOURCES} sources per flight (got {})",
                    sources.len()
                ));
            }
            let (oracle, stats) = DistanceOracle::build(&g, &sources);
            let flight = format!(
                "oracle: {} sources in one flight, rounds {}, resident {} bytes",
                oracle.num_sources(),
                stats.rounds,
                oracle.resident_bytes()
            );
            match cli.options.get("dst") {
                Some(_) => {
                    let dst = cli.num("dst", 0).map_err(|e| e.to_string())? as u32;
                    if (dst as usize) >= n {
                        return usage_err(&format!("--dst {dst} out of range (n = {n})"));
                    }
                    match oracle.dist(src, dst) {
                        Some(d) if d != pasgal_core::common::UNREACHED => {
                            format!("{flight}\noracle {src} → {dst}: distance {d}")
                        }
                        _ => format!("{flight}\noracle {src} → {dst}: unreachable"),
                    }
                }
                None => {
                    let col = oracle.column(src).expect("src is always a seated source");
                    let reached = col
                        .iter()
                        .filter(|&&d| d != pasgal_core::common::UNREACHED)
                        .count();
                    let ecc = col
                        .iter()
                        .filter(|&&d| d != pasgal_core::common::UNREACHED)
                        .max()
                        .copied()
                        .unwrap_or(0);
                    format!(
                        "{flight}\noracle from {src}: reached {reached}/{n}, eccentricity {ecc}"
                    )
                }
            }
        }
        _ => unreachable!("validated above"),
    };
    Ok(if trace_out.is_empty() {
        out
    } else {
        format!("{trace_out}\n{out}")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Cli {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    /// A 6x9 grid written as `fixture.bin` in a directory of the test's
    /// own; further scratch files go beside it.
    fn write_fixture() -> (io::TempDir, std::path::PathBuf) {
        let dir = io::unique_temp_dir("cli");
        let p = dir.join("fixture.bin");
        io::write_bin(&pasgal_graph::gen::basic::grid2d(6, 9), &p).unwrap();
        (dir, p)
    }

    #[test]
    fn parse_command_positional_options() {
        let c = cli(&["bfs", "g.adj", "--src", "5", "--tau", "64"]);
        assert_eq!(c.command, "bfs");
        assert_eq!(c.positional, vec!["g.adj"]);
        assert_eq!(c.num("src", 0).unwrap(), 5);
        assert_eq!(c.num("tau", 512).unwrap(), 64);
        assert_eq!(c.num("missing", 9).unwrap(), 9);
    }

    #[test]
    fn parse_errors() {
        assert!(parse_args(&[]).is_err());
        let e = parse_args(&["bfs".into(), "--src".into()]);
        assert!(e.is_err());
        let c = cli(&["bfs", "g", "--src", "abc"]);
        assert!(c.num("src", 0).is_err());
    }

    #[test]
    fn run_bfs_and_variants() {
        let (_dir, p) = write_fixture();
        let f = p.to_str().unwrap();
        for algo in ["pasgal", "seq", "flat", "gap"] {
            let out = run(&cli(&["bfs", f, "--algo", algo])).unwrap();
            assert!(out.contains("reached 54/54"), "{algo}: {out}");
            assert!(out.contains("eccentricity 13"), "{algo}: {out}");
        }
    }

    #[test]
    fn pack_roundtrip_and_query_over_container() {
        let (dir, p) = write_fixture();
        let f = p.to_str().unwrap();
        for compress in [false, true] {
            let out_path = dir.join(format!("pack_{compress}.pasgal"));
            let out_file = out_path.to_str().unwrap().to_string();
            let mut args = vec!["pack", f, &out_file];
            if compress {
                args.push("--compress");
            }
            let out = run(&cli(&args)).unwrap();
            assert!(out.contains("n = 54"), "{out}");
            assert!(
                out.contains(if compress { "compressed" } else { "plain" }),
                "{out}"
            );
            // query commands decode the container transparently
            let out = run(&cli(&["bfs", &out_file])).unwrap();
            assert!(out.contains("reached 54/54"), "{out}");
        }
        // bad extension is rejected before any work happens
        let e = run(&cli(&["pack", f, "out.bin"])).unwrap_err();
        assert!(e.contains(".pasgal"), "{e}");
    }

    #[test]
    fn pack_refuses_overwrite_without_force() {
        let (dir, p) = write_fixture();
        let f = p.to_str().unwrap();
        let out_path = dir.join("force.pasgal");
        let out_file = out_path.to_str().unwrap().to_string();
        run(&cli(&["pack", f, &out_file])).unwrap();
        let before = std::fs::metadata(&out_path).unwrap().modified().unwrap();
        // second pack without --force must refuse and leave the file alone
        let e = run(&cli(&["pack", f, &out_file])).unwrap_err();
        assert!(e.contains("--force"), "{e}");
        assert_eq!(
            std::fs::metadata(&out_path).unwrap().modified().unwrap(),
            before,
            "a refused pack must not touch the existing container"
        );
        // --force overwrites, and the result still loads
        let out = run(&cli(&["pack", f, &out_file, "--force"])).unwrap();
        assert!(out.contains("packed"), "{out}");
        assert!(pasgal_graph::disk::MmapGraph::load(&out_path).is_ok());
        // packing a container onto itself is refused outright
        let e = run(&cli(&["pack", &out_file, &out_file, "--force"])).unwrap_err();
        assert!(e.contains("same file"), "{e}");
    }

    #[test]
    fn verify_reports_sections_and_flags_corruption() {
        let (dir, p) = write_fixture();
        let f = p.to_str().unwrap();
        let out_path = dir.join("verify.pasgal");
        let out_file = out_path.to_str().unwrap().to_string();
        run(&cli(&["pack", f, &out_file])).unwrap();

        let out = run(&cli(&["verify", &out_file])).unwrap();
        assert!(out.contains("verifies clean"), "{out}");
        assert!(out.contains("header"), "{out}");
        assert!(out.contains("section"), "{out}");
        assert!(!out.contains("FAIL"), "{out}");

        // flip one payload byte: verify must fail (non-zero exit via Err)
        // and say which check broke
        let mut bytes = std::fs::read(&out_path).unwrap();
        let last = bytes.len() - 9;
        bytes[last] ^= 0x40;
        std::fs::write(&out_path, &bytes).unwrap();
        let e = run(&cli(&["verify", &out_file])).unwrap_err();
        assert!(e.contains("corrupt"), "{e}");
        assert!(e.contains("FAIL"), "{e}");

        let e = run(&cli(&["verify"])).unwrap_err();
        assert!(e.contains("usage"), "{e}");
        let e = run(&cli(&["verify", "/no/such/file.pasgal"])).unwrap_err();
        assert!(e.contains("cannot read"), "{e}");
    }

    #[test]
    fn serve_mmap_storage_demands_container_files() {
        let (_dir, p) = write_fixture();
        let c = cli(&["serve", "--storage", "mmap", p.to_str().unwrap()]);
        let e = start_service(&c).err().expect("should fail");
        assert!(e.contains(".pasgal"), "{e}");
    }

    #[test]
    fn run_scc_bcc_cc_kcore() {
        let (_dir, p) = write_fixture();
        let f = p.to_str().unwrap();
        let out = run(&cli(&["scc", f])).unwrap();
        assert!(out.contains("1 components"), "{out}");
        let out = run(&cli(&["bcc", f])).unwrap();
        assert!(out.contains("1 blocks"), "{out}");
        let out = run(&cli(&["cc", f])).unwrap();
        assert!(out.contains("1 components"), "{out}");
        let out = run(&cli(&["kcore", f])).unwrap();
        assert!(out.contains("degeneracy 2"), "{out}");
    }

    #[test]
    fn run_sssp_and_ptp() {
        let (_dir, p) = write_fixture();
        let f = p.to_str().unwrap();
        let out = run(&cli(&["sssp", f])).unwrap();
        assert!(out.contains("max distance 13"), "{out}");
        let out = run(&cli(&["ptp", f, "--dst", "53"])).unwrap();
        assert!(out.contains("distance 13"), "{out}");
    }

    #[test]
    fn run_oracle_lookup_and_column_summary() {
        let (_dir, p) = write_fixture();
        let f = p.to_str().unwrap();
        // point lookup: corner-to-corner on the 6x9 grid is 5 + 8 hops
        let out = run(&cli(&["oracle", f, "--src", "0", "--dst", "53"])).unwrap();
        assert!(out.contains("oracle 0 → 53: distance 13"), "{out}");
        assert!(out.contains("1 sources in one flight"), "{out}");
        // multi-seat flight: --src rides along even when missing from the list
        let out = run(&cli(&[
            "oracle",
            f,
            "--src",
            "2",
            "--sources",
            "0,5,53",
            "--dst",
            "53",
        ]))
        .unwrap();
        assert!(out.contains("4 sources in one flight"), "{out}");
        assert!(out.contains("oracle 2 → 53: distance"), "{out}");
        // column summary without --dst matches the bfs command's numbers
        let out = run(&cli(&["oracle", f])).unwrap();
        assert!(out.contains("reached 54/54"), "{out}");
        assert!(out.contains("eccentricity 13"), "{out}");
    }

    #[test]
    fn run_oracle_rejects_bad_sources() {
        let (_dir, p) = write_fixture();
        let f = p.to_str().unwrap();
        let e = run(&cli(&["oracle", f, "--sources", "0,999"])).unwrap_err();
        assert!(e.contains("out of range"), "{e}");
        let e = run(&cli(&["oracle", f, "--sources", "0,x"])).unwrap_err();
        assert!(e.contains("not a vertex id"), "{e}");
        let many: Vec<String> = (0..54).map(|i| i.to_string()).collect();
        // 54 distinct sources fit (MAX_SOURCES = 128); no error expected
        let out = run(&cli(&["oracle", f, "--sources", &many.join(",")])).unwrap();
        assert!(out.contains("54 sources in one flight"), "{out}");
    }

    #[test]
    fn trace_rounds_emits_per_round_lines() {
        let (_dir, p) = write_fixture();
        let f = p.to_str().unwrap();
        for cmd in ["bfs", "sssp", "scc", "bcc", "cc", "kcore"] {
            let out = run(&cli(&[cmd, f, "--trace-rounds"])).unwrap();
            assert!(out.contains("round 1: frontier"), "{cmd}: {out}");
        }
        // the summary line is still present after the trace
        let out = run(&cli(&["bfs", f, "--trace-rounds"])).unwrap();
        assert!(out.contains("reached 54/54"), "{out}");
        // flat BFS is driver-backed too: one trace line per level
        let out = run(&cli(&["bfs", f, "--algo", "flat", "--trace-rounds"])).unwrap();
        assert_eq!(
            out.matches("round ").count(),
            14,
            "one line per BFS level (distance 0..=13) on a 6x9 grid: {out}"
        );
        // implementations that bypass the round driver are rejected
        let e = run(&cli(&["bfs", f, "--algo", "seq", "--trace-rounds"])).unwrap_err();
        assert!(e.contains("--trace-rounds"), "{e}");
    }

    #[test]
    fn run_stats() {
        let (_dir, p) = write_fixture();
        let out = run(&cli(&["stats", p.to_str().unwrap()])).unwrap();
        assert!(out.contains("n = 54"), "{out}");
    }

    #[test]
    fn run_validate() {
        let (_dir, p) = write_fixture();
        let out = run(&cli(&["validate", p.to_str().unwrap()])).unwrap();
        assert!(out.contains("valid"), "{out}");
    }

    #[test]
    fn run_gen_roundtrip() {
        let dir = io::unique_temp_dir("cli");
        let p = dir.join("gen.adj");
        let out = run(&cli(&["gen", "LJ", p.to_str().unwrap(), "--scale", "tiny"])).unwrap();
        assert!(out.contains("wrote"), "{out}");
        let g = io::load_graph_by_ext(p.to_str().unwrap()).unwrap();
        assert!(g.num_vertices() > 0);
    }

    #[test]
    fn run_rejects_bad_input() {
        assert!(run(&cli(&["nope", "x"])).is_err());
        assert!(run(&cli(&["bfs", "/no/such/file.adj"])).is_err());
        let (_dir, p) = write_fixture();
        let e = run(&cli(&["bfs", p.to_str().unwrap(), "--src", "999999"]));
        assert!(e.is_err());
    }

    #[test]
    fn threads_option_validated() {
        assert_eq!(threads_option(&cli(&["bfs", "g"])).unwrap(), 0);
        assert_eq!(
            threads_option(&cli(&["bfs", "g", "--threads", "4"])).unwrap(),
            4
        );
        assert!(threads_option(&cli(&["bfs", "g", "--threads", "0"])).is_err());
        assert!(threads_option(&cli(&["bfs", "g", "--threads", "abc"])).is_err());
        assert!(threads_option(&cli(&["bfs", "g", "--threads", "-3"])).is_err());
        assert!(threads_option(&cli(&["bfs", "g", "--threads", "99999"])).is_err());
        // run() surfaces the same error instead of silently ignoring it
        let (_dir, p) = write_fixture();
        let e = run(&cli(&["bfs", p.to_str().unwrap(), "--threads", "0"]));
        assert!(e.is_err(), "{e:?}");
    }

    #[test]
    fn dst_out_of_range_is_usage_error() {
        let (_dir, p) = write_fixture();
        let f = p.to_str().unwrap();
        let e = run(&cli(&["ptp", f, "--dst", "54"])).unwrap_err();
        assert!(e.contains("out of range"), "{e}");
        let e = run(&cli(&["ptp", f, "--dst", "x"])).unwrap_err();
        assert!(e.contains("expects a number"), "{e}");
    }

    /// The whole life of `serve` as `main` drives it, minus the signal:
    /// flags reach the fleet and the front end, `--port 0` resolves in the
    /// banner and the API, positional graphs register under their stem,
    /// the service answers, and shutdown drains within `--drain-ms`.
    #[test]
    fn serve_starts_answers_over_tcp_and_drains() {
        use std::io::{BufRead, BufReader, Write};

        let (_dir, p) = write_fixture();
        let c = cli(&[
            "serve",
            p.to_str().unwrap(),
            "--port",
            "0",
            "--workers",
            "2",
            "--shards",
            "2",
            "--io-threads",
            "1",
            "--pipeline-depth",
            "16",
            "--drain-ms",
            "2000",
        ]);
        let (service, mut server) = start_service(&c).unwrap();
        assert_eq!(service.num_shards(), 2);
        let port = server.local_addr().port();
        assert_ne!(port, 0, "port 0 must resolve");
        let banner = serve_banner(&service, &server);
        let first = banner.lines().next().unwrap();
        assert!(first.starts_with("pasgal-service listening on"), "{first}");
        assert!(first.ends_with(&format!(":{port}")), "{first}");
        for want in [
            "1 io threads",
            "2 shards",
            "pipeline depth 16",
            "fixture: n = 54",
        ] {
            assert!(banner.contains(want), "{want}: {banner}");
        }

        let stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        writer
            .write_all(b"{\"op\":\"bfs\",\"graph\":\"fixture\",\"src\":0,\"target\":53}\n")
            .unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"dist\":13"), "{line}");
        // --workers reached the fleet: 2 over 2 shards, one each
        writer.write_all(b"{\"op\":\"health\"}\n").unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"ready\":true"), "{line}");
        assert!(line.contains("\"workers\":2"), "{line}");

        let t0 = std::time::Instant::now();
        server.shutdown_with_deadline(drain_option(&c).unwrap());
        assert!(t0.elapsed() < std::time::Duration::from_secs(5));
        // the drained connection is closed, not left hanging
        line.clear();
        assert_eq!(reader.read_line(&mut line).unwrap(), 0);
    }

    #[test]
    fn serve_rejects_unloadable_graphs_and_unbindable_hosts() {
        let err = |c: &Cli| start_service(c).err().expect("should fail");
        let e = err(&cli(&["serve", "/no/such/graph.bin", "--port", "0"]));
        assert!(e.contains("cannot read"), "{e}");
        let e = err(&cli(&["serve", "--host", "no.such.host.invalid"]));
        assert!(e.contains("cannot bind"), "{e}");
    }

    /// Every row of [`SERVE_FLAGS`] accepts a value of its kind and
    /// rejects one outside it, and a name outside the table is unknown,
    /// not ignored.
    #[test]
    fn every_serve_flag_takes_a_valid_value_and_rejects_an_invalid_one() {
        let check = |args: &[&str]| {
            let mut full = vec!["serve"];
            full.extend_from_slice(args);
            validate_serve_options(&cli(&full))
        };
        let mut all_valid: Vec<String> = vec!["serve".into()];
        for flag in SERVE_FLAGS {
            let name = format!("--{}", flag.name);
            let (valid, invalid): (Vec<String>, Vec<String>) = match flag.kind {
                FlagKind::Num { lo, hi, .. } => (
                    vec![lo.to_string(), hi.to_string()],
                    // `lo - 1` is -1 for the rows that start at 0
                    vec![
                        (hi + 1).to_string(),
                        "abc".into(),
                        (lo as i64 - 1).to_string(),
                    ],
                ),
                FlagKind::Choice(words) => (
                    words.iter().map(|w| w.to_string()).collect(),
                    vec!["nope".into()],
                ),
                FlagKind::Text { default } => (vec![default.to_string()], vec![]),
                FlagKind::Bare => {
                    assert!(check(&[&name]).is_ok(), "{name}");
                    continue;
                }
            };
            for v in &valid {
                assert!(check(&[&name, v]).is_ok(), "{name} {v}");
            }
            for v in &invalid {
                let e = check(&[&name, v]).expect_err(&format!("{name} {v}"));
                assert!(e.0.contains(&name), "{e}");
                // the service refuses to start on it, too
                assert!(start_service(&cli(&["serve", &name, v])).is_err());
            }
            // port 0, everything else at its smallest: bindable and cheap
            all_valid.extend([name, valid[0].clone()]);
        }
        let (_svc, mut server) = start_service(&parse_args(&all_valid).unwrap()).unwrap();
        server.shutdown();

        // a typo, or a flag this table dropped, must not silently run
        // with defaults
        for unknown in "breaker-treshold frontend invalidation mmap trace-rounds".split(' ') {
            let e = check(&[&format!("--{unknown}"), "x"]).unwrap_err();
            assert!(e.0.contains("unknown serve option"), "{unknown}: {e}");
            assert!(e.0.contains(unknown), "{e}");
        }
        assert_eq!(SERVE_FLAGS.len(), 22);
    }

    /// Every number reaches the field it names. The rows get distinct
    /// values, so a read of the wrong row, or a dropped one, shows.
    #[test]
    fn every_serve_number_lands_in_its_config_field() {
        let mut args = vec!["serve".to_string()];
        let mut given = HashMap::new();
        for (i, flag) in SERVE_FLAGS.iter().enumerate() {
            if let FlagKind::Num { .. } = flag.kind {
                given.insert(flag.name, 2 + i as u64);
                args.extend([format!("--{}", flag.name), (2 + i).to_string()]);
            }
        }
        let numbers = validate_serve_options(&parse_args(&args).unwrap()).unwrap();
        let (s, f) = serve_configs(&numbers);
        let ms = |d: std::time::Duration| d.as_millis() as u64;
        let landed = [
            ("io-threads", f.io_threads as u64),
            ("pipeline-depth", f.pipeline_depth as u64),
            ("workers", s.workers as u64),
            ("queue", s.queue_capacity as u64),
            ("timeout-ms", ms(s.query_timeout)),
            ("cache", s.cache_capacity as u64),
            ("tau", s.tau as u64),
            ("max-retries", s.resilience.max_retries.into()),
            ("breaker-threshold", s.resilience.breaker_threshold.into()),
            ("breaker-cooldown-ms", ms(s.resilience.breaker_cooldown)),
            ("oracle-resident", s.oracle_resident_max as u64),
            ("oracle-sources", s.oracle_max_sources as u64),
            ("default-deadline-ms", ms(s.default_deadline.unwrap())),
            ("memory-budget-mb", s.memory_budget.unwrap() >> 20),
            ("compact-delta-kb", s.compact_delta_bytes as u64 >> 10),
        ];
        for (name, got) in landed {
            assert_eq!(got, given[name], "--{name}");
        }
        // the other four act elsewhere: port and shards in `start_service`
        // (seen in the banner above), threads and drain-ms in `main`
        assert_eq!(landed.len() + 4, given.len());
    }

    #[test]
    fn serve_help_lists_exactly_the_table() {
        let help = serve_help();
        let listed: Vec<&str> = help
            .lines()
            .filter_map(|l| l.trim_start().strip_prefix("--"))
            .map(|rest| rest.split_whitespace().next().unwrap())
            .collect();
        let table: Vec<&str> = SERVE_FLAGS.iter().map(|f| f.name).collect();
        assert_eq!(listed, table, "{help}");
        // ranges and defaults come from the rows, not from prose
        assert!(help.contains("[0..=65535, default 7421]"), "{help}");
        assert!(help.contains("--storage plain|compressed|mmap"), "{help}");
    }

    #[test]
    fn drain_option_parses_with_default() {
        use std::time::Duration;
        assert_eq!(
            drain_option(&cli(&["serve"])).unwrap(),
            Duration::from_millis(5_000)
        );
        assert_eq!(
            drain_option(&cli(&["serve", "--drain-ms", "0"])).unwrap(),
            Duration::ZERO
        );
        assert_eq!(
            drain_option(&cli(&["serve", "--drain-ms", "250"])).unwrap(),
            Duration::from_millis(250)
        );
        assert!(drain_option(&cli(&["serve", "--drain-ms", "700000"])).is_err());
    }
}
