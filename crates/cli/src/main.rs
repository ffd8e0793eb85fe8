//! `pasgal` — run any PASGAL-rs algorithm on a graph file.
//! See the library docs (`pasgal_cli`) for the full usage.

use std::sync::atomic::{AtomicBool, Ordering};

/// Set by the SIGINT/SIGTERM handler; polled by the serve loop.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_sig: i32) {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Install `on_signal` for SIGINT (2) and SIGTERM (15) via the libc
/// `signal` symbol, which is always linked on unix targets. Atomics are
/// async-signal-safe, so the handler only flips a flag.
#[cfg(unix)]
fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_signal as *const () as usize);
        signal(SIGTERM, on_signal as *const () as usize);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {
    let _ = on_signal; // Ctrl-C falls back to the default abrupt exit
}

/// `pasgal serve`: run until SIGINT/SIGTERM, then drain and exit 0.
fn serve(cli: &pasgal_cli::Cli) -> Result<(), String> {
    if cli.options.contains_key("help") {
        println!("{}", pasgal_cli::serve_help());
        return Ok(());
    }
    let drain = pasgal_cli::drain_option(cli).map_err(|e| e.to_string())?;
    let (service, mut server) = pasgal_cli::start_service(cli)?;
    println!("{}", pasgal_cli::serve_banner(&service, &server));
    install_signal_handlers();
    while !SHUTDOWN.load(Ordering::SeqCst) {
        std::thread::park_timeout(std::time::Duration::from_millis(100));
    }
    eprintln!("signal received, draining for up to {drain:?}");
    server.shutdown_with_deadline(drain);
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args[0] == "--help" || args[0] == "-h" || args[0] == "help" {
        eprintln!(
            "usage: pasgal <command> <graph-file> [options]\n\
             commands: bfs sssp scc bcc cc kcore ptp stats validate gen pack verify serve\n\
             options:  --algo NAME --src N --dst N --tau N --delta N\n\
                       --threads N --scale tiny|small|full\n\
             serve:    graphs register by stem; SIGINT/SIGTERM drains;\n\
                       `pasgal serve --help` lists every flag\n\
             formats:  .adj (PBBS text), .bin (binary CSR), else edge list\n\
             examples: pasgal gen NA road.bin && pasgal bfs road.bin --src 0\n\
                       pasgal serve road.bin --port 7421"
        );
        std::process::exit(if args.is_empty() { 2 } else { 0 });
    }

    let cli = match pasgal_cli::parse_args(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };

    // Configure the global pool before any parallel work. A malformed
    // --threads is a usage error, not something to ignore silently.
    match pasgal_cli::threads_option(&cli) {
        Ok(0) => {}
        Ok(t) => {
            let _ = rayon::ThreadPoolBuilder::new()
                .num_threads(t)
                .build_global();
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }

    if cli.command == "serve" {
        if let Err(e) = serve(&cli) {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
        return; // graceful: in-flight work was cancelled and drained
    }

    let t0 = std::time::Instant::now();
    match pasgal_cli::run(&cli) {
        Ok(out) => {
            println!("{out}");
            eprintln!("[{:.2?}]", t0.elapsed());
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
