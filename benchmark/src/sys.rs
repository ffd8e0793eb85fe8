//! What the benchmark asks of the operating system: CPU time and peak
//! memory from `/proc`, an allocation counter, and a scratch directory
//! inside the checkout.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Kernel clock ticks per second; `USER_HZ` is 100 on every Linux ABI.
const TICKS_PER_S: f64 = 100.0;

/// `(user, system)` CPU seconds from a `/proc/.../stat` file.
fn cpu_from_stat(path: &str) -> (f64, f64) {
    let Ok(stat) = std::fs::read_to_string(path) else {
        return (0.0, 0.0);
    };
    // Fields are counted after the parenthesised command name, which may
    // itself contain spaces: utime and stime are the 12th and 13th there.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return (0.0, 0.0);
    };
    let mut fields = rest.split_whitespace().skip(11);
    let mut tick = || {
        fields
            .next()
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    let (utime, stime) = (tick(), tick());
    (utime / TICKS_PER_S, stime / TICKS_PER_S)
}

/// `(user, system)` CPU seconds of the whole process so far.
pub fn process_cpu() -> (f64, f64) {
    cpu_from_stat("/proc/self/stat")
}

/// CPU seconds (user + system) of the calling thread so far.
pub fn thread_cpu() -> f64 {
    let (u, s) = cpu_from_stat("/proc/thread-self/stat");
    u + s
}

/// Peak resident set of the process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Counts heap allocations while enabled. Disabled it costs one relaxed
/// load per allocation, so it can stay installed for the timed sections.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` unchanged; the counter is a
// side effect that touches no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Number of heap allocations (and reallocations) `f` performs, on every
/// thread, together with its result.
pub fn count_allocs<R>(f: impl FnOnce() -> R) -> (u64, R) {
    ALLOCS.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let r = f();
    COUNTING.store(false, Ordering::Relaxed);
    (ALLOCS.load(Ordering::Relaxed), r)
}

/// A fresh directory under `benchmark/out/`, removed on drop. Every file
/// the benchmark writes for the program to read goes in here under a
/// name used once, so nothing is ever rewritten while it is mapped.
pub struct TempDir {
    path: PathBuf,
    next: std::cell::Cell<u64>,
}

impl TempDir {
    pub fn new() -> std::io::Result<TempDir> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        let path = out_dir().join(format!("tmp-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(TempDir {
            path,
            next: std::cell::Cell::new(0),
        })
    }

    /// A path in the directory that no earlier call returned.
    pub fn fresh(&self, stem: &str, ext: &str) -> PathBuf {
        let k = self.next.get();
        self.next.set(k + 1);
        self.path.join(format!("{stem}-{k}.{ext}"))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        // Best effort: a leftover directory is ignored by git and harmless.
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// `benchmark/out/`, relative to the checkout root the harness runs in.
pub fn out_dir() -> &'static Path {
    Path::new("benchmark/out")
}
