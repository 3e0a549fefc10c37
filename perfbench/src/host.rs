//! Host clocks and diagnostics.
//!
//! Every timed quantity in the benchmark is the calling thread's CPU
//! time, read with `clock_gettime(CLOCK_THREAD_CPUTIME_ID)`: it has
//! nanosecond resolution, whereas `/proc/thread-self/schedstat` only
//! advances on scheduler ticks (4 ms at 250 Hz), too coarse for a span.
//! The other readings, from `/proc`, describe the host a run landed on,
//! so a slow run can be attributed to it; they are reported, never gated.

use std::fs;

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn read_thread_cpu_ns() -> Option<u64> {
    /// `struct timespec` on 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` with the C
    // layout of this target, and `clock_gettime` writes only within it.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    let secs = u64::try_from(ts.tv_sec).ok()?;
    let nanos = u64::try_from(ts.tv_nsec).ok()?;
    (rc == 0).then_some(secs * 1_000_000_000 + nanos)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn read_thread_cpu_ns() -> Option<u64> {
    None
}

/// Fails unless the thread CPU clock can be read on this host.
///
/// # Errors
///
/// A description of the missing clock.
pub fn check_clock() -> Result<(), String> {
    read_thread_cpu_ns()
        .map(|_| ())
        .ok_or_else(|| "cannot read the thread CPU clock (64-bit Linux only)".to_string())
}

/// Nanoseconds of CPU time the calling thread has used so far.
///
/// # Panics
///
/// If the clock cannot be read; [`check_clock`] runs first at start-up.
pub fn thread_cpu_ns() -> u64 {
    read_thread_cpu_ns().expect("thread CPU clock was readable at start-up")
}

/// Thread CPU milliseconds of a fixed reference loop: a host-speed probe.
pub fn probe_ms() -> f64 {
    let start = thread_cpu_ns();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..20_000_000u64 {
        x = std::hint::black_box(x.rotate_left(7) ^ i).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    }
    std::hint::black_box(x);
    (thread_cpu_ns() - start) as f64 / 1e6
}

/// The one-minute load average, or 0 where `/proc/loadavg` is missing.
pub fn loadavg() -> f64 {
    fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// Steal ticks summed over all CPUs since boot (`/proc/stat`, 8th field of
/// the `cpu` line), or 0 where it is missing.
pub fn steal_ticks() -> u64 {
    fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("cpu "))?;
            line.split_whitespace().nth(8)?.parse().ok()
        })
        .unwrap_or(0)
}

/// The process's peak resident set (`VmHWM`) in MiB, or 0 where missing.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
