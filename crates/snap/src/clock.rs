//! The calling thread's CPU clock, for the simulator's own timing fields.
//!
//! Host time in reports is thread CPU time, not wall time: a run that
//! shares its core with other processes then measures the work it did,
//! not how long it waited for the core. The `unsafe` here, the only
//! `unsafe` in the workspace, is one thin `extern "C"` call into a
//! function `std` already links (`clock_gettime`).
//!
//! Off 64-bit Linux the clock is unavailable and [`thread_cpu_time`]
//! returns `None`.

use std::time::Duration;

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod sys {
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

    pub(super) fn thread_cpu_ns() -> Option<u64> {
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
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
mod sys {
    pub(super) fn thread_cpu_ns() -> Option<u64> {
        None
    }
}

/// CPU time the calling thread has used so far (`CLOCK_THREAD_CPUTIME_ID`,
/// nanosecond resolution), or `None` where the clock cannot be read.
pub fn thread_cpu_time() -> Option<Duration> {
    sys::thread_cpu_ns().map(Duration::from_nanos)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    fn thread_clock_advances_with_work() {
        let start = thread_cpu_time().expect("readable on 64-bit Linux");
        let mut x = 1u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.rotate_left(5) ^ i).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
        std::hint::black_box(x);
        assert!(thread_cpu_time().expect("readable") > start);
    }
}
