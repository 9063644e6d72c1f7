//! Per-thread CPU time measurement.
//!
//! The simulator runs every MPI rank as a thread of one process. When the host has
//! fewer cores than ranks, the threads are time-sliced and *wall-clock* time no
//! longer measures the work a rank performs — it mostly measures waiting for the
//! scheduler. Per-rank computation is therefore measured with the thread's CPU time
//! (`CLOCK_THREAD_CPUTIME_ID`), which is what the rank would have spent on a
//! dedicated node, and combined with the modeled communication time by the
//! algorithm crates.
//!
//! Reading that clock is a real system call (about 260–360 ns on a 2-vCPU virtual machine,
//! against about 40–55 ns for [`std::time::Instant::now`], which the vDSO
//! serves without entering the kernel). It is meant for per-rank and per-batch
//! totals; per-edge intervals are lapped on the monotonic clock instead.

use std::cell::Cell;

thread_local! {
    static CLOCK_READS: Cell<u64> = const { Cell::new(0) };
}

/// A monotone per-thread CPU-time stopwatch.
///
/// [`ThreadTimer::start`] and every [`ThreadTimer::elapsed_ns`] read the
/// per-thread CPU clock, and each read is a system call. Use it for per-rank
/// or per-batch totals, never for per-edge timing: at one read per edge the
/// syscalls become a measurable share of the work being measured.
#[derive(Debug, Clone, Copy)]
pub struct ThreadTimer {
    start_ns: u64,
    /// Wall-clock fallback used if the OS clock is unavailable.
    wall_start: std::time::Instant,
    cpu_clock_ok: bool,
}

impl ThreadTimer {
    /// Starts a stopwatch on the calling thread.
    pub fn start() -> Self {
        let (start_ns, cpu_clock_ok) = match thread_cpu_time_ns() {
            Some(ns) => (ns, true),
            None => (0, false),
        };
        Self {
            start_ns,
            wall_start: std::time::Instant::now(),
            cpu_clock_ok,
        }
    }

    /// Nanoseconds of CPU time the calling thread has consumed since
    /// [`ThreadTimer::start`] (falls back to wall-clock time if the per-thread CPU
    /// clock is unavailable on this platform).
    pub fn elapsed_ns(&self) -> u64 {
        if self.cpu_clock_ok {
            if let Some(now) = thread_cpu_time_ns() {
                return now.saturating_sub(self.start_ns);
            }
        }
        self.wall_start.elapsed().as_nanos() as u64
    }
}

/// How many times the calling thread has read its CPU clock through
/// [`thread_cpu_time_ns`] (and so through [`ThreadTimer`]). Tests use the
/// difference across a call to bound how often a hot loop pays the syscall.
pub fn thread_cpu_clock_reads() -> u64 {
    CLOCK_READS.with(Cell::get)
}

/// Reads the calling thread's cumulative CPU time in nanoseconds, if the platform
/// exposes it. Each call is a system call and counts towards
/// [`thread_cpu_clock_reads`].
#[cfg(unix)]
pub fn thread_cpu_time_ns() -> Option<u64> {
    CLOCK_READS.with(|n| n.set(n.get() + 1));
    let mut ts = libc::timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec and the clock id is a constant the
    // platform defines; the call writes the timestamp and returns 0 on success.
    let rc = unsafe { libc::clock_gettime(libc::CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    if rc == 0 {
        Some(ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
    } else {
        None
    }
}

/// Non-Unix fallback: the per-thread CPU clock is not available.
#[cfg(not(unix))]
pub fn thread_cpu_time_ns() -> Option<u64> {
    CLOCK_READS.with(|n| n.set(n.get() + 1));
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_is_available_on_linux() {
        assert!(thread_cpu_time_ns().is_some());
    }

    #[test]
    fn clock_reads_are_counted_per_thread() {
        let before = thread_cpu_clock_reads();
        let timer = ThreadTimer::start();
        timer.elapsed_ns();
        assert_eq!(thread_cpu_clock_reads() - before, 2);
        let other = std::thread::spawn(thread_cpu_clock_reads)
            .join()
            .expect("counter thread panicked");
        assert_eq!(other, 0, "a fresh thread starts at zero");
    }

    #[test]
    fn timer_advances_with_work() {
        let timer = ThreadTimer::start();
        // Burn a little CPU.
        let mut acc = 0u64;
        for i in 0..2_000_000u64 {
            acc = acc.wrapping_add(i * i);
        }
        std::hint::black_box(acc);
        assert!(timer.elapsed_ns() > 0);
    }

    #[test]
    fn sleeping_does_not_count_as_cpu_time() {
        let timer = ThreadTimer::start();
        std::thread::sleep(std::time::Duration::from_millis(50));
        // CPU time during sleep must be far below the 50 ms wall time.
        assert!(
            timer.elapsed_ns() < 40_000_000,
            "got {} ns",
            timer.elapsed_ns()
        );
    }

    #[test]
    fn other_threads_do_not_contribute() {
        let timer = ThreadTimer::start();
        let handle = std::thread::spawn(|| {
            let mut acc = 0u64;
            for i in 0..5_000_000u64 {
                acc = acc.wrapping_add(i);
            }
            acc
        });
        let busy = handle.join().expect("busy-loop helper thread panicked");
        std::hint::black_box(busy);
        // The spawned thread's work must not appear in this thread's CPU time; allow
        // a generous margin for the join bookkeeping itself.
        assert!(
            timer.elapsed_ns() < 20_000_000,
            "got {} ns",
            timer.elapsed_ns()
        );
    }
}
