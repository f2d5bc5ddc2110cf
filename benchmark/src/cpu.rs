//! Per-thread CPU clocks, and pinning threads to CPUs.
//!
//! The benchmark runs on shared hosts where other tenants' processes
//! take CPU time from ours at random. Wall-clock time per tick then
//! varies by 10% and more between identical runs, while the CPU time a
//! thread actually spends on a tick does not. The single-threaded
//! engines' tick times are therefore measured on the CPU clock of the
//! stepping thread; on an idle host it equals wall-clock time.

use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// A CPU mask of 1,024 CPUs, the size of glibc's `cpu_set_t`.
type CpuMask = [u64; 16];

/// Linux's CPU clock id for thread `tid` of this process (the encoding
/// glibc's `pthread_getcpuclockid` uses: `CPUCLOCK_PERTHREAD | SCHED`).
fn thread_clock(tid: i32) -> i32 {
    (!tid << 3) | 6
}

/// The calling thread's clock (`CLOCK_THREAD_CPUTIME_ID`).
#[cfg(test)]
const SELF: i32 = 3;

fn read(clock: i32) -> Option<Duration> {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec with the C layout
    // (`repr(C)`, two 64-bit fields, as on every 64-bit Linux target),
    // and `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    (rc == 0).then(|| Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32))
}

/// CPU time the calling thread has used so far.
#[cfg(test)]
fn thread_now() -> Duration {
    read(SELF).expect("the calling thread's CPU clock is always readable")
}

/// The CPU clocks of a set of this process's threads.
pub struct Threads {
    tids: Vec<i32>,
    clocks: Vec<i32>,
}

impl Threads {
    /// Every thread of this process whose name starts with `prefix`
    /// (all of them for an empty prefix).
    pub fn named(prefix: &str) -> Threads {
        let mut tids = Vec::new();
        if let Ok(rd) = std::fs::read_dir("/proc/self/task") {
            for e in rd.flatten() {
                let comm = std::fs::read_to_string(e.path().join("comm")).unwrap_or_default();
                if let Some(tid) = e.file_name().to_str().and_then(|t| t.parse::<i32>().ok()) {
                    if comm.starts_with(prefix) {
                        tids.push(tid);
                    }
                }
            }
        }
        tids.sort_unstable();
        let clocks = tids.iter().map(|&t| thread_clock(t)).collect();
        Threads { tids, clocks }
    }

    /// Pin each thread of the set to a CPU of its own among those the
    /// process may use, in thread-id order (the main thread first),
    /// wrapping round when there are more threads than CPUs. Dropping
    /// the guard lets every thread of the set run on any of those CPUs
    /// again, so threads started later do not inherit a pin.
    pub fn pin_each(&self) -> Result<Pinned, String> {
        let mut allowed: CpuMask = [0; 16];
        // SAFETY: `allowed` is a writable buffer of the size passed.
        let rc =
            unsafe { sched_getaffinity(0, std::mem::size_of::<CpuMask>(), allowed.as_mut_ptr()) };
        if rc != 0 {
            return Err(format!(
                "reading the CPU mask: {}",
                std::io::Error::last_os_error()
            ));
        }
        let pinned = Pinned {
            tids: self.tids.clone(),
            allowed,
        };
        let cpus: Vec<usize> = (0..1024)
            .filter(|&c| allowed[c / 64] & (1 << (c % 64)) != 0)
            .collect();
        for (i, &tid) in self.tids.iter().enumerate() {
            let cpu = cpus[i % cpus.len()];
            let mut mask: CpuMask = [0; 16];
            mask[cpu / 64] |= 1 << (cpu % 64);
            set_affinity(tid, &mask)
                .map_err(|e| format!("pinning thread {tid} to CPU {cpu}: {e}"))?;
        }
        Ok(pinned)
    }

    pub fn len(&self) -> usize {
        self.clocks.len()
    }

    /// Each thread's CPU time so far (zero for a thread that exited).
    pub fn now(&self) -> Vec<Duration> {
        self.clocks
            .iter()
            .map(|&c| read(c).unwrap_or_default())
            .collect()
    }

    /// Total CPU time of the set so far.
    pub fn total(&self) -> Duration {
        self.now().into_iter().sum()
    }
}

fn set_affinity(tid: i32, mask: &CpuMask) -> std::io::Result<()> {
    // SAFETY: `mask` is a readable buffer of the size passed.
    let rc = unsafe { sched_setaffinity(tid, std::mem::size_of::<CpuMask>(), mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(std::io::Error::last_os_error())
    }
}

/// Threads pinned by [`Threads::pin_each`], and the CPU mask they had.
pub struct Pinned {
    tids: Vec<i32>,
    allowed: CpuMask,
}

impl Drop for Pinned {
    fn drop(&mut self) {
        for &tid in &self.tids {
            // A thread that has exited has nothing to restore.
            let _ = set_affinity(tid, &self.allowed);
        }
    }
}

/// The largest per-thread CPU time spent between two readings.
pub fn max_delta(before: &[Duration], after: &[Duration]) -> Duration {
    before
        .iter()
        .zip(after)
        .map(|(b, a)| a.saturating_sub(*b))
        .max()
        .unwrap_or_default()
}

/// The CPU time all threads of a set spent between two readings.
pub fn total_delta(before: &[Duration], after: &[Duration]) -> Duration {
    before
        .iter()
        .zip(after)
        .map(|(b, a)| a.saturating_sub(*b))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_clock_counts_work_not_sleep() {
        let t0 = thread_now();
        std::thread::sleep(Duration::from_millis(30));
        let slept = thread_now() - t0;
        let t1 = thread_now();
        let mut x = 0u64;
        while thread_now() - t1 < Duration::from_millis(30) {
            x = std::hint::black_box(x + 1);
        }
        assert!(
            slept < Duration::from_millis(10),
            "sleep cost {slept:?} of CPU"
        );
        assert!(thread_now() - t1 >= Duration::from_millis(30));
    }

    fn own_mask() -> CpuMask {
        let mut m: CpuMask = [0; 16];
        // SAFETY: `m` is a writable buffer of the size passed.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuMask>(), m.as_mut_ptr()) };
        assert_eq!(rc, 0);
        m
    }

    #[test]
    fn pins_end_with_the_guard() {
        std::thread::Builder::new()
            .name("pin-probe".into())
            .spawn(|| {
                let before = own_mask();
                let set = Threads::named("pin-probe");
                assert_eq!(set.len(), 1);
                let pinned = set.pin_each().expect("pinning");
                let during = own_mask();
                assert_eq!(during.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
                drop(pinned);
                assert_eq!(own_mask(), before);
            })
            .expect("spawning")
            .join()
            .expect("probe thread");
    }

    #[test]
    fn other_threads_clocks_are_readable() {
        let all = Threads::named("");
        assert!(all.len() >= 1);
        assert!(all.total() > Duration::ZERO);
    }
}
