//! One-time CPU placement for the worker pool's helper threads.
//!
//! A helper is woken by the dispatching thread, and the kernel's
//! wake-up path likes to queue the wakee where the waker runs. On a
//! small virtual machine whose other CPU sits in deep idle the load
//! balancer can then leave both threads on one CPU for over a second —
//! measured on the 2-vCPU reference guest: 1.3–2 s of every run that
//! starts after an idle gap execute serially (wall time = CPU time)
//! with the second CPU 100% idle — so a run's speed depends on what the
//! machine did before it started. [`hop_from`] removes that: on its
//! first stage a helper pins itself to another allowed CPU and at once
//! restores its full mask. The pin forces the migration; the restore
//! leaves the scheduler free to move the thread ever after. Where the
//! thread runs never influences what a task computes.
//!
//! Linux only (raw `sched_*` calls from the C library `std` already
//! links); a no-op elsewhere, on a one-CPU mask, or when a call fails.

#[cfg(target_os = "linux")]
mod imp {
    /// Words in the affinity masks read and written here (1024 CPUs).
    const WORDS: usize = 16;
    const BYTES: usize = WORDS * 8;

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        fn sched_getcpu() -> i32;
    }

    /// The CPU the calling thread runs on right now.
    pub fn current_cpu() -> Option<usize> {
        // SAFETY: takes no arguments and touches no caller memory.
        #[allow(unsafe_code)]
        let cpu = unsafe { sched_getcpu() };
        usize::try_from(cpu).ok()
    }

    /// Migrates the calling thread to the allowed CPU `step` places
    /// after `cpu` in its affinity mask (wrapping), then restores the
    /// mask.
    pub fn hop_from(cpu: usize, step: usize) {
        let mut allowed = [0u64; WORDS];
        // SAFETY: `allowed` is `BYTES` writable bytes; pid 0 is the
        // calling thread.
        #[allow(unsafe_code)]
        let rc = unsafe { sched_getaffinity(0, BYTES, allowed.as_mut_ptr()) };
        if rc != 0 {
            return;
        }
        // No allocation: the pool's steady state is allocation-counted.
        let cpus = || (0..WORDS * 64).filter(|c| allowed[c / 64] >> (c % 64) & 1 == 1);
        let count = cpus().count();
        if count < 2 {
            return;
        }
        let at = cpus().position(|c| c == cpu).unwrap_or(0);
        let Some(target) = cpus().nth((at + step) % count) else {
            return;
        };
        let mut pin = [0u64; WORDS];
        pin[target / 64] = 1 << (target % 64);
        // SAFETY: both masks are `BYTES` readable bytes; pid 0 is the
        // calling thread. The second call restores the mask read above.
        #[allow(unsafe_code)]
        unsafe {
            if sched_setaffinity(0, BYTES, pin.as_ptr()) == 0 {
                sched_setaffinity(0, BYTES, allowed.as_ptr());
            }
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    pub fn current_cpu() -> Option<usize> {
        None
    }

    pub fn hop_from(_cpu: usize, _step: usize) {}
}

pub(crate) use imp::{current_cpu, hop_from};

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(target_os = "linux")]
    fn allowed_cpus() -> usize {
        std::thread::available_parallelism().map_or(1, usize::from)
    }

    /// The hop leaves the affinity mask as it found it.
    #[test]
    #[cfg(target_os = "linux")]
    fn hop_restores_the_mask() {
        std::thread::spawn(|| {
            let before = allowed_cpus();
            let here = current_cpu().expect("linux reports the cpu");
            hop_from(here, 1);
            assert_eq!(allowed_cpus(), before);
        })
        .join()
        .expect("hop thread");
    }

    #[test]
    fn hop_from_an_unknown_cpu_is_harmless() {
        std::thread::spawn(|| hop_from(usize::MAX, 3))
            .join()
            .expect("hop thread");
    }
}
