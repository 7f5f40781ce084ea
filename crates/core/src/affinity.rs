//! Where a thread runs: the CPUs its mask allows, a pin to some of them,
//! and a step off one CPU that is not a pin. Linux only — `sched_*` from
//! the libc that std already links, so no libc crate; elsewhere nothing
//! pins and nothing moves.
//!
//! [`crate::RioConfig::pin_workers`] pins worker `w` of a set to the
//! `(w mod k)`-th of the `k` CPUs its launching thread may run on, read
//! once when the set starts; [`leave`] is the set's step off its
//! launcher's CPU (DESIGN.md §15).

#[cfg(target_os = "linux")]
mod imp {
    /// 1024-bit CPU mask, the glibc `cpu_set_t` layout.
    #[repr(C)]
    #[derive(Clone, Copy, PartialEq, Eq)]
    struct CpuSet([u64; 16]);
    const SIZE: usize = std::mem::size_of::<CpuSet>();
    const CPUS: usize = SIZE * 8;
    const EMPTY: CpuSet = CpuSet([0; 16]);

    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
        fn sched_getcpu() -> i32;
    }

    // pid 0 = the calling thread.
    fn get() -> Option<CpuSet> {
        let mut set = EMPTY;
        // SAFETY: `set` is a live, writable `cpu_set_t` of `SIZE` bytes.
        (unsafe { sched_getaffinity(0, SIZE, &mut set) } == 0).then_some(set)
    }

    fn set(set: &CpuSet) -> bool {
        // SAFETY: `set` is a live `cpu_set_t` of `SIZE` bytes, only read.
        unsafe { sched_setaffinity(0, SIZE, set) == 0 }
    }

    /// The CPUs the calling thread may run on, ascending (none if the
    /// kernel will not say).
    pub(crate) fn allowed() -> Vec<usize> {
        let mask = get().unwrap_or(EMPTY);
        (0..CPUS)
            .filter(|&c| mask.0[c / 64] >> (c % 64) & 1 != 0)
            .collect()
    }

    /// Restricts the calling thread to `cpus`. Best-effort: `false` (and
    /// nothing changed) for an empty list, an id past the mask, or a mask
    /// the kernel rejects — a worker that cannot pin runs unpinned.
    pub(crate) fn pin(cpus: &[usize]) -> bool {
        let mut mask = EMPTY;
        for &c in cpus {
            if c >= CPUS {
                return false;
            }
            mask.0[c / 64] |= 1 << (c % 64);
        }
        mask != EMPTY && set(&mask)
    }

    /// The CPU the calling thread is on (vDSO: no kernel entry).
    pub(crate) fn current_cpu() -> u32 {
        // SAFETY: no arguments; it only reads the calling thread's CPU.
        unsafe { sched_getcpu() as u32 }
    }

    /// Moves the calling thread off `cpu`, if it is there and may run
    /// elsewhere, and hands it its mask back: a placement, not a pin.
    pub(crate) fn leave(cpu: u32) {
        if (cpu as usize) >= CPUS || current_cpu() != cpu {
            return;
        }
        if let Some(all) = get() {
            let mut rest = all;
            rest.0[cpu as usize / 64] &= !(1 << (cpu % 64));
            if rest != EMPTY {
                set(&rest);
                set(&all);
            }
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    pub(crate) fn allowed() -> Vec<usize> {
        Vec::new()
    }
    pub(crate) fn pin(_cpus: &[usize]) -> bool {
        false
    }
    pub(crate) fn current_cpu() -> u32 {
        u32::MAX
    }
    pub(crate) fn leave(_cpu: u32) {}
}

pub(crate) use imp::{allowed, current_cpu, leave, pin};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Executor, RioConfig};

    #[test]
    fn pinning_is_best_effort() {
        // Pinning to this thread's own full range must either succeed or
        // fail cleanly; an absurd CPU id always fails cleanly.
        let _ = pin(&allowed());
        assert!(!pin(&[1 << 20]));
    }

    /// Pinned workers stay inside the launching thread's mask: narrowed
    /// to one CPU, every `rio-w<k>` of a pinned run is allowed that CPU
    /// and no other.
    #[test]
    fn pinned_workers_stay_inside_the_callers_mask() {
        let mine = allowed();
        let Some(&cpu) = mine.last().filter(|_| mine.len() >= 2) else {
            return; // one CPU: nothing to narrow
        };
        assert!(pin(&[cpu]), "narrow the caller to CPU {cpu}");
        let seen = std::sync::Mutex::new(std::collections::BTreeMap::new());
        let g = crate::testing::chains(30, 3);
        Executor::new(RioConfig::with_workers(3).pin_workers(true)).run(&g, |_, _| {
            let status = std::fs::read_to_string("/proc/thread-self/status").unwrap();
            let field = |key: &str| {
                let line = status.lines().find(|l| l.starts_with(key)).unwrap();
                line[key.len()..].trim().to_string()
            };
            seen.lock()
                .unwrap()
                .insert(field("Name:"), field("Cpus_allowed_list:"));
        });
        assert!(pin(&mine), "restore the caller's mask");
        let seen = seen.into_inner().unwrap();
        let names: Vec<&str> = seen.keys().map(String::as_str).collect();
        assert_eq!(names, ["rio-w0", "rio-w1", "rio-w2"]);
        for (name, cpus) in &seen {
            assert_eq!(*cpus, cpu.to_string(), "{name}");
        }
    }
}
