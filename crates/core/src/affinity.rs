//! Where a thread runs: the CPU it is on, and a step off one CPU that is
//! not a pin — [`leave`] is the worker set's step off its launcher's CPU
//! (DESIGN.md §15). Linux only — `sched_*` from the libc that std already
//! links, so no libc crate; elsewhere nothing moves.

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

    // Best-effort: a mask the kernel rejects leaves the thread where it was.
    fn set(set: &CpuSet) {
        // SAFETY: `set` is a live `cpu_set_t` of `SIZE` bytes, only read.
        unsafe { sched_setaffinity(0, SIZE, set) };
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
    pub(crate) fn current_cpu() -> u32 {
        u32::MAX
    }
    pub(crate) fn leave(_cpu: u32) {}
}

pub(crate) use imp::{current_cpu, leave};
