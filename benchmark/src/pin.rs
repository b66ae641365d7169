//! Pins the calling thread, and every thread it spawns afterwards, to one
//! CPU. Every workload runs that way, with `RAYON_NUM_THREADS=1`. On this
//! 2-vCPU virtual machine a wake-up that crosses CPUs costs more than all
//! stages of a served request together and is bimodal for minutes at a time
//! (serve_warm p50 read 120 µs and 220 µs on the same build; with two rayon
//! threads the step time of train_stream spread 23-29 % over ten runs), while
//! on one CPU the same hand-off reads 70 µs whenever the host is quiet.

/// The lowest CPU this process may run on, from `/proc/self/status`.
fn first_allowed_cpu() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    let first = list.trim().split([',', '-']).next()?;
    first.parse().ok()
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn set_affinity(cpu: usize) -> bool {
    const SYS_SCHED_SETAFFINITY: isize = 203;
    let mut mask = [0u64; 16];
    if cpu >= mask.len() * 64 {
        return false;
    }
    mask[cpu / 64] = 1 << (cpu % 64);
    let ret: isize;
    // SAFETY: sched_setaffinity(0, len, mask) only reads `len` bytes at
    // `mask`, a live local array of exactly that size, and writes no memory
    // of ours. The `syscall` instruction clobbers rcx and r11, declared so.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") SYS_SCHED_SETAFFINITY => ret,
            in("rdi") 0usize,
            in("rsi") std::mem::size_of_val(&mask),
            in("rdx") mask.as_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    ret == 0
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn set_affinity(_cpu: usize) -> bool {
    false
}

/// Pin to one CPU; returns it, or `None` where that cannot be done (the run
/// then goes on unpinned and says so).
pub fn to_one_cpu() -> Option<usize> {
    let cpu = first_allowed_cpu()?;
    set_affinity(cpu).then_some(cpu)
}
