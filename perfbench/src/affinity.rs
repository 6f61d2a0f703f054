//! Spreads a run's rounds over every CPU the process may use.
//!
//! On a shared host each core's speed drifts on its own, by tens of
//! percent over minutes, so a run that stayed on one core would report
//! that core's luck. Rounds are pinned in turn to each allowed core, and
//! every run averages over all of them.

/// Words in the affinity mask: 1024 CPUs, the size of glibc's `cpu_set_t`.
const MASK_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// The CPUs the calling thread may run on, ascending; empty if the kernel
/// does not say.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..MASK_WORDS * 64)
        .filter(|&cpu| (mask[cpu / 64] >> (cpu % 64)) & 1 == 1)
        .collect()
}

/// Pins the calling thread to `cpu`; false if the kernel refused.
pub fn pin(cpu: usize) -> bool {
    if cpu >= MASK_WORDS * 64 {
        return false;
    }
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a readable buffer of exactly the size passed.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pins_to_each_allowed_cpu() {
        let cpus = allowed_cpus();
        assert!(!cpus.is_empty());
        for &cpu in &cpus {
            assert!(pin(cpu), "pin to {cpu}");
            assert_eq!(allowed_cpus(), vec![cpu]);
        }
        assert!(!pin(MASK_WORDS * 64));
    }
}
