//! CPU pinning. The lock-step ping-pong of the wire backends is not
//! repeatable when the scheduler may move the two sides across cores
//! (see README: 573 ms and then 1463–1548 ms for the same code), so
//! every workload runs on a fixed CPU set that its threads and child
//! processes inherit.

#[cfg(target_os = "linux")]
mod sys {
    /// Words of a kernel `cpu_set_t` (1024 bits).
    pub const SET_WORDS: usize = 16;
    // Declared against the libc that std already links; no crate needed.
    extern "C" {
        pub fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        pub fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
}

/// The CPUs this process may run on, ascending.
#[cfg(target_os = "linux")]
pub fn allowed() -> Result<Vec<usize>, String> {
    let mut mask = [0u64; sys::SET_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the byte
    // length passed; pid 0 names the calling thread.
    let rc = unsafe { sys::sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok((0..sys::SET_WORDS * 64)
        .filter(|&c| mask[c / 64] & (1u64 << (c % 64)) != 0)
        .collect())
}

/// Pin the calling thread — and every thread or process it starts from
/// now on — to `cpus`.
#[cfg(target_os = "linux")]
pub fn pin_to(cpus: &[usize]) -> Result<(), String> {
    let mut mask = [0u64; sys::SET_WORDS];
    for &c in cpus {
        if c >= sys::SET_WORDS * 64 {
            return Err(format!("cpu {c} is beyond the affinity mask"));
        }
        mask[c / 64] |= 1u64 << (c % 64);
    }
    // SAFETY: `mask` is a live buffer of exactly the byte length
    // passed, only read by the call; pid 0 names the calling thread.
    let rc = unsafe { sys::sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_setaffinity({cpus:?}): {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(())
}

#[cfg(not(target_os = "linux"))]
pub fn allowed() -> Result<Vec<usize>, String> {
    Err("CPU affinity is only implemented for Linux".into())
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to(_cpus: &[usize]) -> Result<(), String> {
    Err("CPU affinity is only implemented for Linux".into())
}

/// The last `n` of the allowed CPUs (CPU 0 takes most interrupts, so
/// the single-CPU workloads stay off it when there is a choice). Fewer
/// than `n` allowed is not an error here; the caller reports it.
pub fn pick(allowed: &[usize], n: usize) -> Vec<usize> {
    allowed[allowed.len().saturating_sub(n)..].to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pick_takes_the_last_cpus() {
        assert_eq!(pick(&[0, 1, 2, 3], 1), [3]);
        assert_eq!(pick(&[0, 1, 2, 3], 2), [2, 3]);
        assert_eq!(pick(&[5], 2), [5]);
        assert!(pick(&[], 1).is_empty());
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn pinning_narrows_the_allowed_set() {
        // Runs on its own test thread; affinity is per thread.
        let before = allowed().unwrap();
        assert!(!before.is_empty());
        let one = pick(&before, 1);
        pin_to(&one).unwrap();
        assert_eq!(allowed().unwrap(), one);
        pin_to(&before).unwrap();
        assert_eq!(allowed().unwrap(), before);
    }
}
