//! Runs the whole benchmark process on one CPU.
//!
//! On a small shared host the scheduler's choice of where the device and
//! reactor threads run — together or apart, and how often a wake-up has
//! to cross CPUs — changed whole runs: on a 2-core virtual machine,
//! unpinned `crowd_traffic` throughput split into two clusters 40 %
//! apart, and `rail_fleet_live`'s p95 spread by 30 % across seeds. On
//! one CPU every run does the same hand-offs.

use std::os::raw::{c_int, c_ulong};

/// Words of the CPU mask: room for 1 024 CPUs.
const MASK_WORDS: usize = 16;
const WORD_BITS: usize = c_ulong::BITS as usize;

extern "C" {
    fn sched_getaffinity(pid: c_int, cpusetsize: usize, mask: *mut c_ulong) -> c_int;
    fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const c_ulong) -> c_int;
}

/// The highest-numbered CPU set in `mask`.
fn last_cpu(mask: &[c_ulong]) -> Option<usize> {
    (0..mask.len() * WORD_BITS)
        .rev()
        .find(|&c| (mask[c / WORD_BITS] >> (c % WORD_BITS)) & 1 == 1)
}

/// Pins the calling thread, and every thread it spawns afterwards, to the
/// highest-numbered CPU it may run on, and returns that CPU; `None` when
/// the affinity calls fail (the run then goes on unpinned). Call it
/// before any thread is spawned.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut allowed: [c_ulong; MASK_WORDS] = [0; MASK_WORDS];
    // SAFETY: `allowed` is a writable buffer of exactly the size passed,
    // valid for the whole call; pid 0 names the calling thread.
    let got = unsafe { sched_getaffinity(0, size_of_val(&allowed), allowed.as_mut_ptr()) };
    if got != 0 {
        return None;
    }
    let cpu = last_cpu(&allowed)?;
    let mut one: [c_ulong; MASK_WORDS] = [0; MASK_WORDS];
    one[cpu / WORD_BITS] = 1 << (cpu % WORD_BITS);
    // SAFETY: `one` is a readable buffer of exactly the size passed,
    // valid for the whole call; pid 0 names the calling thread.
    let set = unsafe { sched_setaffinity(0, size_of_val(&one), one.as_ptr()) };
    (set == 0).then_some(cpu)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn last_cpu_finds_the_highest_set_bit() {
        assert_eq!(last_cpu(&[0, 0]), None);
        assert_eq!(last_cpu(&[0b1011, 0]), Some(3));
        assert_eq!(last_cpu(&[1, 1]), Some(WORD_BITS));
    }

    #[test]
    fn a_pinned_thread_and_its_children_stay_on_one_cpu() {
        std::thread::spawn(|| {
            let cpu = pin_to_one_cpu().expect("affinity calls work on Linux");
            let child = std::thread::spawn(move || {
                let mut mask: [c_ulong; MASK_WORDS] = [0; MASK_WORDS];
                // SAFETY: as in `pin_to_one_cpu`.
                let got = unsafe { sched_getaffinity(0, size_of_val(&mask), mask.as_mut_ptr()) };
                assert_eq!(got, 0);
                let set: Vec<usize> = (0..MASK_WORDS * WORD_BITS)
                    .filter(|&c| (mask[c / WORD_BITS] >> (c % WORD_BITS)) & 1 == 1)
                    .collect();
                assert_eq!(set, vec![cpu]);
            });
            child.join().expect("child thread");
        })
        .join()
        .expect("pinned thread");
    }
}
