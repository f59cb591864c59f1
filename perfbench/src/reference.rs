//! A fixed reference loop that measures how fast the host runs at a
//! moment, so end-to-end times can be reported in units of it (`ref`s).
//!
//! On the shared host the benchmark was tuned on, the speed of a core
//! drifts by a third or more over minutes, and identical operations
//! drift with it (README.md gives the figures). Timed next to the
//! operations, in the same process on the same CPU, the loop slows when
//! they slow, so an operation's time over the loop's time holds still
//! while its milliseconds move. A change to the program moves the ratio
//! in full: the loop runs none of the program's code.

use std::hint::black_box;
use std::os::raw::c_int;

/// Words in the loop's table: 256 KiB, a size a core's private cache
/// holds, so the loop mixes arithmetic with cache traffic the way an
/// R-tree walk or a sort does.
const TABLE_WORDS: usize = 1 << 15;
/// Random read-modify-writes per pass.
const UPDATES: usize = 20_000;
/// Words sorted per pass.
const SORTED: usize = 4_096;
/// Passes per loop; together 0.5 to 0.8 ms on the tuning host.
const PASSES: usize = 4;

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

extern "C" {
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
}

/// CPU time the calling thread has used, in milliseconds. The loop is
/// timed by it, not by the wall clock, so that threads sharing the CPU
/// with the loop (crowd_traffic samples it in the middle of a round) do
/// not lengthen it.
fn thread_cpu_ms() -> f64 {
    let mut t = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `t` is a writable timespec valid for the whole call.
    let got = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut t) };
    assert_eq!(got, 0, "the thread CPU clock exists on Linux");
    t.tv_sec as f64 * 1e3 + t.tv_nsec as f64 / 1e6
}

/// The reference loop.
pub struct Reference {
    table: Vec<u64>,
}

impl Default for Reference {
    fn default() -> Self {
        Reference {
            table: (0..TABLE_WORDS as u64)
                .map(|i| i.wrapping_mul(crate::inputs::GOLDEN))
                .collect(),
        }
    }
}

impl Reference {
    /// The loop's work, the same amount on every call: a fixed number of
    /// random updates and sorts of a fixed size. Returns a checksum so
    /// the work cannot be optimised away.
    fn work(&mut self) -> u64 {
        let mut x: u64 = 0x2545_F491_4F6C_DD1D;
        let mut sorted = vec![0u64; SORTED];
        for _ in 0..PASSES {
            for _ in 0..UPDATES {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let i = (x as usize) & (TABLE_WORDS - 1);
                self.table[i] = self.table[i].wrapping_add(x);
            }
            sorted.copy_from_slice(&self.table[..SORTED]);
            sorted.sort_unstable();
            x ^= sorted[SORTED / 2];
        }
        x
    }

    /// Runs the loop once and returns its time in milliseconds.
    pub fn time_ms(&mut self) -> f64 {
        let t0 = thread_cpu_ms();
        black_box(self.work());
        thread_cpu_ms() - t0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_call_does_the_same_work() {
        // The loop is deterministic: two fresh loops agree call for
        // call.
        let (mut a, mut b) = (Reference::default(), Reference::default());
        let first = a.work();
        assert_eq!(first, b.work());
        assert_eq!(a.work(), b.work());
    }

    #[test]
    fn the_loop_takes_time() {
        let mut r = Reference::default();
        assert!((0..3).all(|_| r.time_ms() > 0.0));
    }
}
