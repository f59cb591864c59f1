//! Reactor-thread CPU and run-queue time from
//! `/proc/self/task/<tid>/schedstat`.
//!
//! The kernel file holds three numbers: nanoseconds spent on a CPU,
//! nanoseconds spent runnable but waiting in a run queue, and the number
//! of timeslices. The event-loop carrier names its threads
//! `asj-reactor-<name>`; the kernel truncates a thread's `comm` to 15
//! bytes, which still keeps [`REACTOR_PREFIX`].

use std::fs;

/// `comm` prefix of every event-loop reactor thread.
pub const REACTOR_PREFIX: &str = "asj-reactor";

/// One thread's (or a sum of threads') scheduler counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStat {
    pub cpu_ns: u64,
    pub runq_ns: u64,
    pub slices: u64,
}

impl SchedStat {
    /// Counter growth since `earlier`.
    pub fn since(&self, earlier: &SchedStat) -> SchedStat {
        SchedStat {
            cpu_ns: self.cpu_ns.saturating_sub(earlier.cpu_ns),
            runq_ns: self.runq_ns.saturating_sub(earlier.runq_ns),
            slices: self.slices.saturating_sub(earlier.slices),
        }
    }

    fn plus(&self, other: &SchedStat) -> SchedStat {
        SchedStat {
            cpu_ns: self.cpu_ns + other.cpu_ns,
            runq_ns: self.runq_ns + other.runq_ns,
            slices: self.slices + other.slices,
        }
    }
}

/// Parses the content of one `schedstat` file; `None` unless it holds
/// exactly three unsigned integers.
pub fn parse(content: &str) -> Option<SchedStat> {
    let mut fields = content.split_whitespace().map(|f| f.parse::<u64>().ok());
    let stat = SchedStat {
        cpu_ns: fields.next()??,
        runq_ns: fields.next()??,
        slices: fields.next()??,
    };
    fields.next().is_none().then_some(stat)
}

/// Sums the counters of this process's threads whose name starts with
/// `prefix`, together with how many such threads were found. Threads
/// that exit while being read are skipped.
pub fn threads_named(prefix: &str) -> (SchedStat, usize) {
    let mut total = SchedStat::default();
    let mut found = 0;
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return (total, 0);
    };
    for task in tasks.flatten() {
        let dir = task.path();
        let named = fs::read_to_string(dir.join("comm"))
            .map(|c| c.trim_end().starts_with(prefix))
            .unwrap_or(false);
        if !named {
            continue;
        }
        if let Some(stat) = fs::read_to_string(dir.join("schedstat"))
            .ok()
            .and_then(|c| parse(&c))
        {
            total = total.plus(&stat);
            found += 1;
        }
    }
    (total, found)
}

/// Counters of every live reactor thread of this process.
pub fn reactors() -> SchedStat {
    threads_named(REACTOR_PREFIX).0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_kernel_format() {
        let fixture = "2297433516 41866025 18244\n";
        assert_eq!(
            parse(fixture),
            Some(SchedStat {
                cpu_ns: 2_297_433_516,
                runq_ns: 41_866_025,
                slices: 18_244,
            })
        );
    }

    #[test]
    fn rejects_malformed_content() {
        assert_eq!(parse(""), None);
        assert_eq!(parse("12 34\n"), None);
        assert_eq!(parse("12 34 56 78\n"), None);
        assert_eq!(parse("12 -3 56\n"), None);
        assert_eq!(parse("a b c"), None);
    }

    #[test]
    fn differences_never_underflow() {
        let a = SchedStat {
            cpu_ns: 10,
            runq_ns: 5,
            slices: 2,
        };
        let b = SchedStat {
            cpu_ns: 25,
            runq_ns: 4,
            slices: 3,
        };
        assert_eq!(
            b.since(&a),
            SchedStat {
                cpu_ns: 15,
                runq_ns: 0,
                slices: 1,
            }
        );
    }

    #[test]
    fn finds_a_named_thread_of_this_process() {
        let (ready_tx, ready_rx) = std::sync::mpsc::channel::<()>();
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let t = std::thread::Builder::new()
            .name("perfbench-probe".into())
            .spawn(move || {
                // The thread names itself as it starts; report after that.
                ready_tx.send(()).ok();
                rx.recv().ok()
            })
            .expect("spawn probe thread");
        ready_rx.recv().expect("probe thread started");
        let (_, found) = threads_named("perfbench-probe");
        tx.send(()).expect("probe thread alive");
        t.join().expect("probe thread exits");
        assert_eq!(found, 1);
    }
}
