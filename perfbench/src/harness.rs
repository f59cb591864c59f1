//! What every workload shares: the run context, repeated set-up, the
//! closed measurement loop and the result it reports.

use std::time::{Duration, Instant};

use crate::reference::Reference;
use crate::stats;

/// Command-line context of one run.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    pub seed: u64,
    /// Measured time the run aims for.
    pub seconds: f64,
    pub traced: bool,
}

impl Ctx {
    /// A seed for one generated input, distinct per `salt` and run seed.
    pub fn derive(&self, salt: u64) -> u64 {
        crate::inputs::mix64(self.seed ^ salt.wrapping_mul(crate::inputs::GOLDEN))
    }
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every correctness gate held.
    pub correct: bool,
    pub attempted: u64,
    /// Operations that errored or returned coverage below 1.
    pub failed: u64,
    /// Latency samples behind the reported percentiles.
    pub samples: usize,
    pub metrics: Vec<Metric>,
    /// Untraced times in wall-clock units, beside their `ref` forms in
    /// `metrics`, and the reference loop's median time.
    pub raw: Vec<Metric>,
    /// Workload parameters, recorded in the provenance block.
    pub config: Vec<(&'static str, String)>,
    /// Failed gates and remarks about the run, printed and recorded.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Records a failed gate; the run reports `correct: false`.
    pub fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.correct = false;
            self.notes.push(format!("gate failed: {}", what()));
        }
    }
}

/// Median set-up cost over repeated builds.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    /// Input generation plus deployment build.
    pub total_s: f64,
    /// The same in refs: each set-up over the median of the reference
    /// loops around it (one runs after each set-up).
    pub total_refs: f64,
    pub gen_s: f64,
    pub build_s: f64,
    pub reps: usize,
}

/// Set-up repeats at least this often, and until [`SETUP_BUDGET_S`] has
/// been spent, so the reported median is steady even when one set-up
/// takes milliseconds.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MAX_REPS: usize = 2001;
const SETUP_BUDGET_S: f64 = 3.0;

/// Runs `gen` then `build` repeatedly and keeps the last product; the
/// previous product is dropped before the next generation starts so
/// peak memory holds one deployment. `gen`'s output is handed to
/// `build` after `keep` has taken what the oracles need, untimed. The
/// reference loop runs after each set-up, outside its time.
pub fn repeated_setup<D, T, K>(
    mut gen: impl FnMut() -> D,
    mut keep: impl FnMut(&D) -> K,
    mut build: impl FnMut(D) -> T,
) -> (T, K, SetupTimes) {
    let (mut gens, mut builds, mut totals) = (Vec::new(), Vec::new(), Vec::new());
    let mut reference = Reference::default();
    let mut reference_ms = Vec::new();
    let mut last: Option<(T, K)> = None;
    let mut spent = 0.0;
    while totals.len() < SETUP_MIN_REPS || (spent < SETUP_BUDGET_S && totals.len() < SETUP_MAX_REPS)
    {
        drop(last.take());
        let t0 = Instant::now();
        let data = gen();
        let gen_s = t0.elapsed().as_secs_f64();
        let kept = keep(&data);
        let t1 = Instant::now();
        let built = build(data);
        let build_s = t1.elapsed().as_secs_f64();
        gens.push(gen_s);
        builds.push(build_s);
        totals.push(gen_s + build_s);
        spent += gen_s + build_s;
        last = Some((built, kept));
        reference_ms.push(reference.time_ms());
    }
    let (built, kept) = last.expect("at least one set-up ran");
    let local = stats::local_medians(&reference_ms, REF_HALF_WINDOW);
    let refs: Vec<f64> = totals
        .iter()
        .zip(&local)
        .map(|(s, ms)| s * 1e3 / ms)
        .collect();
    let times = SetupTimes {
        total_s: stats::median(&totals),
        total_refs: stats::median(&refs),
        gen_s: stats::median(&gens),
        build_s: stats::median(&builds),
        reps: totals.len(),
    };
    (built, kept, times)
}

/// What one closed-loop operation reports back to the loop.
pub struct Step {
    /// Time spent inside the system's call(s), oracle work excluded.
    pub took: Duration,
    /// The operation completed with full coverage.
    pub ok: bool,
    /// The workload cannot continue (its oracle lost track of the data).
    pub stop: bool,
}

/// Latencies and counts of a closed-loop phase.
#[derive(Debug, Default)]
pub struct OpLog {
    pub latencies_ms: Vec<f64>,
    /// Latencies recorded in whole microseconds, truncated, one histogram
    /// per round of devices (`hist[v]` samples read `v` µs) with the
    /// median time of the reference loops run during that round; used
    /// instead of `latencies_ms` when not empty.
    pub rounds_us: Vec<(Vec<u64>, f64)>,
    pub measured_s: f64,
    /// Measured time in refs where operations are not timed one by one
    /// (rounds of devices): each round's time over the median loop time
    /// of that round.
    pub measured_refs: f64,
    /// Times of the reference loop: one after each operation
    /// (`latencies_ms[i]` pairs with `reference_ms[i]`), or taken across
    /// rounds of devices when `rounds_us` is used.
    pub reference_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
}

/// Reference loops on each side of an operation whose median is that
/// operation's ref: 21 loops, about a second of a join workload.
pub const REF_HALF_WINDOW: usize = 10;

/// Latency percentiles and throughput of a log, in wall-clock units and
/// in refs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timings {
    /// Latency samples behind the percentiles.
    pub samples: usize,
    pub p50_ms: f64,
    pub tail_ms: f64,
    pub ops_per_s: f64,
    /// Median time of the reference loop over the whole log.
    pub ref_ms: f64,
    pub p50_ref: f64,
    pub tail_ref: f64,
    pub ops_per_kref: f64,
}

impl OpLog {
    /// Percentiles p50 and p`tail_pct`, and throughput. An operation's
    /// latency in refs is its time over the median of the reference
    /// loops around it ([`REF_HALF_WINDOW`]); latencies kept only in
    /// per-round histograms are divided by their round's median loop,
    /// and their throughput counts `measured_refs`.
    pub fn timings(&self, tail_pct: u32) -> Timings {
        let ref_ms = if self.reference_ms.is_empty() {
            f64::NAN
        } else {
            stats::median(&self.reference_ms)
        };
        let ops_per_s = self.attempted as f64 / self.measured_s;
        if !self.rounds_us.is_empty() {
            // Microseconds per unit: a millisecond, or the round's ref.
            let p = |pct, per_unit: &dyn Fn(f64) -> f64| {
                let hists: Vec<(&[u64], f64)> = self
                    .rounds_us
                    .iter()
                    .map(|(hist, ref_ms)| (hist.as_slice(), per_unit(*ref_ms)))
                    .collect();
                stats::binned_percentile(&hists, pct).unwrap_or(f64::NAN)
            };
            let ms = |_| 1e3;
            let refs = |ref_ms: f64| ref_ms * 1e3;
            return Timings {
                samples: self.rounds_us.iter().flat_map(|(h, _)| h).sum::<u64>() as usize,
                p50_ms: p(50, &ms),
                tail_ms: p(tail_pct, &ms),
                ops_per_s,
                ref_ms,
                p50_ref: p(50, &refs),
                tail_ref: p(tail_pct, &refs),
                ops_per_kref: self.attempted as f64 / self.measured_refs * 1e3,
            };
        }
        let n = self.latencies_ms.len();
        assert_eq!(
            self.reference_ms.len(),
            n,
            "one reference loop per operation"
        );
        if n == 0 {
            return Timings {
                samples: n,
                p50_ms: f64::NAN,
                tail_ms: f64::NAN,
                ops_per_s,
                ref_ms,
                p50_ref: f64::NAN,
                tail_ref: f64::NAN,
                ops_per_kref: f64::NAN,
            };
        }
        let local = stats::local_medians(&self.reference_ms, REF_HALF_WINDOW);
        let mut refs: Vec<f64> = self
            .latencies_ms
            .iter()
            .zip(&local)
            .map(|(ms, r)| ms / r)
            .collect();
        let total_refs: f64 = refs.iter().sum();
        let mut ms = self.latencies_ms.clone();
        let raw = stats::percentiles(&mut ms, &[50, tail_pct]);
        let norm = stats::percentiles(&mut refs, &[50, tail_pct]);
        Timings {
            samples: n,
            p50_ms: raw[0],
            tail_ms: raw[1],
            ops_per_s,
            ref_ms,
            p50_ref: norm[0],
            tail_ref: norm[1],
            ops_per_kref: n as f64 / total_refs * 1e3,
        }
    }
}

/// Wall-clock ceiling of one measurement phase; a run that cannot
/// collect its samples by then reports what it has.
pub const PHASE_WALL_CAP: Duration = Duration::from_secs(110);

/// Drives `op` back to back until `seconds` of measured time have been
/// spent and at least `min_ops` operations ran (the tail rule needs
/// them), or the wall-clock cap is hit. The reference loop runs once
/// after each operation, outside its time.
pub fn closed_loop(
    seconds: f64,
    min_ops: usize,
    reference: &mut Reference,
    mut op: impl FnMut() -> Step,
) -> OpLog {
    let start = Instant::now();
    let mut log = OpLog::default();
    while (log.measured_s < seconds || log.latencies_ms.len() < min_ops)
        && start.elapsed() < PHASE_WALL_CAP
    {
        let step = op();
        log.reference_ms.push(reference.time_ms());
        log.attempted += 1;
        log.measured_s += step.took.as_secs_f64();
        log.latencies_ms.push(step.took.as_secs_f64() * 1e3);
        if !step.ok {
            log.failed += 1;
        }
        if step.stop {
            break;
        }
    }
    log
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Sorted `(r, s)` pairs: the form every join result is compared in.
pub fn sorted_pairs(mut pairs: Vec<(u32, u32)>) -> Vec<(u32, u32)> {
    pairs.sort_unstable();
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_differ_by_salt_and_repeat_by_seed() {
        let a = Ctx {
            seed: 1,
            seconds: 1.0,
            traced: false,
        };
        let b = Ctx { seed: 2, ..a };
        assert_eq!(a.derive(7), a.derive(7));
        assert_ne!(a.derive(7), a.derive(8));
        assert_ne!(a.derive(7), b.derive(7));
    }

    #[test]
    fn setup_reports_medians_and_keeps_the_last_build() {
        let mut n = 0u64;
        let (built, kept, times) = repeated_setup(
            || {
                n += 1;
                n
            },
            |d| *d * 10,
            |d| d + 100,
        );
        assert!(times.reps >= SETUP_MIN_REPS);
        assert_eq!(built, n + 100);
        assert_eq!(kept, n * 10);
        assert!(times.total_s >= 0.0 && times.gen_s <= times.total_s + 1e-9);
        assert!(times.total_refs >= 0.0);
    }

    #[test]
    fn closed_loop_stops_on_request_and_counts_failures() {
        let mut i = 0;
        let mut reference = Reference::default();
        let log = closed_loop(1e9, 0, &mut reference, || {
            i += 1;
            Step {
                took: Duration::from_micros(5),
                ok: i != 2,
                stop: i == 4,
            }
        });
        assert_eq!(log.attempted, 4);
        assert_eq!(log.failed, 1);
        assert_eq!(log.latencies_ms.len(), 4);
        assert_eq!(log.reference_ms.len(), 4);
    }

    #[test]
    fn timings_divide_each_operation_by_the_loops_around_it() {
        // The host halves its speed after the tenth operation: the
        // operations and the loop slow together, so in refs every
        // operation costs the same while the milliseconds double.
        let n = 40;
        let slow = |i: usize| if i < 10 { 1.0 } else { 2.0 };
        let log = OpLog {
            latencies_ms: (0..n).map(|i| 10.0 * slow(i)).collect(),
            reference_ms: (0..n).map(slow).collect(),
            measured_s: (0..n).map(|i| 0.01 * slow(i)).sum(),
            attempted: n as u64,
            ..OpLog::default()
        };
        let t = log.timings(90);
        assert_eq!(
            (t.samples, t.p50_ms, t.tail_ms, t.ref_ms),
            (n, 20.0, 20.0, 2.0)
        );
        assert_eq!((t.p50_ref, t.tail_ref), (10.0, 10.0));
        assert!((t.ops_per_s - 40.0 / 0.7).abs() < 1e-9);
        assert_eq!(t.ops_per_kref, 100.0);
    }

    #[test]
    fn binned_timings_divide_each_round_by_its_loop() {
        // Ten requests read 2 µs in a round whose loop took 0.5 ms: they
        // spread over [0.004, 0.006) refs. Ten read 4 µs in a round twice
        // as slow: [0.004, 0.005) refs. Together 15 000 samples per ref
        // up to 0.005, then 5 000.
        let log = OpLog {
            rounds_us: vec![(vec![0, 0, 10], 0.5), (vec![0, 0, 0, 0, 10], 1.0)],
            reference_ms: vec![0.5, 0.4, 0.6, 1.0],
            measured_s: 2.0,
            measured_refs: 4000.0,
            attempted: 20,
            ..OpLog::default()
        };
        let t = log.timings(90);
        assert_eq!((t.samples, t.p50_ms, t.ref_ms), (20, 0.003, 0.5));
        assert!((t.tail_ms - 0.0048).abs() < 1e-12);
        assert!((t.p50_ref - (0.004 + 10.0 / 15_000.0)).abs() < 1e-12);
        assert!((t.tail_ref - (0.005 + 3.0 / 5_000.0)).abs() < 1e-12);
        assert_eq!(t.ops_per_kref, 5.0);
    }

    #[test]
    fn closed_loop_waits_for_the_tail_samples() {
        let log = closed_loop(0.0, 25, &mut Reference::default(), || Step {
            took: Duration::from_micros(1),
            ok: true,
            stop: false,
        });
        assert_eq!(log.attempted, 25);
    }
}
