//! The repository benchmark: end-to-end latency, throughput, bytes and
//! set-up cost of three workloads, or — traced — their per-layer split.
//!
//! ```text
//! perfbench --workload <city_join|rail_fleet_live|crowd_traffic>
//!           --seed <n> --seconds <s> --trace <0|1> [--out <file>]
//! perfbench compare <result-a.json> <result-b.json>
//! ```
//!
//! See README.md beside this package for what each workload exercises
//! and how to read a traced run.

mod compare;
mod crowd;
mod harness;
mod inputs;
mod joins;
mod json;
mod layers;
mod pin;
mod provenance;
mod reference;
mod schedstat;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

use harness::{Ctx, Metric, OpLog, Outcome, SetupTimes};
use json::Value;

type Workload = fn(&Ctx) -> Outcome;

const WORKLOADS: &[(&str, Workload)] = &[
    ("city_join", joins::city_join),
    ("rail_fleet_live", joins::rail_fleet_live),
    ("crowd_traffic", crowd::crowd_traffic),
];

const USAGE: &str = "usage: perfbench --workload <city_join|rail_fleet_live|crowd_traffic> \
                     --seed <n> --seconds <s> --trace <0|1> [--out <file>]\n       \
                     perfbench compare <result-a.json> <result-b.json>";

struct Args {
    workload: String,
    ctx: Ctx,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--out" => out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.iter().any(|(w, _)| *w == workload) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        ctx: Ctx {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            traced: trace.ok_or("--trace is required")?,
        },
        out,
    })
}

/// The reported latency tail. Every run leaves well over ten samples
/// beyond it; on a shared host p95 tracked the few slowest seconds of a
/// run and spread 0.24 (IQR over median) across seeds on city_join.
pub const TAIL_PCT: u32 = 90;

/// Fewest operations a join run measures: the tail rule needs 100 at
/// p90, and `rail_fleet_live` averages read bytes over the joins of its
/// first 200 operations.
pub const MIN_OPS: usize = 200;

/// `setup_s` is set-up time in refs, given in seconds at the reference
/// loop's typical time on the host the benchmark was tuned on: the
/// median of its per-run medians over 120 runs was 0.67 ms (0.48 to
/// 0.78). Raw set-up seconds follow the host's drift (README.md).
pub const SECONDS_PER_REF: f64 = 0.67e-3;

/// Appends every end-to-end metric, in catalogue order: times in refs,
/// with their wall-clock forms in `out.raw`.
pub fn push_end_to_end(out: &mut Outcome, log: &OpLog, bytes_per_read: f64, setup: SetupTimes) {
    out.notes.push(format!(
        "set-up ran {} times; setup_s is their median",
        setup.reps
    ));
    let t = log.timings(TAIL_PCT);
    let n = t.samples;
    out.gate(stats::tail_ok(n, TAIL_PCT), || {
        format!(
            "{n} operations leave fewer than {} beyond p{TAIL_PCT}",
            stats::TAIL_MARGIN
        )
    });
    out.samples = n;
    out.notes.push(format!(
        "1 ref = {:.6} ms, the median of {} reference loops",
        t.ref_ms,
        log.reference_ms.len()
    ));
    for (name, value, unit) in [
        ("op_p50_ms", t.p50_ms, "ms"),
        ("op_p90_ms", t.tail_ms, "ms"),
        ("ops_per_s", t.ops_per_s, "1/s"),
        ("setup_s", setup.total_s, "s"),
        ("reference_ms", t.ref_ms, "ms"),
    ] {
        out.raw.push(Metric { name, value, unit });
    }
    let attempted = log.attempted.max(1) as f64;
    let values = [
        t.p50_ref,
        t.tail_ref,
        t.ops_per_kref,
        bytes_per_read,
        (log.attempted - log.failed) as f64 / attempted,
        setup.total_refs * SECONDS_PER_REF,
        harness::peak_rss_mb(),
    ];
    for ((name, unit), value) in layers::END_TO_END.iter().zip(values) {
        out.push(name, value, unit);
    }
}

fn metrics_value(metrics: &[Metric]) -> Value {
    Value::obj(metrics.iter().map(|m| {
        (
            m.name,
            Value::obj([("value", Value::Num(m.value)), ("unit", Value::str(m.unit))]),
        )
    }))
}

fn run(args: Args) -> ExitCode {
    let (_, workload) = WORKLOADS
        .iter()
        .find(|(w, _)| *w == args.workload)
        .expect("validated workload");
    let pinned = pin::pin_to_one_cpu();
    let mut out = workload(&args.ctx);
    out.config.push((
        "pinned_cpu",
        pinned.map_or_else(|| "none".into(), |c| c.to_string()),
    ));
    let catalogue = if args.ctx.traced {
        layers::PER_LAYER
    } else {
        layers::END_TO_END
    };
    assert!(
        layers::matches_catalogue(&out.metrics, catalogue),
        "{} reported metrics that differ from the catalogue",
        args.workload
    );
    let provenance = provenance::record(
        &args.workload,
        args.ctx.seed,
        args.ctx.seconds,
        args.ctx.traced,
        &out.config,
    );
    if args.ctx.traced {
        println!(
            "# not measurable from outside the program: the split of one join's time among \
             planning, codec and device kernel"
        );
    }
    for note in &out.notes {
        println!("# {note}");
    }
    if !args.ctx.traced {
        println!("# latency samples: {}", out.samples);
    }
    for m in &out.metrics {
        println!("# {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for m in &out.raw {
        println!("# raw {:<30} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let result = Value::obj([
        ("provenance", provenance),
        ("correct", Value::Bool(out.correct)),
        ("attempted", Value::Num(out.attempted as f64)),
        ("failed", Value::Num(out.failed as f64)),
        ("latency_samples", Value::Num(out.samples as f64)),
        ("metrics", metrics_value(&out.metrics)),
        ("raw", metrics_value(&out.raw)),
        (
            "notes",
            Value::Arr(out.notes.iter().map(|n| Value::str(n.clone())).collect()),
        ),
    ]);
    let path = args.out.unwrap_or_else(|| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("results")
            .join(format!(
                "{}-seed{}-{}.json",
                args.workload,
                args.ctx.seed,
                if args.ctx.traced {
                    "traced"
                } else {
                    "untraced"
                }
            ))
    });
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|_| std::fs::write(&path, result.encode() + "\n"));
    match written {
        Ok(()) => println!("# result written to {}", path.display()),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
    }
    let summary = Value::obj([
        ("correct", Value::Bool(out.correct)),
        ("attempted", Value::Num(out.attempted as f64)),
        ("failed", Value::Num(out.failed as f64)),
        ("metrics", metrics_value(&out.metrics)),
    ]);
    println!("{}", summary.encode());
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare::main(&args[1..]);
    }
    match parse_args(&args) {
        Ok(a) => run(a),
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
