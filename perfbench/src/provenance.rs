//! Where a result came from: host, cores, revision, toolchain and the
//! run's configuration. Two results are comparable only when their host
//! and configuration agree (see `compare`).

use std::process::Command;

use crate::json::Value;

/// Output of a command run from the benchmark's package directory, or
/// `None` when it cannot run or fails (a source export has no git).
fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

pub fn host() -> String {
    std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map(|h| h.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Everything about a run except its measurements. `config` holds the
/// workload parameters; together with `host`, `nproc`, `workload`,
/// `seed`, `seconds` and `traced` it decides comparability.
pub fn record(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    config: &[(&'static str, String)],
) -> Value {
    let revision = command_output("git", &["rev-parse", "HEAD"]);
    let dirty = revision
        .as_ref()
        .and_then(|_| command_output("git", &["status", "--porcelain"]))
        .map(|s| !s.is_empty());
    Value::obj([
        ("host", Value::str(host())),
        ("nproc", Value::Num(nproc() as f64)),
        (
            "git_revision",
            Value::str(revision.unwrap_or_else(|| "unknown".into())),
        ),
        ("git_dirty", dirty.map_or(Value::Null, Value::Bool)),
        (
            "rustc",
            Value::str(command_output("rustc", &["--version"]).unwrap_or_else(|| "unknown".into())),
        ),
        ("workload", Value::str(workload)),
        ("seed", Value::Num(seed as f64)),
        ("seconds", Value::Num(seconds)),
        ("traced", Value::Bool(traced)),
        (
            "config",
            Value::obj(config.iter().map(|(k, v)| (*k, Value::str(v.clone())))),
        ),
    ])
}

/// Provenance fields that must agree for two results to be compared.
pub const COMPARABLE: &[&str] = &[
    "host", "nproc", "workload", "seed", "seconds", "traced", "config",
];
