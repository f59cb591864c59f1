//! `perfbench compare A B`: prints each metric of two results side by
//! side with the ratio B/A, and refuses results whose host or
//! configuration differ.

use std::process::ExitCode;

use crate::json::{self, Value};
use crate::provenance::COMPARABLE;

/// Provenance fields in which `a` and `b` differ and that forbid a
/// comparison.
pub fn incompatibilities(a: &Value, b: &Value) -> Vec<String> {
    let (pa, pb) = (a.get("provenance"), b.get("provenance"));
    let (Some(pa), Some(pb)) = (pa, pb) else {
        return vec!["a result lacks its provenance block".into()];
    };
    COMPARABLE
        .iter()
        .filter(|k| pa.get(k) != pb.get(k))
        .map(|k| {
            let show = |p: &Value| p.get(k).map_or("missing".into(), Value::encode);
            format!("{k}: {} vs {}", show(pa), show(pb))
        })
        .collect()
}

/// `(name, unit, a, b)` for every metric of `a` that `b` also reports.
pub fn paired_metrics(a: &Value, b: &Value) -> Vec<(String, String, f64, f64)> {
    let empty = Value::Obj(Vec::new());
    let mb = b.get("metrics").unwrap_or(&empty);
    a.get("metrics")
        .unwrap_or(&empty)
        .fields()
        .iter()
        .filter_map(|(name, m)| {
            let other = mb.get(name)?;
            Some((
                name.clone(),
                m.get("unit")?.as_str()?.to_string(),
                m.get("value")?.as_f64()?,
                other.get("value")?.as_f64()?,
            ))
        })
        .collect()
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

pub fn main(args: &[String]) -> ExitCode {
    let [pa, pb] = args else {
        eprintln!("usage: perfbench compare <result-a.json> <result-b.json>");
        return ExitCode::from(2);
    };
    let (a, b) = match (load(pa), load(pb)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("perfbench compare: {e}");
            return ExitCode::from(1);
        }
    };
    let problems = incompatibilities(&a, &b);
    if !problems.is_empty() {
        eprintln!(
            "perfbench compare: refusing to compare results from different hosts or configs:"
        );
        for p in problems {
            eprintln!("  {p}");
        }
        return ExitCode::from(2);
    }
    let rev = |v: &Value| {
        v.get("provenance")
            .and_then(|p| p.get("git_revision"))
            .and_then(Value::as_str)
            .unwrap_or("unknown")
            .to_string()
    };
    println!("A = {pa} ({})\nB = {pb} ({})", rev(&a), rev(&b));
    println!(
        "{:<34} {:>16} {:>16} {:>8}  unit",
        "metric", "A", "B", "B/A"
    );
    for (name, unit, va, vb) in paired_metrics(&a, &b) {
        let ratio = if va == 0.0 { f64::NAN } else { vb / va };
        println!("{name:<34} {va:>16.6} {vb:>16.6} {ratio:>8.4}  {unit}");
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(host: &str, eps: &str, revision: &str, latency: f64) -> Value {
        json::parse(&format!(
            r#"{{"provenance": {{"host": "{host}", "nproc": 2, "git_revision": "{revision}",
                "workload": "city_join", "seed": 1, "seconds": 10, "traced": false,
                "config": {{"eps": "{eps}"}}}},
               "metrics": {{"op_p50_ref": {{"value": {latency}, "unit": "ref"}}}}}}"#
        ))
        .expect("fixture parses")
    }

    #[test]
    fn same_host_and_config_compare_across_revisions() {
        let a = result("box", "100", "aaa", 2.0);
        let b = result("box", "100", "bbb", 1.5);
        assert!(incompatibilities(&a, &b).is_empty());
        assert_eq!(
            paired_metrics(&a, &b),
            vec![("op_p50_ref".into(), "ref".into(), 2.0, 1.5)]
        );
    }

    #[test]
    fn different_host_or_config_is_refused() {
        let a = result("box", "100", "aaa", 2.0);
        assert_eq!(
            incompatibilities(&a, &result("other", "100", "aaa", 2.0)).len(),
            1
        );
        let diff = incompatibilities(&a, &result("box", "50", "aaa", 2.0));
        assert_eq!(diff.len(), 1);
        assert!(diff[0].starts_with("config"));
        assert!(!incompatibilities(&a, &json::parse("{}").unwrap()).is_empty());
    }
}
