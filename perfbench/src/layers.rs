//! The metric catalogue and the per-layer accounting of a traced run.
//!
//! Every run reports every metric of its mode. A per-layer metric of a
//! layer a workload does not exercise reads 0 (README.md lists which
//! layers each workload reaches).

use asj_core::JoinReport;
use asj_net::{CacheSnapshot, LinkSnapshot};

use crate::harness::{Metric, Outcome};

/// Untraced metrics: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("op_p50_ref", "ref"),
    ("op_p90_ref", "ref"),
    ("ops_per_kref", "1/kref"),
    ("bytes_per_read", "B"),
    ("success_frac", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Traced metrics: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.gen_s", "s"),
    ("core.build_s", "s"),
    ("core.join_ms", "ms"),
    ("core.update_ms", "ms"),
    ("core.splits_per_join", "count"),
    ("core.hbsj_runs_per_join", "count"),
    ("core.nlsj_runs_per_join", "count"),
    ("core.pruned_windows_per_join", "count"),
    ("net.queries_per_join", "count"),
    ("net.count_queries_per_join", "count"),
    ("device.objects_per_join", "count"),
    ("device.peak_buffer", "count"),
    ("net.up_bytes_per_join", "B"),
    ("net.down_bytes_per_join", "B"),
    ("net.router.scattered_per_join", "count"),
    ("net.router.pruning_rate", "ratio"),
    ("net.router.failovers_per_join", "count"),
    ("net.router.breaker_open", "count"),
    ("net.retried_per_join", "count"),
    ("net.retry_ratio", "ratio"),
    ("net.abandoned", "count"),
    ("net.cache.hit_rate", "ratio"),
    ("net.cache.bytes_saved_per_join", "B"),
    ("net.cache.evictions", "count"),
    ("server.apply_ms", "ms"),
    ("net.event_loop.reactor_cpu_ms", "ms"),
    ("net.event_loop.reactor_runq_ms", "ms"),
    ("server.handle_us", "us"),
    ("net.event_loop.wait_us", "us"),
    ("net.link.client_us", "us"),
    ("device.self_us_per_request", "us"),
    ("net.event_loop.max_queue_depth", "count"),
    ("net.event_loop.served", "count"),
    ("trace.overhead_frac", "ratio"),
];

/// Checks that `metrics` is exactly the catalogue `expected`, in order
/// and with the catalogue's units.
pub fn matches_catalogue(metrics: &[Metric], expected: &[(&str, &str)]) -> bool {
    metrics.len() == expected.len()
        && metrics
            .iter()
            .zip(expected)
            .all(|(m, (name, unit))| m.name == *name && m.unit == *unit)
}

/// Counters summed over the joins and update ticks of a traced phase.
#[derive(Debug, Default, Clone)]
pub struct JoinTotals {
    pub joins: u64,
    pub join_ms: f64,
    pub updates: u64,
    pub update_ms: f64,
    splits: u64,
    hbsj: u64,
    nlsj: u64,
    pruned_windows: u64,
    link: LinkSnapshot,
    peak_buffer: usize,
    scattered: u64,
    shard_pruned: u64,
    cache: CacheSnapshot,
    /// Lifetime evictions of the session caches at the last join.
    cache_evictions: u64,
}

impl JoinTotals {
    pub fn add_join(&mut self, rep: &JoinReport, ms: f64) {
        self.joins += 1;
        self.join_ms += ms;
        self.splits += u64::from(rep.stats.splits);
        self.hbsj += u64::from(rep.stats.hbsj_runs);
        self.nlsj += u64::from(rep.stats.nlsj_runs);
        self.pruned_windows += u64::from(rep.stats.pruned_windows);
        self.link = self.link.plus(&rep.link_r).plus(&rep.link_s);
        self.peak_buffer = self.peak_buffer.max(rep.peak_buffer);
        for fleet in [&rep.fleet_r, &rep.fleet_s].into_iter().flatten() {
            self.scattered += fleet.scattered;
            self.shard_pruned += fleet.pruned;
        }
        if let Some(c) = rep.cache() {
            self.cache_evictions = c.evictions;
            self.cache = self.cache.plus(&c);
        }
    }

    pub fn add_update(&mut self, ms: f64) {
        self.updates += 1;
        self.update_ms += ms;
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Per-layer measurements that do not come from join reports.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerExtras {
    pub gen_s: f64,
    pub build_s: f64,
    /// Mean `VersionedStore::apply` time per update batch, summed over
    /// the standalone shard copies.
    pub apply_ms: f64,
    /// Reactor-thread CPU and run-queue time per operation.
    pub reactor_cpu_ms: f64,
    pub reactor_runq_ms: f64,
    /// Request-path split of the instrumented many-device stack.
    pub handle_us: f64,
    pub wait_us: f64,
    pub client_us: f64,
    pub device_self_us: f64,
    pub max_queue_depth: u64,
    pub served: u64,
    /// Traced over untraced mean operation time, minus one.
    pub overhead_frac: f64,
}

/// Appends every per-layer metric, in catalogue order.
pub fn push_per_layer(out: &mut Outcome, t: &JoinTotals, x: &LayerExtras) {
    let joins = t.joins as f64;
    let per_join = |v: u64| ratio(v as f64, joins);
    let l = &t.link;
    let queries = l.total_queries() as f64;
    let values: [f64; 34] = [
        x.gen_s,
        x.build_s,
        ratio(t.join_ms, joins),
        ratio(t.update_ms, t.updates as f64),
        per_join(t.splits),
        per_join(t.hbsj),
        per_join(t.nlsj),
        per_join(t.pruned_windows),
        per_join(l.total_queries()),
        per_join(l.count_queries),
        per_join(l.objects_received),
        t.peak_buffer as f64,
        per_join(l.up_bytes),
        per_join(l.down_bytes),
        per_join(t.scattered),
        ratio(t.shard_pruned as f64, (t.scattered + t.shard_pruned) as f64),
        per_join(l.failovers),
        l.breaker_open as f64,
        per_join(l.retried),
        ratio(l.retried as f64, queries),
        l.abandoned as f64,
        t.cache.hit_rate(),
        per_join(t.cache.bytes_saved),
        t.cache_evictions as f64,
        x.apply_ms,
        x.reactor_cpu_ms,
        x.reactor_runq_ms,
        x.handle_us,
        x.wait_us,
        x.client_us,
        x.device_self_us,
        x.max_queue_depth as f64,
        x.served as f64,
        x.overhead_frac,
    ];
    for ((name, unit), value) in PER_LAYER.iter().zip(values) {
        out.push(name, value, unit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn names(section: &json::Value) -> Vec<(String, String)> {
        match section {
            json::Value::Arr(items) => items
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(|v| v.as_str()).unwrap().to_string(),
                        m.get("unit").and_then(|v| v.as_str()).unwrap().to_string(),
                    )
                })
                .collect(),
            _ => panic!("metric section is not a list"),
        }
    }

    /// The catalogue and the benchmark definition at the repository root
    /// name the same metrics with the same units.
    #[test]
    fn catalogue_matches_benchmark_definition() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let def = json::parse(&text).expect("BENCHMARK.json parses");
        let own = |c: &[(&str, &str)]| -> Vec<(String, String)> {
            c.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names(def.get("end_to_end").unwrap()), own(END_TO_END));
        assert_eq!(names(def.get("per_layer").unwrap()), own(PER_LAYER));
    }

    #[test]
    fn per_layer_fills_the_catalogue_in_order() {
        let mut out = Outcome::default();
        push_per_layer(&mut out, &JoinTotals::default(), &LayerExtras::default());
        assert!(matches_catalogue(&out.metrics, PER_LAYER));
        // Nothing measured divides by zero.
        assert!(out.metrics.iter().all(|m| m.value == 0.0));
    }
}
