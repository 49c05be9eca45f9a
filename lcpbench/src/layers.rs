//! The per-layer vocabulary (`--trace 1`): every traced run prints every
//! name below, in this order. A layer a workload does not exercise
//! reads 0.

use crate::obs::Snapshot;
use crate::stats::{ratio, Metric};
use crate::trace::{self, SelfTimes, Span};
use crate::{Args, Outcome};

/// Layers whose self time is reported as a share of all traced time;
/// `unattributed` is the root spans' own time.
const LAYERS: [(&str, &str); 8] = [
    ("schemes", "self.schemes_share"),
    ("engine", "self.engine_share"),
    ("harness", "self.harness_share"),
    ("dynamic", "self.dynamic_share"),
    ("conformance", "self.conformance_share"),
    ("serve", "self.serve_share"),
    ("frozen", "self.frozen_share"),
    ("unattributed", "self.unattributed_share"),
];

/// Every per-layer metric with its unit, in report order.
pub const PER_LAYER: [(&str, &str); 49] = [
    ("self.schemes_share", "ratio"),
    ("self.engine_share", "ratio"),
    ("self.harness_share", "ratio"),
    ("self.dynamic_share", "ratio"),
    ("self.conformance_share", "ratio"),
    ("self.serve_share", "ratio"),
    ("self.frozen_share", "ratio"),
    ("self.unattributed_share", "ratio"),
    ("trace.attributed_share", "ratio"),
    ("graph.line_graph_init_ms", "ms"),
    ("schemes.build_us", "us"),
    ("schemes.prove_us", "us"),
    ("engine.prepare_ns_per_node", "ns"),
    ("engine.prepares_per_pass", "count"),
    ("engine.skeleton_cache_hit_ratio", "ratio"),
    ("engine.evaluate_ns_per_view", "ns"),
    ("frozen.open_ns_per_word", "ns"),
    ("artifact.loads_per_restart", "count"),
    ("harness.adversarial_steps_per_s", "1/s"),
    ("harness.exhaustive_candidates_per_s", "1/s"),
    ("harness.memo_hit_ratio", "ratio"),
    ("batch.kernel_fill_share", "ratio"),
    ("batch.adversarial_batched_share", "ratio"),
    ("harness.tamper_us_per_trial", "us"),
    ("dynamic.reverify_us_p50", "us"),
    ("dynamic.reverified_nodes_per_mutation", "count"),
    ("dynamic.full_check_us", "us"),
    ("conformance.core_busy_share", "ratio"),
    ("conformance.growth_fit_failures", "count"),
    ("serve.parse_us", "us"),
    ("serve.server_us_p50", "us"),
    ("serve.wire_us_p50", "us"),
    ("serve.table_load_ms", "ms"),
    ("serve.table_evictions", "count"),
    ("serve.busy_rejections", "count"),
    ("obs.tracing_overhead_share", "ratio"),
    ("campaign_pass_s", "s"),
    ("serve_rps", "1/s"),
    ("mutate_ms_p50", "ms"),
    ("mutate_ms_p99", "ms"),
    ("verify_ms_p50", "ms"),
    ("verify_ms_p99", "ms"),
    ("tamper_ms_p50", "ms"),
    ("tamper_ms_p99", "ms"),
    ("cold_prepare_ms_p50", "ms"),
    ("cold_prepare_ms_p90", "ms"),
    ("restart_ms_p50", "ms"),
    ("restart_ms_p90", "ms"),
    ("ops_failed_ratio", "ratio"),
];

/// Self-time shares per layer, and the share of root wall time some
/// layer's span covers.
pub fn shares(t: &SelfTimes) -> Vec<Metric> {
    let spans = t.by_name.values().map(|&(count, _)| count as usize).sum();
    let mut m: Vec<Metric> = LAYERS
        .iter()
        .map(|&(layer, name)| Metric::new(name, t.layer_share(layer), "ratio", spans))
        .collect();
    m.push(Metric::new(
        "trace.attributed_share",
        t.attributed_share(),
        "ratio",
        spans,
    ));
    m
}

/// The engine's counters over a traced phase of `ops` operations, per
/// node prepared and per view swept (counted by the benchmark, since the
/// program counts builds and sweeps but not their sizes).
pub fn engine(d: &Snapshot, nodes_prepared: u64, views_swept: u64, ops: usize) -> Vec<Metric> {
    let lookups = d.cache_hits + d.cache_misses;
    vec![
        Metric::new(
            "engine.prepare_ns_per_node",
            ratio(d.prepare_ns as f64, nodes_prepared as f64),
            "ns",
            d.prepares as usize,
        ),
        Metric::new(
            "engine.prepares_per_pass",
            ratio(d.prepares as f64, ops as f64),
            "count",
            ops,
        ),
        Metric::new(
            "engine.skeleton_cache_hit_ratio",
            ratio(d.cache_hits as f64, lookups as f64),
            "ratio",
            lookups as usize,
        ),
        Metric::new(
            "engine.evaluate_ns_per_view",
            ratio(d.evaluate_ns as f64, views_swept as f64),
            "ns",
            d.evaluate_sweeps as usize,
        ),
    ]
}

/// Traced run time over untraced run time, minus one.
pub fn overhead(untraced_ms: f64, traced_ns: &[u64]) -> Metric {
    let traced_ms = crate::stats::median(&mut crate::stats::ms(traced_ns));
    Metric::new(
        "obs.tracing_overhead_share",
        ratio(traced_ms - untraced_ms, untraced_ms),
        "ratio",
        traced_ns.len(),
    )
}

/// Orders `measured` as [`PER_LAYER`], fills what the workload does not
/// exercise with 0, and adds `ops_failed_ratio`.
pub fn complete(mut measured: Vec<Metric>, out: &Outcome) -> Vec<Metric> {
    measured.push(Metric::new(
        "ops_failed_ratio",
        ratio(out.failed as f64, out.attempted as f64),
        "ratio",
        out.attempted as usize,
    ));
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let found = measured.iter().find(|m| m.name == name);
            debug_assert!(found.is_none_or(|m| m.unit == unit), "{name} unit");
            found
                .cloned()
                .unwrap_or_else(|| Metric::new(name, 0.0, unit, 0))
        })
        .collect()
}

/// Writes the run's spans to `lcpbench/out/trace-<workload>-<seed>.jsonl`.
pub fn write_trace(args: &Args, spans: &[Span]) {
    let path = crate::out_dir().join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
    let header = format!(
        "{{\"workload\": {}, \"machine\": {}}}",
        crate::stats::json_str(&args.workload),
        crate::stats::machine_descriptor(args.seed)
    );
    if let Err(e) = trace::write_spans(&path, &header, spans) {
        eprintln!("lcpbench: could not write {}: {e}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_measured_name_is_in_the_vocabulary() {
        let out = Outcome::default();
        let m = complete(vec![Metric::new("serve_rps", 3.0, "1/s", 1)], &out);
        assert_eq!(m.len(), PER_LAYER.len());
        assert_eq!(
            m.iter().find(|x| x.name == "serve_rps").map(|x| x.value),
            Some(3.0)
        );
        let mut names: Vec<_> = PER_LAYER.iter().map(|p| p.0).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len(), "names are unique");
    }
}
