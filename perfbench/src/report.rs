//! The benchmark's metrics, their units, and the result line.

use crate::layers::Totals;

/// End-to-end metrics: every workload reports each of them.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("nodes_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("max_rps", "1/s"),
    ("edit_const_ms", "ms"),
    ("edit_struct_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "frac"),
    ("table3_met_frac", "frac"),
];

/// Per-layer metrics: `(name, unit, end-to-end metric it should move,
/// on which workloads)`. A value of 0 on a workload the row does not
/// name means the layer is not exercised there.
pub const PER_LAYER: [(&str, &str, &str, &str); 34] = [
    (
        "minc.compile_us_per_line",
        "us",
        "setup_s p50_ms edit_struct_ms",
        "all",
    ),
    (
        "trace.ns_per_step",
        "ns",
        "nodes_per_s p50_ms edit_struct_ms",
        "all",
    ),
    (
        "trace.off_ns_per_step",
        "ns",
        "(gap to trace.ns_per_step = DDG build)",
        "all",
    ),
    ("trace.fp_ns_per_step", "ns", "edit_const_ms", "serve-edit"),
    (
        "trace.sharded_speedup",
        "x",
        "(none today; ROADMAP item 2)",
        "starbench-scaled",
    ),
    (
        "ddg.nodes_per_step",
        "ratio",
        "nodes_per_s peak_rss_mb",
        "starbench-scaled",
    ),
    (
        "simplify.reduction",
        "x",
        "nodes_per_s peak_rss_mb",
        "starbench-scaled",
    ),
    (
        "simplify.ns_per_node",
        "ns",
        "nodes_per_s",
        "starbench-scaled",
    ),
    (
        "decompose.ns_per_node",
        "ns",
        "nodes_per_s",
        "starbench-scaled",
    ),
    (
        "decompose.subddgs",
        "count",
        "nodes_per_s",
        "starbench-scaled",
    ),
    (
        "match.us_per_job",
        "us",
        "nodes_per_s p50_ms max_rps",
        "starbench-scaled serve-cold",
    ),
    (
        "match.jobs",
        "count",
        "nodes_per_s p50_ms max_rps",
        "starbench-scaled serve-cold",
    ),
    (
        "match.found_frac",
        "frac",
        "nodes_per_s p50_ms max_rps",
        "starbench-scaled serve-cold",
    ),
    (
        "match.exhausted",
        "count",
        "nodes_per_s ok_frac",
        "starbench-scaled serve-cold",
    ),
    (
        "quotient.nodes_per_reach_query",
        "ratio",
        "nodes_per_s p50_ms max_rps",
        "starbench-scaled serve-cold",
    ),
    (
        "finder.iterations",
        "count",
        "nodes_per_s",
        "starbench-scaled",
    ),
    ("combine.ms", "ms", "nodes_per_s", "starbench-scaled"),
    (
        "query.match.hit_frac",
        "frac",
        "nodes_per_s edit_struct_ms",
        "starbench-scaled serve-edit",
    ),
    (
        "query.program.hit_frac",
        "frac",
        "edit_const_ms edit_struct_ms",
        "serve-edit",
    ),
    (
        "query.fnir.hit_frac",
        "frac",
        "edit_const_ms edit_struct_ms",
        "serve-edit",
    ),
    (
        "query.trace.hit_frac",
        "frac",
        "edit_const_ms edit_struct_ms (0 on serve-cold)",
        "serve-edit serve-cold",
    ),
    (
        "query.exec.hit_frac",
        "frac",
        "edit_const_ms edit_struct_ms (0 on serve-cold)",
        "serve-edit serve-cold",
    ),
    (
        "query.subddg.hit_frac",
        "frac",
        "edit_const_ms edit_struct_ms",
        "serve-edit",
    ),
    (
        "query.find.hit_frac",
        "frac",
        "edit_const_ms edit_struct_ms (0 on serve-cold)",
        "serve-edit serve-cold",
    ),
    ("query.bytes", "B", "peak_rss_mb", "serve-cold serve-edit"),
    ("query.entries", "count", "peak_rss_mb", "serve-cold serve-edit"),
    ("query.load_ms", "ms", "setup_s", "serve-edit"),
    (
        "engine.steal_frac",
        "frac",
        "nodes_per_s",
        "starbench-scaled",
    ),
    (
        "engine.peak_queue_depth",
        "count",
        "nodes_per_s",
        "starbench-scaled",
    ),
    (
        "serve.queue_wait_ms",
        "ms",
        "p50_ms tail_ms max_rps",
        "serve-cold serve-edit",
    ),
    ("serve.rtt_us", "us", "edit_const_ms", "serve-edit"),
    (
        "serve.overloaded_frac",
        "frac",
        "ok_frac",
        "serve-cold serve-edit",
    ),
    ("serve.gen_lag_ms", "ms", "(generator health)", "serve-cold"),
    ("obs.trace_overhead_frac", "frac", "(tracing cost)", "all"),
];

/// A workload's outcome: counts, named metric values, and any check
/// that failed.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub values: Vec<(&'static str, f64)>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| *n == name).map(|v| v.1)
    }

    /// Records a failed output or workload-validity check.
    pub fn fail(&mut self, why: String) {
        if self.failures.len() < 20 {
            self.failures.push(why);
        }
    }

    /// Prints the human-readable table, then the result line with the
    /// metrics of `table` (unit looked up there). Returns whether every
    /// check passed.
    pub fn print(&self, workload: &str, traced: bool) -> bool {
        let correct = self.failures.is_empty() && self.failed == 0;
        for f in &self.failures {
            eprintln!("CHECK FAILED: {f}");
        }
        let mut metrics = Vec::new();
        if traced {
            println!(
                "{:<32} {:>14} {:<6} {:<46} workloads",
                "per-layer metric", "value", "unit", "should move"
            );
            for (name, unit, moves, on) in PER_LAYER {
                let v = self.get(name).unwrap_or(0.0);
                println!("{name:<32} {v:>14.4} {unit:<6} {moves:<46} {on}");
                metrics.push(metric_json(name, v, unit));
            }
        } else {
            for (name, unit) in END_TO_END {
                let v = self.get(name).unwrap_or(0.0);
                println!("{workload} {name} = {v} {unit}");
                metrics.push(metric_json(name, v, unit));
            }
        }
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
        correct
    }
}

fn metric_json(name: &str, value: f64, unit: &str) -> String {
    let v = if value.is_finite() { value } else { 0.0 };
    format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
}

/// Ratio with a zero denominator read as 0.
pub fn frac(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer rows the layer driver measures.
pub fn set_layer_rows(r: &mut Report, t: &Totals) {
    let f = |a: u64, b: u64| frac(a as f64, b as f64);
    r.set(
        "minc.compile_us_per_line",
        f(t.compile_ns, t.source_lines) / 1e3,
    );
    r.set("trace.ns_per_step", f(t.trace_ns, t.steps));
    r.set("trace.off_ns_per_step", f(t.off_ns, t.steps));
    r.set("trace.fp_ns_per_step", f(t.fp_ns, t.steps));
    r.set("ddg.nodes_per_step", f(t.raw_nodes, t.steps));
    r.set("simplify.reduction", f(t.raw_nodes, t.simplified_nodes));
    r.set("simplify.ns_per_node", f(t.simplify_ns, t.raw_nodes));
    r.set(
        "decompose.ns_per_node",
        f(t.decompose_ns, t.simplified_nodes),
    );
    r.set("decompose.subddgs", t.subddgs as f64);
    r.set("match.us_per_job", f(t.search_ns, t.searches) / 1e3);
    r.set("match.jobs", t.match_jobs as f64);
    r.set("match.found_frac", f(t.searches_found, t.searches));
    r.set("match.exhausted", t.exhausted as f64);
    r.set(
        "quotient.nodes_per_reach_query",
        f(t.reach_visited, t.reach_queries),
    );
    r.set("finder.iterations", f(t.iterations, t.analyses));
    r.set("combine.ms", f(t.combine_ns, t.analyses) / 1e6);
}
