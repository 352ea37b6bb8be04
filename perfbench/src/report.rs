//! The metric catalogue and the result line.
//!
//! Every metric the benchmark can print is declared once in [`METRICS`]
//! with its unit and its kind (end-to-end or per-layer). Every workload
//! emits every metric of its run's kind. [`Report::put`] refuses anything
//! else, and the tests check the catalogue against `BENCHMARK.json`.

use std::fmt::Write;

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Full-batch and sharded GCN training.
    TrainFull,
    /// Node-wise sampled GraphSAGE training.
    TrainSampled,
    /// Serving with Zipf popularity by degree rank.
    ServeZipf,
    /// Serving with uniform popularity.
    ServeUniform,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] =
        [Workload::TrainFull, Workload::TrainSampled, Workload::ServeZipf, Workload::ServeUniform];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TrainFull => "train-full",
            Workload::TrainSampled => "train-sampled",
            Workload::ServeZipf => "serve-zipf",
            Workload::ServeUniform => "serve-uniform",
        }
    }

    /// Whether the workload serves requests.
    pub fn serves(self) -> bool {
        matches!(self, Workload::ServeZipf | Workload::ServeUniform)
    }

    /// Parses a `--workload` name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// End-to-end (`--trace 0`) or per-layer (`--trace 1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A metric a user of the system sees.
    EndToEnd,
    /// A metric of one layer, from the traced run.
    PerLayer,
}

/// One declared metric.
#[derive(Debug)]
pub struct MetricDef {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// End-to-end or per-layer.
    pub kind: Kind,
}

use Kind::{EndToEnd as E2E, PerLayer as PL};

const fn m(name: &'static str, unit: &'static str, kind: Kind) -> MetricDef {
    MetricDef { name, unit, kind }
}

/// The catalogue.
pub const METRICS: &[MetricDef] = &[
    m("setup_s", "s", E2E),
    m("epoch_s", "s", E2E),
    m("test_acc", "frac", E2E),
    m("peak_rss_mib", "MiB", E2E),
    m("sat_qps", "1/s", E2E),
    m("served_acc", "frac", E2E),
    m("ok_frac", "frac", E2E),
    m("core.forward_s", "s", PL),
    m("core.backward_s", "s", PL),
    m("core.step_s", "s", PL),
    m("core.sample_stall_s", "s", PL),
    m("linalg.grad_fx_ms", "ms", PL),
    m("linalg.colsum_fx_ms", "ms", PL),
    m("linalg.matmul_ms", "ms", PL),
    m("linalg.grad_fx_per_matmul", "ratio", PL),
    m("graph.spmm_ms", "ms", PL),
    m("graph.spmm_flops", "count", PL),
    m("graph.spmm_bytes", "bytes", PL),
    m("graph.gcn_operator_ms", "ms", PL),
    m("partition.multilevel_ms", "ms", PL),
    m("core.shard.epoch_s", "s", PL),
    m("core.shard.halo_bytes", "bytes", PL),
    m("core.shard.allreduce_bytes", "bytes", PL),
    m("core.shard.nnz_skew", "ratio", PL),
    m("sample.blocks_ms", "ms", PL),
    m("sample.input_nodes", "count", PL),
    m("sample.aggregate_ms", "ms", PL),
    m("core.attrib_coverage", "frac", PL),
    m("core.replay_epochs", "count", PL),
    m("prop.scara_ms", "ms", PL),
    m("core.head_train_s", "s", PL),
    m("serve.store_build_ms", "ms", PL),
    m("serve.store_rows", "count", PL),
    m("serve.store_edge_touches", "count", PL),
    m("serve.requests", "count", PL),
    m("serve.plan_cached", "frac", PL),
    m("serve.plan_full", "frac", PL),
    m("serve.plan_sampled", "frac", PL),
    m("serve.cache_hit_ratio", "frac", PL),
    m("serve.cache_probes", "count", PL),
    m("serve.fresh_row_full_us", "us", PL),
    m("serve.fresh_row_sampled_us", "us", PL),
    m("serve.head_us", "us", PL),
    m("serve.engine_batch_us", "us", PL),
    m("serve.batch_size_mean", "count", PL),
    m("serve.max_qps", "1/s", PL),
    m("serve.p50_ms", "ms", PL),
    m("serve.p99_ms", "ms", PL),
    m("serve.gen_lag_ms", "ms", PL),
    m("bench.calib_ms", "ms", PL),
    m("bench.calib_drift", "ratio", PL),
    m("bench.trace_overhead_frac", "ratio", PL),
];

/// Looks a metric up by name.
pub fn def(name: &str) -> Option<&'static MetricDef> {
    METRICS.iter().find(|d| d.name == name)
}

/// The metrics of one run, in emission order.
pub struct Report {
    workload: Workload,
    kind: Kind,
    values: Vec<(&'static MetricDef, f64)>,
    filling: bool,
}

impl Report {
    /// An empty report for `workload` at `kind`.
    pub fn new(workload: Workload, kind: Kind) -> Self {
        Report { workload, kind, values: Vec::new(), filling: false }
    }

    /// From now on [`Report::put`] keeps the value already recorded for a
    /// name and drops the new one. A traced run calls this after the
    /// workload's own layers are measured, before it measures the layers
    /// of the other workloads for the names still missing.
    pub fn fill_rest(&mut self) {
        self.filling = true;
    }

    /// Records one metric. Panics on a name this run must not emit, or on
    /// one emitted twice before [`Report::fill_rest`]: that is a bug in the
    /// benchmark, not a measurement.
    pub fn put(&mut self, name: &str, value: f64) {
        let d = def(name).filter(|d| d.kind == self.kind);
        let d = d.unwrap_or_else(|| panic!("{name} is not a {:?} metric", self.kind));
        if self.values.iter().any(|(v, _)| v.name == name) {
            assert!(self.filling, "{name} emitted twice on {:?}", self.workload);
            return;
        }
        self.values.push((d, value));
    }

    /// Names this run must emit but has not.
    pub fn missing(&self) -> Vec<&'static str> {
        METRICS
            .iter()
            .filter(|d| d.kind == self.kind)
            .filter(|d| self.values.iter().all(|(v, _)| v.name != d.name))
            .map(|d| d.name)
            .collect()
    }

    /// The one-line JSON result.
    pub fn json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut s = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (d, v)) in self.values.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let v = if v.is_finite() { *v } else { -1.0 };
            write!(s, "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", d.name, d.unit)
                .expect("write to String");
        }
        s.push_str("}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark directory")
    }

    /// The body of the top-level array `key` in `BENCHMARK.json`, which
    /// keeps one entry per line and closes each array on a line `  ]`.
    fn section<'a>(json: &'a str, key: &str) -> &'a str {
        let start = json.find(&format!("\"{key}\"")).expect("section present");
        let close = start + json[start..].find("\n  ]").expect("closed array");
        &json[start..close]
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let json = benchmark_json();
        for (key, kind) in [("end_to_end", Kind::EndToEnd), ("per_layer", Kind::PerLayer)] {
            let body = section(&json, key);
            let declared = body.matches("\"name\"").count();
            let ours: Vec<&MetricDef> = METRICS.iter().filter(|d| d.kind == kind).collect();
            assert_eq!(declared, ours.len(), "{key}: count differs from the catalogue");
            for d in ours {
                let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", d.name, d.unit);
                assert!(body.contains(&entry), "{key} lacks {entry}");
            }
        }
        let workloads = section(&json, "workloads");
        for w in Workload::ALL {
            assert!(workloads.contains(&format!("\"name\": \"{}\"", w.name())), "{}", w.name());
        }
        assert_eq!(workloads.matches("\"name\"").count(), Workload::ALL.len());
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        for (i, d) in METRICS.iter().enumerate() {
            assert!(METRICS[..i].iter().all(|o| o.name != d.name), "{} twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d.name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }

    #[test]
    fn put_refuses_a_metric_of_the_other_kind() {
        let mut r = Report::new(Workload::TrainSampled, Kind::EndToEnd);
        r.put("epoch_s", 1.5);
        assert!(r.missing().contains(&"setup_s"));
        assert!(!r.missing().contains(&"epoch_s"));
        let line = r.json(true, 3, 0);
        assert!(line.contains("\"epoch_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(std::panic::catch_unwind(move || r.put("core.forward_s", 1.0)).is_err());
    }

    #[test]
    fn a_name_is_emitted_once_and_fill_keeps_the_first() {
        let mut r = Report::new(Workload::ServeZipf, Kind::PerLayer);
        r.put("core.forward_s", 1.0);
        r.fill_rest();
        r.put("core.forward_s", 2.0);
        r.put("graph.spmm_ms", 3.0);
        let line = r.json(true, 1, 0);
        assert!(line.contains("\"core.forward_s\": {\"value\": 1, "));
        assert!(line.contains("\"graph.spmm_ms\": {\"value\": 3, "));
        let mut twice = Report::new(Workload::ServeZipf, Kind::PerLayer);
        twice.put("core.forward_s", 1.0);
        assert!(std::panic::catch_unwind(move || twice.put("core.forward_s", 2.0)).is_err());
    }
}
