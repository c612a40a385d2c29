//! The metric tables (names, units, direction, bounds) and the result
//! a run prints. `BENCHMARK.json` at the repo root repeats these
//! tables; a self-test keeps the two equal.

use crate::json::Json;
use crate::stats::Pct;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; `None` for per-layer metrics.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Every workload reports every one
/// (the benchmark contract requires it), so the two latency pairs are
/// named by role; README.md says what each is on each workload.
///
/// Every bound is the allowed maximum. The reference box is a shared
/// VM whose speed moves by 15–25 % from one minute to the next: over
/// ten seeds the inter-quartile spread reached 0.13 on a latency and
/// 0.10 on throughput, and two sets of ten runs of one commit differed
/// by up to 0.23 in their medians (README.md, "Noise").
pub const END_TO_END: [MetricDef; 7] = [
    e2e("primary_ms_p50", "ms", Lower, 0.25),
    e2e("primary_ms_p90", "ms", Lower, 0.25),
    e2e("secondary_ms_p50", "ms", Lower, 0.25),
    e2e("secondary_ms_p90", "ms", Lower, 0.25),
    e2e("records_per_s", "records/s", Higher, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
];

/// One entry per layer measurement of the traced pass; layer = crate.
pub const PER_LAYER: [MetricDef; 43] = [
    layer("indoor-iupt.push_ns_per_record", "ns/record", Lower),
    layer("popflow-store.intern_hit_ratio", "ratio", Higher),
    layer("popflow-store.bytes_per_record", "B/record", Lower),
    layer("indoor-rtree.range_query_us", "us", Lower),
    layer("indoor-iupt.sequences_in_us", "us", Lower),
    layer("popflow-core.dp_ns_per_cell", "ns/cell", Lower),
    layer("popflow-core.reduce_ns_per_record", "ns/record", Lower),
    layer("popflow-core.contrib_us_per_object", "us/object", Lower),
    layer("popflow-core.contrib_pruned_ratio", "ratio", Higher),
    layer("popflow-core.nl_objects_computed_ratio", "ratio", Lower),
    layer("popflow-core.bf_objects_computed_ratio", "ratio", Lower),
    layer("popflow-core.nl_self_ms_p50", "ms", Lower),
    layer("popflow-core.bf_self_ms_p50", "ms", Lower),
    layer("popflow-exec.tell_ns_per_job", "ns/job", Lower),
    layer("popflow-exec.ask_all_roundtrip_us", "us", Lower),
    layer("popflow-serve.ingest_ns_per_record", "ns/record", Lower),
    layer("popflow-serve.replay_records_per_s", "records/s", Higher),
    layer("popflow-serve.advance_ms_p50", "ms", Lower),
    layer("popflow-serve.advance_ms_p99", "ms", Lower),
    layer("popflow-serve.advance_busy_share", "ratio", Lower),
    layer("popflow-serve.fresh_presence", "count", Lower),
    layer("popflow-serve.presence_cells", "count", Lower),
    layer("popflow-serve.cache_hit_ratio", "ratio", Higher),
    layer("popflow-serve.memo_hit_ratio", "ratio", Higher),
    layer("popflow-serve.log_bytes_per_record", "B/record", Lower),
    layer("popflow-serve.pruned_advance_ms_p50", "ms", Lower),
    layer("popflow-serve.pruned_presence_cells", "count", Lower),
    layer("popflow-server.encode_ns_per_record", "ns/record", Lower),
    layer("popflow-server.decode_ns_per_record", "ns/record", Lower),
    layer("popflow-server.wire_bytes_per_record", "B/record", Lower),
    layer("popflow-server.admit_ms_p50", "ms", Lower),
    layer("popflow-server.admit_ms_p90", "ms", Lower),
    layer("popflow-server.tick_us_p50", "us", Lower),
    layer("popflow-server.tick_lag_us_p90", "us", Lower),
    layer("popflow-server.queue_peak_records", "count", Lower),
    layer("popflow-server.throttle_ratio", "ratio", Lower),
    layer("popflow-server.advances_deferred", "count", Lower),
    layer("popflow-server.delta_ms_p99", "ms", Lower),
    layer("popflow-server.gen_late_ms_max", "ms", Lower),
    layer("popflow-server.wire_overhead_ms_p50", "ms", Lower),
    layer("popflow-obs.histogram_record_ns", "ns", Lower),
    layer("trace.coverage_ratio", "ratio", Higher),
    layer("trace.overhead_ratio", "ratio", Lower),
];

/// How long one run measures; the default of `--seconds`.
pub const RUN_SECONDS: u32 = 20;

/// `BENCHMARK.json`, written from the tables above and the workload
/// list: `bench/run.sh --manifest > BENCHMARK.json`.
pub fn manifest() -> String {
    let list = |items: Vec<Json>| {
        let lines: Vec<String> = items.iter().map(|j| format!("    {j}")).collect();
        format!("[\n{}\n  ]", lines.join(",\n"))
    };
    let metric = |d: &MetricDef| {
        let mut fields = vec![
            ("name", Json::str(d.name)),
            ("unit", Json::str(d.unit)),
            ("better", Json::str(d.better.as_str())),
        ];
        if let Some(b) = d.bound {
            fields.push(("bound", Json::Num(b)));
        }
        Json::obj(fields)
    };
    let workloads = crate::spec::WORKLOADS
        .iter()
        .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"bench/run.sh\"],\n  \"paths\": [\"bench\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \
         \"per_layer\": {}\n}}\n",
        list(workloads),
        list(END_TO_END.iter().map(metric).collect()),
        list(PER_LAYER.iter().map(metric).collect()),
    )
}

/// One measured value; `n` is the sample count behind a percentile or
/// a median, `supported` whether ten samples lie beyond a percentile.
#[derive(Debug, Clone)]
pub struct Measured {
    pub name: &'static str,
    pub value: f64,
    pub n: Option<usize>,
    pub supported: bool,
}

/// The values of one run, in table order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Measured>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.0.push(Measured {
            name,
            value,
            n: None,
            supported: true,
        });
    }

    pub fn put_n(&mut self, name: &'static str, value: f64, n: usize) {
        self.0.push(Measured {
            name,
            value,
            n: Some(n),
            supported: true,
        });
    }

    /// A percentile, or nothing when there were no samples (the run is
    /// then reported as incomplete, never padded with a placeholder).
    pub fn put_pct(&mut self, name: &'static str, pct: Option<Pct>) {
        if let Some(p) = pct {
            self.0.push(Measured {
                name,
                value: p.value,
                n: Some(p.n),
                supported: p.supported,
            });
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// Names of `defs` this run did not produce a finite value for.
    pub fn missing(&self, defs: &[MetricDef]) -> Vec<&'static str> {
        defs.iter()
            .filter(|d| !self.get(d.name).is_some_and(f64::is_finite))
            .map(|d| d.name)
            .collect()
    }

    /// `{"name": {"value": v, "unit": u}, …}` over `defs`, in order.
    pub fn to_json(&self, defs: &[MetricDef]) -> Json {
        Json::obj(defs.iter().filter_map(|d| {
            let v = self.get(d.name)?;
            Some((
                d.name,
                Json::obj([("value", Json::Num(v)), ("unit", Json::str(d.unit))]),
            ))
        }))
    }

    /// One human-readable line per metric.
    pub fn print(&self, defs: &[MetricDef], alias: impl Fn(&str) -> Option<&'static str>) {
        for d in defs {
            let Some(m) = self.0.iter().find(|m| m.name == d.name) else {
                println!("{:<44} (not measured)", d.name);
                continue;
            };
            let n = match (m.n, m.supported) {
                (Some(n), true) => format!("  n={n}"),
                (Some(n), false) => format!("  n={n} (fewer than 10 samples beyond)"),
                (None, _) => String::new(),
            };
            let alias = alias(d.name).map_or(String::new(), |a| format!("  [{a}]"));
            println!("{:<44} {:>14.4} {}{n}{alias}", d.name, m.value, d.unit);
        }
    }
}

/// The last line a run prints: exactly these four keys.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: Json) -> Json {
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::from(attempted)),
        ("failed", Json::from(failed)),
        ("metrics", metrics),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_obey_the_manifest_limits() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_name(d.name), "{}", d.name);
            assert!(valid_unit(d.unit), "{}", d.unit);
            assert!(seen.insert(d.name), "duplicate {}", d.name);
        }
        assert!(END_TO_END
            .iter()
            .all(|d| d.bound.is_some_and(|b| b <= 0.25)));
        assert!(PER_LAYER.iter().all(|d| d.bound.is_none()));
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END
            .iter()
            .filter_map(|d| d.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest));
    }

    /// `BENCHMARK.json` is what the driver reads; the tables are what
    /// the program prints. The committed file must be the generated one.
    #[test]
    fn benchmark_json_is_the_generated_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            manifest(),
            "run `bench/run.sh --manifest > BENCHMARK.json`"
        );
        let doc = Json::parse(&committed).unwrap();
        let keys: Vec<&str> = doc.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert!(committed.len() <= 64 * 1024);
        let workloads = doc.get("workloads").unwrap().items();
        assert!((2..=8).contains(&workloads.len()));
        for w in workloads {
            let why = w.get("why").and_then(Json::as_str).unwrap();
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
            assert!(valid_name(w.get("name").and_then(Json::as_str).unwrap()));
        }
        assert_eq!(
            doc.get("end_to_end").unwrap().items().len(),
            END_TO_END.len()
        );
        assert_eq!(doc.get("per_layer").unwrap().items().len(), PER_LAYER.len());
    }
}
