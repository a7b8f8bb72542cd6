//! Metric tables, the result line and the human-readable listing.

use routebricks::telemetry::json::esc;

/// `(name, unit)` of every end-to-end metric, in `BENCHMARK.json` order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("fwd_mpps", "Mpps"),
    ("goodput_gbps", "Gbit/s"),
    ("latency_p50_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of every per-layer metric, in `BENCHMARK.json` order.
/// A metric that does not apply to a workload reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    // rb-packet: probes on the workload's frames.
    ("packet.pool_alloc_recycle_ns", "ns"),
    ("packet.pool_bulk_recycle_ns", "ns"),
    ("packet.heap_alloc_free_ns", "ns"),
    ("packet.nic_desc_ns", "ns"),
    ("packet.nic_doorbell_ns", "ns"),
    ("packet.nic_ns_per_pkt", "ns"),
    ("packet.nic_share", "ratio"),
    // rb-packet: counts of the traced run.
    ("packet.pool_allocs_per_pkt", "ratio"),
    ("packet.pool_bulk_recycle_ratio", "ratio"),
    ("packet.pool_exhausted", "count"),
    ("packet.pool_heap_fallbacks", "count"),
    ("packet.pool_peak_in_use", "count"),
    ("packet.nic_doorbells_per_pkt", "ratio"),
    ("packet.nic_desc_stalls_per_pkt", "ratio"),
    ("packet.nic_dma_bytes_per_pkt", "B"),
    // rb-lookup
    ("lookup.scalar_ns", "ns"),
    ("lookup.batch32_ns", "ns"),
    ("lookup.rcu_pin_ns", "ns"),
    ("lookup.publish_p50_ms", "ms"),
    ("lookup.publish_p99_ms", "ms"),
    ("lookup.publish_routes_per_s", "1/s"),
    ("lookup.delta_publish_ratio", "ratio"),
    ("lookup.pending_retired_max", "count"),
    ("lookup.fib_mem_mb", "MB"),
    ("lookup.compile_s", "s"),
    ("lookup.route_miss_ratio", "ratio"),
    // rb-crypto
    ("crypto.esp_seal_ns_per_byte", "ns/B"),
    ("crypto.aes_block_ns", "ns"),
    ("crypto.sha1_ns_per_byte", "ns/B"),
    // rb-click: element probes, ns per packet.
    ("click.check_ip_ns", "ns"),
    ("click.dec_ttl_ns", "ns"),
    ("click.lookup_route_ns", "ns"),
    ("click.ipsec_encap_ns", "ns"),
    ("click.queue_ns", "ns"),
    // rb-click: spans and counts of the traced run.
    ("click.from_device_ns", "ns"),
    ("click.driver_ns_per_pkt", "ns"),
    ("click.quanta_per_pkt", "ratio"),
    ("click.achieved_batch", "ratio"),
    ("click.unattributed_share", "ratio"),
    ("click.spsc_hop_ns", "ns"),
    ("click.spsc_hop_xthread_ns", "ns"),
    ("click.mt_burst_run_us", "us"),
    ("click.mt_credit_stalls_per_kpkt", "ratio"),
    ("click.mt_credit_peak_outstanding", "count"),
    ("click.mt_achieved_batch", "ratio"),
    ("click.stage_cycles_per_pkt.FromDevice", "cycles"),
    ("click.stage_cycles_per_pkt.CheckIPHeader", "cycles"),
    ("click.stage_cycles_per_pkt.Counter", "cycles"),
    ("click.stage_cycles_per_pkt.DecIPTTL", "cycles"),
    ("click.stage_cycles_per_pkt.LookupIPRoute", "cycles"),
    ("click.stage_cycles_per_pkt.IpsecEncap", "cycles"),
    ("click.stage_cycles_per_pkt.Queue", "cycles"),
    ("click.stage_cycles_per_pkt.ToDevice", "cycles"),
    // rb-telemetry
    ("telemetry.traced_over_untraced", "ratio"),
    ("telemetry.counts_over_off", "ratio"),
    // rb-hw: a reference, not a target.
    ("hw.model_cpp", "cycles"),
    ("hw.model_residual_ratio", "ratio"),
    // rb-workload: parts of setup_s.
    ("workload.traffic_gen_s", "s"),
    ("workload.rib_gen_s", "s"),
    // Harness
    ("harness.gen_late_p99_us", "us"),
    ("harness.gen_late_max_us", "us"),
    ("fwd.segment_iqr_ratio", "ratio"),
    ("fwd.median_over_best", "ratio"),
    ("latency.p99_us", "us"),
    ("latency.p999_us", "us"),
];

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Sample count behind a timing; 0 for counts and ratios.
    pub samples: usize,
}

/// One value per row of a metric table; unset rows read 0.
#[derive(Debug, Clone)]
pub struct Metrics {
    rows: Vec<Metric>,
}

impl Metrics {
    pub fn new(table: &'static [(&'static str, &'static str)]) -> Metrics {
        Metrics {
            rows: table
                .iter()
                .map(|&(name, unit)| Metric {
                    name,
                    unit,
                    value: 0.0,
                    samples: 0,
                })
                .collect(),
        }
    }

    /// Sets a metric of the table.
    ///
    /// # Panics
    ///
    /// Panics on a name the table does not list: the tables are the
    /// contract with `BENCHMARK.json`, so a stray name is a bug here.
    pub fn set(&mut self, name: &str, value: f64, samples: usize) {
        let row = self
            .rows
            .iter_mut()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not in the table"));
        row.value = if value.is_finite() { value } else { 0.0 };
        row.samples = samples;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.rows
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    }

    pub fn rows(&self) -> &[Metric] {
        &self.rows
    }
}

/// What one run reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Packets offered in the measured phases.
    pub attempted: u64,
    /// Offered packets that were not forwarded.
    pub failed: u64,
    pub metrics: Metrics,
}

impl Outcome {
    /// The result line: one JSON object with exactly the keys `correct`,
    /// `attempted`, `failed` and `metrics`. Values are written with every
    /// digit `f64` holds.
    pub fn to_json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .rows()
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    esc(m.name),
                    m.value,
                    esc(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// One `name value unit [n=samples]` line per metric.
    pub fn listing(&self, workload: &str) -> String {
        let mut out = String::new();
        for m in self.metrics.rows() {
            let n = if m.samples > 0 {
                format!("  n={}", m.samples)
            } else {
                String::new()
            };
            out.push_str(&format!(
                "{workload:<20} {:<42} {:>14.4} {}{n}\n",
                m.name, m.value, m.unit
            ));
        }
        out.push_str(&format!(
            "{workload:<20} failed {} of {} attempted, outputs {}\n",
            self.failed,
            self.attempted,
            if self.correct { "correct" } else { "WRONG" }
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::SPECS;
    use routebricks::telemetry::json::{self, Value};

    #[test]
    fn result_line_round_trips_through_the_telemetry_parser() {
        let mut metrics = Metrics::new(END_TO_END);
        metrics.set("fwd_mpps", 2.034_567_891_234_5, 9);
        metrics.set("setup_s", 0.001_25, 5);
        let line = Outcome {
            correct: true,
            attempted: 12_000_000,
            failed: 0,
            metrics,
        }
        .to_json_line();
        assert!(!line.contains('\n'));
        let doc = json::parse(&line).expect("valid JSON");
        let Value::Obj(members) = &doc else {
            panic!("result is an object")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(
            doc.get("attempted").and_then(Value::as_f64),
            Some(12_000_000.0)
        );
        let m = doc.get("metrics").unwrap();
        for &(name, unit) in END_TO_END {
            let entry = m.get(name).unwrap_or_else(|| panic!("{name} present"));
            assert_eq!(entry.get("unit").and_then(Value::as_str), Some(unit));
        }
        // Every digit survives.
        assert_eq!(
            m.get("fwd_mpps")
                .and_then(|e| e.get("value"))
                .and_then(Value::as_f64),
            Some(2.034_567_891_234_5)
        );
        assert_eq!(
            m.get("setup_s")
                .and_then(|e| e.get("value"))
                .and_then(Value::as_f64),
            Some(0.001_25)
        );
    }

    #[test]
    fn non_finite_values_become_zero() {
        let mut metrics = Metrics::new(PER_LAYER);
        metrics.set("packet.nic_share", f64::NAN, 0);
        assert_eq!(metrics.get("packet.nic_share"), 0.0);
    }

    #[test]
    #[should_panic(expected = "not in the table")]
    fn unknown_metric_is_a_bug() {
        Metrics::new(END_TO_END).set("nope", 1.0, 0);
    }

    /// `BENCHMARK.json` and the tables here list the same names, units and
    /// workloads, in the same order.
    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let pairs = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Value::as_array)
                .unwrap_or_else(|| panic!("{key} is an array"))
                .iter()
                .map(|e| {
                    (
                        e.get("name").and_then(Value::as_str).unwrap().to_string(),
                        e.get("unit")
                            .and_then(Value::as_str)
                            .unwrap_or("")
                            .to_string(),
                    )
                })
                .collect()
        };
        let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(pairs("end_to_end"), own(END_TO_END));
        assert_eq!(pairs("per_layer"), own(PER_LAYER));
        let workloads: Vec<String> = pairs("workloads").into_iter().map(|(n, _)| n).collect();
        let specs: Vec<String> = SPECS.iter().map(|s| s.name.to_string()).collect();
        assert_eq!(workloads, specs);
    }
}
