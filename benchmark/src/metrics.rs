//! The benchmark's metric names and units: one table for the end-to-end
//! metrics every workload reports from its untraced pass, one for the
//! per-layer metrics of the traced pass. `BENCHMARK.json` lists the same
//! names (a unit test keeps the two in step); a layer a workload never
//! touches reports 0.

use std::collections::BTreeMap;

/// End-to-end metrics, `(name, unit)`. Definitions are in the README.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("events_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("cpu_us_per_event", "us"),
];

/// Per-layer metrics, `(name, unit)`; the prefix is the crate measured.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.events", "count"),
    ("sim.step_ns_p50", "ns"),
    ("sim.queue_pair_ns", "ns"),
    ("framework.engine_self_s", "s"),
    ("framework.engine_new_ms", "ms"),
    ("framework.finish_ms", "ms"),
    ("framework.event_log_csv_ms", "ms"),
    ("framework.suspend_step_us_p50", "us"),
    ("framework.suspends", "count"),
    ("framework.terminations", "count"),
    ("framework.snapshot_encode_us", "us"),
    ("framework.snapshot_decode_us", "us"),
    ("framework.rm_pair_ns", "ns"),
    ("core.upcall_s", "s"),
    ("core.self_s", "s"),
    ("core.decisions", "count"),
    ("core.decisions_per_s", "1/s"),
    ("core.decision_ms_p50", "ms"),
    ("core.decision_ms_p95", "ms"),
    ("core.time_to_target_h", "h"),
    ("core.suspend_decisions", "count"),
    ("core.terminate_decisions", "count"),
    ("core.ert_ms_p50", "ms"),
    ("core.allocate_slots_us", "us"),
    ("curve.fits", "count"),
    ("curve.batches", "count"),
    ("curve.local_hits", "count"),
    ("curve.shared_hits", "count"),
    ("curve.shared_lookups", "count"),
    ("curve.shared_inserts", "count"),
    ("curve.shared_hit_rate", "ratio"),
    ("curve.batched_fits", "count"),
    ("curve.warm_fits", "count"),
    ("curve.spec_speculated", "count"),
    ("curve.spec_adopted", "count"),
    ("curve.pool_busy_s", "s"),
    ("curve.pool_stall_s", "s"),
    ("curve.pool_idle_frac", "ratio"),
    ("curve.fit_ms_p50", "ms"),
    ("curve.fit_ms_p95", "ms"),
    ("curve.nm_init_ms_p50", "ms"),
    ("curve.mcmc_ms_p50", "ms"),
    ("curve.loglik_ns", "ns"),
    ("curve.loglik_evals_per_fit", "count"),
    ("curve.posterior_query_us", "us"),
    ("curve.fingerprint_us", "us"),
    ("curve.cache_get_us", "us"),
    ("curve.cache_insert_us", "us"),
    ("policies.earlyterm_upcall_s", "s"),
    ("policies.earlyterm_fits", "count"),
    ("workload.generate_ms", "ms"),
    ("server.submit_us_p50", "us"),
    ("server.queue_ms_p50", "ms"),
    ("server.run_ms_p50", "ms"),
    ("server.overhead_ms_p50", "ms"),
    ("server.fresh_turnaround_ms_p50", "ms"),
    ("server.dup_turnaround_ms_p50", "ms"),
    ("server.standalone_ms_p50", "ms"),
    ("server.rejections", "count"),
    ("server.studies_per_s", "1/s"),
    ("bench.traced_wall_s", "s"),
    ("bench.trace_overhead_frac", "ratio"),
    ("bench.unattributed_frac", "ratio"),
    ("bench.replay_fit_ratio", "ratio"),
    ("bench.peak_rss_mb", "MB"),
];

/// One reported number.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Name from [`END_TO_END`] or [`PER_LAYER`].
    pub name: &'static str,
    /// Unit from the same table.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Samples behind the value (1 for a single reading or a count).
    pub n: usize,
}

/// A full set of one table's metrics, every name present.
#[derive(Debug, Clone)]
pub struct MetricSet {
    table: &'static [(&'static str, &'static str)],
    values: BTreeMap<&'static str, (f64, usize)>,
}

impl MetricSet {
    /// All of `table`'s metrics at zero.
    pub fn zeroed(table: &'static [(&'static str, &'static str)]) -> Self {
        MetricSet { table, values: table.iter().map(|(n, _)| (*n, (0.0, 0))).collect() }
    }

    /// Sets one metric.
    ///
    /// # Panics
    ///
    /// Panics on a name outside the table or a non-finite value — both
    /// are bugs in the benchmark.
    pub fn set(&mut self, name: &str, value: f64, n: usize) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        let slot = self.values.get_mut(name).unwrap_or_else(|| panic!("unknown metric {name}"));
        *slot = (value, n);
    }

    /// The metrics in table order.
    pub fn iter(&self) -> impl Iterator<Item = Metric> + '_ {
        self.table.iter().map(|(name, unit)| {
            let (value, n) = self.values[name];
            Metric { name, unit, value, n }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `"name": "<x>", "unit": "<u>"` pair of one array of
    /// `BENCHMARK.json`, in file order.
    fn declared(section: &str) -> Vec<(String, String)> {
        let json = include_str!("../../BENCHMARK.json");
        let start = json.find(&format!("\"{section}\"")).expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("array closes")];
        let field = |obj: &str, key: &str| {
            let at = obj.find(&format!("\"{key}\"")).expect("key present") + key.len() + 2;
            let rest = &obj[at..];
            let open = rest.find('"').expect("string opens") + 1;
            let len = rest[open..].find('"').expect("string closes");
            rest[open..open + len].to_string()
        };
        body.split('{').skip(1).map(|obj| (field(obj, "name"), field(obj, "unit"))).collect()
    }

    fn table(t: &[(&str, &str)]) -> Vec<(String, String)> {
        t.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        assert_eq!(declared("end_to_end"), table(END_TO_END));
        assert_eq!(declared("per_layer"), table(PER_LAYER));
    }

    #[test]
    fn names_are_unique_and_sets_start_at_zero() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|(n, _)| *n).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        let mut set = MetricSet::zeroed(END_TO_END);
        set.set("setup_s", 1.5, 3);
        let first = set.iter().next().expect("table is not empty");
        assert_eq!((first.name, first.unit, first.value, first.n), ("setup_s", "s", 1.5, 3));
        assert_eq!(set.iter().count(), END_TO_END.len());
        assert_eq!(set.iter().filter(|m| m.value == 0.0).count(), END_TO_END.len() - 1);
    }
}
