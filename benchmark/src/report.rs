//! What a workload run hands back, and how it is printed and written out.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::PathBuf;

use crate::metrics::MetricSet;
use crate::spans::{Span, Totals, NO_PARENT};

/// Built-in correctness checks: operations attempted and failed.
#[derive(Debug, Clone, Default)]
pub struct Checks {
    /// Operations checked.
    pub attempted: u64,
    /// One line per operation whose check failed.
    pub failures: Vec<String>,
}

impl Checks {
    /// Counts one checked operation; `what` describes it if it failed.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// The result of running one workload in one mode.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Correctness checks.
    pub checks: Checks,
    /// End-to-end metrics (untraced pass) or per-layer metrics (traced).
    pub metrics: MetricSet,
    /// Free-form `key: value` lines for the human-readable report.
    pub notes: Vec<String>,
}

/// Prints the human-readable report and, as the last line of standard
/// output, the result object of the builder's contract.
pub fn print(workload: &str, host_json: &str, outcome: &Outcome) {
    println!("# workload {workload}");
    println!("# host {host_json}");
    for note in &outcome.notes {
        println!("# {note}");
    }
    for failure in &outcome.checks.failures {
        println!("# FAILED {failure}");
    }
    println!("{:<34} {:>18} {:<6} {:>8}", "metric", "value", "unit", "n");
    let mut json = String::new();
    for m in outcome.metrics.iter() {
        println!("{:<34} {:>18.6} {:<6} {:>8}", m.name, m.value, m.unit, m.n);
        let sep = if json.is_empty() { "" } else { ", " };
        write!(json, "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit)
            .expect("writing to a string cannot fail");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        outcome.checks.failures.is_empty(),
        outcome.checks.attempted.max(1),
        outcome.checks.failures.len(),
    );
}

/// Spans written per trace file at most; the totals cover every span.
const MAX_SPANS_WRITTEN: usize = 100_000;

/// Writes `benchmark/out/trace_<workload>.json`: host metadata, per-name
/// totals with self times, the per-layer metrics, and the raw spans of
/// the first traced unit.
pub fn write_trace(
    workload: &str,
    host_json: &str,
    totals: &Totals,
    spans: &[Span],
    metrics: &MetricSet,
) -> std::io::Result<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace_{workload}.json"));
    let mut w = std::io::BufWriter::new(std::fs::File::create(&path)?);
    writeln!(w, "{{\"workload\": \"{workload}\", \"host\": {host_json},")?;
    writeln!(w, "\"totals\": {{")?;
    let mut first = true;
    for (name, t) in totals.iter() {
        let sep = if std::mem::take(&mut first) { "" } else { ",\n" };
        write!(
            w,
            "{sep}  \"{name}\": {{\"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
            t.count, t.total_ns, t.self_ns
        )?;
    }
    writeln!(w, "\n}},\n\"metrics\": {{")?;
    let mut first = true;
    for m in metrics.iter() {
        let sep = if std::mem::take(&mut first) { "" } else { ",\n" };
        write!(w, "{sep}  \"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit)?;
    }
    writeln!(w, "\n}},\n\"spans\": [")?;
    for (i, s) in spans.iter().take(MAX_SPANS_WRITTEN).enumerate() {
        let sep = if i == 0 { "" } else { ",\n" };
        let parent = if s.parent == NO_PARENT { -1 } else { i64::from(s.parent) };
        write!(
            w,
            "{sep}  {{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"study\": {}}}",
            s.name, s.start_ns, s.end_ns, s.study
        )?;
    }
    writeln!(w, "\n]}}")?;
    w.flush()?;
    Ok(path)
}
