//! Replayable traces (§7.1 Trace Generator).
//!
//! The paper's sensitivity analysis feeds a trace-driven simulator with
//! "iteration timing and performance metrics" collected from live runs, and
//! the Trace Generator "can create traces by changing the configuration
//! orders". [`TraceSet`] is that artifact: one [`JobTrace`] per
//! configuration, with a CSV codec for persistence and deterministic order
//! permutation for the Fig. 12c experiment.

use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use hyperdrive_types::{Error, Result, SimTime};

use crate::profile::{EpochRow, JobProfile};
use crate::Workload;

/// The recorded execution of one configuration: per-epoch durations
/// (seconds) and normalized performance values.
#[derive(Debug, Clone, PartialEq)]
pub struct JobTrace {
    /// Index of the configuration in the original generation order.
    pub config_index: u32,
    /// Per-epoch durations in seconds.
    pub epoch_durations: Vec<f64>,
    /// Per-epoch normalized performance values.
    pub values: Vec<f64>,
}

impl JobTrace {
    /// Converts the trace into a replayable [`JobProfile`].
    pub fn to_profile(&self) -> JobProfile {
        assert_eq!(
            self.epoch_durations.len(),
            self.values.len(),
            "durations and values must have equal length"
        );
        let rows = self.epoch_durations.iter().zip(&self.values);
        JobProfile::from_rows(
            rows.map(|(&d, &value)| EpochRow { duration: SimTime::from_secs(d), value }).collect(),
        )
    }

    /// Builds a trace from a profile.
    pub fn from_profile(config_index: u32, profile: &JobProfile) -> Self {
        JobTrace {
            config_index,
            epoch_durations: profile.epoch_durations().map(|d| d.as_secs()).collect(),
            values: profile.values().collect(),
        }
    }
}

/// A replayable workload: an ordered collection of job traces.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSet {
    /// Name of the generating workload (e.g. `cifar10`).
    pub workload_name: String,
    /// The traces, in the order a scheduler will receive them.
    pub traces: Vec<JobTrace>,
}

impl TraceSet {
    /// Collects a trace set by running `n_configs` random configurations of
    /// `workload` to completion (the "live system experiments" feeding the
    /// simulator). `base_seed` fixes both the sampled configurations and
    /// the per-job noise.
    pub fn generate(workload: &dyn Workload, n_configs: usize, base_seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(base_seed);
        let traces = (0..n_configs)
            .map(|i| {
                let config = workload.space().sample(&mut rng);
                let profile = workload.profile(&config, base_seed.wrapping_add(i as u64));
                JobTrace::from_profile(i as u32, &profile)
            })
            .collect();
        TraceSet { workload_name: workload.name().to_string(), traces }
    }

    /// Number of traced configurations.
    pub fn len(&self) -> usize {
        self.traces.len()
    }

    /// True if the set contains no traces.
    pub fn is_empty(&self) -> bool {
        self.traces.is_empty()
    }

    /// Returns a copy with the trace *order* permuted deterministically by
    /// `order_seed` (Fig. 12c runs 25 random configuration orders). Trace
    /// contents are untouched.
    pub fn permuted(&self, order_seed: u64) -> TraceSet {
        let mut rng = StdRng::seed_from_u64(order_seed);
        let mut traces = self.traces.clone();
        traces.shuffle(&mut rng);
        TraceSet { workload_name: self.workload_name.clone(), traces }
    }

    /// Serializes the set to the HyperDrive trace CSV format.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write<W: Write>(&self, writer: W) -> Result<()> {
        let mut w = BufWriter::new(writer);
        writeln!(w, "# hyperdrive-trace v1")?;
        writeln!(w, "# workload: {}", self.workload_name)?;
        writeln!(w, "config,epoch,duration_secs,value")?;
        for t in &self.traces {
            for (i, (d, v)) in t.epoch_durations.iter().zip(&t.values).enumerate() {
                // Shortest-round-trip float formatting: a parsed trace is
                // *bitwise* the written one, so replaying from a cached
                // file is indistinguishable from regenerating.
                writeln!(w, "{},{},{},{}", t.config_index, i + 1, d, v)?;
            }
        }
        w.flush()?;
        Ok(())
    }

    /// Writes the set to a file.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_to_path(&self, path: impl AsRef<Path>) -> Result<()> {
        let file = std::fs::File::create(path)?;
        self.write(file)
    }

    /// Parses a trace set from the CSV format produced by
    /// [`TraceSet::write`]. Traces appear in first-occurrence order of
    /// their config index.
    ///
    /// # Errors
    ///
    /// Returns [`Error::TraceFormat`] for malformed content and propagates
    /// I/O errors.
    pub fn read<R: Read>(reader: R) -> Result<Self> {
        let mut workload_name = String::from("unknown");
        // Traces keyed by config index, in order of first appearance.
        let mut order: Vec<u32> = Vec::new();
        let mut traces: std::collections::HashMap<u32, JobTrace> = std::collections::HashMap::new();

        for (lineno, line) in BufReader::new(reader).lines().enumerate() {
            let line = line?;
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix('#') {
                if let Some(name) = rest.trim().strip_prefix("workload:") {
                    workload_name = name.trim().to_string();
                }
                continue;
            }
            if line.starts_with("config,") {
                continue; // header row
            }
            let fields: Vec<&str> = line.split(',').collect();
            if fields.len() != 4 {
                return Err(Error::TraceFormat(format!(
                    "line {}: expected 4 fields, got {}",
                    lineno + 1,
                    fields.len()
                )));
            }
            let parse_err =
                |what: &str| Error::TraceFormat(format!("line {}: bad {what}: {line}", lineno + 1));
            let config: u32 = fields[0].parse().map_err(|_| parse_err("config index"))?;
            let epoch: u32 = fields[1].parse().map_err(|_| parse_err("epoch"))?;
            let duration: f64 = fields[2].parse().map_err(|_| parse_err("duration"))?;
            let value: f64 = fields[3].parse().map_err(|_| parse_err("value"))?;
            if !duration.is_finite() || duration <= 0.0 || !value.is_finite() {
                return Err(parse_err("numeric value"));
            }
            let trace = traces.entry(config).or_insert_with(|| {
                order.push(config);
                JobTrace { config_index: config, epoch_durations: Vec::new(), values: Vec::new() }
            });
            if epoch as usize != trace.values.len() + 1 {
                return Err(Error::TraceFormat(format!(
                    "line {}: config {config} epochs out of order (expected {}, got {epoch})",
                    lineno + 1,
                    trace.values.len() + 1
                )));
            }
            trace.epoch_durations.push(duration);
            trace.values.push(value);
        }

        // Every index in `order` was inserted into the map above, so the
        // lookups always succeed; filter_map keeps this panic-free anyway.
        let traces = order.into_iter().filter_map(|i| traces.remove(&i)).collect();
        Ok(TraceSet { workload_name, traces })
    }

    /// Reads a trace set from a file.
    ///
    /// # Errors
    ///
    /// See [`TraceSet::read`].
    pub fn read_from_path(path: impl AsRef<Path>) -> Result<Self> {
        let file = std::fs::File::open(path)?;
        Self::read(file)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cifar::CifarWorkload;

    fn small_set() -> TraceSet {
        let workload = CifarWorkload::new().with_max_epochs(5);
        TraceSet::generate(&workload, 4, 11)
    }

    #[test]
    fn generate_produces_requested_configs() {
        let set = small_set();
        assert_eq!(set.len(), 4);
        assert_eq!(set.workload_name, "cifar10");
        for (i, t) in set.traces.iter().enumerate() {
            assert_eq!(t.config_index, i as u32);
            assert_eq!(t.values.len(), 5);
        }
    }

    #[test]
    fn csv_round_trip() {
        let set = small_set();
        let mut buf = Vec::new();
        set.write(&mut buf).unwrap();
        let parsed = TraceSet::read(buf.as_slice()).unwrap();
        assert_eq!(parsed.workload_name, set.workload_name);
        assert_eq!(parsed.len(), set.len());
        for (a, b) in parsed.traces.iter().zip(&set.traces) {
            assert_eq!(a.config_index, b.config_index);
            assert_eq!(a.values.len(), b.values.len());
            for (x, y) in a.values.iter().zip(&b.values) {
                assert!((x - y).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn csv_round_trip_is_bitwise_exact() {
        // The cache contract: replaying a written trace must reproduce
        // every duration and value to the last bit, not to a tolerance.
        let set = small_set();
        let mut buf = Vec::new();
        set.write(&mut buf).unwrap();
        let parsed = TraceSet::read(buf.as_slice()).unwrap();
        assert_eq!(parsed, set);
    }

    #[test]
    fn permutation_is_deterministic_and_content_preserving() {
        let set = small_set();
        let p1 = set.permuted(3);
        let p2 = set.permuted(3);
        assert_eq!(p1, p2);
        let mut indices: Vec<u32> = p1.traces.iter().map(|t| t.config_index).collect();
        indices.sort_unstable();
        assert_eq!(indices, vec![0, 1, 2, 3]);
        // A different seed gives a different order (with 4! = 24 orders,
        // seeds 3 and 4 colliding is possible but not for these values).
        let p3 = set.permuted(4);
        assert_ne!(
            p1.traces.iter().map(|t| t.config_index).collect::<Vec<_>>(),
            p3.traces.iter().map(|t| t.config_index).collect::<Vec<_>>()
        );
    }

    /// Parses `input`, requiring a [`Error::TraceFormat`] whose message
    /// contains `expect_msg` (each malformed shape must be diagnosed as
    /// itself, not as some other failure).
    fn assert_trace_error(input: &str, expect_msg: &str) {
        match TraceSet::read(input.as_bytes()) {
            Err(hyperdrive_types::Error::TraceFormat(msg)) => assert!(
                msg.contains(expect_msg),
                "expected message containing {expect_msg:?}, got {msg:?}"
            ),
            Err(other) => panic!("expected TraceFormat, got {other:?}"),
            Ok(_) => panic!("malformed input parsed: {input:?}"),
        }
    }

    #[test]
    fn too_few_fields_are_rejected() {
        assert_trace_error("0,1,60.0", "expected 4 fields, got 3");
    }

    #[test]
    fn too_many_fields_are_rejected() {
        assert_trace_error("0,1,60.0,0.5,extra", "expected 4 fields, got 5");
    }

    #[test]
    fn non_numeric_config_index_is_rejected() {
        assert_trace_error("x,1,60.0,0.5", "bad config index");
    }

    #[test]
    fn non_numeric_epoch_is_rejected() {
        assert_trace_error("0,one,60.0,0.5", "bad epoch");
    }

    #[test]
    fn non_numeric_duration_is_rejected() {
        assert_trace_error("0,1,abc,0.5", "bad duration");
    }

    #[test]
    fn non_numeric_value_is_rejected() {
        assert_trace_error("0,1,60.0,?", "bad value");
    }

    #[test]
    fn non_positive_duration_is_rejected() {
        assert_trace_error("0,1,-5.0,0.5", "bad numeric value");
        assert_trace_error("0,1,0.0,0.5", "bad numeric value");
        assert_trace_error("0,1,inf,0.5", "bad numeric value");
    }

    #[test]
    fn non_finite_value_is_rejected() {
        assert_trace_error("0,1,60.0,NaN", "bad numeric value");
    }

    #[test]
    fn epoch_gaps_are_rejected() {
        assert_trace_error("0,2,60.0,0.5", "epochs out of order (expected 1, got 2)");
        assert_trace_error("0,1,60.0,0.5\n0,3,61.0,0.6", "epochs out of order (expected 2, got 3)");
    }

    #[test]
    fn error_reports_the_offending_line_number() {
        // Line 1 is a comment, line 2 the header, line 3 the bad row.
        assert_trace_error(
            "# hyperdrive-trace v1\nconfig,epoch,duration_secs,value\n0,1,bad,0.5",
            "line 3",
        );
    }

    #[test]
    fn trace_profile_round_trip() {
        let set = small_set();
        let profile = set.traces[0].to_profile();
        let back = JobTrace::from_profile(0, &profile);
        assert_eq!(back, set.traces[0]);
    }

    #[test]
    fn file_round_trip() {
        let set = small_set();
        let dir = std::env::temp_dir().join("hyperdrive-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("set.csv");
        set.write_to_path(&path).unwrap();
        let parsed = TraceSet::read_from_path(&path).unwrap();
        assert_eq!(parsed.len(), set.len());
        std::fs::remove_file(&path).ok();
    }
}
