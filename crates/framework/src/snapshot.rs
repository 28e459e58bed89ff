//! Model-state snapshots for suspend/resume (§5.1).
//!
//! "Suspend and resume requires that training state is saved and
//! synchronized with the AppStat database, which allows any machine to
//! receive the state and resume training." The engine serializes each
//! suspended job's training state with this codec into the AppStat DB and
//! parses and verifies the stored bytes on resume — so the state path is
//! really exercised, not mocked. The framework/CRIU state the synthetic
//! jobs lack is accounted, not materialised: the DB carries the sampled
//! snapshot size beside the bytes as a number, its cost is paid as latency.
//!
//! The format is a small, versioned, hand-rolled binary layout (magic,
//! version, job id, epoch count, performance history as f64 bits) — no
//! serde dependency required — with one writer and one parser.

use hyperdrive_types::{Error, JobId, Result};

/// Magic bytes identifying a HyperDrive snapshot.
const MAGIC: [u8; 4] = *b"HDSS";
/// Current codec version.
const VERSION: u8 = 1;
/// Bytes before the history: magic, version, job id, epoch, history length.
const HEADER_LEN: usize = 21;

/// Encoded size of a snapshot holding `epochs` history values.
pub(crate) const fn encoded_len(epochs: usize) -> usize {
    HEADER_LEN + epochs * 8
}

/// Replaces the contents of `out` with the encoded state, reusing its
/// capacity (a recycled buffer keeps nothing of what it held before).
pub(crate) fn write(
    out: &mut Vec<u8>,
    job: JobId,
    epochs_done: u32,
    history: impl ExactSizeIterator<Item = f64>,
) {
    out.clear();
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.extend_from_slice(&job.raw().to_le_bytes());
    out.extend_from_slice(&epochs_done.to_le_bytes());
    out.extend_from_slice(&(history.len() as u32).to_le_bytes());
    for v in history {
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
}

/// Validates magic, version, length and every history value (finite),
/// ignoring bytes past the payload; yields the header's job id and epoch.
fn parse(bytes: &[u8]) -> Result<(JobId, u32, impl ExactSizeIterator<Item = f64> + '_)> {
    let err = |what: &str| Error::TraceFormat(format!("snapshot: {what}"));
    if bytes.len() < HEADER_LEN {
        return Err(err("truncated header"));
    }
    if bytes[..4] != MAGIC {
        return Err(err("bad magic"));
    }
    if bytes[4] != VERSION {
        return Err(err("unsupported version"));
    }
    let job = JobId::new(u64::from_le_bytes(bytes[5..13].try_into().expect("length checked")));
    let epochs_done = u32::from_le_bytes(bytes[13..17].try_into().expect("length checked"));
    let n = u32::from_le_bytes(bytes[17..21].try_into().expect("length checked")) as usize;
    let payload = bytes.get(HEADER_LEN..encoded_len(n)).ok_or_else(|| err("truncated history"))?;
    let value = |c: &[u8]| f64::from_bits(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
    if !payload.chunks_exact(8).all(|c| value(c).is_finite()) {
        return Err(err("non-finite history value"));
    }
    Ok((job, epochs_done, payload.chunks_exact(8).map(value)))
}

/// True if `bytes` hold a well-formed snapshot of `job` at `epochs_done`:
/// the resume-time check, which does not materialise the history.
pub(crate) fn verify(bytes: &[u8], job: JobId, epochs_done: u32) -> bool {
    parse(bytes).is_ok_and(|(j, e, _)| (j, e) == (job, epochs_done))
}

/// The training state captured when a job suspends.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSnapshot {
    /// The suspended job.
    pub job: JobId,
    /// Epochs completed at suspension.
    pub epochs_done: u32,
    /// Observed performance history (value per epoch).
    pub history: Vec<f64>,
}

impl JobSnapshot {
    /// Serializes the snapshot. The payload is followed by zero padding up
    /// to `min_size` bytes when the encoded form is smaller — a physical
    /// stand-in for the framework/process state (weights, optimizer
    /// moments, CRIU pages) whose size the engine only accounts.
    pub fn encode(&self, min_size: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(min_size.max(encoded_len(self.history.len())));
        write(&mut out, self.job, self.epochs_done, self.history.iter().copied());
        out.resize(out.len().max(min_size), 0);
        out
    }

    /// Deserializes a snapshot previously produced by
    /// [`JobSnapshot::encode`] (trailing padding is ignored).
    ///
    /// # Errors
    ///
    /// Returns [`Error::TraceFormat`] for truncated or corrupted bytes,
    /// wrong magic, or unsupported versions.
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        let (job, epochs_done, history) = parse(bytes)?;
        Ok(JobSnapshot { job, epochs_done, history: history.collect() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperdrive_types::{LearningCurve, MetricKind, SimTime};

    fn curve(values: &[f64]) -> LearningCurve {
        let mut c = LearningCurve::new(MetricKind::Accuracy);
        for (i, v) in values.iter().enumerate() {
            c.push(i as u32 + 1, SimTime::from_mins(i as f64 + 1.0), *v);
        }
        c
    }

    impl JobSnapshot {
        /// Captures an owned snapshot from a job's observed curve.
        fn capture(job: JobId, epochs_done: u32, curve: &LearningCurve) -> Self {
            JobSnapshot { job, epochs_done, history: curve.values().collect() }
        }
    }

    /// What the engine's suspend path does: encode straight from the curve
    /// into a (possibly recycled) buffer.
    fn write_curve(out: &mut Vec<u8>, job: JobId, epochs_done: u32, curve: &LearningCurve) {
        write(out, job, epochs_done, curve.values());
    }

    #[test]
    fn round_trips_exactly() {
        let snap = JobSnapshot::capture(JobId::new(42), 3, &curve(&[0.1, 0.25, 0.4]));
        let bytes = snap.encode(0);
        let back = JobSnapshot::decode(&bytes).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn padding_is_applied_and_ignored() {
        let snap = JobSnapshot::capture(JobId::new(1), 2, &curve(&[0.1, 0.2]));
        let bytes = snap.encode(4096);
        assert_eq!(bytes.len(), 4096);
        assert_eq!(JobSnapshot::decode(&bytes).unwrap(), snap);
        // Larger payload than min_size: no truncation.
        let big = JobSnapshot::capture(JobId::new(1), 2, &curve(&[0.5; 100]));
        assert!(big.encode(10).len() > 10);
    }

    /// The malformed vectors every parser entry point must reject, built
    /// from a good one-value snapshot of job 7 at epoch 1.
    fn corrupted_vectors() -> Vec<(&'static str, Vec<u8>)> {
        let good = JobSnapshot::capture(JobId::new(7), 1, &curve(&[0.3])).encode(0);
        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        let mut bad_version = good.clone();
        bad_version[4] = 99;
        let mut bad_len = good.clone();
        bad_len[17] = 200; // claims 200 history entries
        let mut bad_value = good.clone();
        for b in &mut bad_value[21..29] {
            *b = 0xFF; // NaN bits
        }
        vec![
            ("truncated", good[..10].to_vec()),
            ("magic", bad_magic),
            ("version", bad_version),
            ("length", bad_len),
            ("NaN history", bad_value),
        ]
    }

    #[test]
    fn corruption_is_detected() {
        for (what, bytes) in corrupted_vectors() {
            assert!(JobSnapshot::decode(&bytes).is_err(), "{what}");
        }
    }

    #[test]
    fn verify_rejects_what_decode_rejects_plus_wrong_identity() {
        let (job, epoch) = (JobId::new(7), 1);
        let good = JobSnapshot::capture(job, epoch, &curve(&[0.3])).encode(0);
        assert!(verify(&good, job, epoch));
        for (what, bytes) in corrupted_vectors() {
            assert!(!verify(&bytes, job, epoch), "{what}");
        }
        assert!(!verify(&good, JobId::new(8), epoch), "wrong job id");
        assert!(!verify(&good, job, epoch + 1), "wrong epoch");
        // Bytes past the payload (padding, or anything else) are ignored.
        let mut long = good.clone();
        long.extend_from_slice(&[0xFF; 64]);
        assert!(verify(&long, job, epoch));
        assert_eq!(JobSnapshot::decode(&long).unwrap().history, vec![0.3]);
    }

    #[test]
    fn recycled_buffer_keeps_nothing_of_its_previous_snapshot() {
        let mut buf = Vec::new();
        write_curve(&mut buf, JobId::new(1), 120, &curve(&[0.9; 120]));
        let capacity = buf.capacity();
        let short = curve(&[0.1, 0.2]);
        write_curve(&mut buf, JobId::new(2), 2, &short);
        assert_eq!(buf.capacity(), capacity, "the buffer is reused, not reallocated");
        assert_eq!(buf, JobSnapshot::capture(JobId::new(2), 2, &short).encode(0));
        assert!(verify(&buf, JobId::new(2), 2));
        assert_eq!(JobSnapshot::decode(&buf).unwrap().history, vec![0.1, 0.2]);
    }

    #[test]
    fn empty_history_is_valid() {
        let snap = JobSnapshot { job: JobId::new(0), epochs_done: 0, history: Vec::new() };
        assert_eq!(JobSnapshot::decode(&snap.encode(64)).unwrap(), snap);
    }

    mod writer_equivalence {
        use super::*;
        use proptest::prelude::*;

        fn assert_writer_matches_owned_encode(job: u64, values: &[f64]) {
            let (job, epochs) = (JobId::new(job), values.len() as u32);
            let curve = curve(values);
            // A dirty, longer buffer: the writer must not depend on it.
            let mut buf = vec![0xAB; 4096];
            write_curve(&mut buf, job, epochs, &curve);
            assert_eq!(buf, JobSnapshot::capture(job, epochs, &curve).encode(0));
            assert_eq!(buf.len(), encoded_len(values.len()));
            assert!(verify(&buf, job, epochs));
        }

        #[test]
        fn fixed_lengths() {
            for n in [0usize, 1, 120] {
                let values: Vec<f64> = (0..n).map(|i| i as f64 / 128.0).collect();
                assert_writer_matches_owned_encode(n as u64, &values);
            }
        }

        proptest! {
            #[test]
            fn random_curves(
                job in 0u64..u64::MAX,
                values in proptest::collection::vec(-1.0e6f64..1.0e6, 0..200),
            ) {
                assert_writer_matches_owned_encode(job, &values);
            }
        }
    }
}
