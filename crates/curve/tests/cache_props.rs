//! Property tests for the disk-backed fit cache: arbitrary corruption of
//! the shard files — truncation anywhere, bit flips anywhere, header
//! damage — must never panic, never error the loader, and **never**
//! produce a wrong posterior. The cache is allowed exactly one failure
//! mode: serving fewer entries than were written (the caller then fits
//! cold). This extends the snapshot/fault-injection corruption patterns
//! to the new store.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;

use hyperdrive_curve::ensemble::dimension;
use hyperdrive_curve::{
    fit_fingerprint, CurveFingerprint, CurvePosterior, PredictorConfig, SharedFitCache,
};
use hyperdrive_types::{LearningCurve, MetricKind, SimTime};

fn fresh_dir() -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "hdfc-props-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn synthetic_curve(limit: f64, rate: f64, n: u32) -> LearningCurve {
    let mut c = LearningCurve::new(MetricKind::Accuracy);
    for e in 1..=n {
        let x = f64::from(e);
        c.push(e, SimTime::from_secs(60.0 * x), limit - (limit - 0.05) * x.powf(-rate));
    }
    c
}

/// Writes `n` distinct posteriors through a disk-backed cache and returns
/// the directory plus the ground truth (fingerprint → draws bits).
fn populate(dir: &Path, n: usize) -> HashMap<CurveFingerprint, CurvePosterior> {
    let cache = SharedFitCache::with_disk(dir).expect("open disk cache");
    let config = PredictorConfig::test();
    let mut truth = HashMap::new();
    for i in 0..n {
        let seed = 1000 + i as u64;
        let draws = (0..3 * dimension()).map(|d| i as f64 + d as f64 * 0.25).collect();
        let posterior = CurvePosterior::from_parts(draws, 10 + i as u32, 100, 0.37, i % 2 == 0)
            .expect("whole rows");
        let fp = fit_fingerprint(&synthetic_curve(0.7, 0.8, 10), &config, seed, 100, None);
        cache.insert(fp, &posterior);
        truth.insert(fp, posterior);
    }
    truth
}

/// Loads whatever survives in `dir` and asserts the no-wrong-posterior
/// invariant: every served entry is bitwise its ground-truth original.
fn assert_survivors_are_genuine(
    dir: &Path,
    truth: &HashMap<CurveFingerprint, CurvePosterior>,
) -> Result<u64, TestCaseError> {
    let reloaded = SharedFitCache::with_disk(dir).expect("reopen never errors on bad data");
    let mut served = 0;
    for (fp, written) in truth {
        if let Some(p) = reloaded.get(fp) {
            prop_assert_eq!(
                p.draws(),
                written.draws(),
                "a served posterior must be bitwise what was written"
            );
            served += 1;
        }
    }
    prop_assert_eq!(
        reloaded.stats().disk_loaded,
        served,
        "every loaded entry must belong to the ground truth"
    );
    Ok(reloaded.stats().disk_skipped)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Truncation at an arbitrary byte offset: the intact prefix of
    /// records loads, the torn tail is skipped with a warning.
    #[test]
    fn truncated_shards_never_panic_or_lie(
        n_entries in 1usize..5,
        cut_frac in 0.0f64..1.0,
    ) {
        let dir = fresh_dir();
        let truth = populate(&dir, n_entries);
        let shard = dir.join(format!("shard-{}.bin", std::process::id()));
        let bytes = std::fs::read(&shard).expect("shard exists");
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        std::fs::write(&shard, &bytes[..cut]).expect("truncate");
        assert_survivors_are_genuine(&dir, &truth)?;
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A bit flip at an arbitrary position: the damaged record (or the
    /// header) is detected by checksum/format checks; everything the flip
    /// did not reach upstream of it still loads genuine.
    #[test]
    fn bit_flipped_shards_never_panic_or_lie(
        n_entries in 1usize..5,
        pos_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let dir = fresh_dir();
        let truth = populate(&dir, n_entries);
        let shard = dir.join(format!("shard-{}.bin", std::process::id()));
        let mut bytes = std::fs::read(&shard).expect("shard exists");
        let pos = (((bytes.len() - 1) as f64) * pos_frac) as usize;
        bytes[pos] ^= 1 << bit;
        std::fs::write(&shard, &bytes).expect("rewrite");
        assert_survivors_are_genuine(&dir, &truth)?;
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Arbitrary garbage in place of the header (wrong magic, wrong
    /// format, wrong fingerprint version): the whole file is skipped with
    /// a warning and zero entries are served.
    #[test]
    fn wrong_version_headers_skip_the_whole_file(
        n_entries in 1usize..4,
        header in proptest::collection::vec(0u8..=255, 16..17),
    ) {
        let dir = fresh_dir();
        let truth = populate(&dir, n_entries);
        let shard = dir.join(format!("shard-{}.bin", std::process::id()));
        let mut bytes = std::fs::read(&shard).expect("shard exists");
        let unchanged = bytes[..16] == header[..];
        bytes[..16].copy_from_slice(&header);
        std::fs::write(&shard, &bytes).expect("rewrite");
        let skipped = assert_survivors_are_genuine(&dir, &truth)?;
        if !unchanged {
            prop_assert!(skipped >= 1, "a damaged header must be counted as skipped");
            let reloaded = SharedFitCache::with_disk(&dir).expect("reopen");
            prop_assert_eq!(reloaded.stats().disk_loaded, 0);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
