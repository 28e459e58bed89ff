//! Recovery from a journal file as a crash leaves it: cut at any byte, the
//! file resumes to the uninterrupted run, and a frame that passes its
//! checksum but does not decode is reported at its own byte offset.

use std::path::{Path, PathBuf};

use hyperdrive::framework::journal::JOURNAL_FORMAT;
use hyperdrive::framework::{
    run_meta, DefaultPolicy, ExperimentResult, ExperimentSpec, ExperimentWorkload, FaultConfig,
    FaultPlan, FaultStats, Journal, RecoveredJournal, SchedulingPolicy,
};
use hyperdrive::sim::Simulation;
use hyperdrive::workload::CifarWorkload;
use hyperdrive::{Error, SimTime};

/// The journal file's header: magic, format version, run fingerprint.
const HEADER_LEN: usize = 16;
/// Frame kind of a completion report (`EngineInput::Event`).
const K_EVENT: u8 = 2;

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hyperdrive-{name}-{}.wal", std::process::id()))
}

fn signature(result: &ExperimentResult) -> (Vec<u8>, SimTime, FaultStats) {
    let mut csv = Vec::new();
    result.events.write_csv(&mut csv).unwrap();
    (csv, result.end_time, result.faults)
}

fn small_run() -> (ExperimentWorkload, ExperimentSpec, FaultPlan) {
    let w = CifarWorkload::new().with_max_epochs(3);
    let ew = ExperimentWorkload::from_workload(&w, 4, 7);
    let spec = ExperimentSpec::new(2).with_stop_on_target(false).with_seed(7);
    let plan =
        FaultPlan::generate(2, &FaultConfig::with_intensity(11, SimTime::from_hours(1.0), 20.0));
    (ew, spec, plan)
}

#[test]
fn a_journal_file_cut_at_any_byte_resumes_to_the_uninterrupted_run() {
    let (ew, spec, plan) = small_run();
    let meta = run_meta(DefaultPolicy::new().name(), &ew, &spec, &plan);
    let path = temp_path("cut-anywhere");
    let mut policy = DefaultPolicy::new();
    let journal = Journal::create(&path, meta).unwrap();
    let baseline =
        signature(&Simulation::with_journal(&mut policy, &ew, spec, &plan, journal).run());
    assert!(baseline.2.interruptions > 0, "the plan's faults struck");
    let full = std::fs::read(&path).unwrap();
    for len in 0..=full.len() {
        std::fs::write(&path, &full[..len]).unwrap();
        let recovered =
            Journal::recover(&path, meta).unwrap_or_else(|e| panic!("cut at byte {len}: {e}"));
        let mut fresh = DefaultPolicy::new();
        let resumed = Simulation::resume(&mut fresh, &ew, spec, &plan, recovered)
            .unwrap_or_else(|e| panic!("cut at byte {len}: {e}"))
            .run();
        assert!(signature(&resumed) == baseline, "cut at byte {len} of {}", full.len());
    }
    let _ = std::fs::remove_file(&path);
}

fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The journal's frame checksum, written out independently: a two-lane
/// hash over the frame's length-prefixed kind, length and body bytes.
fn frame_checksum(head: &[u8]) -> u64 {
    let salt = 0x8536_42F5_4679_1D4B ^ u64::from(JOURNAL_FORMAT);
    let (mut a, mut b) = (mix64(salt ^ 0x243F_6A88_85A3_08D3), mix64(salt ^ 0x1319_8A2E_0370_7344));
    let words = std::iter::once(head.len() as u64).chain(head.chunks(8).map(|chunk| {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        u64::from_le_bytes(word)
    }));
    for v in words {
        a = mix64(a ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        b = b.rotate_left(29) ^ mix64(v ^ 0xC2B2_AE3D_27D4_EB4F);
    }
    mix64(a ^ b.rotate_left(17))
}

/// A checksummed completion-report frame: `[kind][len][tag, job, token,
/// time][checksum]`.
fn event_frame(tag: u8) -> Vec<u8> {
    let mut body = vec![tag];
    body.extend_from_slice(&3u64.to_le_bytes());
    body.extend_from_slice(&1u64.to_le_bytes());
    body.extend_from_slice(&1.5f64.to_bits().to_le_bytes());
    let mut frame = vec![K_EVENT];
    frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
    frame.extend_from_slice(&body);
    let sum = frame_checksum(&frame);
    frame.extend_from_slice(&sum.to_le_bytes());
    frame
}

#[test]
fn an_undecodable_input_frame_is_reported_at_its_byte_offset() {
    let (ew, spec, plan) = small_run();
    let meta = 0x5EED;
    let path = temp_path("bad-frame");
    // A header alone, then a killed run's first inputs with their records.
    drop(Journal::create(&path, meta).unwrap());
    let header = std::fs::read(&path).unwrap();
    assert_eq!(header.len(), HEADER_LEN);
    let mut policy = DefaultPolicy::new();
    let journal = Journal::create(&path, meta).unwrap();
    Simulation::with_journal(&mut policy, &ew, spec, &plan, journal).run_to_input(4);
    let killed = std::fs::read(&path).unwrap();
    for prefix in [header, killed] {
        let good_inputs = recover_bytes(&path, &prefix, meta).inputs.len();
        // A decodable forged frame is accepted, so its checksum is right …
        let mut bytes = prefix.clone();
        bytes.extend(event_frame(0));
        assert_eq!(recover_bytes(&path, &bytes, meta).inputs.len(), good_inputs + 1);
        // … and tag 7, no event, is corruption at the frame's first byte,
        // whatever follows it.
        let mut bytes = prefix.clone();
        bytes.extend(event_frame(7));
        bytes.extend(event_frame(1));
        std::fs::write(&path, &bytes).unwrap();
        match Journal::recover(&path, meta) {
            Err(Error::JournalCorrupt { offset }) => assert_eq!(offset, prefix.len() as u64),
            other => panic!("expected JournalCorrupt at byte {}, got {other:?}", prefix.len()),
        }
    }
    let _ = std::fs::remove_file(&path);
}

/// Writes `bytes` to `path` and recovers them.
fn recover_bytes(path: &Path, bytes: &[u8], meta: u64) -> RecoveredJournal {
    std::fs::write(path, bytes).unwrap();
    Journal::recover(path, meta).unwrap()
}
