//! Write-ahead experiment journal: crash-consistent runs.
//!
//! The engine is a deterministic fold over its inputs: given the same
//! policy, workload, spec, and fault plan, the same sequence of
//! [`EngineInput`]s passed to [`deliver`](crate::ExperimentEngine::deliver)
//! produces bit-identical commands, events, and results. The journal exploits that:
//! it records every *input* (plus verification digests of every *output*)
//! in an append-only, checksummed, per-run log, so a run killed at any
//! point can be recovered by replaying the logged inputs through a fresh
//! engine — and the completed trace is byte-identical to an uninterrupted
//! run.
//!
//! # Record schema
//!
//! The file starts with a 16-byte header — 4-byte magic `HDWJ`, a `u32`
//! format version, and a `u64` run fingerprint (see [`run_meta`]) — and
//! continues with self-delimiting frames `[kind u8][len u32][body][checksum
//! u64]` (checksum covers kind, length, and body). Record kinds:
//!
//! | kind | record          | role |
//! |------|-----------------|------|
//! | 1    | `Start`         | input: the initial `AllocateJobs` up-call |
//! | 2    | `Event`         | input: a completion report |
//! | 3    | `MachineCrash`  | input: injected crash |
//! | 4    | `MachineRecover`| input: injected recovery |
//! | 5    | `AgentStall`    | input: injected stall detection |
//! | 6    | `Transition`    | verification: one scheduler-log event |
//! | 7    | `Commands`      | verification: count + digest of a batch |
//! | 8    | `RngCheckpoint` | verification: RNG stream positions |
//! | 9    | `Seal`          | the run ended (cleanly or via SIGTERM) |
//!
//! Inputs are journaled *before* they are applied (write-ahead), including
//! no-op inputs such as stale-token completions, so every journal position
//! corresponds 1:1 to an executor delivery. Commands themselves are not
//! stored — replay regenerates them — but their digests, the transition
//! records, and the RNG checkpoints let recovery detect the slightest
//! divergence (changed binary, non-deterministic policy, wrong parameters)
//! as a typed error instead of silently corrupting the resumed run.
//!
//! # Corrupt-tail policy
//!
//! Mirrors the fit cache (PR 5): a final record cut short by the crash is
//! truncated and replayed past, never served; a *complete* record with a
//! bad checksum, or an impossible kind/length, is mid-log damage and
//! surfaces as [`Error::JournalCorrupt`]. A header torn below 16 bytes
//! means nothing was durable: recovery starts a fresh journal.
//!
//! A run journals only when its constructor is handed a journal
//! (`Simulation::with_journal`, `LiveRun::with_journal`, or `resume`;
//! `hyperdrive run --journal <path>` from the command line). Journaling is
//! pure output: with the journal enabled the engine behaves
//! byte-identically to a journal-off run (`tests/golden_traces.rs` pins
//! every golden through a journaled run and a resume).

use std::collections::VecDeque;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::Mutex;

use hyperdrive_types::{Error, JobId, MachineId, Result, SimTime};

use crate::engine::{Command, EngineEvent, EngineInput};
use crate::events::SchedulerEvent;
use crate::experiment::{ExperimentSpec, ExperimentWorkload};
use crate::fault::{FaultKind, FaultPlan};

/// First 4 bytes of every journal file.
pub const JOURNAL_MAGIC: [u8; 4] = *b"HDWJ";
/// Format version this build reads and writes.
pub const JOURNAL_FORMAT: u32 = 1;

const HEADER_LEN: usize = 16;
/// Upper bound on a record body; anything larger is corruption (real
/// frames are under 64 bytes).
const MAX_RECORD: u32 = 1 << 20;

const K_START: u8 = 1;
const K_EVENT: u8 = 2;
const K_CRASH: u8 = 3;
const K_RECOVER: u8 = 4;
const K_STALL: u8 = 5;
const K_TRANSITION: u8 = 6;
const K_COMMANDS: u8 = 7;
const K_RNG: u8 = 8;
const K_SEAL: u8 = 9;

fn kind_name(kind: u8) -> &'static str {
    match kind {
        K_START => "start",
        K_EVENT => "event",
        K_CRASH => "machine-crash",
        K_RECOVER => "machine-recover",
        K_STALL => "agent-stall",
        K_TRANSITION => "transition",
        K_COMMANDS => "commands",
        K_RNG => "rng-checkpoint",
        K_SEAL => "seal",
        _ => "unknown",
    }
}

fn is_input_kind(kind: u8) -> bool {
    (K_START..=K_STALL).contains(&kind)
}

/// SplitMix64 finalizer (same constants as the fit cache's fingerprint
/// hasher): a cheap, high-quality 64-bit mixer.
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Two-lane incremental hasher over `u64` words, following the fit cache's
/// fingerprint construction. Self-contained so the journal format cannot
/// drift when the cache evolves.
struct Hash2 {
    a: u64,
    b: u64,
}

impl Hash2 {
    fn new(salt: u64) -> Self {
        Hash2 { a: mix64(salt ^ 0x243F_6A88_85A3_08D3), b: mix64(salt ^ 0x1319_8A2E_0370_7344) }
    }

    fn write_u64(&mut self, v: u64) {
        self.a = mix64(self.a ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        self.b = self.b.rotate_left(29) ^ mix64(v ^ 0xC2B2_AE3D_27D4_EB4F);
    }

    fn write_bytes(&mut self, bytes: &[u8]) {
        self.write_u64(bytes.len() as u64);
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(buf));
        }
    }

    fn write_str(&mut self, s: &str) {
        self.write_bytes(s.as_bytes());
    }

    fn finish(&self) -> u64 {
        mix64(self.a ^ self.b.rotate_left(17))
    }
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

fn frame_checksum(head: &[u8]) -> u64 {
    let mut h = Hash2::new(0x8536_42F5_4679_1D4B ^ u64::from(JOURNAL_FORMAT));
    h.write_bytes(head);
    h.finish()
}

/// Builds one self-delimiting frame: `[kind][len][body][checksum]`.
fn encode_frame(kind: u8, body: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(5 + body.len() + 8);
    frame.push(kind);
    put_u32(&mut frame, body.len() as u32);
    frame.extend_from_slice(body);
    let sum = frame_checksum(&frame);
    put_u64(&mut frame, sum);
    frame
}

/// Order-sensitive digest of a command batch, journaled instead of the
/// commands themselves (replay regenerates them and verifies the digest).
pub(crate) fn command_digest(cmds: &[Command]) -> u64 {
    let mut h = Hash2::new(0x5E0C_0DD1_6E57_0001);
    h.write_u64(cmds.len() as u64);
    for c in cmds {
        match *c {
            Command::RunEpoch { job, machine, epoch, duration, token } => {
                h.write_u64(1);
                h.write_u64(job.raw());
                h.write_u64(machine.raw());
                h.write_u64(u64::from(epoch));
                h.write_u64(duration.as_secs().to_bits());
                h.write_u64(token);
            }
            Command::Suspend { job, machine, latency, token } => {
                h.write_u64(2);
                h.write_u64(job.raw());
                h.write_u64(machine.raw());
                h.write_u64(latency.as_secs().to_bits());
                h.write_u64(token);
            }
            Command::Stop => h.write_u64(3),
        }
    }
    h.finish()
}

/// Fingerprint of everything that must match between the run that wrote a
/// journal and the run that recovers it: policy name, workload identity,
/// spec, and fault plan. Recovery with a different fingerprint is a typed
/// [`Error::JournalMismatch`], not silent divergence.
pub fn run_meta(
    policy_name: &str,
    workload: &ExperimentWorkload,
    spec: &ExperimentSpec,
    plan: &FaultPlan,
) -> u64 {
    let mut h = Hash2::new(0x4A0F_11E7_D217_AC3D);
    h.write_str(policy_name);
    h.write_str(&workload.name);
    h.write_u64(workload.jobs.len() as u64);
    h.write_u64(u64::from(workload.max_epochs));
    h.write_u64(u64::from(workload.eval_boundary));
    h.write_u64(workload.target.to_bits());
    h.write_u64(spec.machines as u64);
    h.write_u64(spec.tmax.as_secs().to_bits());
    h.write_u64(u64::from(spec.stop_on_target));
    h.write_u64(spec.dynamic_target_increment.map_or(u64::MAX, f64::to_bits));
    h.write_u64(spec.seed);
    h.write_u64(plan.seed);
    h.write_u64(plan.suspend_fail_prob.to_bits());
    h.write_u64(plan.snapshot_corrupt_prob.to_bits());
    h.write_u64(u64::from(plan.retry.max_retries));
    h.write_u64(plan.retry.backoff.as_secs().to_bits());
    h.write_u64(plan.retry.backoff_factor.to_bits());
    h.write_u64(plan.events.len() as u64);
    for e in &plan.events {
        h.write_u64(e.at.as_secs().to_bits());
        h.write_u64(e.machine.raw());
        let (tag, extra) = match e.kind {
            FaultKind::MachineCrash => (0u64, 0u64),
            FaultKind::MachineRecover => (1, 0),
            FaultKind::AgentStall { detection } => (2, detection.as_secs().to_bits()),
            FaultKind::ReplyDelay { delay } => (3, delay.as_secs().to_bits()),
            FaultKind::EngineCrash { at_event } => (4, at_event),
        };
        h.write_u64(tag);
        h.write_u64(extra);
    }
    h.finish()
}

/// A journal opened for recovery: the handle (in replay-verify mode), the
/// decoded inputs to feed back through the engine, and whether the run had
/// already sealed (ended) when it was interrupted.
#[derive(Debug)]
pub struct RecoveredJournal {
    /// The journal, positioned to verify the recovered prefix and then
    /// append.
    pub journal: Journal,
    /// Engine inputs in original order, each with its delivery time
    /// ([`EngineInput::Start`] is always at time zero).
    pub inputs: Vec<(SimTime, EngineInput)>,
    /// True if the journal ended with a `Seal` record (clean end or
    /// SIGTERM). The seal is stripped so a resumed run re-seals at its own
    /// end.
    pub sealed: bool,
}

#[derive(Debug)]
enum Sink {
    Mem(Vec<Vec<u8>>),
    Disk(File),
}

#[derive(Debug)]
struct State {
    sink: Sink,
    /// Frames still to verify (replay mode). Empty in plain append mode.
    replay: VecDeque<Vec<u8>>,
    /// Records verified against the replay prefix so far.
    replayed: u64,
    /// Input records appended (verified or written) — the crash-position
    /// coordinate used by the kill-anywhere harness.
    inputs: u64,
    records: u64,
    /// First replay mismatch, sticky. Checked once after replay completes
    /// so engine entry points stay infallible.
    divergence: Option<Error>,
    sealed: bool,
    /// Set when a disk write fails mid-run: journaling stops (with a
    /// warning) rather than killing the experiment.
    dead: bool,
}

#[derive(Debug)]
struct Inner {
    meta: u64,
    path: Option<PathBuf>,
    state: Mutex<State>,
}

/// Handle to a per-run write-ahead journal. Cheap to clone (`Arc`-shared);
/// a disabled handle ([`Journal::disabled`]) makes every operation a no-op
/// so the engine carries one unconditionally.
#[derive(Debug, Clone)]
pub struct Journal {
    inner: Option<Arc<Inner>>,
}

impl Journal {
    /// A no-op journal: nothing is recorded.
    pub fn disabled() -> Journal {
        Journal { inner: None }
    }

    /// An in-memory journal (no disk I/O). Supports
    /// [`reopen`](Journal::reopen) for in-process crash/recovery tests.
    pub fn in_memory(meta: u64) -> Journal {
        Journal {
            inner: Some(Arc::new(Inner {
                meta,
                path: None,
                state: Mutex::new(State {
                    sink: Sink::Mem(Vec::new()),
                    replay: VecDeque::new(),
                    replayed: 0,
                    inputs: 0,
                    records: 0,
                    divergence: None,
                    sealed: false,
                    dead: false,
                }),
            })),
        }
    }

    /// Creates (or truncates) a journal file for a fresh run.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] if the parent directory cannot be created or
    /// the file cannot be opened/written.
    pub fn create(path: &Path, meta: u64) -> Result<Journal> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).map_err(|e| {
                    Error::Io(format!("create journal directory {}: {e}", parent.display()))
                })?;
            }
        }
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)
            .map_err(|e| Error::Io(format!("create journal {}: {e}", path.display())))?;
        let mut header = Vec::with_capacity(HEADER_LEN);
        header.extend_from_slice(&JOURNAL_MAGIC);
        put_u32(&mut header, JOURNAL_FORMAT);
        put_u64(&mut header, meta);
        file.write_all(&header)
            .and_then(|()| file.flush())
            .map_err(|e| Error::Io(format!("write journal header {}: {e}", path.display())))?;
        Ok(Journal {
            inner: Some(Arc::new(Inner {
                meta,
                path: Some(path.to_path_buf()),
                state: Mutex::new(State {
                    sink: Sink::Disk(file),
                    replay: VecDeque::new(),
                    replayed: 0,
                    inputs: 0,
                    records: 0,
                    divergence: None,
                    sealed: false,
                    dead: false,
                }),
            })),
        })
    }

    /// Opens an existing journal for recovery: validates the header
    /// against `meta`, truncates a torn final record, strips a trailing
    /// seal, and returns the decoded inputs plus a handle positioned to
    /// verify the recovered prefix byte-for-byte during replay.
    ///
    /// # Errors
    ///
    /// * [`Error::Io`] — the file cannot be read or truncated.
    /// * [`Error::JournalMismatch`] — wrong magic or run fingerprint.
    /// * [`Error::JournalVersion`] — written by an incompatible format.
    /// * [`Error::JournalCorrupt`] — mid-log damage (a complete record
    ///   with a bad checksum or impossible kind/length).
    pub fn recover(path: &Path, meta: u64) -> Result<RecoveredJournal> {
        let bytes = std::fs::read(path)
            .map_err(|e| Error::Io(format!("read journal {}: {e}", path.display())))?;
        if bytes.len() < HEADER_LEN {
            // The header itself was torn: nothing was durably journaled.
            let journal = Journal::create(path, meta)?;
            return Ok(RecoveredJournal { journal, inputs: Vec::new(), sealed: false });
        }
        if bytes[..4] != JOURNAL_MAGIC {
            return Err(Error::JournalMismatch("bad magic (not a journal file)".into()));
        }
        let format = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
        if format != JOURNAL_FORMAT {
            return Err(Error::JournalVersion { found: format, expected: JOURNAL_FORMAT });
        }
        let file_meta = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
        if file_meta != meta {
            return Err(Error::JournalMismatch(format!(
                "run fingerprint {file_meta:#018x} does not match expected {meta:#018x}"
            )));
        }
        let (frames, sealed, valid_len) = parse_frames(&bytes)?;
        let inputs = decode_inputs(&frames)?;
        if bytes.len() as u64 != valid_len {
            let f = OpenOptions::new()
                .write(true)
                .open(path)
                .map_err(|e| Error::Io(format!("reopen journal {}: {e}", path.display())))?;
            f.set_len(valid_len)
                .map_err(|e| Error::Io(format!("truncate journal {}: {e}", path.display())))?;
        }
        let file = OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| Error::Io(format!("reopen journal {}: {e}", path.display())))?;
        Ok(RecoveredJournal {
            journal: Journal {
                inner: Some(Arc::new(Inner {
                    meta,
                    path: Some(path.to_path_buf()),
                    state: Mutex::new(State {
                        sink: Sink::Disk(file),
                        replay: frames.into(),
                        replayed: 0,
                        inputs: 0,
                        records: 0,
                        divergence: None,
                        sealed: false,
                        dead: false,
                    }),
                })),
            },
            inputs,
            sealed,
        })
    }

    /// Recovers this journal in place: disk journals re-read their file;
    /// in-memory journals replay their accumulated frames. This is how the
    /// kill-anywhere harness "restarts the process" without leaving RAM.
    ///
    /// # Errors
    ///
    /// Same as [`Journal::recover`], plus [`Error::InvalidParameter`] for
    /// a disabled journal.
    pub fn reopen(&self) -> Result<RecoveredJournal> {
        let Some(inner) = &self.inner else {
            return Err(Error::InvalidParameter("cannot reopen a disabled journal".into()));
        };
        if let Some(path) = &inner.path {
            return Journal::recover(path, inner.meta);
        }
        let mut frames: Vec<Vec<u8>> = {
            let st = inner.state.lock();
            match &st.sink {
                Sink::Mem(v) => v.clone(),
                Sink::Disk(_) => unreachable!("disk journals always carry a path"),
            }
        };
        let sealed = frames.last().is_some_and(|f| f[0] == K_SEAL);
        if sealed {
            frames.pop();
        }
        let inputs = decode_inputs(&frames)?;
        Ok(RecoveredJournal {
            journal: Journal {
                inner: Some(Arc::new(Inner {
                    meta: inner.meta,
                    path: None,
                    state: Mutex::new(State {
                        sink: Sink::Mem(frames.clone()),
                        replay: frames.into(),
                        replayed: 0,
                        inputs: 0,
                        records: 0,
                        divergence: None,
                        sealed: false,
                        dead: false,
                    }),
                })),
            },
            inputs,
            sealed,
        })
    }

    /// True if this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// True once a `Seal` record was written (the run ended).
    pub fn is_sealed(&self) -> bool {
        self.inner.as_ref().is_some_and(|i| i.state.lock().sealed)
    }

    /// Input records appended so far (verified during replay count too, so
    /// positions are global across crash/recover cycles).
    pub fn inputs_appended(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.state.lock().inputs)
    }

    /// Total records appended so far.
    pub fn records_appended(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.state.lock().records)
    }

    /// The backing file, if any.
    pub fn path(&self) -> Option<PathBuf> {
        self.inner.as_ref().and_then(|i| i.path.clone())
    }

    /// Takes the sticky replay-divergence error, if any. Engine recovery
    /// checks this once after feeding back all journaled inputs.
    pub fn take_divergence(&self) -> Option<Error> {
        self.inner.as_ref().and_then(|i| i.state.lock().divergence.take())
    }

    /// Frames left to verify before the journal switches back to
    /// appending (zero outside recovery).
    pub fn replay_remaining(&self) -> usize {
        self.inner.as_ref().map_or(0, |i| i.state.lock().replay.len())
    }

    /// Ends recovery: `Ok` once every recovered record has been
    /// regenerated byte for byte, so the journal is back in append mode.
    ///
    /// # Errors
    ///
    /// [`Error::JournalDiverged`] with the first mismatching record, or if
    /// recovered records are left that replay never regenerated.
    pub fn finish_replay(&self) -> Result<()> {
        if let Some(err) = self.take_divergence() {
            return Err(err);
        }
        match self.replay_remaining() {
            0 => Ok(()),
            leftover => Err(Error::JournalDiverged {
                record: self.records_appended(),
                detail: format!("replay finished with {leftover} journal records unaccounted for"),
            }),
        }
    }

    fn append(&self, kind: u8, body: &[u8]) {
        let Some(inner) = &self.inner else { return };
        let frame = encode_frame(kind, body);
        let mut st = inner.state.lock();
        if st.sealed {
            return;
        }
        if let Some(expected) = st.replay.pop_front() {
            let record = st.replayed;
            st.replayed += 1;
            if expected != frame && st.divergence.is_none() {
                st.divergence = Some(Error::JournalDiverged {
                    record,
                    detail: format!(
                        "replay regenerated a {} record that differs from the journal \
                         (journaled kind: {})",
                        kind_name(kind),
                        kind_name(expected.first().copied().unwrap_or(0)),
                    ),
                });
            }
        } else if !st.dead {
            match &mut st.sink {
                Sink::Mem(v) => v.push(frame),
                Sink::Disk(f) => {
                    // One write_all + flush per record: a crash tears at
                    // most the final frame, which recovery truncates.
                    if f.write_all(&frame).and_then(|()| f.flush()).is_err() {
                        st.dead = true;
                        eprintln!(
                            "hyperdrive: journal write failed; journaling disabled for this run"
                        );
                    }
                }
            }
        }
        st.records += 1;
        if is_input_kind(kind) {
            st.inputs += 1;
        }
    }

    /// Appends one input record (write-ahead: the engine calls this before
    /// applying the input). [`decode_input`] is the inverse.
    pub(crate) fn input(&self, input: EngineInput, now: SimTime) {
        if self.inner.is_none() {
            return;
        }
        let mut body = Vec::with_capacity(25);
        let kind = match input {
            EngineInput::Start => return self.append(K_START, &body),
            EngineInput::Event(event) => {
                let (tag, job, token) = match event {
                    EngineEvent::EpochDone { job, token } => (0u8, job, token),
                    EngineEvent::SuspendDone { job, token } => (1, job, token),
                };
                body.push(tag);
                put_u64(&mut body, job.raw());
                put_u64(&mut body, token);
                K_EVENT
            }
            EngineInput::MachineCrash(machine) => {
                put_u64(&mut body, machine.raw());
                K_CRASH
            }
            EngineInput::MachineRecovery(machine) => {
                put_u64(&mut body, machine.raw());
                K_RECOVER
            }
            EngineInput::AgentStall(machine) => {
                put_u64(&mut body, machine.raw());
                K_STALL
            }
        };
        put_f64(&mut body, now.as_secs());
        self.append(kind, &body);
    }

    pub(crate) fn transition(&self, ev: &SchedulerEvent) {
        if self.inner.is_none() {
            return;
        }
        const NONE: u64 = u64::MAX;
        let mut body = Vec::with_capacity(33);
        let (tag, job, machine, time, extra) = match *ev {
            SchedulerEvent::Started { job, machine, time, resumed } => {
                (0u8, job.raw(), machine.raw(), time, u64::from(resumed))
            }
            SchedulerEvent::Suspended { job, machine, time } => {
                (1, job.raw(), machine.raw(), time, 0)
            }
            SchedulerEvent::Terminated { job, machine, time } => {
                (2, job.raw(), machine.raw(), time, 0)
            }
            SchedulerEvent::Completed { job, machine, time } => {
                (3, job.raw(), machine.raw(), time, 0)
            }
            SchedulerEvent::TargetReached { job, target, time } => {
                (4, job.raw(), NONE, time, target.to_bits())
            }
            SchedulerEvent::MachineCrashed { machine, time } => (5, NONE, machine.raw(), time, 0),
            SchedulerEvent::MachineRecovered { machine, time } => (6, NONE, machine.raw(), time, 0),
            SchedulerEvent::Interrupted { job, machine, time, lost_epochs } => {
                (7, job.raw(), machine.raw(), time, u64::from(lost_epochs))
            }
            SchedulerEvent::SnapshotCorrupted { job, time } => (8, job.raw(), NONE, time, 0),
            SchedulerEvent::Failed { job, time } => (9, job.raw(), NONE, time, 0),
        };
        body.push(tag);
        put_u64(&mut body, job);
        put_u64(&mut body, machine);
        put_f64(&mut body, time.as_secs());
        put_u64(&mut body, extra);
        self.append(K_TRANSITION, &body);
    }

    pub(crate) fn commands(&self, cmds: &[Command]) {
        if self.inner.is_none() {
            return;
        }
        let mut body = Vec::with_capacity(12);
        put_u32(&mut body, cmds.len() as u32);
        put_u64(&mut body, command_digest(cmds));
        self.append(K_COMMANDS, &body);
    }

    pub(crate) fn rng_checkpoint(&self, rng_draws: u64, fault_rng_draws: u64) {
        if self.inner.is_none() {
            return;
        }
        let mut body = Vec::with_capacity(16);
        put_u64(&mut body, rng_draws);
        put_u64(&mut body, fault_rng_draws);
        self.append(K_RNG, &body);
    }

    /// Seals the journal: the run ended (`complete`) or was interrupted on
    /// purpose (SIGTERM drains with `complete = false`). Idempotent; no
    /// records are accepted afterwards.
    pub(crate) fn seal(&self, end_time: SimTime, complete: bool) {
        let Some(inner) = &self.inner else { return };
        let mut body = Vec::with_capacity(9);
        put_f64(&mut body, end_time.as_secs());
        body.push(u8::from(complete));
        let frame = encode_frame(K_SEAL, &body);
        let mut st = inner.state.lock();
        if st.sealed {
            return;
        }
        st.sealed = true;
        // A seal mid-replay means recovery is still verifying the prefix;
        // leftover frames surface as divergence, so skip the write.
        if !st.replay.is_empty() || st.dead {
            return;
        }
        match &mut st.sink {
            Sink::Mem(v) => v.push(frame),
            Sink::Disk(f) => {
                let _ = f.write_all(&frame).and_then(|()| f.flush());
            }
        }
        st.records += 1;
    }
}

/// Splits `bytes` (a full journal file) into frames. Returns the frames
/// with a trailing seal stripped, whether a seal was present, and the byte
/// length of the valid prefix (excluding the seal and any torn tail).
fn parse_frames(bytes: &[u8]) -> Result<(Vec<Vec<u8>>, bool, u64)> {
    let mut frames: Vec<Vec<u8>> = Vec::new();
    let mut pos = HEADER_LEN;
    let mut valid_len = HEADER_LEN as u64;
    while pos < bytes.len() {
        let remaining = bytes.len() - pos;
        if remaining < 5 {
            break; // torn: not even kind + length landed
        }
        let kind = bytes[pos];
        let len = u32::from_le_bytes(bytes[pos + 1..pos + 5].try_into().expect("4 bytes"));
        if !(K_START..=K_SEAL).contains(&kind) || len > MAX_RECORD {
            return Err(Error::JournalCorrupt { offset: pos as u64 });
        }
        let total = 5 + len as usize + 8;
        if remaining < total {
            break; // torn: the final write was cut short
        }
        let head = &bytes[pos..pos + 5 + len as usize];
        let stored =
            u64::from_le_bytes(bytes[pos + 5 + len as usize..pos + total].try_into().expect("8"));
        if frame_checksum(head) != stored {
            return Err(Error::JournalCorrupt { offset: pos as u64 });
        }
        frames.push(bytes[pos..pos + total].to_vec());
        pos += total;
        valid_len = pos as u64;
    }
    let mut sealed = false;
    if let Some(last) = frames.last() {
        if last[0] == K_SEAL {
            sealed = true;
            let seal = frames.pop().expect("last exists");
            valid_len -= seal.len() as u64;
        }
    }
    Ok((frames, sealed, valid_len))
}

/// Decodes the input records out of a frame sequence (verification
/// records are skipped — replay regenerates and checks them). An
/// undecodable input is reported at its byte offset in the file the frames
/// form behind the header.
fn decode_inputs(frames: &[Vec<u8>]) -> Result<Vec<(SimTime, EngineInput)>> {
    let mut inputs = Vec::new();
    let mut offset = HEADER_LEN as u64;
    for frame in frames {
        let kind = frame[0];
        if is_input_kind(kind) {
            let body = &frame[5..frame.len() - 8];
            inputs.push(decode_input(kind, body).ok_or(Error::JournalCorrupt { offset })?);
        }
        offset += frame.len() as u64;
    }
    Ok(inputs)
}

fn decode_input(kind: u8, body: &[u8]) -> Option<(SimTime, EngineInput)> {
    let mut c = Cursor { bytes: body, pos: 0 };
    let input = match kind {
        K_START => (SimTime::ZERO, EngineInput::Start),
        K_EVENT => {
            let tag = c.u8()?;
            let job = JobId::new(c.u64()?);
            let token = c.u64()?;
            let event = match tag {
                0 => EngineEvent::EpochDone { job, token },
                1 => EngineEvent::SuspendDone { job, token },
                _ => return None,
            };
            (c.time()?, EngineInput::Event(event))
        }
        K_CRASH | K_RECOVER | K_STALL => {
            let machine = MachineId::new(c.u64()?);
            let input = match kind {
                K_CRASH => EngineInput::MachineCrash(machine),
                K_RECOVER => EngineInput::MachineRecovery(machine),
                _ => EngineInput::AgentStall(machine),
            };
            (c.time()?, input)
        }
        _ => return None,
    };
    if c.pos != body.len() {
        return None;
    }
    Some(input)
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn take(&mut self, n: usize) -> Option<&[u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.bytes.len() {
            return None;
        }
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8).map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn time(&mut self) -> Option<SimTime> {
        let v = f64::from_bits(self.u64()?);
        if v.is_nan() {
            return None;
        }
        Some(SimTime::from_secs(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hyperdrive-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn sample_inputs() -> Vec<(SimTime, EngineInput)> {
        let epoch = EngineEvent::EpochDone { job: JobId::new(0), token: 0 };
        let suspend = EngineEvent::SuspendDone { job: JobId::new(2), token: 9 };
        vec![
            (SimTime::ZERO, EngineInput::Start),
            (SimTime::from_secs(10.0), EngineInput::Event(epoch)),
            (SimTime::from_secs(12.0), EngineInput::MachineCrash(MachineId::new(1))),
            (SimTime::from_secs(30.0), EngineInput::MachineRecovery(MachineId::new(1))),
            (SimTime::from_secs(44.0), EngineInput::AgentStall(MachineId::new(0))),
            (SimTime::from_secs(50.0), EngineInput::Event(suspend)),
        ]
    }

    fn write_sample(j: &Journal) {
        for (now, input) in sample_inputs() {
            j.input(input, now);
            j.transition(&SchedulerEvent::Started {
                job: JobId::new(0),
                machine: MachineId::new(0),
                time: SimTime::from_secs(1.0),
                resumed: false,
            });
            j.commands(&[Command::Stop]);
            j.rng_checkpoint(3, 1);
        }
    }

    #[test]
    fn disabled_journal_is_inert() {
        let j = Journal::disabled();
        assert!(!j.is_enabled());
        write_sample(&j);
        j.seal(SimTime::ZERO, true);
        assert_eq!(j.inputs_appended(), 0);
        assert_eq!(j.records_appended(), 0);
        assert!(!j.is_sealed());
        assert!(j.reopen().is_err());
    }

    #[test]
    fn disk_roundtrip_recovers_inputs_in_order() {
        let path = tmp_path("roundtrip.wal");
        let j = Journal::create(&path, 0xABCD).unwrap();
        write_sample(&j);
        assert_eq!(j.inputs_appended(), 6);
        drop(j);
        let rec = Journal::recover(&path, 0xABCD).unwrap();
        assert_eq!(rec.inputs, sample_inputs());
        assert!(!rec.sealed);
    }

    #[test]
    fn replay_verifies_identical_frames_and_flags_divergence() {
        let j = Journal::in_memory(7);
        write_sample(&j);
        let rec = j.reopen().unwrap();
        // Re-append the exact same records: every frame verifies.
        write_sample(&rec.journal);
        assert_eq!(rec.journal.replay_remaining(), 0);
        assert!(rec.journal.take_divergence().is_none());
        // Appending past the prefix goes to the sink again.
        rec.journal.rng_checkpoint(99, 0);
        assert_eq!(rec.journal.records_appended(), j.records_appended() + 1);

        // A differing record sets a sticky divergence error.
        let rec2 = j.reopen().unwrap();
        rec2.journal.input(EngineInput::Start, SimTime::ZERO);
        rec2.journal.rng_checkpoint(1234, 5678); // journal holds a transition here
        match rec2.journal.take_divergence() {
            Some(Error::JournalDiverged { record, .. }) => assert_eq!(record, 1),
            other => panic!("expected divergence, got {other:?}"),
        }
    }

    #[test]
    fn seal_is_idempotent_and_stripped_on_recovery() {
        let path = tmp_path("sealed.wal");
        let j = Journal::create(&path, 1).unwrap();
        write_sample(&j);
        j.seal(SimTime::from_secs(50.0), false);
        j.seal(SimTime::from_secs(99.0), true); // second seal ignored
        assert!(j.is_sealed());
        let before = std::fs::metadata(&path).unwrap().len();
        drop(j);
        let rec = Journal::recover(&path, 1).unwrap();
        assert!(rec.sealed, "seal observed");
        assert_eq!(rec.inputs, sample_inputs());
        let after = std::fs::metadata(&path).unwrap().len();
        assert!(after < before, "seal record truncated so the resumed run re-seals");
    }

    #[test]
    fn records_after_seal_are_dropped() {
        let j = Journal::in_memory(3);
        j.input(EngineInput::Start, SimTime::ZERO);
        j.seal(SimTime::ZERO, true);
        j.input(
            EngineInput::Event(EngineEvent::EpochDone { job: JobId::new(0), token: 0 }),
            SimTime::from_secs(1.0),
        );
        assert_eq!(j.inputs_appended(), 1, "post-seal input dropped");
    }

    #[test]
    fn torn_tail_is_truncated_and_replayed_past() {
        let path = tmp_path("torn.wal");
        let j = Journal::create(&path, 2).unwrap();
        write_sample(&j);
        drop(j);
        let full = std::fs::read(&path).unwrap();
        // Cut the file mid-way through the final record.
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();
        let rec = Journal::recover(&path, 2).unwrap();
        assert_eq!(rec.inputs, sample_inputs(), "all complete inputs survive");
        let truncated = std::fs::metadata(&path).unwrap().len();
        assert!(truncated < full.len() as u64, "torn record removed from disk");
    }

    #[test]
    fn torn_header_restarts_fresh() {
        let path = tmp_path("torn-header.wal");
        std::fs::write(&path, b"HDWJ\x01").unwrap();
        let rec = Journal::recover(&path, 5).unwrap();
        assert!(rec.inputs.is_empty());
        assert!(!rec.sealed);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), HEADER_LEN as u64);
    }

    #[test]
    fn mid_log_corruption_is_a_typed_error() {
        let path = tmp_path("corrupt.wal");
        let j = Journal::create(&path, 4).unwrap();
        write_sample(&j);
        drop(j);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a payload byte of the first record (offset 16 = header,
        // +5 = kind+len of the first frame).
        bytes[HEADER_LEN + 5] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        match Journal::recover(&path, 4) {
            Err(Error::JournalCorrupt { offset }) => assert_eq!(offset, HEADER_LEN as u64),
            other => panic!("expected JournalCorrupt, got {other:?}"),
        }
    }

    #[test]
    fn version_and_meta_mismatches_are_typed() {
        let path = tmp_path("version.wal");
        let j = Journal::create(&path, 6).unwrap();
        drop(j);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[4] = 9; // format version 9
        std::fs::write(&path, &bytes).unwrap();
        match Journal::recover(&path, 6) {
            Err(Error::JournalVersion { found: 9, expected }) => {
                assert_eq!(expected, JOURNAL_FORMAT);
            }
            other => panic!("expected JournalVersion, got {other:?}"),
        }

        let path2 = tmp_path("meta.wal");
        Journal::create(&path2, 6).unwrap();
        assert!(matches!(Journal::recover(&path2, 7), Err(Error::JournalMismatch(_))));

        let path3 = tmp_path("magic.wal");
        std::fs::write(&path3, vec![0u8; 32]).unwrap();
        assert!(matches!(Journal::recover(&path3, 0), Err(Error::JournalMismatch(_))));
    }

    #[test]
    fn create_in_impossible_directory_is_a_typed_error() {
        // A path under a regular *file* cannot be created as a directory.
        let blocker = tmp_path("blocker-file");
        std::fs::write(&blocker, b"x").unwrap();
        let path = blocker.join("sub").join("j.wal");
        match Journal::create(&path, 0) {
            Err(Error::Io(msg)) => assert!(msg.contains("journal"), "{msg}"),
            other => panic!("expected Io error, got {other:?}"),
        }
    }

    #[test]
    fn run_meta_distinguishes_runs() {
        use hyperdrive_workload::{CifarWorkload, Workload as _};
        let w = CifarWorkload::new().with_max_epochs(4);
        let ew = ExperimentWorkload::from_workload(&w, 3, 1);
        let spec = ExperimentSpec::new(2);
        let plan = FaultPlan::none();
        let a = run_meta("pop", &ew, &spec, &plan);
        assert_eq!(a, run_meta("pop", &ew, &spec, &plan), "deterministic");
        assert_ne!(a, run_meta("default", &ew, &spec, &plan), "policy name matters");
        assert_ne!(a, run_meta("pop", &ew, &spec.with_seed(9), &plan), "spec matters");
        let mut plan2 = FaultPlan::none();
        plan2.events.push(crate::fault::FaultEvent {
            at: SimTime::from_secs(1.0),
            machine: MachineId::new(0),
            kind: FaultKind::EngineCrash { at_event: 5 },
        });
        assert_ne!(a, run_meta("pop", &ew, &spec, &plan2), "plan matters");
        let _ = w.name(); // keep the Workload trait import exercised
    }

    #[test]
    fn command_digest_is_order_sensitive() {
        let a = Command::RunEpoch {
            job: JobId::new(0),
            machine: MachineId::new(0),
            epoch: 1,
            duration: SimTime::from_secs(5.0),
            token: 0,
        };
        let b = Command::Suspend {
            job: JobId::new(1),
            machine: MachineId::new(1),
            latency: SimTime::from_secs(2.0),
            token: 1,
        };
        assert_ne!(command_digest(&[a, b]), command_digest(&[b, a]));
        assert_ne!(command_digest(&[a]), command_digest(&[a, Command::Stop]));
        assert_eq!(command_digest(&[a, b]), command_digest(&[a, b]));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn nth_input(i: usize, seed: u64) -> EngineInput {
            EngineInput::Event(EngineEvent::EpochDone {
                job: JobId::new(i as u64),
                token: seed.wrapping_add(i as u64),
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Torn-tail corruption at *any* byte offset recovers the
            /// longest valid prefix: exactly the records whose frames fit
            /// entirely within the cut survive.
            #[test]
            fn torn_tail_recovers_longest_valid_prefix(
                n_records in 0usize..24,
                cut_frac in 0.0f64..1.0,
                seed in 0u64..1000,
            ) {
                let path = tmp_path(&format!("prop-torn-{seed}-{n_records}.wal"));
                let j = Journal::create(&path, seed).unwrap();
                let mut frame_lens = Vec::new();
                for i in 0..n_records {
                    let before = std::fs::metadata(&path).unwrap().len();
                    j.input(nth_input(i, seed), SimTime::from_secs(i as f64));
                    let after = std::fs::metadata(&path).unwrap().len();
                    frame_lens.push(after - before);
                }
                drop(j);
                let full = std::fs::read(&path).unwrap();
                let cut = (cut_frac * full.len() as f64) as usize;
                std::fs::write(&path, &full[..cut]).unwrap();

                // Expected surviving records: frames fully inside the cut.
                let mut expect = 0usize;
                let mut pos = HEADER_LEN as u64;
                for len in &frame_lens {
                    if pos + len <= cut as u64 {
                        expect += 1;
                        pos += len;
                    } else {
                        break;
                    }
                }
                let rec = Journal::recover(&path, seed).unwrap();
                prop_assert_eq!(rec.inputs.len(), expect);
                for (i, input) in rec.inputs.iter().enumerate() {
                    prop_assert_eq!(*input, (SimTime::from_secs(i as f64), nth_input(i, seed)));
                }
                // The file is now the valid prefix: recovering again is
                // lossless.
                drop(rec);
                let again = Journal::recover(&path, seed).unwrap();
                prop_assert_eq!(again.inputs.len(), expect);
            }
        }
    }
}
