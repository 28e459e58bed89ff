//! Multi-tenant experiment admission for HyperDrive.
//!
//! The paper's system serves *one* experiment per scheduler instance;
//! this crate is the front door for serving thousands at once. Tenants
//! submit hermetic [`StudySpec`]s (workload + policy + seed); the
//! [`Server`] queues them for a pool of workers, gives every study one
//! shared [`FitPool`](hyperdrive_curve::FitPool) of fit threads and one
//! shared content-addressed
//! [`SharedFitCache`](hyperdrive_curve::SharedFitCache), and pushes back
//! explicitly (bounded queues, per-tenant quotas,
//! reject-with-`retry_after`) instead of queueing without limit.
//!
//! A study's fits go to the fit pool only while some of its workers have
//! no study behind them. Each running study's fit service is bound to the
//! pool ([`FitPool::services`](hyperdrive_curve::FitPool::services)); once
//! at least as many studies run as the pool has workers, and at least two,
//! every core already runs a study, and each study fits on its own shard
//! thread — the same fit, bit for bit, without the hand-off.
//!
//! Two invariants carry the design:
//!
//! 1. **Byte identity.** Every study's rendered decision trace and
//!    posterior digest are identical to the same study run standalone —
//!    at any shard count, any fit-pool width, shared cache on or off.
//!    Seeds derive per stream from the study seed
//!    ([`derive_study_seed`]), studies are hermetic (so whichever idle
//!    worker takes one from the shared admission queue moves only when
//!    it runs), and cross-study sharing happens only below the policy in
//!    the content-addressed cache, whose hits are bitwise the fits they
//!    replace.
//! 2. **Bounded admission.** A full admission queue or an exhausted
//!    tenant quota rejects immediately with a backoff hint; heavy traffic
//!    turns into backpressure the client can see, never into unbounded
//!    memory.

mod server;
mod study;

pub use server::{AdmissionError, Server, ServerConfig, StudyFailed, StudyTicket};
pub use study::{
    derive_study_seed, run_study, run_study_standalone, StudyId, StudyOutcome, StudySpec,
    STREAM_EXECUTOR, STREAM_POLICY,
};
