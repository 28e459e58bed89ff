//! The HyperDrive framework (§4 of the paper).
//!
//! HyperDrive "largely decouples the scheduling policy for candidate
//! configurations from the type of model and/or framework". This crate
//! provides that separation:
//!
//! * [`resource`] — the Resource Manager (`reserve_idle_machine` /
//!   `release_machine`).
//! * [`job_manager`] — the Job Manager: start/resume/suspend/terminate,
//!   priority labels, FIFO+priority idle queue.
//! * [`appstat`] — the AppStat DB: per-job performance history, model
//!   snapshots, suspend telemetry.
//! * [`policy`] — the Scheduling Algorithm Policy (SAP) interface: the
//!   three up-calls `allocate_jobs` / `application_stat` /
//!   `on_iteration_finish`, plus the Default SAP.
//! * [`generator`] — the Hyperparameter Generator API with random, grid,
//!   and adaptive implementations.
//! * [`experiment`] — experiment specification (workload + cluster +
//!   `Tmax`) and results.
//! * [`engine`] — the executor-independent experiment engine that turns
//!   policy decisions into abstract commands.
//! * [`validation`] — [`check_trace`], the laws every finished run obeys.
//! * [`driver`] — the one event loop, `next input → deliver → route
//!   commands`, generic over where inputs come from.
//! * [`live`] — the live executor: node-agent threads exchanging messages
//!   with the scheduler over channels, in scaled wall-clock time.
//!
//! The discrete-event executor lives in the `hyperdrive-sim` crate; both
//! executors are an input source for the same [`Driver`] over the same
//! [`engine::ExperimentEngine`], so any SAP runs unchanged on either (the
//! paper's live-vs-simulator validation, Fig 12a).
//!
//! # Example
//!
//! ```
//! use hyperdrive_framework::experiment::{ExperimentSpec, ExperimentWorkload};
//! use hyperdrive_framework::live::run_live;
//! use hyperdrive_framework::policy::DefaultPolicy;
//! use hyperdrive_workload::CifarWorkload;
//!
//! let workload = CifarWorkload::new().with_max_epochs(3);
//! let experiment = ExperimentWorkload::from_workload(&workload, 4, 42);
//! let spec = ExperimentSpec::new(2).with_stop_on_target(false);
//! let mut policy = DefaultPolicy::new();
//! let result = run_live(&mut policy, &experiment, spec, 60_000.0);
//! assert_eq!(result.total_epochs, 12);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod appstat;
mod dense;
pub mod driver;
pub mod engine;
pub mod events;
pub mod experiment;
pub mod fault;
pub mod generator;
pub mod job_manager;
pub mod journal;
pub mod live;
pub mod policy;
pub mod resource;
pub mod snapshot;
pub mod validation;

pub use appstat::{AppStatDb, SuspendEvent};
pub use driver::{Driver, InputSource};
pub use engine::{Command, EngineEvent, EngineInput, ExperimentEngine};
pub use events::{EventLog, GanttSegment, SchedulerEvent};
pub use experiment::{
    ExperimentJob, ExperimentResult, ExperimentSpec, ExperimentWorkload, JobEnd, JobOutcome,
    RunSignature, TargetMilestone,
};
pub use fault::{FaultConfig, FaultEvent, FaultKind, FaultPlan, FaultStats, RetryPolicy};
pub use generator::{AdaptiveGenerator, GridGenerator, HyperparameterGenerator, RandomGenerator};
pub use job_manager::{JobManager, JobState};
pub use journal::{run_meta, Journal, RecoveredJournal};
pub use live::{install_sigterm_handler, run_live, LiveFaultPlan, LiveRun};
pub use policy::{
    testing, DefaultPolicy, FitCacheSnapshot, JobDecision, JobEvent, PrefetchHint,
    SchedulerContext, SchedulingPolicy,
};
pub use resource::ResourceManager;
pub use snapshot::JobSnapshot;
pub use validation::{check_trace, TraceViolation};
