//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (§6–§7).
//!
//! Each figure has a dedicated binary under `src/bin/` (run with
//! `cargo run --release -p hyperdrive-bench --bin <name>`); the shared
//! plumbing lives here:
//!
//! * [`harness`] — policy construction and repeated time-to-target
//!   comparisons with the paper's repeat protocol (fixed configuration
//!   set, varying training noise).
//! * [`report`] — CSV emission into `results/` and aligned terminal
//!   tables.
//! * [`scorecard`] — the paper's numbers beside ours, one [`Claim`] each,
//!   collected into `results/SCORECARD.json`.
//!
//! Set `HYPERDRIVE_QUICK=1` to shrink all experiment binaries to smoke
//! scale; set `HYPERDRIVE_RESULTS=<dir>` to redirect CSV output. Nothing
//! here is shared ambiently: every policy a bin builds fits its own
//! curves, and a bin that wants fits shared across its runs (`ablation_pop`)
//! builds a `SharedFitCache` and hands it to each policy.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod harness;
pub mod par;
pub mod report;
pub mod scorecard;

pub use harness::{
    run_comparison, summarize, ComparisonRun, ComparisonSettings, PolicyKind, PolicySummary,
    HARNESS_FIT_THREADS,
};
pub use par::par_map;
pub use report::{hours, mins, print_table, quick_mode, results_dir, write_csv};
pub use scorecard::{record_claims, Claim, ClaimStatus};
