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
//! * [`cache`] — the process-wide shared fit cache every bin installs
//!   and reports, plus the on-disk workload trace cache.
//! * [`scorecard`] — the paper's numbers beside ours, one [`Claim`] each,
//!   collected into `results/SCORECARD.json`.
//!
//! Set `HYPERDRIVE_QUICK=1` to shrink all experiment binaries to smoke
//! scale; set `HYPERDRIVE_RESULTS=<dir>` to redirect CSV output; set
//! `HYPERDRIVE_FIT_CACHE=off|mem|disk` to override the fit-cache layer
//! (bench bins default to `mem`).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cache;
pub mod harness;
pub mod par;
pub mod report;
pub mod scorecard;

pub use cache::{
    cached_traces, fit_cache_json, fit_pool_json, init_fit_cache, record_pool_stats,
    report_fit_cache,
};
pub use harness::{
    harness_fit_threads, run_comparison, summarize, ComparisonRun, ComparisonSettings, PolicyKind,
    PolicySummary,
};
pub use par::par_map;
pub use report::{hours, mins, print_table, quick_mode, results_dir, write_csv};
pub use scorecard::{record_claims, Claim, ClaimStatus};
