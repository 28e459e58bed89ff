//! Golden-trace regression tests for POP scheduling decisions.
//!
//! Two canonical experiments — a CIFAR accuracy surface and a Lunar Lander
//! reward surface — run under POP in the simulator, and their complete
//! scheduling traces (every start/resume, suspend, kill, completion, plus
//! the per-boundary classification snapshots, as
//! `PopPolicy::render_trace` renders them) are compared **byte for byte**
//! against committed golden files, at 1 and 4 fit-service worker threads.
//! Every fit runs the one fused batched-kernel likelihood; the root
//! `likelihood_oracle` test holds it to the model's libm definition, so no
//! second likelihood replays the goldens.
//!
//! The golden studies are the harness's `Golden` group (`tests/harness`):
//! besides the two owners below, four cells replay them at 2 and 3 fit
//! threads, with fit prefetch, against a shared fit cache, and journaled,
//! killed and resumed.
//!
//! These traces lock in the whole deterministic stack at once: curve-fit
//! seed derivation, fit caching, batch request ordering, slot allocation,
//! and engine event ordering. Any change that moves a single decision or
//! reorders a single event shows up as a diff here.
//!
//! To regenerate after an *intentional* behaviour change:
//!
//! ```text
//! HYPERDRIVE_UPDATE_GOLDEN=1 cargo test --test golden_traces
//! ```

#[macro_use]
mod harness;

use harness::{golden_path, read_golden, regenerating, Study};

/// Asserts fit-pool-width invariance, then compares against the committed
/// golden file (or rewrites it under `HYPERDRIVE_UPDATE_GOLDEN=1`).
fn check_golden(name: &'static str) {
    let study = Study::golden(name);
    let single = study.trace_at(1);
    let quad = study.trace_at(4);
    assert_eq!(single, quad, "{name}: fit-pool width leaked into the scheduling trace");

    if regenerating() {
        std::fs::write(golden_path(name), &single).expect("write golden file");
        return;
    }
    assert_eq!(
        single,
        read_golden(name),
        "{name}: trace diverged from the committed golden; if the behaviour \
         change is intentional, regenerate with HYPERDRIVE_UPDATE_GOLDEN=1"
    );
}

// One committed trace per workload, replayed at {1, 4} fit threads. The
// likelihood's kernels are bit-identical between backends, so the trace
// does not move a byte under `HYPERDRIVE_VMATH` either. These two tests
// own regeneration.

#[test]
fn cifar_surface_fast_trace_is_golden() {
    check_golden("cifar_trace.csv");
}

#[test]
fn lunar_surface_fast_trace_is_golden() {
    check_golden("lunar_trace.csv");
}

// The golden cells of the differential harness.
cells! {
    existing_goldens_are_untouched_by_batch_fit: Golden, Threads;
    existing_goldens_are_untouched_by_fit_prefetch: Golden, Prefetch(&[1, 4]);
    golden_traces_are_invariant_under_shared_fit_cache_modes: Golden, Cache;
    journaling_is_pure_output: Golden, Journaled, Killed { prefetch: false };
}

/// The command line journals as a path: a second `run --journal` on a
/// sealed journal resumes it to the same report, and a journal written
/// under another seed is refused.
#[test]
fn cli_run_resumes_its_journal_and_refuses_another_runs() {
    let path = std::env::temp_dir().join(format!("hyperdrive-cli-{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let run = |seed: &str| {
        std::process::Command::new(env!("CARGO_BIN_EXE_hyperdrive"))
            .args(["run", "--policy", "bandit", "--configs", "12", "--machines", "3"])
            .args(["--seed", seed, "--journal"])
            .arg(&path)
            .output()
            .expect("the hyperdrive binary runs")
    };
    let first = run("42");
    assert!(first.status.success(), "{}", String::from_utf8_lossy(&first.stderr));
    assert!(path.exists(), "--journal created the file");
    let second = run("42");
    assert!(second.status.success(), "{}", String::from_utf8_lossy(&second.stderr));
    assert_eq!(String::from_utf8_lossy(&second.stdout), String::from_utf8_lossy(&first.stdout));
    let other = run("43");
    assert!(!other.status.success(), "a journal of another run must be refused");
    assert!(String::from_utf8_lossy(&other.stderr).contains("--journal"));
    let _ = std::fs::remove_file(&path);
}
