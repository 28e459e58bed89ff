//! The repository benchmark: end-to-end metrics of the library's default
//! configuration on five workloads, and per-layer attribution from a
//! separate traced pass. It patches no library code: every number comes
//! from timing calls into public functions or from public accessors. See
//! `benchmark/README.md`.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     [--workload <name>|all] [--seed N] [--seconds N] [--trace 0|1 | --traced]
//! ```

mod host;
mod metrics;
mod policy;
mod replay;
mod report;
mod sequential;
mod server;
mod simrun;
mod spans;
mod stats;

use std::process::{Command, ExitCode};

/// The five workloads, in the order `--workload all` runs them.
const WORKLOADS: [&str; 5] =
    ["pop_cifar", "lunar_mix", "spine_default", "spine_churn", "server_dup"];

/// `run_seconds` of `BENCHMARK.json`: how long a run measures by default.
const DEFAULT_SECONDS: f64 = 15.0;

/// One workload run's parameters.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Seed of every generated input.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Traced pass (per-layer metrics) rather than untraced (end-to-end).
    pub trace: bool,
    /// Host and build provenance, as a JSON object.
    pub host_json: String,
}

#[derive(Debug)]
struct Cli {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    format!(
        "usage: hyperdrive-benchmark [--workload <{}|all>] [--seed N] [--seconds N] \
         [--trace 0|1 | --traced]",
        WORKLOADS.join("|")
    )
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli =
        Cli { workload: "all".to_string(), seed: 1, seconds: DEFAULT_SECONDS, trace: false };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cli.workload = value()?.clone(),
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cli.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.seconds.is_finite() && cli.seconds > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--traced" => cli.trace = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if cli.workload != "all" && !WORKLOADS.contains(&cli.workload.as_str()) {
        return Err(format!("unknown workload {}", cli.workload));
    }
    Ok(cli)
}

/// Runs every workload in a child process of its own — so that peak
/// memory and lazy process state are per workload — untraced, and traced
/// too when asked. Succeeds only if every child did.
fn run_all(cli: &Cli) -> ExitCode {
    let exe = std::env::current_exe().expect("own path is known");
    let mut ok = true;
    for workload in WORKLOADS {
        for trace in [false, true] {
            if trace && !cli.trace {
                continue;
            }
            let status = Command::new(&exe)
                .args(["--workload", workload, "--seed", &cli.seed.to_string()])
                .args(["--seconds", &cli.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .status();
            if !status.is_ok_and(|s| s.success()) {
                eprintln!("workload {workload} (trace {}) failed", u8::from(trace));
                ok = false;
            }
            println!();
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    // Before any library call: several knobs are latched on first use.
    let scrubbed = host::scrub_environment();
    if cfg!(debug_assertions) {
        eprintln!("refusing to measure a non-release build; pass --release");
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if cli.workload == "all" {
        return run_all(&cli);
    }

    let run = RunArgs {
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        host_json: host::metadata_json(cli.seed, &scrubbed),
    };
    let outcome = match cli.workload.as_str() {
        "pop_cifar" => sequential::run(&sequential::POP_CIFAR, &run),
        "lunar_mix" => sequential::run(&sequential::LUNAR_MIX, &run),
        "spine_default" => sequential::run(&sequential::SPINE_DEFAULT, &run),
        "spine_churn" => sequential::run(&sequential::SPINE_CHURN, &run),
        _ => server::run(&run),
    };
    report::print(&cli.workload, &run.host_json, &outcome);
    if outcome.checks.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
