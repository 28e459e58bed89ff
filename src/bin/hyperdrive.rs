//! The `hyperdrive` command-line driver: run hyperparameter explorations
//! and manage traces without writing code.
//!
//! ```text
//! hyperdrive run    --workload cifar10 --policy pop --machines 4 --configs 100
//! hyperdrive run    --workload lunarlander --policy bandit --live --scale 600
//! hyperdrive run    --workload cifar10 --policy pop --journal run.wal
//! hyperdrive trace  --workload cifar10 --configs 100 --out traces.csv
//! hyperdrive replay --file traces.csv --workload cifar10 --policy pop --machines 5
//! ```

use std::path::Path;
use std::process::ExitCode;

use hyperdrive::curve::{FitPool, PredictorConfig};
use hyperdrive::framework::{
    install_sigterm_handler, run_meta, DefaultPolicy, ExperimentResult, ExperimentSpec,
    ExperimentWorkload, FaultPlan, Journal, LiveFaultPlan, LiveRun, RecoveredJournal,
    SchedulingPolicy,
};
use hyperdrive::policies::{BanditPolicy, EarlyTermConfig, EarlyTermPolicy, HyperbandPolicy};
use hyperdrive::pop::{PopConfig, PopPolicy};
use hyperdrive::sim::{run_sim, Simulation};
use hyperdrive::workload::{
    CifarWorkload, ImagenetWorkload, LstmWorkload, LunarWorkload, TraceSet, Workload,
};
use hyperdrive::SimTime;

const USAGE: &str = "\
hyperdrive — hyperparameter exploration with POP scheduling

USAGE:
  hyperdrive run    [OPTIONS]       run one exploration experiment
  hyperdrive trace  [OPTIONS]       record a replayable trace set
  hyperdrive replay [OPTIONS]       replay a trace set under a policy

OPTIONS (run / replay):
  --workload <cifar10|lunarlander|lstm|imagenet22k>         [cifar10]
  --policy   <pop|bandit|earlyterm|hyperband|default>       [pop]
  --machines <N>                          cluster slots     [4]
  --configs  <N>                          configurations    [100]
  --seed     <N>                          experiment seed   [42]
  --tmax-hours <H>                        time budget       [24]
  --target   <0..1>                       normalized target [workload default]
  --dynamic-target <INC>                  raise target by INC when reached
  --live                                  threaded executor instead of simulator
  --scale <X>                             live time scale   [600]
  --run-all                               do not stop at the target
  --journal <FILE>                        (run) write-ahead journal: created if
                                          absent, else the run resumes from it

OPTIONS (trace):
  --out  <FILE>                           output path       [traces.csv]
OPTIONS (replay):
  --file <FILE>                           trace file to replay
";

struct Args {
    values: Vec<(String, Option<String>)>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Self, String> {
        let mut values = Vec::new();
        let mut i = 0;
        while i < raw.len() {
            let key = &raw[i];
            if !key.starts_with("--") {
                return Err(format!("unexpected argument {key}"));
            }
            let flag_only = matches!(key.as_str(), "--live" | "--run-all");
            if flag_only {
                values.push((key.clone(), None));
                i += 1;
            } else {
                let value = raw.get(i + 1).ok_or_else(|| format!("{key} needs a value"))?.clone();
                values.push((key.clone(), Some(value)));
                i += 2;
            }
        }
        Ok(Args { values })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.values.iter().find(|(k, _)| k == key).and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, key: &str) -> bool {
        self.values.iter().any(|(k, _)| k == key)
    }

    fn parse_num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{key}: cannot parse {v:?}")),
        }
    }
}

fn make_workload(name: &str) -> Result<Box<dyn Workload>, String> {
    match name {
        "cifar10" => Ok(Box::new(CifarWorkload::new())),
        "lunarlander" => Ok(Box::new(LunarWorkload::new())),
        "imagenet22k" => Ok(Box::new(ImagenetWorkload::new())),
        "lstm" => Ok(Box::new(LstmWorkload::new())),
        other => Err(format!("unknown workload {other:?} (cifar10|lunarlander|lstm|imagenet22k)")),
    }
}

fn make_policy(name: &str, seed: u64) -> Result<Box<dyn SchedulingPolicy>, String> {
    let fidelity = PredictorConfig::fast();
    match name {
        "pop" => Ok(Box::new(PopPolicy::new(
            PopConfig { predictor: fidelity, seed, ..Default::default() },
            FitPool::new(0),
            None,
        ))),
        "bandit" => Ok(Box::new(BanditPolicy::new())),
        "earlyterm" => Ok(Box::new(EarlyTermPolicy::with_config(EarlyTermConfig {
            predictor: fidelity,
            seed,
            ..Default::default()
        }))),
        "hyperband" => Ok(Box::new(HyperbandPolicy::new())),
        "default" => Ok(Box::new(DefaultPolicy::new())),
        other => Err(format!("unknown policy {other:?} (pop|bandit|earlyterm|hyperband|default)")),
    }
}

fn report(result: &ExperimentResult, experiment: &ExperimentWorkload) {
    println!("policy:            {}", result.policy);
    match result.time_to_target {
        Some(t) => {
            println!("time to target:    {t}");
            if let Some(w) = result.winner {
                println!("winning job:       {w} ({})", experiment.jobs[w.raw() as usize].config);
            }
        }
        None => println!("time to target:    not reached"),
    }
    for m in &result.milestones {
        println!("  milestone: target {:.3} reached at {} by {}", m.target, m.time, m.job);
    }
    println!("experiment time:   {}", result.end_time);
    println!("epochs executed:   {}", result.total_epochs);
    println!("terminated early:  {}", result.terminated_early());
    println!("suspensions:       {}", result.suspend_events.len());
}

/// What `--journal <path>` opened: a fresh journal (disabled without the
/// flag), or an existing one to resume from.
enum RunJournal {
    Fresh(Journal),
    Resume(RecoveredJournal),
}

fn open_journal(path: Option<&str>, meta: u64) -> Result<RunJournal, String> {
    let Some(path) = path.map(Path::new) else {
        return Ok(RunJournal::Fresh(Journal::disabled()));
    };
    let opened = if path.exists() {
        Journal::recover(path, meta).map(RunJournal::Resume)
    } else {
        Journal::create(path, meta).map(RunJournal::Fresh)
    };
    opened.map_err(|e| format!("--journal {}: {e}", path.display()))
}

fn cmd_run(args: &Args) -> Result<(), String> {
    let workload = make_workload(args.get("--workload").unwrap_or("cifar10"))?;
    let seed: u64 = args.parse_num("--seed", 42)?;
    let n_configs: usize = args.parse_num("--configs", 100)?;
    if n_configs == 0 {
        return Err("--configs: need at least one configuration".into());
    }
    let machines: usize = args.parse_num("--machines", 4)?;
    if machines == 0 {
        return Err("--machines: a cluster needs at least one machine".into());
    }
    let tmax: f64 = args.parse_num("--tmax-hours", 24.0)?;

    let mut experiment = ExperimentWorkload::from_workload(workload.as_ref(), n_configs, seed);
    if let Some(t) = args.get("--target") {
        let t: f64 = t.parse().map_err(|_| "--target: not a number".to_string())?;
        experiment = experiment.with_target(t);
    }
    let mut spec = ExperimentSpec::new(machines)
        .with_tmax(SimTime::from_hours(tmax))
        .with_seed(seed)
        .with_stop_on_target(!args.has("--run-all"));
    if let Some(inc) = args.get("--dynamic-target") {
        let inc: f64 = inc.parse().map_err(|_| "--dynamic-target: not a number".to_string())?;
        spec = spec.with_dynamic_target(inc);
    }

    let mut policy = make_policy(args.get("--policy").unwrap_or("pop"), seed)?;
    let none = FaultPlan::none();
    let meta = run_meta(policy.name(), &experiment, &spec, &none);
    let journal = open_journal(args.get("--journal"), meta)?;
    println!(
        "running {} x{} on {} machines ({})…",
        workload.name(),
        n_configs,
        machines,
        if args.has("--live") { "live executor" } else { "simulator" }
    );
    let policy = policy.as_mut();
    let resumed = |e: hyperdrive::Error| format!("--journal: cannot resume: {e}");
    let result = if args.has("--live") {
        let scale: f64 = args.parse_num("--scale", 600.0)?;
        let plan = LiveFaultPlan::default();
        // SIGTERM requests a graceful stop: the run loop drains the node
        // agents and seals the journal (if any), so a second run with the
        // same `--journal` resumes it.
        install_sigterm_handler();
        match journal {
            RunJournal::Fresh(j) => {
                LiveRun::with_journal(policy, &experiment, spec, scale, &plan, j).run()
            }
            RunJournal::Resume(r) => {
                LiveRun::resume(policy, &experiment, spec, scale, &plan, r).map_err(resumed)?.run()
            }
        }
    } else {
        match journal {
            RunJournal::Fresh(j) => {
                Simulation::with_journal(policy, &experiment, spec, &none, j).run()
            }
            RunJournal::Resume(r) => {
                Simulation::resume(policy, &experiment, spec, &none, r).map_err(resumed)?.run()
            }
        }
    };
    report(&result, &experiment);
    Ok(())
}

fn cmd_trace(args: &Args) -> Result<(), String> {
    let workload = make_workload(args.get("--workload").unwrap_or("cifar10"))?;
    let seed: u64 = args.parse_num("--seed", 42)?;
    let n_configs: usize = args.parse_num("--configs", 100)?;
    let out = args.get("--out").unwrap_or("traces.csv");
    let traces = TraceSet::generate(workload.as_ref(), n_configs, seed);
    traces.write_to_path(out).map_err(|e| e.to_string())?;
    println!("wrote {} traces of {} to {out}", traces.len(), workload.name());
    Ok(())
}

fn cmd_replay(args: &Args) -> Result<(), String> {
    let file = args.get("--file").ok_or("replay needs --file")?;
    let traces = TraceSet::read_from_path(file).map_err(|e| e.to_string())?;
    let workload = make_workload(args.get("--workload").unwrap_or(&traces.workload_name))?;
    let seed: u64 = args.parse_num("--seed", 42)?;
    let machines: usize = args.parse_num("--machines", 4)?;
    if machines == 0 {
        return Err("--machines: a cluster needs at least one machine".into());
    }
    let tmax: f64 = args.parse_num("--tmax-hours", 24.0)?;

    let experiment = ExperimentWorkload::from_traces(
        &traces,
        workload.domain_knowledge(),
        workload.eval_boundary(),
        workload.default_target(),
        workload.suspend_model(),
    );
    let spec = ExperimentSpec::new(machines)
        .with_tmax(SimTime::from_hours(tmax))
        .with_seed(seed)
        .with_stop_on_target(!args.has("--run-all"));
    if experiment.is_empty() {
        return Err(format!("{file}: trace file contains no traces"));
    }
    let mut policy = make_policy(args.get("--policy").unwrap_or("pop"), seed)?;
    println!("replaying {} traces from {file}…", experiment.len());
    let result = run_sim(policy.as_mut(), &experiment, spec);
    report(&result, &experiment);
    Ok(())
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = raw.first().map(String::as_str) else {
        eprint!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let args = match Args::parse(&raw[1..]) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n");
            eprint!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = match command {
        "run" => cmd_run(&args),
        "trace" => cmd_trace(&args),
        "replay" => cmd_replay(&args),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}")),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_key_value_pairs_and_flags() {
        let args = parse(&["--workload", "lstm", "--machines", "8", "--live"]).unwrap();
        assert_eq!(args.get("--workload"), Some("lstm"));
        assert_eq!(args.parse_num::<usize>("--machines", 1).unwrap(), 8);
        assert!(args.has("--live"));
        assert!(!args.has("--run-all"));
        assert_eq!(args.parse_num::<u64>("--seed", 42).unwrap(), 42, "default applies");
    }

    #[test]
    fn rejects_missing_values_and_stray_args() {
        assert!(parse(&["--machines"]).is_err());
        assert!(parse(&["oops"]).is_err());
    }

    #[test]
    fn rejects_unparsable_numbers() {
        let args = parse(&["--machines", "lots"]).unwrap();
        assert!(args.parse_num::<usize>("--machines", 1).is_err());
    }

    #[test]
    fn workload_and_policy_factories() {
        for w in ["cifar10", "lunarlander", "lstm", "imagenet22k"] {
            assert!(make_workload(w).is_ok(), "{w}");
        }
        assert!(make_workload("mnist").is_err());
        for p in ["pop", "bandit", "earlyterm", "hyperband", "default"] {
            assert!(make_policy(p, 1).is_ok(), "{p}");
        }
        assert!(make_policy("sota", 1).is_err());
    }
}
