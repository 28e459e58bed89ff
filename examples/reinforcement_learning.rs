//! Reinforcement-learning exploration: LunarLander with an explicit
//! "solved" condition (mean reward 200 over 100 consecutive trials) and
//! min-max reward normalization, as in §6.3 of the paper.
//!
//! ```sh
//! cargo run --release --example reinforcement_learning
//! ```

use hyperdrive::curve::FitPool;
use hyperdrive::framework::{ExperimentSpec, ExperimentWorkload};
use hyperdrive::pop::{PopConfig, PopPolicy};
use hyperdrive::sim::run_sim;
use hyperdrive::workload::{LunarWorkload, Workload};
use hyperdrive::{DomainKnowledge, SimTime};

fn main() {
    let workload = LunarWorkload::new();
    let dk = workload.domain_knowledge();
    let norm = DomainKnowledge::lunar_lander().normalizer;

    println!("LunarLander domain knowledge:");
    println!("  rewards min-max normalized from [{}, {}] (Eq. 4)", norm.min(), norm.max());
    println!(
        "  kill threshold: raw reward {} (normalized {:.3})",
        norm.denormalize(dk.kill_threshold),
        dk.kill_threshold
    );
    let solved = dk.solved.expect("lunar lander defines a solved condition");
    println!(
        "  solved: mean reward {} over {} block(s) of 100 trials\n",
        norm.denormalize(solved.target),
        solved.window
    );

    // 100 configurations on 15 machines — the paper's RL testbed shape.
    let experiment = ExperimentWorkload::from_workload(&workload, 100, 5);
    let spec = ExperimentSpec::new(15).with_tmax(SimTime::from_hours(24.0));

    let mut pop = PopPolicy::new(PopConfig::default(), FitPool::new(0), None);
    let result = run_sim(&mut pop, &experiment, spec);

    match result.time_to_target {
        Some(t) => println!("solved LunarLander in {:.0} minutes", t.as_mins()),
        None => println!("no configuration solved the environment within Tmax"),
    }
    let crashed_or_poor = result.terminated_early();
    println!(
        "jobs terminated early (non-learners and learning-crashes): {crashed_or_poor} / {}",
        experiment.len()
    );
    println!(
        "CRIU-style suspensions: {} (max latency {:.1}s)",
        result.suspend_events.len(),
        result.suspend_events.iter().map(|e| e.cost.latency.as_secs()).fold(0.0f64, f64::max)
    );
}
