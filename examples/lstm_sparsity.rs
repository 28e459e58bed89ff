//! The §9 "Ongoing Work" scenario: exploring group-lasso λ (plus training
//! hyperparameters) for an LSTM language model while monitoring both
//! perplexity (primary metric) and structured sparsity (secondary metric),
//! with a user-defined *global termination criterion* through the SAP API:
//! stop the whole experiment as soon as any configuration achieves
//! perplexity ≤ 150 **and** sparsity ≥ 35%.
//!
//! ```sh
//! cargo run --release --example lstm_sparsity
//! ```

use hyperdrive::curve::FitPool;
use hyperdrive::framework::{ExperimentSpec, ExperimentWorkload};
use hyperdrive::policies::GlobalCriterionPolicy;
use hyperdrive::pop::{PopConfig, PopPolicy};
use hyperdrive::sim::run_sim;
use hyperdrive::workload::{LstmWorkload, Workload};
use hyperdrive::SimTime;

fn main() {
    let workload = LstmWorkload::new();
    println!(
        "LSTM + group lasso: target perplexity {:.0} (normalized {:.3}), b = {} epochs\n",
        LstmWorkload::denormalize_perplexity(workload.default_target()),
        workload.default_target(),
        workload.eval_boundary()
    );

    // POP's curve predictions aim at the criterion's perplexity bound —
    // otherwise it would prune configurations that satisfy the joint goal
    // but can never reach the headline single-metric target.
    let experiment = ExperimentWorkload::from_workload(&workload, 150, 12)
        .with_target(LstmWorkload::normalize_perplexity(150.0));
    // Disable the plain single-metric stop: the global criterion decides.
    let spec =
        ExperimentSpec::new(8).with_tmax(SimTime::from_hours(48.0)).with_stop_on_target(false);

    let ppl_bound = LstmWorkload::normalize_perplexity(150.0);
    let sparsity_bound = 0.35;
    let mut policy = GlobalCriterionPolicy::new(
        PopPolicy::new(PopConfig::default(), FitPool::new(0), None),
        move |view| {
            let ppl_ok = view.primary.last_value().is_some_and(|v| v >= ppl_bound);
            let sparse_ok =
                view.secondary.and_then(|s| s.last_value()).is_some_and(|s| s >= sparsity_bound);
            ppl_ok && sparse_ok
        },
    );

    let result = run_sim(&mut policy, &experiment, spec);
    match policy.satisfied_by() {
        Some((job, epoch, time)) => {
            let profile = experiment.profile(job);
            let ppl = LstmWorkload::denormalize_perplexity(profile.value_at(epoch));
            let sparsity = profile.secondary_at(epoch).unwrap_or(0.0);
            println!("criterion satisfied by {job} at epoch {epoch} after {time}:");
            println!("  perplexity {ppl:.1} (<= 150), sparsity {:.0}% (>= 35%)", sparsity * 100.0);
            let lambda = experiment.jobs[job.raw() as usize]
                .config
                .get_f64("lambda")
                .expect("lstm configs carry lambda");
            println!("  winning lambda = {lambda:.2e}");
        }
        None => println!("no configuration satisfied the joint criterion within Tmax"),
    }
    println!(
        "\nepochs executed: {} | terminated early: {} | experiment time: {}",
        result.total_epochs,
        result.terminated_early(),
        result.end_time
    );
}
