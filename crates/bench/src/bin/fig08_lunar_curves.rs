//! Figure 8: performance of 15 randomly selected LunarLander
//! configurations over 20,000 episode trials.
//!
//! Paper observations: many jobs learn for a while and then suffer a
//! "learning-crash" to the −100 non-learning reward; over 50% of jobs are
//! non-learning; rewards range roughly over [−500, 300].

use hyperdrive_bench::{print_table, quick_mode, write_csv};
use hyperdrive_types::DomainKnowledge;
use hyperdrive_workload::{LunarWorkload, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let n_plot = 15;
    let n_stats = if quick_mode() { 40 } else { 200 };
    let workload = LunarWorkload::new();
    let norm = DomainKnowledge::lunar_lander().normalizer;
    let mut rng = StdRng::seed_from_u64(88);

    // The 15 plotted configurations.
    let profiles: Vec<_> = (0..n_plot)
        .map(|i| workload.profile(&workload.space().sample(&mut rng), 800 + i as u64))
        .collect();
    write_csv(
        "fig08_lunar_curves.csv",
        "config,episode_trials,reward",
        profiles.iter().enumerate().flat_map(|(i, p)| {
            (1..=p.max_epochs())
                .map(move |b| format!("{i},{},{:.1}", b * 100, norm.denormalize(p.value_at(b))))
        }),
    );

    // Population statistics over a larger sample.
    let mut non_learning = 0;
    let mut reached_solved = 0;
    let mut min_reward = f64::INFINITY;
    let mut max_reward = f64::NEG_INFINITY;
    for i in 0..n_stats {
        let p = workload.profile(&workload.space().sample(&mut rng), 2_000 + i as u64);
        let tail: Vec<f64> =
            p.values().skip(p.values().len() - 10).map(|v| norm.denormalize(v)).collect();
        let tail_mean = hyperdrive_types::stats::mean(&tail).unwrap();
        if tail_mean <= -85.0 {
            non_learning += 1;
        }
        for v in p.values() {
            let r = norm.denormalize(v);
            min_reward = min_reward.min(r);
            max_reward = max_reward.max(r);
        }
        if p.values().any(|v| norm.denormalize(v) >= 200.0) {
            reached_solved += 1;
        }
    }

    print_table(
        "Figure 8: LunarLander configuration population",
        &["metric", "measured", "paper"],
        &[
            vec![
                "non-learning jobs".into(),
                format!("{:.0}%", 100.0 * non_learning as f64 / n_stats as f64),
                "over 50%".into(),
            ],
            vec![
                "reward range observed".into(),
                format!("[{min_reward:.0}, {max_reward:.0}]"),
                "[-500, 300]".into(),
            ],
            vec![
                "jobs touching solved reward (200)".into(),
                format!("{:.0}%", 100.0 * reached_solved as f64 / n_stats as f64),
                "few".into(),
            ],
            vec![
                "episode trials per config".into(),
                format!("{}", profiles[0].max_epochs() * 100),
                "20,000".into(),
            ],
        ],
    );
}
