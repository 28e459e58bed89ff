//! Figure 1: validation accuracy of 50 randomly selected CIFAR-10
//! configurations as a function of experiment time.
//!
//! Paper observations this run should reproduce: curves span ~120
//! iterations of ~1 minute each; only about 3 of 50 configurations exceed
//! 75% accuracy; the majority never exceed 20%.

use hyperdrive_bench::{print_table, quick_mode, write_csv};
use hyperdrive_workload::{CifarWorkload, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let n_configs = if quick_mode() { 10 } else { 50 };
    let workload = CifarWorkload::new();
    let mut rng = StdRng::seed_from_u64(1);

    let profiles: Vec<_> = (0..n_configs)
        .map(|i| {
            let config = workload.space().sample(&mut rng);
            workload.profile(&config, 100 + i as u64)
        })
        .collect();

    let mut rows = Vec::new();
    for (i, p) in profiles.iter().enumerate() {
        let mut elapsed = 0.0;
        for e in 1..=p.max_epochs() {
            elapsed += p.epoch_duration(e).as_mins();
            rows.push(format!("{i},{e},{elapsed:.3},{:.4}", p.value_at(e)));
        }
    }
    let path = write_csv("fig01_cifar_curves.csv", "config,epoch,time_min,accuracy", rows);

    let finals: Vec<f64> = profiles.iter().map(|p| p.final_value()).collect();
    let above75 = finals.iter().filter(|v| **v > 0.75).count();
    let below20 = finals.iter().filter(|v| **v < 0.20).count();
    let mean_epoch_mins = profiles.iter().map(|p| p.mean_epoch_duration().as_mins()).sum::<f64>()
        / profiles.len() as f64;

    print_table(
        "Figure 1: 50 random CIFAR-10 configurations",
        &["metric", "measured", "paper"],
        &[
            vec!["configs".into(), n_configs.to_string(), "50".into()],
            vec!["exceeding 75% accuracy".into(), above75.to_string(), "3".into()],
            vec![
                "below 20% accuracy".into(),
                format!("{below20} ({:.0}%)", 100.0 * below20 as f64 / finals.len() as f64),
                "majority".into(),
            ],
            vec![
                "mean epoch duration".into(),
                format!("{mean_epoch_mins:.2} min"),
                "~1 min".into(),
            ],
            vec![
                "iterations per config".into(),
                profiles[0].max_epochs().to_string(),
                "~120".into(),
            ],
        ],
    );
    println!("\nseries written to {}", path.display());
}
