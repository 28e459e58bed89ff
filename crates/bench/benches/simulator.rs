//! Discrete-event simulator throughput: how fast the §7 engine replays
//! experiments (relevant because the sensitivity analyses simulate
//! thousands of experiment-hours).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hyperdrive_framework::{DefaultPolicy, ExperimentSpec, ExperimentWorkload};
use hyperdrive_sim::run_sim;
use hyperdrive_workload::CifarWorkload;

fn bench_replay_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_replay");
    for (n_configs, epochs) in [(20usize, 30u32), (50, 120), (100, 120)] {
        let workload = CifarWorkload::new().with_max_epochs(epochs);
        let experiment = ExperimentWorkload::from_workload(&workload, n_configs, 1);
        let spec = ExperimentSpec::new(8).with_stop_on_target(false);
        let total_epochs = (n_configs as u64) * u64::from(epochs);
        group.throughput(Throughput::Elements(total_epochs));
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{n_configs}x{epochs}")),
            &experiment,
            |b, ew| {
                b.iter(|| {
                    let mut policy = DefaultPolicy::new();
                    run_sim(&mut policy, ew, spec)
                });
            },
        );
    }
    group.finish();
}

fn bench_event_queue(c: &mut Criterion) {
    use hyperdrive_sim::EventQueue;
    use hyperdrive_types::SimTime;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    // Fill from empty, growth reallocations included, then drain.
    c.bench_function("event_queue_10k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..10_000u64 {
                // Scatter times deterministically.
                let t = ((i.wrapping_mul(2654435761)) % 100_000) as f64;
                q.schedule(SimTime::from_secs(t), i);
            }
            let mut count = 0u64;
            while q.pop().is_some() {
                count += 1;
            }
            count
        });
    });

    // The shape the simulator runs: a pre-sized queue at a steady depth of
    // one pending event per running job, each pop followed by the schedule
    // of that job's next report an epoch later.
    const CYCLES: u64 = 100_000;
    let mut group = c.benchmark_group("event_queue_cycle");
    group.throughput(Throughput::Elements(CYCLES));
    for pending in [1_000usize, 10_000] {
        let mut rng = StdRng::seed_from_u64(pending as u64);
        let mut q: EventQueue<u64> = EventQueue::with_capacity(pending + 1);
        for i in 0..pending {
            q.schedule(SimTime::from_secs(rng.gen_range(0.0..60.0)), i as u64);
        }
        group.bench_function(BenchmarkId::from_parameter(pending), |b| {
            b.iter(|| {
                for _ in 0..CYCLES {
                    let (at, event) = q.pop().expect("the queue stays full");
                    q.schedule(at + SimTime::from_secs(rng.gen_range(30.0..90.0)), event);
                }
                q.len()
            });
        });
    }
    group.finish();
}

/// Steady-state `Simulation::step` under `DefaultPolicy` (zero fits) with
/// twice as many jobs as machines: the queue, the engine and the managers
/// alone, every step landing on a different job's state — so the growth of
/// the per-step cost with the machine count is the cache footprint of that
/// state.
fn bench_engine_step(c: &mut Criterion) {
    use hyperdrive_sim::Simulation;

    let mut group = c.benchmark_group("engine_step");
    group.sample_size(20);
    for machines in [1_000usize, 10_000] {
        let workload = CifarWorkload::new().with_max_epochs(120);
        let experiment = ExperimentWorkload::from_workload(&workload, 2 * machines, 1);
        let spec = ExperimentSpec::new(machines).with_stop_on_target(false);
        let mut policy = DefaultPolicy::new();
        let mut sim = Simulation::new(&mut policy, &experiment, spec);
        // Warm up with one report per machine. The run is 2 x 120 steps
        // per machine; the samples take 20 x 10 of them, so they span the
        // first wave of jobs completing and the second starting.
        assert_eq!(sim.step_n(machines), machines);
        let steps = 10 * machines;
        group.throughput(Throughput::Elements(steps as u64));
        group.bench_function(BenchmarkId::from_parameter(machines), |b| {
            b.iter(|| assert_eq!(sim.step_n(steps), steps, "the run outlasts the samples"));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_replay_throughput, bench_event_queue, bench_engine_step);
criterion_main!(benches);
