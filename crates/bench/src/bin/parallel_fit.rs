//! Benchmarks the deterministic parallel curve-fitting service (§5.2):
//! wall-clock of one cold batch on a 1-worker pool vs a 4-worker pool,
//! plus the warm (fully cached) pass, with a bitwise determinism
//! cross-check between the two pools. Emits `BENCH_parallel_fit.json`
//! into the results directory.

use std::io::Write as _;
use std::time::Instant;

use hyperdrive_bench::{print_table, quick_mode, results_dir};
use hyperdrive_curve::{ExceedanceQuery, FitRequest, FitService, PredictorConfig};
use hyperdrive_types::{JobId, LearningCurve, MetricKind, SimTime};

/// A spread of saturating curves with varied ceilings, rates, and lengths,
/// each asked a query the way POP asks its remaining-time grid, so the
/// pools stream their draws to the waiting caller.
fn synthetic_requests(n: usize) -> Vec<FitRequest> {
    (0..n)
        .map(|j| {
            let limit = 0.35 + 0.5 * (j % 7) as f64 / 7.0;
            let rate = 0.4 + 0.08 * (j % 9) as f64;
            let epochs = 10 + (j % 5) as u32 * 2;
            let mut curve = LearningCurve::new(MetricKind::Accuracy);
            for e in 1..=epochs {
                let x = f64::from(e);
                curve.push(e, SimTime::from_secs(60.0 * x), limit - (limit - 0.08) * x.powf(-rate));
            }
            let query = Some(ExceedanceQuery::new(&[40, 80, 120], 0.6));
            FitRequest { job: JobId::new(j as u64), curve, horizon: 120, query }
        })
        .collect()
}

fn main() {
    let quick = quick_mode();
    let curves = if quick { 16 } else { 64 };
    let config = if quick { PredictorConfig::test() } else { PredictorConfig::fast() };
    let seed = 7u64;
    let threads = 4usize;
    let requests = synthetic_requests(curves);

    let serial_service = FitService::new(config, seed, 1);
    let t = Instant::now();
    let serial_out = serial_service.fit_batch(&requests);
    let serial_secs = t.elapsed().as_secs_f64();

    let pool = FitService::new(config, seed, threads);
    let t = Instant::now();
    let pool_out = pool.fit_batch(&requests);
    let pool_secs = t.elapsed().as_secs_f64();

    // The whole point of per-config seed derivation: worker count must not
    // leak into the posteriors. Enforce it on every benchmarked fit.
    for (a, b) in serial_out.iter().zip(&pool_out) {
        let (a, b) = (a.result.as_ref().expect("fit ok"), b.result.as_ref().expect("fit ok"));
        assert_eq!(a.draws(), b.draws(), "pool width changed a posterior");
    }
    // ... nor into the streamed answers, which are the finished
    // posterior's own.
    for ((a, b), r) in serial_out.iter().zip(&pool_out).zip(&requests) {
        let query = r.query.as_ref().expect("every request asks");
        let asked = query.answer(a.result.as_ref().expect("fit ok"));
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(a.exceedance.as_ref().expect("answered")), bits(&asked));
        assert_eq!(bits(b.exceedance.as_ref().expect("answered")), bits(&asked));
    }

    let t = Instant::now();
    let warm_out = pool.fit_batch(&requests);
    let warm_secs = t.elapsed().as_secs_f64();
    assert!(warm_out.iter().all(|o| o.cached), "warm pass must be all cache hits");
    let stats = pool.stats();

    let speedup = serial_secs / pool_secs.max(1e-9);
    print_table(
        "parallel fit service",
        &["curves", "threads", "serial_s", "pool_s", "speedup", "warm_s", "hit_rate"],
        &[vec![
            curves.to_string(),
            threads.to_string(),
            format!("{serial_secs:.3}"),
            format!("{pool_secs:.3}"),
            format!("{speedup:.2}x"),
            format!("{warm_secs:.4}"),
            format!("{:.3}", stats.hit_rate()),
        ]],
    );
    // Who ran the offered Nelder–Mead init halves: the blocked caller
    // (`helped`) or, when it was busy, the worker that offered them.
    let help_row = |threads: usize, s: hyperdrive_curve::FitStats| {
        vec![
            threads.to_string(),
            s.halves_offered.to_string(),
            s.halves_helped.to_string(),
            format!("{:.3}", s.help_nanos as f64 / 1e6),
        ]
    };
    print_table(
        "init halves the caller ran",
        &["threads", "offered", "helped", "help_ms"],
        &[help_row(1, serial_service.stats()), help_row(threads, stats)],
    );

    let path = results_dir().join("BENCH_parallel_fit.json");
    let mut f = std::fs::File::create(&path).expect("json file creatable");
    write!(
        f,
        "{{\n  \"bench\": \"parallel_fit\",\n  \"curves\": {curves},\n  \
         \"threads\": {threads},\n  \"serial_secs\": {serial_secs:.6},\n  \
         \"pool_secs\": {pool_secs:.6},\n  \"speedup\": {speedup:.3},\n  \
         \"warm_secs\": {warm_secs:.6},\n  \"fits\": {},\n  \
         \"cache_hits\": {},\n  \"cache_hit_rate\": {:.4},\n  \
         \"halves_offered\": {},\n  \"halves_helped\": {},\n  \
         \"help_secs\": {:.6},\n  \"deterministic\": true\n}}\n",
        stats.fits,
        stats.cache_hits,
        stats.hit_rate(),
        stats.halves_offered,
        stats.halves_helped,
        stats.help_nanos as f64 / 1e9,
    )
    .expect("json write");
    println!("wrote {}", path.display());
}
