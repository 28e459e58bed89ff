//! Benchmarks the vectorized likelihood kernel every fit runs: cold per-fit
//! latency of the fused-arena path, heap allocations on it — per MCMC
//! step, per lockstep Nelder–Mead init, per
//! remaining-time estimate and single-epoch query, per streamed chunk of a
//! fit that carries its query — and forced-scalar vs dispatched
//! bit-identity of both the raw kernels and the fused log-posterior
//! (against the per-proposal reference evaluator).
//! Emits `BENCH_fit_simd.json` into the results directory.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use hyperdrive_bench::{print_table, quick_mode, results_dir};
use hyperdrive_core::{ert_query, estimate_remaining_time};
use hyperdrive_curve::batch::MAX_SLOTS;
use hyperdrive_curve::fastpath::{FastGrid, PosteriorEvalFast};
use hyperdrive_curve::fit::{build_initial_walkers, fit_families, Decline};
use hyperdrive_curve::mcmc::{sample_into, McmcScratch, SamplerOptions};
use hyperdrive_curve::nelder_mead::{NelderMeadOptions, NmScratch};
use hyperdrive_curve::vmath::{self, Backend};
use hyperdrive_curve::{
    CurveObjective, CurvePredictor, ExceedanceQuery, FitRequest, FitScratch, FitService,
    FusedPosterior, FusedScratch, PredictorConfig, ALL_FAMILIES,
};
use hyperdrive_types::{JobId, LearningCurve, MetricKind, SimTime};
use hyperdrive_workload::{CifarWorkload, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Counts heap allocation events (alloc + realloc) so the bench can pin
/// the zero-allocations-per-MCMC-step property on the fast path too.
struct CountingAlloc;

static ALLOC_EVENTS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn alloc_events() -> u64 {
    ALLOC_EVENTS.load(Ordering::Relaxed)
}

/// Observed prefixes of real CIFAR surface configurations.
fn cifar_curves(n: usize, epochs: u32) -> Vec<LearningCurve> {
    let workload = CifarWorkload::new();
    let mut rng = StdRng::seed_from_u64(1);
    (0..n)
        .map(|i| {
            let config = workload.space().sample(&mut rng);
            let profile = workload.profile(&config, 100 + i as u64);
            let mut curve = LearningCurve::new(MetricKind::Accuracy);
            let mut elapsed = 0.0;
            for e in 1..=epochs.min(profile.max_epochs()) {
                elapsed += profile.epoch_duration(e).as_secs();
                curve.push(e, SimTime::from_secs(elapsed), profile.value_at(e));
            }
            curve
        })
        .collect()
}

/// Asserts two slices are bitwise equal (NaN-safe), returning the count of
/// compared lanes.
fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) -> usize {
    assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: lane {i} diverged ({x:e} vs {y:e})");
    }
    a.len()
}

fn main() {
    let quick = quick_mode();
    let n_curves = if quick { 8 } else { 24 };
    let reps = if quick { 2 } else { 3 };
    let config = if quick { PredictorConfig::test() } else { PredictorConfig::fast() };
    let horizon = 120u32;
    let curves = cifar_curves(n_curves, 20);
    let dispatched = vmath::active_backend();

    // ---- Kernel-level bit identity: the forced-scalar loop and the
    // autovectorized dispatch target must produce identical bit patterns on
    // every input, including NaN / negatives / denormal-adjacent values.
    let mut rng = StdRng::seed_from_u64(42);
    let mut kernel_lanes = 0usize;
    for len in [1usize, 7, 64, 1023] {
        let base: Vec<f64> = (0..len)
            .map(|i| match i % 5 {
                0 => rng.gen_range(-720.0..720.0),
                1 => rng.gen_range(1e-12..1e12),
                2 => -rng.gen_range(0.0..10.0),
                3 => f64::NAN,
                _ => rng.gen_range(0.0..1.5),
            })
            .collect();
        let mut s = base.clone();
        let mut v = base.clone();
        vmath::vexp_with(Backend::Scalar, &mut s);
        vmath::vexp_with(Backend::Simd, &mut v);
        kernel_lanes += assert_bits_eq(&s, &v, "vexp");
        let mut s = base.clone();
        let mut v = base.clone();
        vmath::vln_with(Backend::Scalar, &mut s);
        vmath::vln_with(Backend::Simd, &mut v);
        kernel_lanes += assert_bits_eq(&s, &v, "vln");
        let mut s = base.clone();
        let mut v = base.clone();
        vmath::vpow_with(Backend::Scalar, &mut s, 1.37);
        vmath::vpow_with(Backend::Simd, &mut v, 1.37);
        kernel_lanes += assert_bits_eq(&s, &v, "vpow");
    }

    // ---- Full-posterior bit identity: the fused evaluator scoring the
    // whole initial ensemble in one call, forced-scalar vs dispatched,
    // against the per-proposal reference over realistic walker positions.
    let obs: Vec<(f64, f64)> =
        curves[0].points().iter().map(|p| (f64::from(p.epoch), p.value)).collect();
    let mut grid = FastGrid::new();
    for &(x, _) in &obs {
        grid.push(x);
    }
    grid.push(f64::from(horizon));
    let ys: Vec<f64> = obs.iter().map(|&(_, y)| y).collect();
    let mut nm = NmScratch::default();
    let mut fused = FusedScratch::default();
    let mut rng = StdRng::seed_from_u64(7);
    let fits = fit_families(
        &mut FusedPosterior::new(&grid, &ys, &mut fused, dispatched),
        &mut rng,
        &mut nm,
        &mut Decline,
    );
    let init = build_initial_walkers(&fits, config.walkers, &mut rng);
    let flat_init = init.concat();
    let mut lps = [vec![0.0; init.len()], vec![0.0; init.len()]];
    for (backend, out) in [Backend::Scalar, Backend::Simd].into_iter().zip(&mut lps) {
        FusedPosterior::new(&grid, &ys, &mut fused, backend).log_posteriors(&flat_init, out);
    }
    assert_bits_eq(&lps[0], &lps[1], "fused log-posterior between backends");
    let mut means = vec![0.0; ys.len()];
    let mut reference_eval = PosteriorEvalFast::new(&grid, &ys, &mut means);
    let per_proposal: Vec<f64> = init.iter().map(|w| reference_eval.log_posterior(w)).collect();
    let posterior_evals = assert_bits_eq(&lps[0], &per_proposal, "fused vs per-proposal");

    // ---- Cold per-fit latency, the total taken as the minimum over
    // repetitions so load drift cannot skew it.
    let fast = CurvePredictor::new(config.with_seed(7));
    let mut scratch_fast = FitScratch::new();
    // Untimed warm-up sizes the scratch and faults code in.
    let _ = fast.fit_with(&curves[0], horizon, &mut scratch_fast);

    let mut fast_secs = f64::INFINITY;
    for rep in 0..reps {
        let mut rep_fast = 0.0;
        for c in &curves {
            let t = Instant::now();
            let a = fast.fit_with(c, horizon, &mut scratch_fast).expect("fit ok");
            rep_fast += t.elapsed().as_secs_f64();
            if rep == 0 {
                // Determinism: a second fit must reproduce the first
                // draw-for-draw.
                let mut check = FitScratch::new();
                let b = fast.fit_with(c, horizon, &mut check).expect("fit ok");
                assert_eq!(a.draws(), b.draws(), "fast path is nondeterministic");
            }
        }
        fast_secs = fast_secs.min(rep_fast);
    }
    let fast_ms = fast_secs * 1e3 / n_curves as f64;

    // ---- Allocations per MCMC step on the fast path, measured around
    // sample_into with warmed buffers (exactly how fit_with drives it).
    let mut mcmc = McmcScratch::default();
    let opts = SamplerOptions {
        steps: config.steps,
        burn_in_frac: config.burn_in_frac,
        thin: config.thin,
        stretch: 2.0,
    };
    let mut eval = FusedPosterior::new(&grid, &ys, &mut fused, dispatched);
    let mut rng_a = StdRng::seed_from_u64(11);
    let keep = config.max_draws;
    let score = |t: &[f64], lp: &mut [f64]| eval.log_posteriors(t, lp);
    let _ = sample_into(score, &init, opts, keep, &mut rng_a, &mut mcmc, |_| {});
    let mut rng_b = StdRng::seed_from_u64(11);
    let before = alloc_events();
    let score = |t: &[f64], lp: &mut [f64]| eval.log_posteriors(t, lp);
    let _chain = sample_into(score, &init, opts, keep, &mut rng_b, &mut mcmc, |_| {});
    let alloc_delta = alloc_events() - before;
    let proposals = (config.steps * config.walkers) as u64;
    let allocs_per_step = alloc_delta as f64 / proposals as f64;
    assert_eq!(alloc_delta, 0, "fast MCMC inner loop allocated {alloc_delta} times");

    // ---- The same for the stages either side of the sampler. The
    // lockstep Nelder–Mead init: the fit's 33 starts (each family's default
    // plus two random points in its box) through the driver and the
    // arena's least-squares objective, warmed by one identical pass.
    let starts: Vec<(usize, Vec<f64>)> = ALL_FAMILIES
        .iter()
        .enumerate()
        .flat_map(|(k, family)| {
            let random = |rng: &mut StdRng| -> Vec<f64> {
                family.bounds().iter().map(|(lo, hi)| rng.gen_range(*lo..*hi)).collect()
            };
            [(k, family.default_params()), (k, random(&mut rng)), (k, random(&mut rng))]
        })
        .collect();
    let mut nm_evals = 0;
    let mut nm_alloc_delta = 0;
    for _warm_then_counted in 0..2 {
        let before = alloc_events();
        nm.begin(NelderMeadOptions { max_evals: 300, ..Default::default() });
        for (k, x0) in &starts {
            nm.push_start(*k, x0);
        }
        nm.minimize_all(|families, points, out| eval.least_squares(families, points, out));
        nm_alloc_delta = alloc_events() - before;
        nm_evals = (0..starts.len()).map(|run| nm.evals(run)).sum::<usize>();
    }
    assert_eq!(nm_alloc_delta, 0, "lockstep Nelder–Mead init allocated {nm_alloc_delta} times");

    // A boundary decision's queries on a fitted posterior: POP's
    // remaining-time estimate and EarlyTerm's single-epoch probability,
    // on this thread's reused query grid and arena.
    let posterior = fast.fit_with(&curves[0], horizon, &mut scratch_fast).expect("fit ok");
    let query = || {
        let est = estimate_remaining_time(
            &posterior,
            0.77,
            horizon - posterior.last_epoch(),
            SimTime::from_secs(60.0),
            SimTime::from_hours(5.0),
        );
        est.confidence + posterior.prob_at_least(horizon, 0.77)
    };
    let warm_answer = query();
    let before = alloc_events();
    let counted_answer = query();
    let query_alloc_delta = alloc_events() - before;
    assert_eq!(warm_answer.to_bits(), counted_answer.to_bits());
    assert_eq!(query_alloc_delta, 0, "posterior queries allocated {query_alloc_delta} times");

    // ---- A streamed fit through the service: the worker hands each run
    // of 64 kept rows to the `fit_batch` waiting for it in a row buffer
    // the pool recycles, so a longer stream allocates nothing more. Two
    // services differing only in how many chunks a fit streams (one, six)
    // each warm up on three batches — the worker's scratch, this thread's
    // query arena, the pool's spare buffers — and the fourth is counted.
    let streamed_allocs = |max_draws: usize, query: Option<ExceedanceQuery>| -> u64 {
        let service =
            FitService::with_shared_cache(PredictorConfig { max_draws, ..config }, 7, 1, None);
        let mut counted = 0;
        for (j, c) in curves.iter().take(4).enumerate() {
            let request =
                FitRequest { job: JobId::new(j as u64), curve: c.clone(), horizon, query };
            let before = alloc_events();
            let outcome = service.fit_batch(&[request]).remove(0);
            counted = alloc_events() - before;
            assert_eq!(outcome.exceedance.is_some(), query.is_some());
            assert_eq!(outcome.result.expect("fit ok").n_draws(), max_draws);
        }
        assert_eq!(service.stats().streamed_fits, if query.is_some() { 4 } else { 0 });
        counted
    };
    let ert_grid = ert_query(20, horizon - 20, 0.77);
    let (one_chunk, six_chunks) = (MAX_SLOTS + 1, 6 * MAX_SLOTS + 1);
    let streamed_one = streamed_allocs(one_chunk, Some(ert_grid));
    let streamed_six = streamed_allocs(six_chunks, Some(ert_grid));
    let plain_six = streamed_allocs(six_chunks, None);
    assert_eq!(
        streamed_six, streamed_one,
        "five more streamed chunks allocated {streamed_six} vs {streamed_one} times"
    );
    let chunk_alloc_delta = streamed_six - streamed_one;
    // What carrying the query costs a whole batch over a query-less one:
    // the accumulator's map entry and the answer vector.
    let streamed_over_plain = streamed_six.saturating_sub(plain_six);
    assert!(streamed_over_plain <= 4, "a streamed batch allocated {streamed_over_plain} more");

    print_table(
        "vectorized likelihood kernel",
        &[
            "curves",
            "backend",
            "fast_ms/fit",
            "allocs/step",
            "allocs/nm_init",
            "allocs/query",
            "allocs/chunk",
        ],
        &[vec![
            n_curves.to_string(),
            format!("{dispatched:?}"),
            format!("{fast_ms:.2}"),
            format!("{allocs_per_step:.3}"),
            nm_alloc_delta.to_string(),
            query_alloc_delta.to_string(),
            chunk_alloc_delta.to_string(),
        ]],
    );
    println!(
        "bit-identity: {kernel_lanes} kernel lanes + {posterior_evals} posterior evals, \
         scalar == {dispatched:?}"
    );

    let path = results_dir().join("BENCH_fit_simd.json");
    let mut f = std::fs::File::create(&path).expect("json file creatable");
    write!(
        f,
        r#"{{
  "curves": {n_curves},
  "quick": {quick},
  "timing": "min over {reps} repetitions",
  "dispatched_backend": "{dispatched:?}",
  "per_fit_fast_ms": {fast_ms:.4},
  "mcmc_proposals_measured": {proposals},
  "mcmc_alloc_events": {alloc_delta},
  "allocs_per_mcmc_step": {allocs_per_step:.6},
  "nm_init_evals_measured": {nm_evals},
  "nm_init_alloc_events": {nm_alloc_delta},
  "query_alloc_events": {query_alloc_delta},
  "streamed_chunk_alloc_events": {chunk_alloc_delta},
  "streamed_batch_alloc_events": {streamed_six},
  "plain_batch_alloc_events": {plain_six},
  "bit_identity_kernel_lanes": {kernel_lanes},
  "bit_identity_posterior_evals": {posterior_evals},
  "bit_identical_scalar_vs_dispatched": true
}}
"#
    )
    .expect("json write");
    println!("wrote {}", path.display());
}
