//! The lockstep Nelder–Mead driver (`NmScratch`) against its oracle
//! (`nelder_mead::minimize`): every run of every batch must return the
//! oracle's point, value **and** evaluation count bit for bit, however many
//! other runs share its rounds, and the lockstep family init built on it
//! must reproduce the oracle's `fit_all_families` — whichever thread claims
//! the half of it another thread may run ([`ShareInit`]).

use std::thread::ScopedJoinHandle;
use std::time::{SystemTime, UNIX_EPOCH};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use hyperdrive::curve::ensemble::{self, dimension};
use hyperdrive::curve::fastpath::FastGrid;
use hyperdrive::curve::fit::{
    fit_all_families, fit_families, Decline, FamilyFit, InitHalf, ShareInit,
};
use hyperdrive::curve::nelder_mead::{minimize, NelderMeadOptions, NmScratch, MAX_DIM};
use hyperdrive::curve::vmath::Backend;
use hyperdrive::curve::{
    sequential_fit, CurveObjective, FitPool, FitRequest, FitService, FusedPosterior, FusedScratch,
    ModelFamily, PredictorConfig, ALL_FAMILIES,
};
use hyperdrive::workload::{CifarWorkload, LunarWorkload, Workload};
use hyperdrive::{JobId, LearningCurve, MetricKind, SimTime};

/// A curve prefix of one sampled configuration, as `(epoch, value)`.
fn prefix(workload: &dyn Workload, seed: u64, len: u32) -> Vec<(f64, f64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let profile = workload.profile(&workload.space().sample(&mut rng), seed);
    (1..=len).map(|e| (f64::from(e), profile.value_at(e))).collect()
}

/// The family least-squares objective from the public model API: box
/// penalty, clamp, mean squared residual — `+inf` or NaN where the family
/// diverges (left as the family returns it, so the driver's own cleaning
/// of non-finite values is exercised).
fn objective(family: ModelFamily, obs: &[(f64, f64)], params: &[f64]) -> f64 {
    let mut penalty = 0.0;
    let mut clamped = params.to_vec();
    for (p, (lo, hi)) in clamped.iter_mut().zip(family.bounds()) {
        if *p < *lo {
            penalty += (lo - *p) * (lo - *p) * 100.0;
        } else if *p > *hi {
            penalty += (*p - hi) * (*p - hi) * 100.0;
        }
        *p = p.clamp(*lo, *hi);
    }
    let sse: f64 = obs.iter().map(|&(x, y)| (y - family.eval(x, &clamped)).powi(2)).sum();
    sse / obs.len() as f64 + penalty
}

/// Runs `starts` (tag → start) through one lockstep batch and through the
/// oracle one at a time, asserting bitwise agreement per run. Returns the
/// evaluation counts.
fn assert_lockstep_is_minimize(
    nm: &mut NmScratch,
    opts: NelderMeadOptions,
    starts: &[Vec<f64>],
    f: impl Fn(usize, &[f64]) -> f64,
) -> Vec<usize> {
    nm.begin(opts);
    for (tag, x0) in starts.iter().enumerate() {
        nm.push_start(tag, x0);
    }
    nm.minimize_all(|tags, points, out| {
        for ((&tag, point), o) in tags.iter().zip(points.chunks_exact(MAX_DIM)).zip(out) {
            let n = starts[tag].len();
            assert!(point[n..].iter().all(|&pad| pad == 0.0), "padding must stay zero");
            *o = f(tag, &point[..n]);
        }
    });
    starts
        .iter()
        .enumerate()
        .map(|(run, x0)| {
            let mut evals = 0;
            let (x, fx) = minimize(
                |p| {
                    evals += 1;
                    f(run, p)
                },
                x0,
                opts,
            );
            let (lx, lf) = nm.best(run);
            assert_eq!(lf.to_bits(), fx.to_bits(), "run {run}: value {lf} vs {fx}");
            assert_eq!(lx.len(), x.len());
            for (a, b) in lx.iter().zip(&x) {
                assert_eq!(a.to_bits(), b.to_bits(), "run {run}: point {lx:?} vs {x:?}");
            }
            assert_eq!(nm.evals(run), evals, "run {run}: evaluation count");
            evals
        })
        .collect()
}

/// 32 curves × 11 families × 3 starts = 1 056 (family, start, curve)
/// cases, each curve's 33 runs — dimensions 2, 3 and 4 mixed — sharing
/// one lockstep batch, under the fit's own options.
#[test]
fn every_family_start_curve_run_is_bitwise_the_oracle() {
    let opts = NelderMeadOptions { max_evals: 300, ..Default::default() };
    let mut nm = NmScratch::default();
    let mut rng = StdRng::seed_from_u64(17);
    let (mut cases, mut diverged) = (0, 0);
    for c in 0..32u64 {
        let obs = if c % 4 == 3 {
            prefix(&LunarWorkload::new(), 900 + c, 12 + 3 * c as u32)
        } else {
            prefix(&CifarWorkload::new(), 100 + c, 6 + c as u32)
        };
        let mut starts = Vec::new();
        for family in ALL_FAMILIES {
            starts.push(family.default_params().to_vec());
            for _ in 0..2 {
                starts
                    .push(family.bounds().iter().map(|(lo, hi)| rng.gen_range(*lo..*hi)).collect());
            }
        }
        let family_of = |tag: usize| ALL_FAMILIES[tag / 3];
        // A third of the curves also poison a slab of parameter space with
        // NaN, so non-finite objective values reach every phase.
        let poisoned = c % 3 == 0;
        let f = |tag: usize, p: &[f64]| {
            let family = family_of(tag);
            let (lo, hi) = family.bounds()[0];
            if poisoned && p[0] > lo + 0.55 * (hi - lo) && p[0] < lo + 0.6 * (hi - lo) {
                return f64::NAN;
            }
            objective(family, &obs, p)
        };
        diverged += starts.iter().enumerate().filter(|(t, s)| !f(*t, s).is_finite()).count();
        let evals = assert_lockstep_is_minimize(&mut nm, opts, &starts, f);
        assert!(evals.iter().all(|&e| e >= 3), "every run evaluates its initial simplex");
        cases += evals.len();
    }
    assert!(cases >= 1000, "only {cases} cases");
    assert!(diverged > 0, "no start hit a non-finite objective value");
}

/// The edges of the state machine: a constant objective converges on
/// `f_tol` with nothing but the initial round; a budget below the initial
/// simplex still evaluates it; an objective that worsens with every call
/// shrinks on every iteration and runs out of budget mid-shrink; a
/// one-dimensional run; and all of them sharing rounds.
#[test]
fn edge_runs_share_rounds_and_still_match_the_oracle() {
    let mut nm = NmScratch::default();
    let starts = [
        vec![0.3, -1.0, 2.0],      // 0: constant → converges in round one
        vec![1.0, 2.0, 3.0],       // 1: ever-worsening → shrink every iteration
        vec![5.0],                 // 2: one-dimensional quadratic
        vec![0.0, 0.0],            // 3: zero start (absolute initial step)
        vec![2.0, -3.0, 0.5, 1.5], // 4: always NaN
        vec![1.5, 0.5, -0.5, 2.5], // 5: four-dimensional bowl
    ];
    for max_evals in [2, 7, 8, 9, 40, 300] {
        let opts = NelderMeadOptions { max_evals, ..Default::default() };
        // Per-run call counters make "ever-worsening" a pure function of a
        // run's own evaluation order, which lockstep preserves.
        let calls = std::cell::RefCell::new(vec![0usize; starts.len()]);
        let f = |tag: usize, p: &[f64]| {
            calls.borrow_mut()[tag] += 1;
            match tag {
                0 => 4.25,
                1 => calls.borrow()[tag] as f64,
                2 => (p[0] - 1.0).powi(2),
                3 => (p[0] - 0.2).powi(2) + (p[1] + 0.1).powi(2),
                4 => f64::NAN,
                _ => p.iter().map(|v| (v - 1.0).powi(2)).sum(),
            }
        };
        nm.begin(opts);
        for (tag, x0) in starts.iter().enumerate() {
            nm.push_start(tag, x0);
        }
        nm.minimize_all(|tags, points, out| {
            for ((&tag, point), o) in tags.iter().zip(points.chunks_exact(MAX_DIM)).zip(out) {
                *o = f(tag, &point[..starts[tag].len()]);
            }
        });
        for (run, x0) in starts.iter().enumerate() {
            calls.borrow_mut()[run] = 0;
            let (x, fx) = minimize(|p| f(run, p), x0, opts);
            let (lx, lf) = nm.best(run);
            assert_eq!(lf.to_bits(), fx.to_bits(), "run {run} at budget {max_evals}");
            assert_eq!(lx, &x[..], "run {run} at budget {max_evals}");
            assert_eq!(nm.evals(run), calls.borrow()[run], "run {run} at budget {max_evals}");
        }
        assert_eq!(nm.evals(0), 4, "a flat simplex converges on f_tol after the initial round");
        if max_evals == 7 {
            // n = 3: 4 initial, then reflect + contract + 3 shrunk vertices
            // — the budget check only runs between iterations.
            assert_eq!(nm.evals(1), 9, "the budget ran out mid-shrink");
        }
    }
}

/// The libm objective, one point after another, from the model's public
/// definition: `fit_family`'s penalized least squares (box penalty, clamp a
/// hair inside the box, mean squared residual) and
/// `ensemble::log_posterior`.
struct Libm<'a> {
    obs: &'a [(f64, f64)],
    horizon: f64,
}

impl Libm<'_> {
    /// The summed squared residual: not finite where the family diverges
    /// at some observation.
    fn sse(&self, family: ModelFamily, params: &[f64]) -> f64 {
        let mut sse = 0.0;
        for &(x, y) in self.obs {
            let m = family.eval(x, params);
            sse += (y - m) * (y - m);
        }
        sse
    }
}

impl CurveObjective for Libm<'_> {
    fn log_posteriors(&mut self, thetas: &[f64], out: &mut [f64]) {
        for (theta, lp) in thetas.chunks_exact(dimension()).zip(out) {
            *lp = ensemble::log_posterior(theta, self.obs, self.horizon);
        }
    }

    fn least_squares(&mut self, families: &[usize], points: &[f64], out: &mut [f64]) {
        for ((&k, point), o) in families.iter().zip(points.chunks_exact(MAX_DIM)).zip(out) {
            let family = ALL_FAMILIES[k];
            let params = &point[..family.param_count()];
            let mut penalty = 0.0;
            let mut clamped = params.to_vec();
            let mut finite = true;
            for (p, (lo, hi)) in clamped.iter_mut().zip(family.bounds()) {
                finite &= p.is_finite();
                if *p < *lo {
                    penalty += (lo - *p) * (lo - *p) * 100.0;
                } else if *p > *hi {
                    penalty += (*p - hi) * (*p - hi) * 100.0;
                }
                let margin = (hi - lo) * 1e-6;
                *p = p.clamp(lo + margin, hi - margin);
            }
            let sse = self.sse(family, &clamped);
            *o = if finite && sse.is_finite() {
                sse / self.obs.len() as f64 + penalty
            } else {
                f64::INFINITY
            };
        }
    }

    fn mse(&self, family: ModelFamily, params: &[f64]) -> f64 {
        self.sse(family, params) / self.obs.len() as f64
    }
}

/// The lockstep family init over the libm objective is the oracle's
/// `fit_all_families`, fit for fit: same RNG draws, same winners, same
/// clamped parameters, same MSE.
#[test]
fn lockstep_family_init_reproduces_the_oracle_fits() {
    let mut nm = NmScratch::default();
    for c in 0..6u64 {
        let obs = prefix(&CifarWorkload::new(), 300 + c, 8 + 4 * c as u32);
        let mut libm = Libm { obs: &obs, horizon: 120.0 };

        let mut rng_a = StdRng::seed_from_u64(40 + c);
        let mut rng_b = rng_a.clone();
        let lockstep = fit_families(&mut libm, &mut rng_a, &mut nm, &mut Decline);
        let oracle = fit_all_families(&obs, &mut rng_b);
        assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>(), "the two inits drew differently");
        for (l, o) in lockstep.iter().zip(&oracle) {
            assert_eq!(l.family, o.family);
            assert_eq!(l.mse.to_bits(), o.mse.to_bits(), "{} mse", l.family.name());
            for (a, b) in l.params.iter().zip(&o.params) {
                assert_eq!(a.to_bits(), b.to_bits(), "{} params", l.family.name());
            }
        }
    }
}

/// One curve's fused objective inputs: the epoch grid with the horizon
/// point, and the observed values.
struct Fused {
    grid: FastGrid,
    ys: Vec<f64>,
    backend: Backend,
}

impl Fused {
    fn new(obs: &[(f64, f64)], horizon: f64, backend: Backend) -> Self {
        let mut grid = FastGrid::new();
        for &(x, _) in obs {
            grid.push(x);
        }
        grid.push(horizon);
        Fused { grid, ys: obs.iter().map(|&(_, y)| y).collect(), backend }
    }

    fn objective<'a>(&'a self, scratch: &'a mut FusedScratch) -> FusedPosterior<'a> {
        FusedPosterior::new(&self.grid, &self.ys, scratch, self.backend)
    }

    /// Minimizes `half` over an objective and scratch of its own, as a
    /// helper thread does.
    fn minimize(&self, half: &mut InitHalf) {
        half.minimize(&mut self.objective(&mut FusedScratch::default()), &mut NmScratch::default());
    }
}

/// The offered half of the init from RNG seed `seed`, drawn and minimized
/// apart from the fit, as a thread holding the half does.
fn held_half(curve: &Fused, seed: u64) -> InitHalf {
    let mut half = InitHalf::drawn(&mut StdRng::seed_from_u64(seed), |_, _| {});
    curve.minimize(&mut half);
    half
}

/// Wins the half the moment the fit claims it, and runs it on the spot.
struct Inline<'a> {
    curve: &'a Fused,
    seed: u64,
    half: InitHalf,
}

impl ShareInit for Inline<'_> {
    fn claim(&mut self) -> bool {
        self.half = held_half(self.curve, self.seed);
        false
    }

    fn collect(&mut self, half: &mut InitHalf) {
        *half = self.half;
    }
}

/// Holds the half from before the init starts: another thread runs it
/// while the fitting thread runs its own, as a caller that claimed it when
/// it submitted the fit.
struct Concurrent<'scope>(Option<ScopedJoinHandle<'scope, InitHalf>>);

impl ShareInit for Concurrent<'_> {
    fn claim(&mut self) -> bool {
        false
    }

    fn collect(&mut self, half: &mut InitHalf) {
        *half = self.0.take().expect("collected once").join().expect("the helper finished");
    }
}

fn assert_same_fits(a: &[FamilyFit], b: &[FamilyFit], what: &str) {
    assert_eq!(a.len(), b.len());
    for (a, b) in a.iter().zip(b) {
        assert_eq!(a.family, b.family);
        assert_eq!(a.mse.to_bits(), b.mse.to_bits(), "{what}: {} mse", a.family.name());
        let bits = |p: &[f64]| p.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a.params), bits(&b.params), "{what}: {} params", a.family.name());
    }
}

/// The fused init of `curve` from RNG seed `seed`, and the RNG's next draw.
fn init(
    curve: &Fused,
    seed: u64,
    nm: &mut NmScratch,
    share: &mut impl ShareInit,
) -> (Vec<FamilyFit>, u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let fits =
        fit_families(&mut curve.objective(&mut FusedScratch::default()), &mut rng, nm, share);
    (fits, rng.gen())
}

/// A seed that differs from run to run, printed so a failure reproduces.
fn fresh_seed() -> u64 {
    let seed = SystemTime::now().duration_since(UNIX_EPOCH).expect("after 1970").as_nanos() as u64;
    eprintln!("fresh seed {seed}");
    seed
}

/// The fused init is the same bits whoever runs its offered half: the
/// fitting thread (merged, declined), the hook the moment it is claimed,
/// or a thread that held it from the start, running beside the fitting
/// thread's own half. Fresh CIFAR and
/// Lunar Lander prefixes of 6–30 epochs, under both kernel backends — which
/// agree with each other too — and the RNG left where the init left it.
#[test]
fn the_offered_half_is_the_same_bits_on_any_thread() {
    let seed = fresh_seed();
    let mut nm = NmScratch::default();
    let mut lengths = StdRng::seed_from_u64(seed);
    for c in 0..16u64 {
        let len = lengths.gen_range(6..=30);
        let obs = if c % 2 == 0 {
            prefix(&CifarWorkload::new(), seed ^ c, len)
        } else {
            prefix(&LunarWorkload::new(), seed ^ c, len)
        };
        let case = format!("seed {seed}, curve {c}, {len} epochs");
        let mut by_backend = Vec::new();
        for backend in [Backend::Scalar, Backend::Simd] {
            let curve = Fused::new(&obs, 120.0, backend);
            let rng_seed = seed.wrapping_add(c);
            let declined = init(&curve, rng_seed, &mut nm, &mut Decline);
            let mut inline = Inline { curve: &curve, seed: rng_seed, half: InitHalf::default() };
            let inline = init(&curve, rng_seed, &mut nm, &mut inline);
            let concurrent = std::thread::scope(|scope| {
                let helper = scope.spawn(|| held_half(&curve, rng_seed));
                init(&curve, rng_seed, &mut nm, &mut Concurrent(Some(helper)))
            });
            for (other, what) in [(&inline, "inline"), (&concurrent, "concurrent")] {
                assert_same_fits(&declined.0, &other.0, &format!("{what} vs declined, {case}"));
                assert_eq!(declined.1, other.1, "{what}: the init drew differently, {case}");
            }
            by_backend.push(declined);
        }
        assert_same_fits(&by_backend[0].0, &by_backend[1].0, &format!("scalar vs SIMD, {case}"));
    }
}

/// A curve of `len` epochs sampled from one configuration.
fn learning_curve(workload: &dyn Workload, seed: u64, len: u32) -> LearningCurve {
    let mut curve = LearningCurve::new(MetricKind::Accuracy);
    for (x, y) in prefix(workload, seed, len) {
        curve.push(x as u32, SimTime::from_secs(60.0 * x), y);
    }
    curve
}

/// Through the service, where the blocked `fit_batch` caller claims the
/// halves of its fits and the rest-units no worker started: every
/// posterior is `sequential_fit`'s draw for draw at pool widths 1 and 4,
/// and the caller did run some halves.
#[test]
fn fits_the_caller_helped_are_the_sequential_fits() {
    let seed = fresh_seed();
    let config = PredictorConfig::test();
    let requests: Vec<FitRequest> = (0..8u64)
        .map(|j| {
            let workload: &dyn Workload =
                if j % 2 == 0 { &CifarWorkload::new() } else { &LunarWorkload::new() };
            let len = 6 + (seed.wrapping_add(j) % 25) as u32;
            let curve = learning_curve(workload, seed ^ j, len);
            FitRequest { job: JobId::new(j), curve, horizon: 120, query: None }
        })
        .collect();
    let mut helped = 0;
    for threads in [1, 4] {
        let service = FitService::new(config, seed, FitPool::new(threads), None);
        // One batch of all the requests, then each alone: a lone fit's
        // caller has nothing to do but help.
        let mut outcomes = service.fit_batch(&requests[..4]);
        for r in &requests[4..] {
            outcomes.extend(service.fit_batch(std::slice::from_ref(r)));
        }
        for (r, o) in requests.iter().zip(&outcomes) {
            let alone = sequential_fit(config, seed, r).expect("the reference fits");
            assert_eq!(
                o.result.as_ref().expect("the pooled fit succeeds").draws(),
                alone.draws(),
                "seed {seed}, job {:?}, {threads} threads",
                r.job
            );
        }
        let stats = service.stats();
        assert_eq!(stats.fits, 8);
        assert!(stats.halves_helped <= stats.fits);
        assert_eq!(stats.halves_helped > 0, stats.help_nanos > 0);
        helped += stats.halves_helped;
    }
    assert!(helped > 0, "the caller never ran a half (seed {seed})");
}
