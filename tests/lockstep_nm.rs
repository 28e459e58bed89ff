//! The lockstep Nelder–Mead driver (`NmScratch`) against its oracle
//! (`nelder_mead::minimize`): every run of every batch must return the
//! oracle's point, value **and** evaluation count bit for bit, however many
//! other runs share its rounds, and the lockstep family init built on it
//! must reproduce the oracle's `fit_all_families`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use hyperdrive::curve::ensemble::PosteriorEval;
use hyperdrive::curve::fit::{fit_all_families, fit_families};
use hyperdrive::curve::nelder_mead::{minimize, NelderMeadOptions, NmScratch, MAX_DIM};
use hyperdrive::curve::{GridPoint, ModelFamily, ALL_FAMILIES};
use hyperdrive::workload::{CifarWorkload, LunarWorkload, Workload};

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
            starts.push(family.default_params());
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

/// The lockstep family init over the libm objective is the oracle's
/// `fit_all_families`, fit for fit: same RNG draws, same winners, same
/// clamped parameters, same MSE.
#[test]
fn lockstep_family_init_reproduces_the_oracle_fits() {
    let mut nm = NmScratch::default();
    for c in 0..6u64 {
        let obs = prefix(&CifarWorkload::new(), 300 + c, 8 + 4 * c as u32);
        let mut pts: Vec<GridPoint> = obs.iter().map(|&(x, _)| GridPoint::new(x)).collect();
        pts.push(GridPoint::new(120.0));
        let ys: Vec<f64> = obs.iter().map(|&(_, y)| y).collect();
        let mut means = vec![0.0; ys.len()];
        let mut libm = PosteriorEval::new(&pts, &ys, &mut means);

        let mut rng_a = StdRng::seed_from_u64(40 + c);
        let mut rng_b = rng_a.clone();
        let lockstep = fit_families(&mut libm, None, &mut rng_a, &mut nm);
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
