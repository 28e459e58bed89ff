//! Derivative-free simplex minimization (Nelder–Mead).
//!
//! Used to initialize each curve family near its least-squares fit before
//! MCMC sampling starts. A good initialization is what lets the reduced
//! sample counts of §5.2 (70k instead of 250k) work without degrading the
//! scheduling policy.

/// Options controlling a Nelder–Mead run.
#[derive(Debug, Clone, Copy)]
pub struct NelderMeadOptions {
    /// Maximum number of objective evaluations.
    pub max_evals: usize,
    /// Convergence tolerance on the simplex's objective spread.
    pub f_tol: f64,
    /// Initial simplex scale relative to each coordinate's magnitude.
    pub initial_step: f64,
}

impl Default for NelderMeadOptions {
    fn default() -> Self {
        NelderMeadOptions { max_evals: 400, f_tol: 1e-9, initial_step: 0.15 }
    }
}

/// Minimizes `f` starting from `x0`, returning `(best_x, best_f)`.
///
/// The objective may return non-finite values; they are treated as +inf.
/// Coordinates are unconstrained here — callers clamp to bounds inside the
/// objective (penalty) or after the fact.
pub fn minimize<F>(mut f: F, x0: &[f64], opts: NelderMeadOptions) -> (Vec<f64>, f64)
where
    F: FnMut(&[f64]) -> f64,
{
    let n = x0.len();
    assert!(n > 0, "cannot optimize zero-dimensional problem");
    let clean = |v: f64| if v.is_finite() { v } else { f64::INFINITY };

    // Build initial simplex: x0 plus a perturbation along each axis.
    let mut simplex: Vec<Vec<f64>> = Vec::with_capacity(n + 1);
    simplex.push(x0.to_vec());
    for i in 0..n {
        let mut p = x0.to_vec();
        let step = if p[i].abs() > 1e-8 {
            p[i].abs() * opts.initial_step
        } else {
            opts.initial_step * 0.1
        };
        p[i] += step;
        simplex.push(p);
    }
    let mut fvals: Vec<f64> = simplex.iter().map(|p| clean(f(p))).collect();
    let mut evals = n + 1;

    const ALPHA: f64 = 1.0; // reflection
    const GAMMA: f64 = 2.0; // expansion
    const RHO: f64 = 0.5; // contraction
    const SIGMA: f64 = 0.5; // shrink

    while evals < opts.max_evals {
        // Order simplex by objective.
        let mut idx: Vec<usize> = (0..=n).collect();
        idx.sort_by(|&a, &b| fvals[a].partial_cmp(&fvals[b]).expect("cleaned values"));
        let reorder_simplex: Vec<Vec<f64>> = idx.iter().map(|&i| simplex[i].clone()).collect();
        let reorder_f: Vec<f64> = idx.iter().map(|&i| fvals[i]).collect();
        simplex = reorder_simplex;
        fvals = reorder_f;

        if (fvals[n] - fvals[0]).abs() < opts.f_tol {
            break;
        }

        // Centroid of all but worst.
        let mut centroid = vec![0.0; n];
        for p in simplex.iter().take(n) {
            for (c, v) in centroid.iter_mut().zip(p) {
                *c += v / n as f64;
            }
        }

        let lerp = |a: &[f64], b: &[f64], t: f64| -> Vec<f64> {
            a.iter().zip(b).map(|(x, y)| x + t * (y - x)).collect()
        };

        // Reflection.
        let reflected = lerp(&centroid, &simplex[n], -ALPHA);
        let f_ref = clean(f(&reflected));
        evals += 1;

        if f_ref < fvals[0] {
            // Expansion.
            let expanded = lerp(&centroid, &simplex[n], -GAMMA);
            let f_exp = clean(f(&expanded));
            evals += 1;
            if f_exp < f_ref {
                simplex[n] = expanded;
                fvals[n] = f_exp;
            } else {
                simplex[n] = reflected;
                fvals[n] = f_ref;
            }
        } else if f_ref < fvals[n - 1] {
            simplex[n] = reflected;
            fvals[n] = f_ref;
        } else {
            // Contraction toward the better of worst/reflected.
            let (toward, f_toward) =
                if f_ref < fvals[n] { (&reflected, f_ref) } else { (&simplex[n], fvals[n]) };
            let contracted = lerp(&centroid, toward, RHO);
            let f_con = clean(f(&contracted));
            evals += 1;
            if f_con < f_toward {
                simplex[n] = contracted;
                fvals[n] = f_con;
            } else {
                // Shrink everything toward the best point.
                let best = simplex[0].clone();
                for i in 1..=n {
                    simplex[i] = lerp(&best, &simplex[i], SIGMA);
                    fvals[i] = clean(f(&simplex[i]));
                    evals += 1;
                }
            }
        }
    }

    let mut best = 0;
    for i in 1..=n {
        if fvals[i] < fvals[best] {
            best = i;
        }
    }
    (simplex[best].clone(), fvals[best])
}

/// The largest problem dimension the lockstep driver takes (the widest
/// curve family has four parameters). Points are posted to the batch
/// objective as rows of this many coordinates, zero beyond the run's own.
pub const MAX_DIM: usize = 4;

type Row = [f64; MAX_DIM];

/// Where a lockstep run stands between two rounds: which posted points it
/// is waiting on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// The `n + 1` vertices of the initial simplex.
    Init,
    /// The reflected point.
    Reflect,
    /// The expanded point (in `trial`).
    Expand,
    /// The contracted point (in `trial`).
    Contract,
    /// The `n` vertices shrunk toward the best.
    Shrink,
    /// Converged or out of budget; posts nothing.
    Done,
}

/// One run of the lockstep driver. Vertices stay in their slots; `order`
/// ranks the slots from best to worst, which is the row order of
/// [`minimize`]'s simplex.
#[derive(Debug, Clone, Copy)]
struct Run {
    tag: usize,
    n: usize,
    evals: usize,
    phase: Phase,
    f_ref: f64,
    simplex: [Row; MAX_DIM + 1],
    /// Each vertex divided by `n`: the terms of the centroid sum, which
    /// only change when their vertex does.
    scaled: [Row; MAX_DIM + 1],
    fvals: [f64; MAX_DIM + 1],
    order: [usize; MAX_DIM + 1],
    centroid: Row,
    reflected: Row,
    trial: Row,
}

/// The lockstep Nelder–Mead driver: any number of independent runs (of any
/// mix of dimensions up to [`MAX_DIM`]) advanced one objective *round* at
/// a time. Every live run posts the points it is waiting on — `n + 1` at
/// initialization, one for a reflection, expansion or contraction, `n` for
/// a shrink — one call to a batch objective scores the whole round, and
/// each run's state machine then advances exactly as [`minimize`] would:
/// the same points evaluated, the same comparisons, the same evaluation
/// count, so each run's result is bitwise that of `minimize` from the same
/// start. The runs share nothing but the round, which is what lets a batch
/// objective evaluate the posted points together (see `crate::batch`).
///
/// Buffers grow to the largest batch seen and are reused, so steady-state
/// minimization allocates nothing.
#[derive(Debug, Default)]
pub struct NmScratch {
    opts: NelderMeadOptions,
    runs: Vec<Run>,
    /// The round being posted: [`MAX_DIM`] coordinates per point, with the
    /// posting runs' tags and (once scored) values in the same order.
    points: Vec<f64>,
    tags: Vec<usize>,
    values: Vec<f64>,
}

const ALPHA: f64 = 1.0; // reflection
const GAMMA: f64 = 2.0; // expansion
const RHO: f64 = 0.5; // contraction
const SIGMA: f64 = 0.5; // shrink

/// `a + t * (b - a)` elementwise — the same lerp the reference `minimize`
/// builds as a fresh `Vec` (padding coordinates stay zero).
#[inline(always)]
fn lerp(a: &Row, b: &Row, t: f64) -> Row {
    std::array::from_fn(|k| a[k] + t * (b[k] - a[k]))
}

#[inline(always)]
fn clean(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        f64::INFINITY
    }
}

impl NmScratch {
    /// Starts a new batch under `opts`: drops every run, keeps the buffers.
    pub fn begin(&mut self, opts: NelderMeadOptions) {
        self.opts = opts;
        self.runs.clear();
        self.points.clear();
        self.tags.clear();
    }

    /// Adds a run starting from `x0`. `tag` is handed back to the batch
    /// objective with every point this run posts.
    ///
    /// # Panics
    ///
    /// Panics if `x0` is empty or longer than [`MAX_DIM`].
    pub fn push_start(&mut self, tag: usize, x0: &[f64]) {
        let n = x0.len();
        assert!(n > 0, "cannot optimize zero-dimensional problem");
        assert!(n <= MAX_DIM, "lockstep runs have at most {MAX_DIM} dimensions, got {n}");
        let mut start = [0.0; MAX_DIM];
        start[..n].copy_from_slice(x0);
        let mut run = Run {
            tag,
            n,
            evals: 0,
            phase: Phase::Init,
            f_ref: 0.0,
            simplex: [start; MAX_DIM + 1],
            scaled: [[0.0; MAX_DIM]; MAX_DIM + 1],
            fvals: [0.0; MAX_DIM + 1],
            order: std::array::from_fn(|i| i),
            centroid: [0.0; MAX_DIM],
            reflected: [0.0; MAX_DIM],
            trial: [0.0; MAX_DIM],
        };
        // Initial simplex: x0 plus a perturbation along each axis; the
        // first round scores all of it.
        let initial_step = self.opts.initial_step;
        for i in 0..n {
            let v = &mut run.simplex[i + 1][i];
            *v += if v.abs() > 1e-8 { v.abs() * initial_step } else { initial_step * 0.1 };
        }
        for vertex in &run.simplex[..=n] {
            self.tags.push(tag);
            self.points.extend_from_slice(vertex);
        }
        self.runs.push(run);
    }

    /// The best point of finished run `run` and its objective value.
    #[must_use]
    pub fn best(&self, run: usize) -> (&[f64], f64) {
        let r = &self.runs[run];
        debug_assert_eq!(r.phase, Phase::Done, "run has not been minimized");
        (&r.simplex[r.order[0]][..r.n], r.fvals[r.order[0]])
    }

    /// Objective evaluations run `run` consumed.
    #[must_use]
    pub fn evals(&self, run: usize) -> usize {
        self.runs[run].evals
    }

    /// Minimizes every pushed run to completion. `f(tags, points, out)`
    /// scores one round: `points` holds [`MAX_DIM`] coordinates per posted
    /// point (zero beyond its run's dimension), `tags[i]` is the tag of
    /// the run that posted point `i`, and `out[i]` receives its objective
    /// value. Non-finite values are treated as +inf, like [`minimize`].
    pub fn minimize_all<F>(&mut self, mut f: F)
    where
        F: FnMut(&[usize], &[f64], &mut [f64]),
    {
        let NmScratch { opts, runs, points, tags, values } = self;
        while !tags.is_empty() {
            values.clear();
            values.resize(tags.len(), 0.0);
            f(tags, points, values);
            // The round is scored: its points are spent, and each live run
            // posts its next ones as it consumes its values.
            tags.clear();
            points.clear();
            let mut values = &values[..];
            for run in runs.iter_mut().filter(|run| run.phase != Phase::Done) {
                let tag = run.tag;
                let consumed = run.advance(values, *opts, |point| {
                    tags.push(tag);
                    points.extend_from_slice(point);
                });
                values = &values[consumed..];
            }
        }
    }
}

impl Run {
    /// Writes vertex `slot` and its objective value.
    #[inline(always)]
    fn set_vertex(&mut self, slot: usize, x: Row, f: f64) {
        let n = self.n as f64;
        self.simplex[slot] = x;
        self.scaled[slot] = x.map(|v| v / n);
        self.fvals[slot] = f;
    }

    /// Consumes this run's values of the round just scored (the head of
    /// `values`, returning how many), moves to the next point(s) it waits
    /// on and posts them.
    #[inline]
    fn advance(
        &mut self,
        values: &[f64],
        opts: NelderMeadOptions,
        mut post: impl FnMut(&Row),
    ) -> usize {
        let n = self.n;
        let (order, worst) = (self.order, self.order[n]);
        let mut consumed = 1;
        // A trial point the run has to see scored before it can finish the
        // iteration, if this round's values call for one.
        let mut trial = None;
        match self.phase {
            Phase::Init | Phase::Shrink => {
                let first = usize::from(self.phase == Phase::Shrink);
                for (&slot, v) in order[first..=n].iter().zip(values) {
                    self.set_vertex(slot, self.simplex[slot], clean(*v));
                }
                consumed = n + 1 - first;
            }
            Phase::Reflect => {
                let f_ref = clean(values[0]);
                self.f_ref = f_ref;
                if f_ref < self.fvals[order[0]] {
                    trial = Some((Phase::Expand, &self.simplex[worst], -GAMMA));
                } else if f_ref < self.fvals[order[n - 1]] {
                    self.set_vertex(worst, self.reflected, f_ref);
                } else if f_ref < self.fvals[worst] {
                    // Contraction toward the better of worst/reflected.
                    trial = Some((Phase::Contract, &self.reflected, RHO));
                } else {
                    trial = Some((Phase::Contract, &self.simplex[worst], RHO));
                }
            }
            Phase::Expand => {
                let f_exp = clean(values[0]);
                if f_exp < self.f_ref {
                    self.set_vertex(worst, self.trial, f_exp);
                } else {
                    self.set_vertex(worst, self.reflected, self.f_ref);
                }
            }
            Phase::Contract => {
                let f_con = clean(values[0]);
                if f_con < self.f_ref.min(self.fvals[worst]) {
                    self.set_vertex(worst, self.trial, f_con);
                } else {
                    // Shrink everything toward the best point.
                    let best = self.simplex[order[0]];
                    for &slot in &order[1..=n] {
                        self.simplex[slot] = lerp(&best, &self.simplex[slot], SIGMA);
                        post(&self.simplex[slot]);
                    }
                    self.phase = Phase::Shrink;
                    self.evals += 1;
                    return 1;
                }
            }
            Phase::Done => unreachable!("finished runs post nothing"),
        }
        self.evals += consumed;
        if let Some((phase, toward, t)) = trial {
            self.trial = lerp(&self.centroid, toward, t);
            self.phase = phase;
            post(&self.trial);
            return 1;
        }

        // The top of `minimize`'s loop. Order the simplex by objective: a
        // stable insertion sort gives the permutation of the reference's
        // stable sort (and its first-minimum pick of the best vertex when
        // the budget ends the run unsorted), in one pass when only the
        // worst vertex is new.
        for i in 1..=n {
            let mut j = i;
            while j > 0 && self.fvals[self.order[j - 1]] > self.fvals[self.order[j]] {
                self.order.swap(j - 1, j);
                j -= 1;
            }
        }
        let spread = (self.fvals[self.order[n]] - self.fvals[self.order[0]]).abs();
        if self.evals >= opts.max_evals || spread < opts.f_tol {
            self.phase = Phase::Done;
            return consumed;
        }
        // Centroid of all but worst, then the next reflection.
        self.centroid = [0.0; MAX_DIM];
        for &slot in &self.order[..n] {
            for (c, v) in self.centroid.iter_mut().zip(&self.scaled[slot]) {
                *c += v;
            }
        }
        self.reflected = lerp(&self.centroid, &self.simplex[self.order[n]], -ALPHA);
        self.phase = Phase::Reflect;
        post(&self.reflected);
        consumed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimizes_quadratic() {
        let (x, fx) = minimize(
            |p| (p[0] - 3.0).powi(2) + (p[1] + 1.0).powi(2),
            &[0.0, 0.0],
            NelderMeadOptions { max_evals: 2000, ..Default::default() },
        );
        assert!((x[0] - 3.0).abs() < 1e-3, "{x:?}");
        assert!((x[1] + 1.0).abs() < 1e-3, "{x:?}");
        assert!(fx < 1e-5);
    }

    #[test]
    fn minimizes_rosenbrock_reasonably() {
        let rosen = |p: &[f64]| (1.0 - p[0]).powi(2) + 100.0 * (p[1] - p[0] * p[0]).powi(2);
        let (x, fx) = minimize(
            rosen,
            &[-1.0, 1.0],
            NelderMeadOptions { max_evals: 5000, f_tol: 1e-12, initial_step: 0.5 },
        );
        assert!(fx < 1e-3, "fx {fx} at {x:?}");
    }

    #[test]
    fn handles_non_finite_objective() {
        // Objective is inf left of 1.0; minimum at 2 from the right side.
        let (x, _) = minimize(
            |p| if p[0] < 1.0 { f64::NAN } else { (p[0] - 2.0).powi(2) },
            &[3.0],
            NelderMeadOptions::default(),
        );
        assert!((x[0] - 2.0).abs() < 1e-2, "{x:?}");
    }

    #[test]
    fn respects_eval_budget() {
        let mut count = 0usize;
        let _ = minimize(
            |p| {
                count += 1;
                p[0] * p[0]
            },
            &[10.0],
            NelderMeadOptions { max_evals: 50, ..Default::default() },
        );
        // A few extra evals are possible inside the final iteration's shrink.
        assert!(count <= 60, "used {count} evals");
    }

    #[test]
    #[should_panic(expected = "zero-dimensional")]
    fn zero_dims_panics() {
        let _ = minimize(|_| 0.0, &[], NelderMeadOptions::default());
    }

    /// Three problems of different dimension sharing every round: each
    /// run is bitwise `minimize` from the same start, evaluation count
    /// included. (The 1 000-case version lives in `tests/lockstep_nm.rs`.)
    #[test]
    fn lockstep_runs_are_bitwise_minimize() {
        let rosen = |p: &[f64]| (1.0 - p[0]).powi(2) + 100.0 * (p[1] - p[0] * p[0]).powi(2);
        let quad = |p: &[f64]| (p[0] - 3.0).powi(2) + (p[1] + 1.0).powi(2) + p[2].powi(2);
        let spiky = |p: &[f64]| if p[0] < 1.0 { f64::NAN } else { (p[0] - 2.0).powi(2) };
        type Objective<'a> = &'a dyn Fn(&[f64]) -> f64;
        let problems: [(Objective<'_>, &[f64]); 3] =
            [(&rosen, &[-1.0, 1.0]), (&quad, &[0.0, 0.0, 10.0]), (&spiky, &[3.0])];

        let mut nm = NmScratch::default();
        for opts in [
            NelderMeadOptions::default(),
            NelderMeadOptions { max_evals: 50, ..Default::default() },
            NelderMeadOptions { max_evals: 5000, f_tol: 1e-12, initial_step: 0.5 },
        ] {
            nm.begin(opts);
            for (tag, (_, x0)) in problems.iter().enumerate() {
                nm.push_start(tag, x0);
            }
            nm.minimize_all(|tags, points, out| {
                for ((&tag, point), o) in tags.iter().zip(points.chunks_exact(MAX_DIM)).zip(out) {
                    let (f, x0) = problems[tag];
                    *o = f(&point[..x0.len()]);
                }
            });
            for (run, (f, x0)) in problems.iter().enumerate() {
                let mut evals = 0;
                let (x, fx) = minimize(
                    |p| {
                        evals += 1;
                        f(p)
                    },
                    x0,
                    opts,
                );
                let (lx, lf) = nm.best(run);
                assert_eq!(lf.to_bits(), fx.to_bits());
                assert_eq!(lx, &x[..]);
                assert_eq!(nm.evals(run), evals);
            }
        }
    }
}
