//! The 11 parametric learning-curve families.
//!
//! §3.1.1 of the HyperDrive paper adopts the learning-curve model of Domhan
//! et al. (IJCAI '15): a weighted combination of 11 parametric families
//! ("e.g., vapor pressure, Weibull, Janoschek"). Each family maps a 1-based
//! epoch index `x` to a predicted normalized performance. Parameter boxes
//! are chosen so that curves stay in a sane range for metrics normalized to
//! `[0, 1]`; the MCMC prior rejects parameter vectors outside the boxes.

/// One of the 11 parametric curve families.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelFamily {
    /// `c - a * x^(-alpha)` — power law with three parameters.
    Pow3,
    /// `c - (a*x + b)^(-alpha)` — shifted power law.
    Pow4,
    /// `ln(a * ln(x + 1) + b)` — log-log linear.
    LogLogLinear,
    /// `a / (1 + (x / e^b)^c)` with `c < 0` — log power.
    LogPower,
    /// `alpha - (alpha - beta) * exp(-(kappa * x)^delta)` — Weibull growth.
    Weibull,
    /// `alpha - (alpha - beta) / (1 + (kappa * x)^delta)` — Morgan–Mercer–Flodin.
    Mmf,
    /// `alpha - (alpha - beta) * exp(-kappa * x^delta)` — Janoschek growth.
    Janoschek,
    /// `c - exp(-a * x^alpha + b)` — four-parameter exponential.
    Exp4,
    /// `c - a / ln(x + 2)` — inverse log.
    Ilog2,
    /// `exp(a + b/x + c * ln(x))` — vapor pressure.
    VaporPressure,
    /// `ymax * x^eta / (kappa^eta + x^eta)` — Hill equation with 3 parameters.
    Hill3,
}

/// All families in canonical order. The combined model's parameter vector
/// concatenates family parameters in this order.
pub const ALL_FAMILIES: [ModelFamily; 11] = [
    ModelFamily::Pow3,
    ModelFamily::Pow4,
    ModelFamily::LogLogLinear,
    ModelFamily::LogPower,
    ModelFamily::Weibull,
    ModelFamily::Mmf,
    ModelFamily::Janoschek,
    ModelFamily::Exp4,
    ModelFamily::Ilog2,
    ModelFamily::VaporPressure,
    ModelFamily::Hill3,
];

impl ModelFamily {
    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            ModelFamily::Pow3 => "pow3",
            ModelFamily::Pow4 => "pow4",
            ModelFamily::LogLogLinear => "log_log_linear",
            ModelFamily::LogPower => "log_power",
            ModelFamily::Weibull => "weibull",
            ModelFamily::Mmf => "mmf",
            ModelFamily::Janoschek => "janoschek",
            ModelFamily::Exp4 => "exp4",
            ModelFamily::Ilog2 => "ilog2",
            ModelFamily::VaporPressure => "vapor_pressure",
            ModelFamily::Hill3 => "hill3",
        }
    }

    /// Number of free parameters of this family.
    pub fn param_count(self) -> usize {
        match self {
            ModelFamily::Pow3 => 3,
            ModelFamily::Pow4 => 4,
            ModelFamily::LogLogLinear => 2,
            ModelFamily::LogPower => 3,
            ModelFamily::Weibull => 4,
            ModelFamily::Mmf => 4,
            ModelFamily::Janoschek => 4,
            ModelFamily::Exp4 => 4,
            ModelFamily::Ilog2 => 2,
            ModelFamily::VaporPressure => 3,
            ModelFamily::Hill3 => 3,
        }
    }

    /// Per-parameter `(low, high)` prior boxes, tuned for curves over
    /// normalized performance in `[0, 1]` and epoch indices `x >= 1`.
    pub fn bounds(self) -> &'static [(f64, f64)] {
        match self {
            ModelFamily::Pow3 => &[(0.0, 1.3), (0.0, 2.0), (0.01, 3.0)],
            ModelFamily::Pow4 => &[(0.0, 1.3), (0.005, 5.0), (0.01, 5.0), (0.01, 3.0)],
            ModelFamily::LogLogLinear => &[(0.0, 3.0), (1.0, 3.2)],
            ModelFamily::LogPower => &[(0.0, 1.3), (-2.0, 6.0), (-4.0, 0.0)],
            ModelFamily::Weibull => &[(0.0, 1.3), (0.0, 1.0), (1e-3, 1.0), (0.05, 3.0)],
            ModelFamily::Mmf => &[(0.0, 1.3), (0.0, 1.0), (1e-3, 1.0), (0.05, 5.0)],
            ModelFamily::Janoschek => &[(0.0, 1.3), (0.0, 1.0), (1e-4, 1.0), (0.05, 3.0)],
            ModelFamily::Exp4 => &[(0.0, 1.3), (1e-3, 2.0), (0.05, 2.0), (-2.0, 2.0)],
            ModelFamily::Ilog2 => &[(0.0, 1.3), (0.0, 2.0)],
            ModelFamily::VaporPressure => &[(-6.0, 0.5), (-3.0, 0.0), (0.0, 0.6)],
            ModelFamily::Hill3 => &[(0.0, 1.3), (0.1, 6.0), (0.5, 200.0)],
        }
    }

    /// A reasonable default starting point for fitting (roughly: a curve
    /// rising from ~0.1 toward ~0.6).
    pub fn default_params(self) -> Vec<f64> {
        match self {
            ModelFamily::Pow3 => vec![0.6, 0.5, 0.5],
            ModelFamily::Pow4 => vec![0.6, 0.5, 1.0, 0.5],
            ModelFamily::LogLogLinear => vec![0.3, 1.1],
            ModelFamily::LogPower => vec![0.6, 1.0, -1.0],
            ModelFamily::Weibull => vec![0.6, 0.1, 0.05, 1.0],
            ModelFamily::Mmf => vec![0.6, 0.1, 0.05, 1.0],
            ModelFamily::Janoschek => vec![0.6, 0.1, 0.05, 1.0],
            ModelFamily::Exp4 => vec![0.7, 0.05, 1.0, 0.0],
            ModelFamily::Ilog2 => vec![0.7, 0.6],
            ModelFamily::VaporPressure => vec![-0.7, -1.0, 0.05],
            ModelFamily::Hill3 => vec![0.6, 1.0, 20.0],
        }
    }

    /// Evaluates the family at epoch `x >= 1` with the given parameters.
    /// May return NaN or infinities for adversarial parameter values; the
    /// posterior rejects such samples.
    ///
    /// # Panics
    ///
    /// Panics if `params.len() != self.param_count()`.
    pub fn eval(self, x: f64, params: &[f64]) -> f64 {
        assert_eq!(
            params.len(),
            self.param_count(),
            "{} expects {} parameters",
            self.name(),
            self.param_count()
        );
        match self {
            ModelFamily::Pow3 => {
                let (c, a, alpha) = (params[0], params[1], params[2]);
                c - a * x.powf(-alpha)
            }
            ModelFamily::Pow4 => {
                let (c, a, b, alpha) = (params[0], params[1], params[2], params[3]);
                c - (a * x + b).powf(-alpha)
            }
            ModelFamily::LogLogLinear => {
                let (a, b) = (params[0], params[1]);
                (a * (x + 1.0).ln() + b).ln()
            }
            ModelFamily::LogPower => {
                let (a, b, c) = (params[0], params[1], params[2]);
                a / (1.0 + (x / b.exp()).powf(c))
            }
            ModelFamily::Weibull => {
                let (alpha, beta, kappa, delta) = (params[0], params[1], params[2], params[3]);
                alpha - (alpha - beta) * (-((kappa * x).powf(delta))).exp()
            }
            ModelFamily::Mmf => {
                let (alpha, beta, kappa, delta) = (params[0], params[1], params[2], params[3]);
                alpha - (alpha - beta) / (1.0 + (kappa * x).powf(delta))
            }
            ModelFamily::Janoschek => {
                let (alpha, beta, kappa, delta) = (params[0], params[1], params[2], params[3]);
                alpha - (alpha - beta) * (-(kappa * x.powf(delta))).exp()
            }
            ModelFamily::Exp4 => {
                let (c, a, alpha, b) = (params[0], params[1], params[2], params[3]);
                c - (-a * x.powf(alpha) + b).exp()
            }
            ModelFamily::Ilog2 => {
                let (c, a) = (params[0], params[1]);
                c - a / (x + 2.0).ln()
            }
            ModelFamily::VaporPressure => {
                let (a, b, c) = (params[0], params[1], params[2]);
                (a + b / x + c * x.ln()).exp()
            }
            ModelFamily::Hill3 => {
                let (ymax, eta, kappa) = (params[0], params[1], params[2]);
                let xe = x.powf(eta);
                ymax * xe / (kappa.powf(eta) + xe)
            }
        }
    }

    /// Index of this family's asymptote parameter (the value the curve
    /// approaches as `x → ∞`), if it has a simple one. Initialization
    /// clamps these below 1.0 so least-squares fits to near-ceiling curves
    /// do not start outside the posterior's `y(horizon) ≤ 1` support.
    pub fn asymptote_param_index(self) -> Option<usize> {
        match self {
            ModelFamily::LogLogLinear | ModelFamily::VaporPressure => None,
            // Every other family stores its asymptote (c, alpha, a, or
            // ymax) as its first parameter.
            _ => Some(0),
        }
    }

    /// True if `params` lies inside the prior box.
    pub fn in_bounds(self, params: &[f64]) -> bool {
        self.bounds()
            .iter()
            .zip(params)
            .all(|((lo, hi), p)| p.is_finite() && *p >= *lo && *p <= *hi)
    }
}

/// Total number of parameters across all 11 families (36).
pub fn total_family_params() -> usize {
    ALL_FAMILIES.iter().map(|f| f.param_count()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_counts_sum_to_36() {
        assert_eq!(total_family_params(), 36);
    }

    #[test]
    fn bounds_match_param_counts() {
        for f in ALL_FAMILIES {
            assert_eq!(f.bounds().len(), f.param_count(), "{}", f.name());
            assert_eq!(f.default_params().len(), f.param_count(), "{}", f.name());
            for (lo, hi) in f.bounds() {
                assert!(lo < hi, "{} has inverted bound", f.name());
            }
        }
    }

    #[test]
    fn defaults_are_in_bounds_and_finite_over_horizon() {
        for f in ALL_FAMILIES {
            let p = f.default_params();
            assert!(f.in_bounds(&p), "{} default out of bounds", f.name());
            for x in [1.0, 2.0, 10.0, 50.0, 200.0, 1000.0] {
                let y = f.eval(x, &p);
                assert!(y.is_finite(), "{} not finite at {x}: {y}", f.name());
                assert!(y > -1.0 && y < 2.0, "{} wild value {y} at {x}", f.name());
            }
        }
    }

    #[test]
    fn defaults_produce_growth_curves() {
        // Every family's default should be non-decreasing over the typical
        // training horizon — they model saturating improvement.
        for f in ALL_FAMILIES {
            let p = f.default_params();
            let early = f.eval(2.0, &p);
            let late = f.eval(150.0, &p);
            assert!(late >= early - 1e-9, "{}: {early} -> {late}", f.name());
        }
    }

    #[test]
    fn in_bounds_detects_violations() {
        let f = ModelFamily::Pow3;
        assert!(f.in_bounds(&[0.5, 0.5, 0.5]));
        assert!(!f.in_bounds(&[5.0, 0.5, 0.5]));
        assert!(!f.in_bounds(&[0.5, f64::NAN, 0.5]));
    }

    #[test]
    #[should_panic(expected = "expects")]
    fn wrong_arity_panics() {
        ModelFamily::Pow3.eval(1.0, &[0.1]);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = ALL_FAMILIES.iter().map(|f| f.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 11);
    }

    #[test]
    fn known_values() {
        // pow3 at x=1: c - a.
        assert!((ModelFamily::Pow3.eval(1.0, &[0.8, 0.3, 1.0]) - 0.5).abs() < 1e-12);
        // hill3 at x = kappa: ymax / 2.
        assert!((ModelFamily::Hill3.eval(20.0, &[0.9, 1.0, 20.0]) - 0.45).abs() < 1e-12);
        // weibull at x -> 0+ tends to beta; at large x tends to alpha.
        let w = [0.8, 0.1, 0.05, 1.0];
        assert!(ModelFamily::Weibull.eval(1e-6, &w) - 0.1 < 1e-3);
        assert!((ModelFamily::Weibull.eval(1e4, &w) - 0.8).abs() < 1e-6);
    }
}
