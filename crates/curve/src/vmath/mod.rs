//! Batched transcendental math kernels with bit-identical SIMD/scalar paths.
//!
//! The curve-fit hot path spends almost all of its time in `exp`/`ln`/`powf`
//! over small slices (one entry per epoch-grid point). libm evaluates those
//! one scalar at a time, which caps the cold-fit speedup of the zero-alloc
//! hot path near 1.5× (the "libm Amdahl floor" documented in EXPERIMENTS.md).
//!
//! This module provides slice-oriented `exp`, `ln` and `pow` built from
//! fixed-order polynomial kernels with the following contract:
//!
//! - **Bit-identical across backends and hosts.** The SIMD path is the exact
//!   same elementwise computation as the scalar path, compiled with
//!   `#[target_feature]` wrappers (AVX2, and AVX-512 where the CPU has it)
//!   so LLVM can autovectorize it. Rust never contracts `a * b + c` into an
//!   FMA and the kernels use the same polynomial and operation order
//!   everywhere, so a lane of the vector path produces the same bit pattern
//!   as the scalar fallback on every host, whatever the vector width. The
//!   accuracy and bit-identity proptests in
//!   `crates/curve/tests/vmath_props.rs` pin this down.
//! - **Accuracy.** Max relative error vs libm is ≤ 1e-13 for [`vexp`]/[`vln`]
//!   and ≤ 1e-12 for [`vpow`] over the predictor's operand ranges (see the
//!   domain notes on each function). In practice the kernels are within a few
//!   ulp of correctly rounded.
//! - **Runtime dispatch with an override.** [`active_backend`] picks the
//!   SIMD path when the CPU supports AVX2, and the SIMD kernels themselves
//!   step up to AVX-512 compilations when the CPU reports
//!   `avx512f`/`avx512dq`/`avx512vl`. Setting `HYPERDRIVE_VMATH=scalar`
//!   forces the scalar fallback (and the baseline tier everywhere a caller
//!   dispatches on [`simd_tier`]). The choice is made once per process and
//!   cached.
//! - **No allocation.** All kernels operate in place on caller-owned slices,
//!   preserving the zero-alloc-per-MCMC-step invariant of `FitScratch`.
//!
//! Domain edges are handled deterministically rather than libm-compatibly:
//! `exp` clamps its argument to [-708, 709] (so it never overflows to
//! infinity or underflows into subnormals), and `ln` returns NaN for any
//! argument that is not a positive finite number (libm would return -inf for
//! 0 and +inf for +inf). The predictor's operands never hit those edges; the
//! prior's finiteness checks reject NaN means either way.

use std::sync::OnceLock;

/// Which kernel implementation executes a batched call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// Plain scalar loop, no target features. Works on every host.
    Scalar,
    /// Same loop compiled with SIMD target features enabled so LLVM
    /// autovectorizes it: the AVX-512 compilation when the CPU reports
    /// `avx512f`/`avx512dq`/`avx512vl`, else the AVX2 one ([`simd_tier`]
    /// names which). Falls back to the scalar loop on non-x86_64 builds.
    Simd,
}

/// Returns the backend batched calls dispatch to, deciding once per process.
///
/// `HYPERDRIVE_VMATH=scalar` forces [`Backend::Scalar`]; otherwise
/// [`Backend::Simd`] is used when the CPU reports AVX2, and scalar
/// everywhere else. `Simd` runs the AVX-512 compilation where the CPU has
/// it ([`simd_tier`] reports the tier). Because the backends and tiers are
/// bit-identical, this choice never changes results — only throughput.
pub fn active_backend() -> Backend {
    static CHOICE: OnceLock<Backend> = OnceLock::new();
    *CHOICE.get_or_init(|| {
        if std::env::var("HYPERDRIVE_VMATH").is_ok_and(|v| v == "scalar") {
            return Backend::Scalar;
        }
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                return Backend::Simd;
            }
        }
        Backend::Scalar
    })
}

// ---------------------------------------------------------------------------
// exp kernel
// ---------------------------------------------------------------------------

// Argument clamp keeping 2^k finite: exp(-708) ~ 3.3e-308 (normal),
// exp(709) ~ 8.2e307 (< f64::MAX).
const EXP_LO: f64 = -708.0;
const EXP_HI: f64 = 709.0;
// 1.5 * 2^52: adding it rounds x/ln2 to the nearest integer in the low
// mantissa bits ("magic number" rounding, valid for |k| < 2^51).
const EXP_MAGIC: f64 = 6755399441055744.0;
const EXP_MAGIC_BITS: u64 = 0x4338000000000000;
// 1/ln(2) == log2(e); the std constant has the same bit pattern as the
// 1.4426950408889634 literal the kernel was derived with.
const INV_LN2: f64 = std::f64::consts::LOG2_E;
// ln(2) split hi/lo so x - k*ln2 is exact to well below a ulp of r.
const LN2_HI: f64 = 6.931471803691238e-1;
const LN2_LO: f64 = 1.9082149292705877e-10;

/// Elementwise exp core. `#[inline(always)]` so the AVX2 wrappers inline it
/// into a vectorizable loop body; every backend runs exactly this code.
#[inline(always)]
fn exp_one(x: f64) -> f64 {
    // NB: deliberately max/min rather than `clamp`: they return the non-NaN
    // operand, so xc is always in range even for NaN input; the NaN select
    // at the end restores NaN propagation.
    #[allow(clippy::manual_clamp)]
    let xc = x.max(EXP_LO).min(EXP_HI);
    let kd = xc * INV_LN2 + EXP_MAGIC;
    let k = (kd.to_bits() as i64).wrapping_sub(EXP_MAGIC_BITS as i64);
    let kf = kd - EXP_MAGIC;
    let r = (xc - kf * LN2_HI) - kf * LN2_LO;
    // Taylor polynomial for exp(r) - 1 - r on |r| <= ln(2)/2; truncation
    // error ~4e-18, far below rounding. Estrin evaluation: the serial
    // Horner chain is 11 dependent mul-adds, which bounds throughput even
    // vectorized; pairing terms cuts the critical path to ~5 levels. Both
    // backends compile this exact expression tree, so the reassociation is
    // part of the kernel definition, not a compiler liberty.
    let r2 = r * r;
    let r4 = r2 * r2;
    let r8 = r4 * r4;
    let b0 = 5e-1 + 1.6666666666666666e-1 * r;
    let b1 = 4.1666666666666664e-2 + 8.333333333333333e-3 * r;
    let b2 = 1.388888888888889e-3 + 1.984126984126984e-4 * r;
    let b3 = 2.48015873015873e-5 + 2.7557319223985893e-6 * r;
    let b4 = 2.755731922398589e-7 + 2.505210838544172e-8 * r;
    let b5 = 2.08767569878681e-9 + 1.6059043836821613e-10 * r;
    let c0 = b0 + b1 * r2;
    let c1 = b2 + b3 * r2;
    let c2 = b4 + b5 * r2;
    let p = (c0 + c1 * r4) + c2 * r8;
    let poly = 1.0 + r + r2 * p;
    let scale = f64::from_bits(((1023i64 + k) as u64) << 52);
    let res = poly * scale;
    if x.is_nan() {
        x
    } else {
        res
    }
}

// ---------------------------------------------------------------------------
// ln kernel
// ---------------------------------------------------------------------------

// Bits of an anchor just below sqrt(2)/2 scaled into the [1,2) mantissa
// window; subtracting it splits x into z in [sqrt(1/2), sqrt(2)) and an
// integer exponent k without branching (musl-style reduction).
const LN_OFF: u64 = 0x3fe6a09e00000000;
// fdlibm remez coefficients for ln((1+s)/(1-s)) with s = f/(2+f), digits
// kept verbatim from the reference (hence the excessive-precision allows).
#[allow(clippy::excessive_precision)]
const LG1: f64 = 6.666666666666735130e-1;
#[allow(clippy::excessive_precision)]
const LG2: f64 = 3.999999999940941908e-1;
#[allow(clippy::excessive_precision)]
const LG3: f64 = 2.857142874366239149e-1;
#[allow(clippy::excessive_precision)]
const LG4: f64 = 2.222219843214978396e-1;
#[allow(clippy::excessive_precision)]
const LG5: f64 = 1.818357216161805012e-1;
#[allow(clippy::excessive_precision)]
const LG6: f64 = 1.531383769920937332e-1;
#[allow(clippy::excessive_precision)]
const LG7: f64 = 1.479819860511658591e-1;

/// Elementwise ln core; same backend contract as [`exp_one`].
#[inline(always)]
fn ln_one(x: f64) -> f64 {
    let ix = x.to_bits();
    let tmp = ix.wrapping_sub(LN_OFF);
    let k = ((tmp as i64) >> 52) as f64;
    let iz = ix.wrapping_sub(tmp & (0xfffu64 << 52));
    let z = f64::from_bits(iz);
    let f = z - 1.0;
    let hfsq = 0.5 * f * f;
    let s = f / (2.0 + f);
    let z2 = s * s;
    let w = z2 * z2;
    let t1 = w * (LG2 + w * (LG4 + w * LG6));
    let t2 = z2 * (LG1 + w * (LG3 + w * (LG5 + w * LG7)));
    let r = t2 + t1;
    let res = s * (hfsq + r) + k * LN2_LO - hfsq + f + k * LN2_HI;
    let ok = x > 0.0 && x < f64::INFINITY && ix >= 0x0010000000000000;
    if ok {
        res
    } else {
        f64::NAN
    }
}

/// Elementwise pow core: `exp(y * ln(x))`. Inherits the domain rules of the
/// two kernels: non-positive/subnormal/non-finite bases yield NaN.
#[inline(always)]
fn pow_one(x: f64, y: f64) -> f64 {
    exp_one(y * ln_one(x))
}

// ---------------------------------------------------------------------------
// Slice loops: one shared core, two compilations.
// ---------------------------------------------------------------------------

macro_rules! unary_loops {
    ($core:ident, $scalar:ident, $avx2:ident, $avx512:ident) => {
        fn $scalar(buf: &mut [f64]) {
            for v in buf.iter_mut() {
                *v = $core(*v);
            }
        }
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2")]
        unsafe fn $avx2(buf: &mut [f64]) {
            // Same per-lane core as the scalar path, walked in fixed
            // 32-lane blocks: the block loop hands the vectorizer several
            // independent vectors to keep in flight, hiding the kernel's
            // serial-dependency latency on long fused buffers. Codegen
            // only changes how many lanes run per instruction and how
            // many vectors overlap — never the per-lane bits.
            let mut blocks = buf.chunks_exact_mut(32);
            for block in &mut blocks {
                for v in block.iter_mut() {
                    *v = $core(*v);
                }
            }
            for v in blocks.into_remainder() {
                *v = $core(*v);
            }
        }
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx512f", enable = "avx512dq", enable = "avx512vl")]
        unsafe fn $avx512(buf: &mut [f64]) {
            // Still the same per-lane core: 8 lanes per instruction
            // instead of 4, identical bits. Pays off on the long fused
            // buffers of the half-ensemble evaluator.
            let mut blocks = buf.chunks_exact_mut(32);
            for block in &mut blocks {
                for v in block.iter_mut() {
                    *v = $core(*v);
                }
            }
            for v in blocks.into_remainder() {
                *v = $core(*v);
            }
        }
    };
}

unary_loops!(exp_one, exp_slice_scalar, exp_slice_avx2, exp_slice_avx512);
unary_loops!(ln_one, ln_slice_scalar, ln_slice_avx2, ln_slice_avx512);

fn pow_slice_scalar(buf: &mut [f64], y: f64) {
    for v in buf.iter_mut() {
        *v = pow_one(*v, y);
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn pow_slice_avx2(buf: &mut [f64], y: f64) {
    for v in buf.iter_mut() {
        *v = pow_one(*v, y);
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f", enable = "avx512dq", enable = "avx512vl")]
unsafe fn pow_slice_avx512(buf: &mut [f64], y: f64) {
    for v in buf.iter_mut() {
        *v = pow_one(*v, y);
    }
}

/// SIMD compilation tier for the slice loops and the autovectorized
/// helper loops around them (2 = AVX-512, 1 = AVX2, 0 = baseline).
/// Decided once per process from CPU detection; `HYPERDRIVE_VMATH=scalar`
/// forces 0 (every tier compiles the same exact per-lane arithmetic, so
/// the override only changes throughput). Read-only: run provenance names
/// the tier that ran with it.
#[cfg(target_arch = "x86_64")]
#[must_use]
pub fn simd_tier() -> u8 {
    static CHOICE: OnceLock<u8> = OnceLock::new();
    *CHOICE.get_or_init(|| {
        if std::env::var("HYPERDRIVE_VMATH").is_ok_and(|v| v == "scalar") {
            return 0;
        }
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512dq")
            && std::arch::is_x86_feature_detected!("avx512vl")
        {
            2
        } else if std::arch::is_x86_feature_detected!("avx2") {
            1
        } else {
            0
        }
    })
}

/// SIMD compilation tier: always 0 (baseline) off x86_64.
#[cfg(not(target_arch = "x86_64"))]
#[must_use]
pub fn simd_tier() -> u8 {
    0
}

/// Whether the [`Backend::Simd`] slice loops should run their AVX-512
/// compilation.
#[cfg(target_arch = "x86_64")]
fn use_avx512() -> bool {
    simd_tier() == 2
}

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

/// In-place batched `exp` on the chosen backend.
///
/// Domain: full accuracy on [-708, 709]; arguments outside are clamped to
/// that range first (so the result never overflows or goes subnormal). NaN
/// propagates.
pub fn vexp_with(backend: Backend, buf: &mut [f64]) {
    match backend {
        Backend::Scalar => exp_slice_scalar(buf),
        Backend::Simd => {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: Backend::Simd is only handed out by active_backend()
            // after is_x86_feature_detected!("avx2"); the AVX-512 arm
            // additionally checks its own feature triple. Tests
            // constructing Simd directly run on the same hosts.
            unsafe {
                if use_avx512() {
                    exp_slice_avx512(buf)
                } else {
                    exp_slice_avx2(buf)
                }
            }
            #[cfg(not(target_arch = "x86_64"))]
            exp_slice_scalar(buf)
        }
    }
}

/// In-place batched `exp` on [`active_backend`].
pub fn vexp(buf: &mut [f64]) {
    vexp_with(active_backend(), buf)
}

/// In-place batched `ln` on the chosen backend.
///
/// Domain: positive finite normal numbers; anything else (zero, negatives,
/// subnormals, infinities, NaN) maps to NaN.
pub fn vln_with(backend: Backend, buf: &mut [f64]) {
    match backend {
        Backend::Scalar => ln_slice_scalar(buf),
        Backend::Simd => {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: see vexp_with.
            unsafe {
                if use_avx512() {
                    ln_slice_avx512(buf)
                } else {
                    ln_slice_avx2(buf)
                }
            }
            #[cfg(not(target_arch = "x86_64"))]
            ln_slice_scalar(buf)
        }
    }
}

/// In-place batched `ln` on [`active_backend`].
pub fn vln(buf: &mut [f64]) {
    vln_with(active_backend(), buf)
}

/// In-place batched `base^y` (fixed exponent) on the chosen backend.
///
/// Computed as `exp(y * ln(base))`; accuracy ≤ 1e-12 relative as long as
/// `|y * ln(base)|` stays within a few hundred (true for every model family:
/// the largest magnitude the predictor produces is ~60).
pub fn vpow_with(backend: Backend, buf: &mut [f64], y: f64) {
    match backend {
        Backend::Scalar => pow_slice_scalar(buf, y),
        Backend::Simd => {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: see vexp_with.
            unsafe {
                if use_avx512() {
                    pow_slice_avx512(buf, y)
                } else {
                    pow_slice_avx2(buf, y)
                }
            }
            #[cfg(not(target_arch = "x86_64"))]
            pow_slice_scalar(buf, y)
        }
    }
}

/// In-place batched `base^y` on [`active_backend`].
pub fn vpow(buf: &mut [f64], y: f64) {
    vpow_with(active_backend(), buf, y)
}

/// Scalar `exp` through the same kernel as [`vexp`] (bit-identical to a
/// one-element batched call on any backend). Use for per-parameter hoists so
/// every transcendental in the fast fit path is host-independent.
pub fn exp_s(x: f64) -> f64 {
    exp_one(x)
}

/// Scalar `ln` through the same kernel as [`vln`].
pub fn ln_s(x: f64) -> f64 {
    ln_one(x)
}

/// Scalar `pow` through the same kernels as [`vpow`].
pub fn pow_s(x: f64, y: f64) -> f64 {
    pow_one(x, y)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random f64 in [0,1) (splitmix64 based — no rand
    /// dependency so these tests cannot drift with the vendored RNG).
    struct Mix(u64);
    impl Mix {
        fn next_unit(&mut self) -> f64 {
            self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z = z ^ (z >> 31);
            (z >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    fn rel_err(a: f64, b: f64) -> f64 {
        if a == b {
            return 0.0;
        }
        ((a - b) / b).abs()
    }

    #[test]
    fn exp_matches_libm() {
        let mut rng = Mix(1);
        let mut worst = 0.0f64;
        for _ in 0..20_000 {
            let x = (rng.next_unit() - 0.5) * 1400.0;
            let got = exp_s(x);
            let want = x.exp();
            worst = worst.max(rel_err(got, want));
        }
        assert!(worst < 1e-13, "exp worst rel err {worst:e}");
    }

    #[test]
    fn ln_matches_libm() {
        let mut rng = Mix(2);
        let mut worst = 0.0f64;
        for _ in 0..20_000 {
            // log-uniform over [1e-300, 1e300]
            let x = (10.0f64).powf((rng.next_unit() - 0.5) * 600.0);
            let got = ln_s(x);
            let want = x.ln();
            worst = worst.max(rel_err(got, want));
        }
        assert!(worst < 1e-13, "ln worst rel err {worst:e}");
    }

    #[test]
    fn pow_matches_libm() {
        let mut rng = Mix(3);
        let mut worst = 0.0f64;
        for _ in 0..20_000 {
            let b = (10.0f64).powf((rng.next_unit() - 0.5) * 8.0);
            let y = (rng.next_unit() - 0.5) * 12.0;
            let got = pow_s(b, y);
            let want = b.powf(y);
            worst = worst.max(rel_err(got, want));
        }
        assert!(worst < 1e-12, "pow worst rel err {worst:e}");
    }

    #[test]
    fn domain_edges() {
        assert!(exp_s(f64::NAN).is_nan());
        assert!(ln_s(f64::NAN).is_nan());
        assert!(ln_s(0.0).is_nan());
        assert!(ln_s(-3.0).is_nan());
        assert!(ln_s(f64::INFINITY).is_nan());
        // Clamped, not overflowed/underflowed.
        assert!(exp_s(1e4).is_finite());
        assert!(exp_s(-1e4) > 0.0);
        assert_eq!(exp_s(0.0), 1.0);
        assert_eq!(ln_s(1.0), 0.0);
    }

    #[test]
    fn backends_bit_identical() {
        let mut rng = Mix(4);
        let mut xs: Vec<f64> = (0..4097)
            .map(|i| match i % 5 {
                0 => (rng.next_unit() - 0.5) * 1500.0,
                1 => (rng.next_unit() - 0.5) * 2.0,
                2 => f64::NAN,
                3 => -rng.next_unit() * 10.0,
                _ => (10.0f64).powf((rng.next_unit() - 0.5) * 600.0),
            })
            .collect();
        let mut scalar = xs.clone();
        let mut simd = xs.clone();
        vexp_with(Backend::Scalar, &mut scalar);
        vexp_with(Backend::Simd, &mut simd);
        for (a, b) in scalar.iter().zip(&simd) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let mut scalar = xs.clone();
        let mut simd = xs.clone();
        vln_with(Backend::Scalar, &mut scalar);
        vln_with(Backend::Simd, &mut simd);
        for (a, b) in scalar.iter().zip(&simd) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        vpow_with(Backend::Scalar, &mut xs, 1.7);
        let mut simd: Vec<f64> = (0..4097).map(|_| rng.next_unit()).collect();
        let mut scalar = simd.clone();
        vpow_with(Backend::Scalar, &mut scalar, -2.3);
        vpow_with(Backend::Simd, &mut simd, -2.3);
        for (a, b) in scalar.iter().zip(&simd) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn scalar_helpers_match_batched() {
        let xs = [0.25, 1.0, 3.5, 17.0, 123.456];
        let mut buf = xs;
        vln_with(Backend::Simd, &mut buf);
        for (x, b) in xs.iter().zip(&buf) {
            assert_eq!(ln_s(*x).to_bits(), b.to_bits());
        }
        let mut buf = xs;
        vexp_with(Backend::Simd, &mut buf);
        for (x, b) in xs.iter().zip(&buf) {
            assert_eq!(exp_s(*x).to_bits(), b.to_bits());
        }
    }
}
