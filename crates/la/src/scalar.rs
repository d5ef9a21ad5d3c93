//! Scalar abstractions: real field trait, complex numbers, and the unified
//! [`Scalar`] trait that lets every factorization in this crate be written
//! once for `f32`, `f64`, [`C32`] and [`C64`].

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// Real floating-point field (`f32` or `f64`).
pub trait Real:
    Copy
    + Clone
    + PartialOrd
    + PartialEq
    + fmt::Debug
    + fmt::Display
    + Default
    + Send
    + Sync
    + 'static
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
    + Sum
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// The constant 2.
    const TWO: Self;
    /// Machine epsilon of the representation.
    const EPSILON: Self;

    /// Square root.
    fn sqrt(self) -> Self;
    /// Absolute value.
    fn abs(self) -> Self;
    /// `sqrt(self² + other²)` without undue overflow.
    fn hypot(self, other: Self) -> Self;
    /// Reciprocal.
    fn recip(self) -> Self;
    /// Integer power.
    fn powi(self, n: i32) -> Self;
    /// Larger of the two values.
    fn max_val(self, other: Self) -> Self;
    /// Smaller of the two values.
    fn min_val(self, other: Self) -> Self;
    /// Lossy conversion from `f64`: this crate's one narrowing float
    /// conversion (it sits below `tlr_mvm::cast`).
    fn from_f64(x: f64) -> Self;
    /// A count (a matrix dimension) as a real, rounded to nearest.
    fn from_usize(n: usize) -> Self;
    /// Widening conversion to `f64`.
    fn to_f64(self) -> f64;
    /// `true` unless NaN or infinite.
    fn is_finite(self) -> bool;
    /// Cosine.
    fn cos(self) -> Self;
    /// Sine.
    fn sin(self) -> Self;
    /// Four-quadrant arctangent `atan2(self, other)`.
    fn atan2(self, other: Self) -> Self;
    /// Natural exponential.
    fn exp(self) -> Self;
    /// Natural logarithm.
    fn ln(self) -> Self;
    /// `true` iff the value is exactly `±0.0`. This is a bitwise test
    /// (never true for NaN), so exact-zero short-circuits don't need a
    /// float `==` comparison (`clippy::float_cmp`, denied in every crate).
    fn exactly_zero(self) -> bool;
}

macro_rules! impl_real {
    ($t:ty) => {
        impl Real for $t {
            const ZERO: Self = 0.0;
            const ONE: Self = 1.0;
            const TWO: Self = 2.0;
            const EPSILON: Self = <$t>::EPSILON;

            #[inline(always)]
            fn sqrt(self) -> Self {
                self.sqrt()
            }
            #[inline(always)]
            fn abs(self) -> Self {
                self.abs()
            }
            #[inline(always)]
            fn hypot(self, other: Self) -> Self {
                self.hypot(other)
            }
            #[inline(always)]
            fn recip(self) -> Self {
                self.recip()
            }
            #[inline(always)]
            fn powi(self, n: i32) -> Self {
                self.powi(n)
            }
            #[inline(always)]
            fn max_val(self, other: Self) -> Self {
                self.max(other)
            }
            #[inline(always)]
            fn min_val(self, other: Self) -> Self {
                self.min(other)
            }
            // The crate's two float `as` casts. `clippy::as_conversions`
            // does not see a cast to a macro's type parameter, so they
            // carry no `#[expect]`; every other cast in the crate is denied.
            #[inline(always)]
            fn from_f64(x: f64) -> Self {
                x as $t
            }
            #[inline(always)]
            fn from_usize(n: usize) -> Self {
                n as $t
            }
            #[inline(always)]
            fn to_f64(self) -> f64 {
                f64::from(self)
            }
            #[inline(always)]
            fn is_finite(self) -> bool {
                <$t>::is_finite(self)
            }
            #[inline(always)]
            fn cos(self) -> Self {
                self.cos()
            }
            #[inline(always)]
            fn sin(self) -> Self {
                self.sin()
            }
            #[inline(always)]
            fn atan2(self, other: Self) -> Self {
                self.atan2(other)
            }
            #[inline(always)]
            fn exp(self) -> Self {
                self.exp()
            }
            #[inline(always)]
            fn ln(self) -> Self {
                self.ln()
            }
            #[inline(always)]
            fn exactly_zero(self) -> bool {
                // Shifting out the sign bit leaves 0 only for ±0.0.
                self.to_bits() << 1 == 0
            }
        }
    };
}

impl_real!(f32);
impl_real!(f64);

/// `true` iff `x` is exactly `±0.0` — the bitwise form of `x == 0.0`
/// (identical semantics: both reject NaN) that exact-zero short-circuit
/// tests use instead of a float `==` comparison (`clippy::float_cmp`).
#[inline(always)]
pub fn exactly_zero_f32(x: f32) -> bool {
    x.to_bits() << 1 == 0
}

/// `f64` counterpart of [`exactly_zero_f32`].
#[inline(always)]
pub fn exactly_zero_f64(x: f64) -> bool {
    x.to_bits() << 1 == 0
}

/// Cartesian complex number over a [`Real`] field.
///
/// Single-precision complex ([`C32`]) is the working precision of the paper
/// (FP32 complex seismic frequency matrices); [`C64`] is used by tests and
/// reference computations.
#[derive(Clone, Copy, PartialEq, Default)]
#[repr(C)]
pub struct Complex<T> {
    /// Real part.
    pub re: T,
    /// Imaginary part.
    pub im: T,
}

/// Single-precision complex scalar.
pub type C32 = Complex<f32>;
/// Double-precision complex scalar.
pub type C64 = Complex<f64>;

impl<T: Real> Complex<T> {
    /// Construct from Cartesian parts.
    pub const fn new(re: T, im: T) -> Self {
        Self { re, im }
    }

    /// Complex conjugate.
    #[inline(always)]
    pub fn conj(self) -> Self {
        Self::new(self.re, -self.im)
    }

    /// Squared modulus `re² + im²`.
    #[inline(always)]
    pub fn norm_sqr(self) -> T {
        self.re * self.re + self.im * self.im
    }

    /// Modulus, computed with `hypot` for robustness.
    #[inline(always)]
    pub fn abs(self) -> T {
        self.re.hypot(self.im)
    }

    /// Phase angle in `(-π, π]`.
    #[inline]
    pub fn arg(self) -> T {
        self.im.atan2(self.re)
    }

    /// `r·e^{iθ}`.
    #[inline]
    pub fn from_polar(r: T, theta: T) -> Self {
        Self::new(r * theta.cos(), r * theta.sin())
    }

    /// `e^{iθ}` on the unit circle.
    #[inline]
    pub fn cis(theta: T) -> Self {
        Self::new(theta.cos(), theta.sin())
    }

    /// Multiply by a real scalar.
    #[inline(always)]
    pub fn scale(self, s: T) -> Self {
        Self::new(self.re * s, self.im * s)
    }

    /// Multiplicative inverse.
    #[inline]
    pub fn inv(self) -> Self {
        let d = self.norm_sqr().recip();
        Self::new(self.re * d, -self.im * d)
    }

    /// `true` iff both components are finite.
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

impl C32 {
    /// Widen to double precision.
    #[inline]
    pub fn widen(self) -> C64 {
        C64::new(f64::from(self.re), f64::from(self.im))
    }
}

impl C64 {
    /// Narrow to single precision.
    #[inline]
    pub fn narrow(self) -> C32 {
        C32::new(f32::from_f64(self.re), f32::from_f64(self.im))
    }
}

impl<T: Real> Add for Complex<T> {
    type Output = Self;
    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        Self::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl<T: Real> Sub for Complex<T> {
    type Output = Self;
    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        Self::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl<T: Real> Mul for Complex<T> {
    type Output = Self;
    #[inline(always)]
    fn mul(self, rhs: Self) -> Self {
        Self::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl<T: Real> Div for Complex<T> {
    type Output = Self;
    #[allow(
        clippy::suspicious_arithmetic_impl,
        reason = "division by multiplicative inverse is the standard complex formulation; the \
                  lint expects a literal `/`"
    )]
    #[inline]
    fn div(self, rhs: Self) -> Self {
        self * rhs.inv()
    }
}

impl<T: Real> Neg for Complex<T> {
    type Output = Self;
    #[inline(always)]
    fn neg(self) -> Self {
        Self::new(-self.re, -self.im)
    }
}

impl<T: Real> AddAssign for Complex<T> {
    #[inline(always)]
    fn add_assign(&mut self, rhs: Self) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl<T: Real> SubAssign for Complex<T> {
    #[inline(always)]
    fn sub_assign(&mut self, rhs: Self) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl<T: Real> MulAssign for Complex<T> {
    #[inline(always)]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl<T: Real> DivAssign for Complex<T> {
    #[inline]
    fn div_assign(&mut self, rhs: Self) {
        *self = *self / rhs;
    }
}

impl<T: Real> Sum for Complex<T> {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::new(T::ZERO, T::ZERO), |a, b| a + b)
    }
}

impl<T: Real> fmt::Debug for Complex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:?}{:+?}i)", self.re, self.im)
    }
}

impl<T: Real> fmt::Display for Complex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}+{}i)", self.re, self.im)
    }
}

/// Element type usable in matrices and factorizations: a real or complex
/// field with conjugation, absolute value and construction from reals.
pub trait Scalar:
    Copy
    + Clone
    + PartialEq
    + fmt::Debug
    + fmt::Display
    + Default
    + Send
    + Sync
    + 'static
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + Sum
{
    /// Associated real field (`f32` for both `f32` and `C32`).
    type Real: Real;

    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;

    /// Complex conjugate (identity for real scalars).
    fn conj(self) -> Self;
    /// Modulus.
    fn abs(self) -> Self::Real;
    /// Squared modulus.
    fn abs_sqr(self) -> Self::Real;
    /// Embed a real value.
    fn from_real(r: Self::Real) -> Self;
    /// Build from real and imaginary parts; a real scalar drops `im`. The
    /// lane kernels of [`crate::blas`] work on the two parts separately and
    /// put them back together with this.
    fn from_parts(re: Self::Real, im: Self::Real) -> Self;
    /// Real part.
    fn real(self) -> Self::Real;
    /// Imaginary part (zero for real scalars).
    fn imag(self) -> Self::Real;
    /// Multiply by a real scalar.
    fn mul_real(self, r: Self::Real) -> Self;
    /// Multiplicative inverse.
    fn inv(self) -> Self;
    /// `true` iff both components are finite.
    fn is_finite(self) -> bool;
    /// Number of real FP words per scalar (1 for real, 2 for complex);
    /// used by the memory-traffic accounting in the performance model.
    const REAL_WORDS: usize;
}

impl Scalar for f32 {
    type Real = f32;
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const REAL_WORDS: usize = 1;

    #[inline(always)]
    fn conj(self) -> Self {
        self
    }
    #[inline(always)]
    fn abs(self) -> f32 {
        self.abs()
    }
    #[inline(always)]
    fn abs_sqr(self) -> f32 {
        self * self
    }
    #[inline(always)]
    fn from_real(r: f32) -> Self {
        r
    }
    #[inline(always)]
    fn from_parts(re: f32, _im: f32) -> Self {
        re
    }
    #[inline(always)]
    fn real(self) -> f32 {
        self
    }
    #[inline(always)]
    fn imag(self) -> f32 {
        0.0
    }
    #[inline(always)]
    fn mul_real(self, r: f32) -> Self {
        self * r
    }
    #[inline(always)]
    fn inv(self) -> Self {
        self.recip()
    }
    #[inline(always)]
    fn is_finite(self) -> bool {
        f32::is_finite(self)
    }
}

impl Scalar for f64 {
    type Real = f64;
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const REAL_WORDS: usize = 1;

    #[inline(always)]
    fn conj(self) -> Self {
        self
    }
    #[inline(always)]
    fn abs(self) -> f64 {
        self.abs()
    }
    #[inline(always)]
    fn abs_sqr(self) -> f64 {
        self * self
    }
    #[inline(always)]
    fn from_real(r: f64) -> Self {
        r
    }
    #[inline(always)]
    fn from_parts(re: f64, _im: f64) -> Self {
        re
    }
    #[inline(always)]
    fn real(self) -> f64 {
        self
    }
    #[inline(always)]
    fn imag(self) -> f64 {
        0.0
    }
    #[inline(always)]
    fn mul_real(self, r: f64) -> Self {
        self * r
    }
    #[inline(always)]
    fn inv(self) -> Self {
        self.recip()
    }
    #[inline(always)]
    fn is_finite(self) -> bool {
        f64::is_finite(self)
    }
}

macro_rules! impl_scalar_complex {
    ($real:ty) => {
        impl Scalar for Complex<$real> {
            type Real = $real;
            const ZERO: Self = Complex::new(0.0, 0.0);
            const ONE: Self = Complex::new(1.0, 0.0);
            const REAL_WORDS: usize = 2;

            #[inline(always)]
            fn conj(self) -> Self {
                Complex::conj(self)
            }
            #[inline(always)]
            fn abs(self) -> $real {
                Complex::abs(self)
            }
            #[inline(always)]
            fn abs_sqr(self) -> $real {
                Complex::norm_sqr(self)
            }
            #[inline(always)]
            fn from_real(r: $real) -> Self {
                Complex::new(r, 0.0)
            }
            #[inline(always)]
            fn from_parts(re: $real, im: $real) -> Self {
                Complex::new(re, im)
            }
            #[inline(always)]
            fn real(self) -> $real {
                self.re
            }
            #[inline(always)]
            fn imag(self) -> $real {
                self.im
            }
            #[inline(always)]
            fn mul_real(self, r: $real) -> Self {
                self.scale(r)
            }
            #[inline(always)]
            fn inv(self) -> Self {
                Complex::inv(self)
            }
            #[inline(always)]
            fn is_finite(self) -> bool {
                Complex::is_finite(self)
            }
        }
    };
}

impl_scalar_complex!(f32);
impl_scalar_complex!(f64);

/// Convenience constructor for [`C32`].
#[inline(always)]
pub const fn c32(re: f32, im: f32) -> C32 {
    C32::new(re, im)
}

/// Convenience constructor for [`C64`].
#[inline(always)]
pub const fn c64(re: f64, im: f64) -> C64 {
    C64::new(re, im)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complex_field_axioms() {
        let a = c32(1.5, -2.0);
        let b = c32(-0.25, 3.0);
        let c = c32(4.0, 0.5);
        // commutativity / associativity / distributivity (exact for these values)
        assert_eq!(a + b, b + a);
        assert_eq!(a * b, b * a);
        let lhs = (a * b) * c;
        let rhs = a * (b * c);
        assert!((lhs - rhs).abs() < 1e-5);
        let d = a * (b + c);
        let e = a * b + a * c;
        assert!((d - e).abs() < 1e-5);
    }

    #[test]
    fn conj_and_modulus() {
        let a = c32(3.0, 4.0);
        assert_eq!(a.abs(), 5.0);
        assert_eq!(a.norm_sqr(), 25.0);
        assert_eq!(a.conj(), c32(3.0, -4.0));
        let p = a * a.conj();
        assert!((p.re - 25.0).abs() < 1e-5 && p.im.abs() < 1e-5);
    }

    #[test]
    fn inverse_and_division() {
        let a = c32(2.0, -1.0);
        let one = a * a.inv();
        assert!((one - C32::ONE).abs() < 1e-6);
        let b = c32(0.5, 0.25);
        let q = (a / b) * b;
        assert!((q - a).abs() < 1e-5);
    }

    #[test]
    fn polar_roundtrip() {
        let a = c64(-1.25, 0.75);
        let b = C64::from_polar(a.abs(), a.arg());
        assert!((a - b).abs() < 1e-12);
        let u = C64::cis(0.3);
        assert!((u.abs() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn scalar_trait_for_reals() {
        assert_eq!(<f32 as Scalar>::conj(2.0), 2.0);
        assert_eq!(<f64 as Scalar>::abs_sqr(-3.0), 9.0);
        assert_eq!(<f32 as Scalar>::imag(7.0), 0.0);
        assert_eq!(f32::REAL_WORDS, 1);
        assert_eq!(C32::REAL_WORDS, 2);
    }

    #[test]
    fn widen_narrow() {
        let a = c32(1.0, -2.0);
        assert_eq!(a.widen().narrow(), a);
    }

    #[test]
    fn exact_zero_tests() {
        assert!(exactly_zero_f32(0.0));
        assert!(exactly_zero_f32(-0.0));
        assert!(!exactly_zero_f32(f32::MIN_POSITIVE / 2.0)); // subnormal
        assert!(!exactly_zero_f32(f32::NAN));
        assert!(exactly_zero_f64(0.0));
        assert!(exactly_zero_f64(-0.0));
        assert!(!exactly_zero_f64(1e-300));
        assert!(!exactly_zero_f64(f64::NAN));
        assert!(Real::exactly_zero(0.0f32));
        assert!(Real::exactly_zero(-0.0f64));
        assert!(!Real::exactly_zero(f64::EPSILON));
    }
}
