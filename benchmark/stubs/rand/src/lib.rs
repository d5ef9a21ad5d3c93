//! Offline stand-in for `rand` 0.8: `RngCore`, `SeedableRng::seed_from_u64`
//! and `Rng::{gen, gen_range}` for the float and unsigned integer types the
//! workspace draws. The algorithms follow rand 0.8 (PCG32 seed expansion,
//! 53/24-bit float conversion, widening-multiply integer ranges) as
//! written from its documentation; streams are not checked against the
//! real crate and nothing in the benchmark relies on them matching.

use std::ops::Range;

/// Source of random words.
pub trait RngCore {
    fn next_u32(&mut self) -> u32;
    fn next_u64(&mut self) -> u64;
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Generators constructible from a fixed-size seed.
pub trait SeedableRng: Sized {
    type Seed: Sized + Default + AsMut<[u8]>;

    fn from_seed(seed: Self::Seed) -> Self;

    /// Expand a `u64` into a full seed with PCG32, as rand_core does.
    fn seed_from_u64(mut state: u64) -> Self {
        const MUL: u64 = 6364136223846793005;
        const INC: u64 = 11634580027462260723;
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_mut(4) {
            state = state.wrapping_mul(MUL).wrapping_add(INC);
            let xorshifted = (((state >> 18) ^ state) >> 27) as u32;
            let rot = (state >> 59) as u32;
            let bytes = xorshifted.rotate_right(rot).to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
        Self::from_seed(seed)
    }
}

/// Types `Rng::gen` can produce (rand's `Standard` distribution).
pub trait Standard: Sized {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for u32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}
impl Standard for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}
impl Standard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}
impl Standard for f32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Types `Rng::gen_range` can draw from a half-open range.
pub trait SampleUniform: Sized {
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, range: Range<Self>) -> Self;
}

impl SampleUniform for f64 {
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, r: Range<f64>) -> f64 {
        assert!(r.start < r.end, "gen_range: empty range");
        let scale = r.end - r.start;
        loop {
            let v01 = f64::from_bits((rng.next_u64() >> 12) | (1023u64 << 52)) - 1.0;
            let res = v01 * scale + r.start;
            if res < r.end {
                return res;
            }
        }
    }
}

impl SampleUniform for f32 {
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, r: Range<f32>) -> f32 {
        assert!(r.start < r.end, "gen_range: empty range");
        let scale = r.end - r.start;
        loop {
            let v01 = f32::from_bits((rng.next_u32() >> 9) | (127u32 << 23)) - 1.0;
            let res = v01 * scale + r.start;
            if res < r.end {
                return res;
            }
        }
    }
}

macro_rules! uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_range<R: RngCore + ?Sized>(rng: &mut R, r: Range<$t>) -> $t {
                assert!(r.start < r.end, "gen_range: empty range");
                let span = (r.end as u64).wrapping_sub(r.start as u64);
                let zone = (span << span.leading_zeros()).wrapping_sub(1);
                loop {
                    let wide = u128::from(rng.next_u64()) * u128::from(span);
                    if (wide as u64) <= zone {
                        return (r.start as u64).wrapping_add((wide >> 64) as u64) as $t;
                    }
                }
            }
        }
    )*};
}
uniform_int!(usize, u64, u32);

/// User-facing extension methods, blanket-implemented like rand's `Rng`.
pub trait Rng: RngCore {
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    fn gen_range<T: SampleUniform>(&mut self, range: Range<T>) -> T {
        T::sample_range(self, range)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}
