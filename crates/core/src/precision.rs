//! Mixed-precision base storage — the ablation from the paper's companion
//! work (Hong et al., "HPC Seismic Redatuming by Inversion with Algebraic
//! Compression and *Multiple Precisions*", refs \[23\]/\[24\]): store the
//! bases in a narrower format and widen on the fly, halving the
//! memory footprint (and on bandwidth-bound hardware, the traffic) at a
//! quantization-noise cost that the `acc` tolerance already budgets for.
//!
//! bf16 (top 16 bits of an IEEE f32) is used as the narrow format — the
//! same exponent range as f32 with an 8-bit mantissa, so the relative
//! quantization error is ~2⁻⁸ ≈ 4e-3 per entry.

use seismic_la::scalar::C32;
use seismic_la::Matrix;

use crate::matrix::{Tile, TileRef, TlrMatrix};
use crate::skeleton::{Perm, Skeleton};

/// Checked numeric conversion between integer types: panics with the
/// caller's location if `x` does not fit in the destination. This is the
/// sanctioned replacement for raw `as` casts in hot paths (lint rule
/// `NA01`): truncation becomes a loud contract violation instead of a
/// silently wrong byte / cycle count.
#[inline]
#[track_caller]
pub fn checked_cast<S, D>(x: S) -> D
where
    S: Copy + core::fmt::Debug,
    D: TryFrom<S>,
{
    match D::try_from(x) {
        Ok(v) => v,
        // The one sanctioned loud-failure point for numeric narrowing:
        // #[track_caller] reports the caller's site, and every caller
        // prefers a panic over a silently truncated byte / cycle count.
        #[expect(
            clippy::panic,
            reason = "checked_cast is the documented loud-failure contract for narrowing"
        )]
        Err(_) => panic!(
            "numeric cast out of range: {:?} does not fit in {}",
            x,
            core::any::type_name::<D>()
        ),
    }
}

/// Widen a `usize` to `u64`. Infallible on every supported target
/// (`usize` is at most 64 bits); routed through [`checked_cast`] so the
/// assumption is enforced rather than assumed.
#[inline]
#[track_caller]
pub fn to_u64(x: usize) -> u64 {
    checked_cast(x)
}

/// Narrow a `u64` to `usize`. Panics when the value exceeds the address
/// space — possible for wafer-scale element counts on a 32-bit host —
/// instead of silently wrapping as `as usize` would.
#[inline]
#[track_caller]
pub fn to_usize(x: u64) -> usize {
    checked_cast(x)
}

/// Convert a finite, non-negative `f64` (already rounded by the caller
/// via `round`/`ceil`/`floor`) to `u64`. Panics on NaN, negative, or
/// out-of-range inputs — the failure modes `as u64` saturates through.
///
/// The conversion itself is a bit-level exponent/mantissa decomposition
/// rather than an `as` cast, so the NA01 lint holds with no allowlist
/// entry: truncation toward zero is spelled out as an explicit shift.
#[inline]
#[track_caller]
pub fn f64_to_u64(x: f64) -> u64 {
    assert!(x.is_finite(), "f64_to_u64: non-finite input {x}");
    assert!(x >= 0.0, "f64_to_u64: negative input {x}");
    // 2^64 as the first unrepresentable value; `<` keeps every in-range
    // integer-valued double.
    assert!(
        x < 18_446_744_073_709_551_616.0,
        "f64_to_u64: {x} overflows u64"
    );
    let bits = x.to_bits();
    let exp = (bits >> 52) & 0x7ff;
    if exp < 1023 {
        // |x| < 1 (zero and subnormals included) truncates to 0.
        return 0;
    }
    // Implicit leading bit restored; `shift` is the unbiased exponent,
    // at most 63 thanks to the range assert above.
    let frac = (bits & ((1u64 << 52) - 1)) | (1u64 << 52);
    let shift = exp - 1023;
    if shift >= 52 {
        frac << (shift - 52)
    } else {
        frac >> (52 - shift)
    }
}

/// Round an f32 to bf16 (round-to-nearest-even on the dropped bits).
#[inline]
pub fn f32_to_bf16(x: f32) -> u16 {
    let bits = x.to_bits();
    if x.is_nan() {
        // Keep NaN quiet with a non-zero mantissa; rounding arithmetic
        // below could carry a payload into the exponent (and previously
        // overflowed u32 for sign-bit NaNs).
        return checked_cast::<u32, u16>(bits >> 16) | 1;
    }
    let round = ((bits >> 16) & 1) + 0x7fff;
    // Max finite/inf input is 0xff80_0000, so the add cannot overflow
    // once NaNs are excluded.
    checked_cast::<u32, u16>((bits + round) >> 16)
}

/// Widen a bf16 back to f32.
#[inline]
pub fn bf16_to_f32(h: u16) -> f32 {
    f32::from_bits(u32::from(h) << 16)
}

/// A complex matrix with bf16-quantized storage (interleaved re/im).
#[derive(Clone, Debug)]
pub struct Bf16Matrix {
    nrows: usize,
    ncols: usize,
    /// Interleaved `[re, im]` bf16 words, column-major.
    data: Vec<u16>,
}

impl Bf16Matrix {
    /// Quantize a complex matrix.
    pub fn from_c32(a: &Matrix<C32>) -> Self {
        let mut data = Vec::with_capacity(2 * a.len());
        for v in a.as_slice() {
            data.push(f32_to_bf16(v.re));
            data.push(f32_to_bf16(v.im));
        }
        Self {
            nrows: a.nrows(),
            ncols: a.ncols(),
            data,
        }
    }

    /// Widen back to a full-precision matrix.
    pub fn to_c32(&self) -> Matrix<C32> {
        let data: Vec<C32> = self
            .data
            .chunks_exact(2)
            .map(|p| C32::new(bf16_to_f32(p[0]), bf16_to_f32(p[1])))
            .collect();
        Matrix::from_col_major(self.nrows, self.ncols, data)
    }

    /// Storage bytes (4 B per complex entry instead of 8).
    pub fn bytes(&self) -> usize {
        self.data.len() * 2
    }
}

/// One tile's stored form ([`Tile`]), quantised: the panel of a skeleton
/// beside its row count and its column order, which stay as they are, or
/// the dense block.
enum Bf16Tile {
    LowRank(Bf16Matrix, usize, Perm),
    Dense(Bf16Matrix),
}

/// A TLR matrix with bf16 storage: half the memory of the FP32 version.
pub struct Bf16TlrMatrix {
    tiling: crate::tiling::Tiling,
    tiles: Vec<Bf16Tile>,
}

impl Bf16TlrMatrix {
    /// Quantize every tile as stored: the `[X; C]` panel of a skeleton (its
    /// column order is kept as it is), or the dense block.
    pub fn from_tlr(tlr: &TlrMatrix) -> Self {
        let tiles = tlr
            .tiles_with_coords()
            .map(|(_, _, t)| match t {
                TileRef::LowRank(s) => Bf16Tile::LowRank(
                    Bf16Matrix::from_c32(s.panel()),
                    s.shape().0,
                    s.order().clone(),
                ),
                TileRef::Dense(a) => Bf16Tile::Dense(Bf16Matrix::from_c32(&a.to_matrix())),
            })
            .collect();
        Self {
            tiling: *tlr.tiling(),
            tiles,
        }
    }

    /// Total stored bytes: half the words' bytes of the FP32 matrix, and
    /// the skeletons' column orders as they are.
    pub fn compressed_bytes(&self) -> usize {
        self.tiles
            .iter()
            .map(|t| match t {
                Bf16Tile::LowRank(panel, _, order) => panel.bytes() + order.bytes(),
                Bf16Tile::Dense(a) => a.bytes(),
            })
            .sum()
    }

    /// Widen back into a full-precision [`TlrMatrix`] (the apply path:
    /// quantization noise is baked into the stored words, arithmetic stays
    /// FP32 as on the CS-2, whose fmacs are single precision).
    pub fn dequantize(&self, config: crate::compress::CompressionConfig) -> TlrMatrix {
        let tiles: Vec<Tile> = self
            .tiles
            .iter()
            .map(|t| match t {
                Bf16Tile::LowRank(panel, m, order) => {
                    Tile::LowRank(Skeleton::with_order(panel.to_c32(), *m, order.clone()))
                }
                Bf16Tile::Dense(a) => Tile::Dense(a.to_c32()),
            })
            .collect();
        TlrMatrix::new(self.tiling, tiles, config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::{compress, CompressionConfig, CompressionMethod, ToleranceMode};

    #[test]
    fn bf16_roundtrip_error_bounded() {
        for &x in &[0.0f32, 1.0, -1.0, 2.7333, 1e-8, -2.5e7, 1e30] {
            let back = bf16_to_f32(f32_to_bf16(x));
            let rel = if x == 0.0 {
                back.abs()
            } else {
                ((back - x) / x).abs()
            };
            assert!(rel < 0.004, "x={x} back={back} rel={rel}");
        }
        // Exactly representable values survive.
        assert_eq!(bf16_to_f32(f32_to_bf16(1.0)), 1.0);
        assert_eq!(bf16_to_f32(f32_to_bf16(-0.5)), -0.5);
    }

    #[test]
    fn bf16_nan_and_inf_survive() {
        assert!(bf16_to_f32(f32_to_bf16(f32::NAN)).is_nan());
        // Sign-bit NaN with a full payload: the old rounding arithmetic
        // overflowed u32 here and produced +0.0 in release builds.
        assert!(bf16_to_f32(f32_to_bf16(f32::from_bits(0xFFFF_FFFF))).is_nan());
        assert_eq!(bf16_to_f32(f32_to_bf16(f32::INFINITY)), f32::INFINITY);
        assert_eq!(
            bf16_to_f32(f32_to_bf16(f32::NEG_INFINITY)),
            f32::NEG_INFINITY
        );
        // Overflow rounds to infinity, preserving sign.
        assert_eq!(bf16_to_f32(f32_to_bf16(-f32::MAX)), f32::NEG_INFINITY);
    }

    #[test]
    fn checked_casts_pass_in_range() {
        assert_eq!(checked_cast::<u64, u32>(7), 7u32);
        assert_eq!(to_u64(usize::MAX), usize::MAX as u64);
        assert_eq!(to_usize(4096), 4096usize);
        assert_eq!(f64_to_u64(12.0), 12);
        assert_eq!(f64_to_u64(0.0), 0);
    }

    #[test]
    #[should_panic(expected = "numeric cast out of range")]
    fn checked_cast_panics_on_truncation() {
        let _: u16 = checked_cast(1_000_000u64);
    }

    #[test]
    fn f64_to_u64_matches_as_cast_on_edge_cases() {
        // The bit-twiddled decomposition must agree with the `as u64`
        // truncation semantics everywhere in the accepted input range.
        let cases = [
            0.0,
            f64::MIN_POSITIVE,       // largest subnormal neighborhood → 0
            5e-324,                  // smallest subnormal → 0
            0.999_999_999_999_999_9, // just below 1 → 0
            1.0,
            1.5, // fractional part dropped
            2.75,
            12.999,
            4_503_599_627_370_495.5,  // 2^52 - 0.5, last half-integer double
            9_007_199_254_740_992.0,  // 2^53, exponent beyond the mantissa
            9_007_199_254_740_994.0,  // 2^53 + 2
            9.223_372_036_854_776e18, // 2^63
            18_446_744_073_709_549_568.0, // largest double below 2^64
        ];
        for x in cases {
            assert_eq!(f64_to_u64(x), x as u64, "x = {x:e}");
        }
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn f64_to_u64_rejects_nan() {
        f64_to_u64(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "overflows u64")]
    fn f64_to_u64_rejects_two_to_the_64() {
        f64_to_u64(18_446_744_073_709_551_616.0);
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn f64_to_u64_rejects_negative() {
        f64_to_u64(-1.0);
    }

    fn kernel(m: usize, n: usize) -> Matrix<C32> {
        Matrix::from_fn(m, n, |i, j| {
            let x = i as f32 / m as f32;
            let y = j as f32 / n as f32;
            let d = ((x - y) * (x - y) + 0.02).sqrt();
            C32::from_polar(1.0 / (1.0 + 3.0 * d), -9.0 * d)
        })
    }

    #[test]
    fn quantized_tlr_halves_memory() {
        let a = kernel(80, 64);
        let cfg = CompressionConfig {
            nb: 16,
            acc: 1e-3,
            method: CompressionMethod::Svd,
            mode: ToleranceMode::RelativeTile,
        };
        let tlr = compress(&a, cfg);
        let q = Bf16TlrMatrix::from_tlr(&tlr);
        // Words halve; the column orders (one byte per column of every
        // skeleton tile that stores anything) are kept whole.
        let index: usize = tlr
            .tiles_with_coords()
            .map(|(_, _, t)| t.stored_bytes() - 8 * t.stored_elements())
            .sum();
        assert!(index > 0);
        assert_eq!(
            (q.compressed_bytes() - index) * 2,
            tlr.compressed_bytes() - index
        );
    }

    #[test]
    fn quantization_noise_within_bf16_budget() {
        let a = kernel(96, 72);
        let cfg = CompressionConfig {
            nb: 16,
            acc: 1e-4,
            method: CompressionMethod::Svd,
            mode: ToleranceMode::RelativeTile,
        };
        let tlr = compress(&a, cfg);
        let deq = Bf16TlrMatrix::from_tlr(&tlr).dequantize(cfg);
        // Operator perturbation from quantization: ≲ 2·bf16 eps relative
        // (C and X each quantized).
        let err = deq.reconstruct().sub(&tlr.reconstruct()).fro_norm();
        let norm = tlr.reconstruct().fro_norm();
        assert!(err < 0.01 * norm, "quantization err {err} vs norm {norm}");
        // And the apply path agrees to the same budget.
        let x: Vec<C32> = (0..72)
            .map(|i| C32::new((i as f32 * 0.17).sin(), (i as f32 * 0.05).cos()))
            .collect();
        let y_full = tlr.apply(&x);
        let y_q = deq.apply(&x);
        let scale = seismic_la::blas::nrm2(&y_full).max(1e-20);
        let diff: f32 = y_full
            .iter()
            .zip(&y_q)
            .map(|(a, b)| (*a - *b).norm_sqr())
            .sum::<f32>()
            .sqrt();
        assert!(diff < 0.01 * scale);
    }
}
