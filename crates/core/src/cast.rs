//! The library's numeric conversions. `core`, `la` and `wse` deny
//! `clippy::as_conversions` outside tests, so a conversion is `From`, a
//! checked integer cast here (which panics with the caller's location
//! instead of silently truncating a byte or cycle count), or one of the
//! float helpers here, each the one `as` of its kind. `seismic_la` sits
//! below this crate and converts through its `Real` trait instead.

/// Checked numeric conversion between integer types: panics with the
/// caller's location if `x` does not fit in the destination, so
/// truncation becomes a loud contract violation instead of a silently
/// wrong byte / cycle count.
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
/// rather than an `as` cast: truncation toward zero is spelled out as an
/// explicit shift.
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

/// A count as `f64`: exact below 2^53, rounded to nearest above — the
/// `f64` a ratio or a rate of byte, flop and element counts is taken in.
#[inline]
#[expect(clippy::as_conversions, reason = "std has no From<usize> for f64")]
pub fn usize_to_f64(x: usize) -> f64 {
    x as f64
}

/// A `u64` count as `f64`, rounded as [`usize_to_f64`].
#[inline]
#[expect(clippy::as_conversions, reason = "std has no From<u64> for f64")]
pub fn u64_to_f64(x: u64) -> f64 {
    x as f64
}

/// A count as `f32`, rounded once to nearest (exact below 2^24).
#[inline]
#[expect(clippy::as_conversions, reason = "std has no From<usize> for f32")]
pub fn usize_to_f32(x: usize) -> f32 {
    x as f32
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
