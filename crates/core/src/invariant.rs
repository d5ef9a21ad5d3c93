//! Debug-build numeric invariants for the TLR-MVM phase seams.
//!
//! A NaN or Inf produced in one phase poisons every later reduction
//! *silently* — the bandwidth numbers stay plausible while the physics is
//! garbage. These checks pin the contract at each phase boundary in debug
//! builds and compile to nothing in release, so the hot paths stay hot.

use seismic_la::scalar::C32;

/// Assert every complex entry is finite (debug builds only).
///
/// `label` names the seam (e.g. `"three_phase.v_batch.yv"`) so a failure
/// points at the phase that produced the bad value, not the one that
/// tripped over it.
#[inline]
pub fn assert_finite(label: &str, values: &[C32]) {
    #[cfg(debug_assertions)]
    for (i, z) in values.iter().enumerate() {
        debug_assert!(
            z.re.is_finite() && z.im.is_finite(),
            "non-finite value at {label}[{i}]: {z}"
        );
    }
    #[cfg(not(debug_assertions))]
    {
        let _ = (label, values);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finite_vectors_pass() {
        let v = vec![C32::new(1.0, -2.0); 8];
        assert_finite("test.ok", &v);
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "debug-only contract")]
    fn nan_is_caught_in_debug() {
        let v = vec![C32::new(0.0, 0.0), C32::new(f32::NAN, 0.0)];
        let caught = std::panic::catch_unwind(|| assert_finite("test.nan", &v)).is_err();
        assert!(caught);
    }
}
