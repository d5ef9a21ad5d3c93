//! Global plan cache: FFT plans are immutable and expensive to build
//! (twiddle tables, Bluestein kernels), while the MDC operator transforms
//! thousands of traces of identical length — so plans are shared behind
//! `Arc` and memoized per length.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use seismic_la::scalar::Real;
use seismic_la::sync::lock;

use crate::plan::FftPlan;

/// One precision's process-wide cache.
type Cache<T> = Mutex<Option<HashMap<usize, Arc<FftPlan<T>>>>>;

static CACHE_F64: Cache<f64> = Mutex::new(None);
static CACHE_F32: Cache<f32> = Mutex::new(None);

/// The plan for length `n` in `cache`, built on first use.
fn cached<T: Real>(cache: &Cache<T>, n: usize) -> Arc<FftPlan<T>> {
    let mut guard = lock(cache);
    let map = guard.get_or_insert_with(HashMap::new);
    Arc::clone(map.entry(n).or_insert_with(|| Arc::new(FftPlan::new(n))))
}

/// Shared `f64` plan for length `n`, built once per process.
pub fn plan_f64(n: usize) -> Arc<FftPlan<f64>> {
    cached(&CACHE_F64, n)
}

/// Shared `f32` plan for length `n`.
pub fn plan_f32(n: usize) -> Arc<FftPlan<f32>> {
    cached(&CACHE_F32, n)
}

/// Number of cached `f64` plans (diagnostics/tests).
pub fn cached_f64_plans() -> usize {
    lock(&CACHE_F64).as_ref().map_or(0, |m| m.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Direction;
    use seismic_la::scalar::C64;

    #[test]
    fn cache_returns_same_plan() {
        let a = plan_f64(96);
        let b = plan_f64(96);
        assert!(Arc::ptr_eq(&a, &b));
        let c = plan_f64(97);
        assert!(!Arc::ptr_eq(&a, &c));
        assert!(cached_f64_plans() >= 2);
    }

    #[test]
    fn cached_plan_computes_correctly() {
        let plan = plan_f64(32);
        let mut x: Vec<C64> = (0..32).map(|i| C64::new(i as f64, 0.0)).collect();
        let orig = x.clone();
        plan.process(&mut x, Direction::Forward);
        plan.process(&mut x, Direction::Inverse);
        for (a, b) in x.iter().zip(&orig) {
            assert!((*a - *b).abs() < 1e-9);
        }
    }

    #[test]
    fn f32_cache_separate() {
        let a = plan_f32(64);
        assert_eq!(a.len(), 64);
    }
}
