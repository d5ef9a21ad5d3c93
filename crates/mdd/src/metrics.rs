//! Solution-quality metrics: NMSE and the paper's Fig. 12 traffic-light
//! classification.

use seismic_la::scalar::{exactly_zero_f64, C32};

/// Normalized mean square error `‖est − truth‖² / ‖truth‖²`.
pub fn nmse(est: &[C32], truth: &[C32]) -> f64 {
    assert_eq!(est.len(), truth.len());
    let mut num = 0.0f64;
    let mut den = 0.0f64;
    for (e, t) in est.iter().zip(truth) {
        num += (*e - *t).norm_sqr() as f64;
        den += t.norm_sqr() as f64;
    }
    if exactly_zero_f64(den) {
        if exactly_zero_f64(num) {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        num / den
    }
}

/// Percentage change of NMSE relative to a benchmark solution — the
/// quantity plotted in Fig. 12 top ("% NMSE change" against the `nb = 70`,
/// `acc = 1e-4` benchmark).
pub fn nmse_change_pct(nmse_config: f64, nmse_benchmark: f64) -> f64 {
    if exactly_zero_f64(nmse_benchmark) {
        return if exactly_zero_f64(nmse_config) {
            0.0
        } else {
            f64::INFINITY
        };
    }
    100.0 * (nmse_config - nmse_benchmark) / nmse_benchmark
}

/// Fig. 12's quality regions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QualityRegion {
    /// Accurate — suitable for quantitative analysis (seismic inversion).
    Green,
    /// Satisfactory but noisier — qualitative analysis (interpretation).
    Orange,
    /// Unacceptably inaccurate.
    Red,
}

/// Classify a configuration by its % NMSE change against the benchmark,
/// using the thresholds implied by Fig. 12 (green ≲ 1 %, orange ≲ 4 %).
pub fn classify(nmse_change: f64) -> QualityRegion {
    if nmse_change <= 1.0 {
        QualityRegion::Green
    } else if nmse_change <= 4.0 {
        QualityRegion::Orange
    } else {
        QualityRegion::Red
    }
}

/// Energy of a real time window `[t0, t1)` of a trace (samples at `dt`).
pub fn window_energy(trace: &[f64], dt: f64, t0: f64, t1: f64) -> f64 {
    let i0 = ((t0 / dt).floor().max(0.0) as usize).min(trace.len());
    let i1 = ((t1 / dt).ceil().max(0.0) as usize).min(trace.len());
    trace[i0..i1].iter().map(|v| v * v).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nmse_basics() {
        let t = vec![C32::new(1.0, 0.0), C32::new(0.0, 2.0)];
        assert_eq!(nmse(&t, &t), 0.0);
        let e = vec![C32::new(0.0, 0.0), C32::new(0.0, 0.0)];
        assert!((nmse(&e, &t) - 1.0).abs() < 1e-12);
        let z = vec![C32::new(0.0, 0.0); 2];
        assert_eq!(nmse(&z, &z), 0.0);
        assert!(nmse(&t, &z).is_infinite());
    }

    #[test]
    fn change_pct_and_regions() {
        assert_eq!(nmse_change_pct(0.02, 0.02), 0.0);
        assert!((nmse_change_pct(0.022, 0.02) - 10.0).abs() < 1e-9);
        assert_eq!(classify(0.5), QualityRegion::Green);
        assert_eq!(classify(2.5), QualityRegion::Orange);
        assert_eq!(classify(8.0), QualityRegion::Red);
    }

    #[test]
    fn window_energy_selects_samples() {
        let trace = vec![0.0, 1.0, 2.0, 3.0, 0.0];
        let dt = 0.1;
        // samples 1..3 → 1 + 4
        let e = window_energy(&trace, dt, 0.1, 0.3);
        assert!((e - 5.0).abs() < 1e-12);
        // Out-of-range windows are clamped.
        assert_eq!(window_energy(&trace, dt, 10.0, 20.0), 0.0);
    }
}
