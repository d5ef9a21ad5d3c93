//! Source wavelets: Ricker and the paper's "flat wavelet up to 45 Hz".

use std::f64::consts::PI;

/// Time-domain Ricker (Mexican-hat) wavelet with peak frequency `f0`,
/// centered at `t0`, sampled at `dt` over `nt` samples.
pub fn ricker(nt: usize, dt: f64, f0: f64, t0: f64) -> Vec<f64> {
    (0..nt)
        .map(|i| {
            let t = i as f64 * dt - t0;
            let a = (PI * f0 * t).powi(2);
            (1.0 - 2.0 * a) * (-a).exp()
        })
        .collect()
}

/// Frequency-domain amplitude of a "flat" wavelet: unit amplitude up to
/// `f_flat`, cosine rolloff to zero at `f_max` — the band-limited flat
/// spectrum the paper models with (§6.1, "flat wavelet up to 45 Hz").
pub fn flat_band_spectrum(nf: usize, df: f64, f_flat: f64, f_max: f64) -> Vec<f64> {
    assert!(f_max >= f_flat);
    (0..nf)
        .map(|k| {
            let f = k as f64 * df;
            if f <= f_flat {
                1.0
            } else if f < f_max {
                let x = (f - f_flat) / (f_max - f_flat);
                0.5 * (1.0 + (PI * x).cos())
            } else {
                0.0
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ricker_peak_at_center() {
        let nt = 256;
        let dt = 0.004;
        let t0 = 0.5;
        let w = ricker(nt, dt, 20.0, t0);
        let peak = w
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(peak, (t0 / dt).round() as usize);
        assert!((w[peak] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ricker_zero_mean() {
        // The Ricker wavelet integrates to ~0 (band-pass, no DC).
        let w = ricker(512, 0.004, 15.0, 1.0);
        let mean: f64 = w.iter().sum::<f64>() / w.len() as f64;
        assert!(mean.abs() < 1e-6);
    }

    #[test]
    fn flat_spectrum_shape() {
        let s = flat_band_spectrum(101, 1.0, 45.0, 55.0);
        assert!(s[..46].iter().all(|&a| (a - 1.0).abs() < 1e-12));
        assert!(s[56..].iter().all(|&a| a.abs() < 1e-12));
        assert!(s[50] > 0.0 && s[50] < 1.0);
    }
}
