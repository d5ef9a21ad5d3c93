//! Time-domain gather synthesis: turn the frequency-domain wavefields
//! into the traces a field crew would record — used for the Fig 13
//! displays and for physical sanity checks (arrival times, causality).

use rayon::prelude::*;
use seismic_fft::RealFft;
use seismic_geom::Point3;
use seismic_la::scalar::C64;

use crate::modeling::{downgoing_value, ModelingConfig};
use crate::velocity::VelocityModel;
use crate::wavelet::flat_band_spectrum;

/// Options for gather synthesis.
#[derive(Clone, Copy, Debug)]
pub struct GatherConfig {
    /// Time samples per trace.
    pub nt: usize,
    /// Temporal sampling (s).
    pub dt: f64,
    /// Flat band edge of the source spectrum (Hz).
    pub f_flat: f64,
    /// Spectrum rolloff end (Hz).
    pub f_max: f64,
    /// Water-layer reverberation orders.
    pub n_water_multiples: usize,
}

impl Default for GatherConfig {
    fn default() -> Self {
        Self {
            nt: 512,
            dt: 0.004,
            f_flat: 30.0,
            f_max: 40.0,
            n_water_multiples: 2,
        }
    }
}

/// Synthesize the downgoing-wavefield trace `p⁺(t)` recorded at `rec`
/// from a source at `src`, by evaluating the frequency response on every
/// retained bin and inverse-transforming.
pub fn downgoing_trace(
    src: &Point3,
    rec: &Point3,
    model: &VelocityModel,
    cfg: &GatherConfig,
) -> Vec<f64> {
    let mcfg = ModelingConfig {
        n_water_multiples: cfg.n_water_multiples,
        ..Default::default()
    };
    synthesize(cfg, |omega| downgoing_value(omega, src, rec, model, &mcfg))
}

/// Common synthesis loop: evaluate the response at each positive bin,
/// weight by the source spectrum, and inverse-FFT.
fn synthesize(cfg: &GatherConfig, response: impl Fn(f64) -> C64 + Sync) -> Vec<f64> {
    let rf = RealFft::<f64>::new(cfg.nt);
    let nf = rf.spectrum_len();
    let df = 1.0 / (cfg.nt as f64 * cfg.dt);
    let amp = flat_band_spectrum(nf, df, cfg.f_flat, cfg.f_max);
    let spec: Vec<C64> = (0..nf)
        .into_par_iter()
        .map(|k| {
            if k == 0 || amp[k] <= 1e-9 {
                C64::new(0.0, 0.0)
            } else {
                let omega = 2.0 * std::f64::consts::PI * k as f64 * df;
                response(omega).scale(amp[k])
            }
        })
        .collect();
    rf.inverse(&spec)
}

/// Sample index of the strongest absolute amplitude.
pub fn peak_sample(trace: &[f64]) -> usize {
    trace
        .iter()
        .enumerate()
        .max_by(|a, b| {
            a.1.abs()
                .partial_cmp(&b.1.abs())
                .unwrap_or(core::cmp::Ordering::Equal)
        })
        .map(|(i, _)| i)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> GatherConfig {
        GatherConfig {
            nt: 512,
            dt: 0.004,
            f_flat: 30.0,
            f_max: 40.0,
            n_water_multiples: 0,
        }
    }

    #[test]
    fn direct_arrival_lands_at_travel_time() {
        let model = VelocityModel::overthrust();
        let src = Point3::new(1000.0, 1000.0, 10.0);
        let rec = Point3::new(1000.0, 1000.0, 300.0);
        let trace = downgoing_trace(&src, &rec, &model, &cfg());
        // Direct arrival: 290 m / 1500 m/s ≈ 0.193 s.
        let peak_t = peak_sample(&trace) as f64 * 0.004;
        assert!(
            (peak_t - 0.1933).abs() < 0.02,
            "direct arrival at {peak_t} s (want ~0.193 s)"
        );
    }

    #[test]
    fn trace_is_causal() {
        // No significant energy before the first possible arrival.
        let model = VelocityModel::overthrust();
        let src = Point3::new(0.0, 0.0, 10.0);
        let rec = Point3::new(600.0, 0.0, 300.0);
        let trace = downgoing_trace(&src, &rec, &model, &cfg());
        let d = src.dist(&rec);
        let t_first = d / model.water_velocity;
        let i_first = (t_first / 0.004) as usize;
        let peak: f64 = trace.iter().fold(0.0, |a, &b| a.max(b.abs()));
        // Allow the band-limited wavelet's ~0.05 s precursor.
        let guard = i_first.saturating_sub(15);
        for &v in &trace[..guard] {
            assert!(v.abs() < 0.1 * peak, "acausal energy {v} (peak {peak})");
        }
    }

    #[test]
    fn multiples_arrive_later_and_weaker() {
        let model = VelocityModel::overthrust();
        let src = Point3::new(1000.0, 1000.0, 10.0);
        let rec = Point3::new(1000.0, 1000.0, 300.0);
        let mut c = cfg();
        c.n_water_multiples = 2;
        let with = downgoing_trace(&src, &rec, &model, &c);
        c.n_water_multiples = 0;
        let without = downgoing_trace(&src, &rec, &model, &c);
        // The difference (the reverberation train) peaks after the direct.
        let diff: Vec<f64> = with.iter().zip(&without).map(|(a, b)| a - b).collect();
        let direct_peak = peak_sample(&without);
        let mult_peak = peak_sample(&diff);
        assert!(
            mult_peak > direct_peak,
            "multiple at {mult_peak} <= direct {direct_peak}"
        );
        assert!(diff[mult_peak].abs() < without[direct_peak].abs());
    }
}
