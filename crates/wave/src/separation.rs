//! Acoustic up/down wavefield separation (paper §6.1: "wavefield
//! separation is performed to separate the downgoing (p⁺) from the
//! upgoing (p⁻) components of the pressure wavefield").
//!
//! Classic f-k separation on a horizontal receiver plane: transform
//! pressure `p` and vertical particle velocity `v_z` to wavenumber
//! domain, form `p± = ½(p ± (ρω/k_z)·v_z)` on the propagating region,
//! transform back. Evanescent wavenumbers (`k_z` imaginary) are tapered
//! to zero, as production implementations do.

#![allow(
    clippy::needless_range_loop,
    reason = "index-based loops here walk multiple parallel arrays; iterator zips would obscure \
              the stride structure the kernels are about"
)]

use seismic_fft::{Direction, FftPlan};
use seismic_la::scalar::C64;

/// A 2D complex field sampled on an `nx × ny` receiver grid
/// (inline-fastest layout matching [`seismic_geom::StationGrid`]).
#[derive(Clone, Debug)]
pub struct Field2d {
    /// Inline sample count.
    pub nx: usize,
    /// Crossline sample count.
    pub ny: usize,
    /// Samples, `idx = iy·nx + ix`.
    pub data: Vec<C64>,
}

impl Field2d {
    /// Zero field.
    pub fn zeros(nx: usize, ny: usize) -> Self {
        Self {
            nx,
            ny,
            data: vec![C64::new(0.0, 0.0); nx * ny],
        }
    }

    /// Build from a closure over `(ix, iy)`.
    pub fn from_fn(nx: usize, ny: usize, mut f: impl FnMut(usize, usize) -> C64) -> Self {
        let mut data = Vec::with_capacity(nx * ny);
        for iy in 0..ny {
            for ix in 0..nx {
                data.push(f(ix, iy));
            }
        }
        Self { nx, ny, data }
    }

    /// Value at `(ix, iy)`.
    pub fn at(&self, ix: usize, iy: usize) -> C64 {
        self.data[iy * self.nx + ix]
    }

    /// In-place 2D FFT (row-column).
    fn fft2(&mut self, dir: Direction) {
        let px = FftPlan::<f64>::new(self.nx);
        let py = FftPlan::<f64>::new(self.ny);
        // Rows (fixed iy, over ix — contiguous).
        let mut row = vec![C64::new(0.0, 0.0); self.nx];
        for iy in 0..self.ny {
            row.copy_from_slice(&self.data[iy * self.nx..(iy + 1) * self.nx]);
            px.process(&mut row, dir);
            self.data[iy * self.nx..(iy + 1) * self.nx].copy_from_slice(&row);
        }
        // Columns (fixed ix, strided).
        let mut col = vec![C64::new(0.0, 0.0); self.ny];
        for ix in 0..self.nx {
            for iy in 0..self.ny {
                col[iy] = self.data[iy * self.nx + ix];
            }
            py.process(&mut col, dir);
            for iy in 0..self.ny {
                self.data[iy * self.nx + ix] = col[iy];
            }
        }
    }

    /// RMS magnitude.
    pub fn rms(&self) -> f64 {
        (self.data.iter().map(|v| v.norm_sqr()).sum::<f64>() / self.data.len().max(1) as f64).sqrt()
    }
}

/// Wavenumber of FFT bin `k` on an `n`-point axis with spacing `d`.
fn wavenumber(k: usize, n: usize, d: f64) -> f64 {
    let kk = if k <= n / 2 {
        k as f64
    } else {
        k as f64 - n as f64
    };
    2.0 * std::f64::consts::PI * kk / (n as f64 * d)
}

/// Separation parameters.
#[derive(Clone, Copy, Debug)]
pub struct SeparationConfig {
    /// Angular frequency (rad/s).
    pub omega: f64,
    /// Water velocity (m/s).
    pub velocity: f64,
    /// Water density (kg/m³).
    pub density: f64,
    /// Inline spacing (m).
    pub dx: f64,
    /// Crossline spacing (m).
    pub dy: f64,
}

/// Separate pressure into up/down-going parts using pressure and vertical
/// particle velocity on the plane: returns `(p_down, p_up)`.
///
/// Convention (z positive downward, `e^{-iωt}` time dependence):
/// a downgoing plane wave has `v_z = +(k_z/ρω)·p`, an upgoing one
/// `v_z = −(k_z/ρω)·p`, so
/// `p± = ½·(p ± (ρω/k_z)·v_z)`.
pub fn separate(p: &Field2d, vz: &Field2d, cfg: &SeparationConfig) -> (Field2d, Field2d) {
    assert_eq!(p.nx, vz.nx);
    assert_eq!(p.ny, vz.ny);
    let (nx, ny) = (p.nx, p.ny);

    let mut pk = p.clone();
    let mut vk = vz.clone();
    pk.fft2(Direction::Forward);
    vk.fft2(Direction::Forward);

    let k0 = cfg.omega / cfg.velocity;
    let mut down = Field2d::zeros(nx, ny);
    let mut up = Field2d::zeros(nx, ny);
    for iy in 0..ny {
        let ky = wavenumber(iy, ny, cfg.dy);
        for ix in 0..nx {
            let kx = wavenumber(ix, nx, cfg.dx);
            let kz_sq = k0 * k0 - kx * kx - ky * ky;
            let idx = iy * nx + ix;
            if kz_sq <= 1e-9 * k0 * k0 {
                // Evanescent / grazing: taper to zero.
                continue;
            }
            let kz = kz_sq.sqrt();
            let obliquity = cfg.density * cfg.omega / kz;
            let pv = pk.data[idx];
            let vv = vk.data[idx].scale(obliquity);
            down.data[idx] = (pv + vv).scale(0.5);
            up.data[idx] = (pv - vv).scale(0.5);
        }
    }
    down.fft2(Direction::Inverse);
    up.fft2(Direction::Inverse);
    (down, up)
}

/// Synthesize the `(p, v_z)` pair of a single propagating plane wave with
/// pressure amplitude `amp`, horizontal wavenumbers `(kx, ky)` and
/// direction (`downgoing = true` for +z). Used by tests and demos.
pub fn plane_wave(
    nx: usize,
    ny: usize,
    cfg: &SeparationConfig,
    kx: f64,
    ky: f64,
    amp: C64,
    downgoing: bool,
) -> Option<(Field2d, Field2d)> {
    let k0 = cfg.omega / cfg.velocity;
    let kz_sq = k0 * k0 - kx * kx - ky * ky;
    if kz_sq <= 0.0 {
        return None;
    }
    let kz = kz_sq.sqrt();
    let sign = if downgoing { 1.0 } else { -1.0 };
    let vz_factor = sign * kz / (cfg.density * cfg.omega);
    let p = Field2d::from_fn(nx, ny, |ix, iy| {
        let phase = kx * ix as f64 * cfg.dx + ky * iy as f64 * cfg.dy;
        amp * C64::cis(phase)
    });
    let vz = Field2d::from_fn(nx, ny, |ix, iy| {
        let phase = kx * ix as f64 * cfg.dx + ky * iy as f64 * cfg.dy;
        (amp * C64::cis(phase)).scale(vz_factor)
    });
    Some((p, vz))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SeparationConfig {
        SeparationConfig {
            omega: 2.0 * std::f64::consts::PI * 15.0,
            velocity: 1500.0,
            density: 1000.0,
            dx: 20.0,
            dy: 20.0,
        }
    }

    /// FFT-periodic horizontal wavenumbers for the grid.
    fn grid_k(n: usize, d: f64, cycles: i64) -> f64 {
        2.0 * std::f64::consts::PI * cycles as f64 / (n as f64 * d)
    }

    #[test]
    fn pure_downgoing_separates_cleanly() {
        let c = cfg();
        let (nx, ny) = (32, 16);
        let kx = grid_k(nx, c.dx, 2);
        let ky = grid_k(ny, c.dy, 1);
        let (p, vz) = plane_wave(nx, ny, &c, kx, ky, C64::new(1.0, 0.3), true).unwrap();
        let (down, up) = separate(&p, &vz, &c);
        assert!(
            down.rms() > 0.9 * p.rms(),
            "down {} vs p {}",
            down.rms(),
            p.rms()
        );
        assert!(up.rms() < 1e-9 * p.rms(), "up leakage {}", up.rms());
    }

    #[test]
    fn pure_upgoing_separates_cleanly() {
        let c = cfg();
        let (nx, ny) = (32, 16);
        let kx = grid_k(nx, c.dx, -3);
        let (p, vz) = plane_wave(nx, ny, &c, kx, 0.0, C64::new(0.7, -0.2), false).unwrap();
        let (down, up) = separate(&p, &vz, &c);
        assert!(up.rms() > 0.9 * p.rms());
        assert!(down.rms() < 1e-9 * p.rms());
    }

    #[test]
    fn superposition_recovers_components() {
        let c = cfg();
        let (nx, ny) = (32, 32);
        let (pd, vd) = plane_wave(
            nx,
            ny,
            &c,
            grid_k(nx, c.dx, 2),
            grid_k(ny, c.dy, 1),
            C64::new(1.0, 0.0),
            true,
        )
        .unwrap();
        let (pu, vu) = plane_wave(
            nx,
            ny,
            &c,
            grid_k(nx, c.dx, -1),
            grid_k(ny, c.dy, 3),
            C64::new(0.5, 0.5),
            false,
        )
        .unwrap();
        let p = Field2d {
            nx,
            ny,
            data: pd.data.iter().zip(&pu.data).map(|(a, b)| *a + *b).collect(),
        };
        let vz = Field2d {
            nx,
            ny,
            data: vd.data.iter().zip(&vu.data).map(|(a, b)| *a + *b).collect(),
        };
        let (down, up) = separate(&p, &vz, &c);
        // Recovered components match the ingredients.
        for (g, w) in down.data.iter().zip(&pd.data) {
            assert!((*g - *w).abs() < 1e-9);
        }
        for (g, w) in up.data.iter().zip(&pu.data) {
            assert!((*g - *w).abs() < 1e-9);
        }
    }

    #[test]
    fn evanescent_is_tapered_not_amplified() {
        let c = cfg();
        let (nx, ny) = (16, 16);
        // A "wave" with |k| > ω/c is not propagating; build a synthetic p
        // with energy at the highest wavenumber and zero vz.
        let p = Field2d::from_fn(nx, ny, |ix, _| {
            C64::new(if ix % 2 == 0 { 1.0 } else { -1.0 }, 0.0)
        });
        let vz = Field2d::zeros(nx, ny);
        let (down, up) = separate(&p, &vz, &c);
        // Nyquist kx = π/20 ≈ 0.157 > k0 ≈ 0.063: fully evanescent, so
        // both outputs are (near) zero — no 1/kz blowup.
        assert!(down.rms() < 1e-12);
        assert!(up.rms() < 1e-12);
    }
}
