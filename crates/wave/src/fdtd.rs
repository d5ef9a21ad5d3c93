//! 2D acoustic finite-difference time-domain modeling — the ground-truth
//! engine class the paper's dataset was built with ("directly modelled
//! reflectivity … from finite-difference modelling", Fig. 11d).
//!
//! Second-order in time, fourth-order in space on the scalar wave
//! equation `p_tt = c²∇²p + s`, with a free surface (`p = 0`) at `z = 0`
//! and sponge-absorbing side/bottom boundaries. Used to validate the
//! image-source Green's functions: arrival times of the direct wave,
//! free-surface ghost, and water-layer multiples must agree.

#![allow(
    clippy::needless_range_loop,
    reason = "the time loop indexes the wavelet alongside two mutated field arrays; an iterator \
              would obscure the leapfrog structure"
)]

use seismic_la::scalar::exactly_zero_f64;

use crate::wavelet::ricker;

/// 2D (x, z) simulation grid and run parameters.
#[derive(Clone, Debug)]
pub struct FdtdConfig {
    /// Horizontal cells.
    pub nx: usize,
    /// Vertical cells.
    pub nz: usize,
    /// Cell size (m), equal in x and z.
    pub dh: f64,
    /// Time step (s). Must satisfy the CFL bound for the model's fastest
    /// velocity.
    pub dt: f64,
    /// Time steps to run.
    pub nt: usize,
    /// Sponge width in cells on the absorbing sides.
    pub sponge: usize,
}

impl FdtdConfig {
    /// The 4th-order-in-space CFL limit `dt ≤ ~0.6·dh/c_max`.
    fn cfl_ok(&self, c_max: f64) -> bool {
        self.dt <= 0.606 * self.dh / c_max
    }
}

/// A 2D velocity slice (x, z) in row-major `iz·nx + ix` layout.
#[derive(Clone, Debug)]
pub struct VelocitySlice {
    /// Horizontal cells.
    pub nx: usize,
    /// Vertical cells.
    pub nz: usize,
    /// Cell velocities (m/s).
    pub c: Vec<f64>,
}

impl VelocitySlice {
    /// Fastest velocity in the slice.
    pub fn c_max(&self) -> f64 {
        self.c.iter().cloned().fold(0.0, f64::max)
    }
}

/// One receiver's recorded trace.
#[derive(Clone, Debug)]
pub struct FdTrace {
    /// Receiver grid position `(ix, iz)`.
    pub position: (usize, usize),
    /// Recorded pressure samples.
    pub samples: Vec<f64>,
}

/// Run the simulation: a Ricker point source at `src`, traces recorded at
/// `receivers` (grid indices). Panics if the CFL bound is violated.
pub fn simulate(
    cfg: &FdtdConfig,
    vel: &VelocitySlice,
    src: (usize, usize),
    f0: f64,
    receivers: &[(usize, usize)],
) -> Vec<FdTrace> {
    assert_eq!(vel.nx, cfg.nx);
    assert_eq!(vel.nz, cfg.nz);
    assert!(
        cfg.cfl_ok(vel.c_max()),
        "CFL violated: dt {} > {:.3e} for c_max {}",
        cfg.dt,
        0.606 * cfg.dh / vel.c_max(),
        vel.c_max()
    );
    let (nx, nz) = (cfg.nx, cfg.nz);
    let idx = |ix: usize, iz: usize| iz * nx + ix;

    // Precompute (c·dt/dh)².
    let r2: Vec<f64> = vel
        .c
        .iter()
        .map(|&c| (c * cfg.dt / cfg.dh) * (c * cfg.dt / cfg.dh))
        .collect();

    // Sponge taper (Cerjan): applied on the left/right/bottom margins.
    let sponge = cfg.sponge;
    let taper = |dist: usize| -> f64 {
        if dist >= sponge {
            1.0
        } else {
            let x = (sponge - dist) as f64 / sponge as f64;
            (-0.0015 * (x * sponge as f64) * (x * sponge as f64)).exp()
        }
    };
    let mut damp = vec![1.0f64; nx * nz];
    for iz in 0..nz {
        for ix in 0..nx {
            let d_left = ix;
            let d_right = nx - 1 - ix;
            let d_bottom = nz - 1 - iz;
            let d = d_left.min(d_right).min(d_bottom);
            damp[idx(ix, iz)] = taper(d);
        }
    }

    let wavelet = ricker(cfg.nt, cfg.dt, f0, 1.2 / f0);
    let mut prev = vec![0.0f64; nx * nz];
    let mut cur = vec![0.0f64; nx * nz];
    let mut next = vec![0.0f64; nx * nz];
    let mut traces: Vec<FdTrace> = receivers
        .iter()
        .map(|&position| FdTrace {
            position,
            samples: Vec::with_capacity(cfg.nt),
        })
        .collect();

    // 4th-order Laplacian coefficients.
    const C0: f64 = -5.0 / 2.0;
    const C1: f64 = 4.0 / 3.0;
    const C2: f64 = -1.0 / 12.0;

    for it in 0..cfg.nt {
        for iz in 2..nz - 2 {
            for ix in 2..nx - 2 {
                let i = idx(ix, iz);
                let lap_x = C2 * cur[i - 2]
                    + C1 * cur[i - 1]
                    + C0 * cur[i]
                    + C1 * cur[i + 1]
                    + C2 * cur[i + 2];
                let lap_z = C2 * cur[i - 2 * nx]
                    + C1 * cur[i - nx]
                    + C0 * cur[i]
                    + C1 * cur[i + nx]
                    + C2 * cur[i + 2 * nx];
                next[i] = 2.0 * cur[i] - prev[i] + r2[i] * (lap_x + lap_z);
            }
        }
        // Source injection.
        let si = idx(src.0, src.1);
        next[si] += wavelet[it] * cfg.dt * cfg.dt;
        // Free surface: p = 0 on the top two rows (Dirichlet; the sponge
        // never touches the top, so the surface stays fully reflective).
        for ix in 0..nx {
            next[idx(ix, 0)] = 0.0;
            next[idx(ix, 1)] = 0.0;
        }
        // Sponge damping on cur and next (Cerjan scheme).
        for i in 0..nx * nz {
            next[i] *= damp[i];
            cur[i] *= damp[i];
        }
        // Record.
        for tr in traces.iter_mut() {
            tr.samples.push(cur[idx(tr.position.0, tr.position.1)]);
        }
        std::mem::swap(&mut prev, &mut cur);
        std::mem::swap(&mut cur, &mut next);
    }
    traces
}

/// First-break pick: earliest sample exceeding `frac` of the trace's peak
/// magnitude. Returns the sample index.
pub fn first_break(trace: &[f64], frac: f64) -> usize {
    let peak = trace.iter().fold(0.0f64, |a, &b| a.max(b.abs()));
    if exactly_zero_f64(peak) {
        return 0;
    }
    trace
        .iter()
        .position(|&v| v.abs() >= frac * peak)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Homogeneous water, deep grid: direct arrival at d/c.
    #[test]
    fn direct_arrival_matches_travel_time() {
        let dh = 5.0;
        let cfg = FdtdConfig {
            nx: 200,
            nz: 200,
            dh,
            dt: 0.0015,
            nt: 500,
            sponge: 30,
        };
        let vel = VelocitySlice {
            nx: 200,
            nz: 200,
            c: vec![1500.0; 200 * 200],
        };
        let src = (100, 100);
        let rec = (160, 100); // 300 m away
        let traces = simulate(&cfg, &vel, src, 25.0, &[rec]);
        let pick = first_break(&traces[0].samples, 0.2) as f64 * cfg.dt;
        // Expected: 300/1500 = 0.2 s plus the 1.2/f0 = 48 ms wavelet delay
        // (Ricker onset precedes its peak by ~1/f0; first-break at 20 % of
        // peak lands slightly before the 0.248 s peak).
        let expect = 300.0 / 1500.0 + 1.2 / 25.0;
        assert!(
            (pick - expect).abs() < 0.03,
            "first break {pick} vs expected ~{expect}"
        );
    }

    /// Free surface: a receiver between source and surface sees the ghost
    /// with opposite polarity after 2·z_r/c extra travel.
    #[test]
    fn free_surface_ghost_polarity() {
        let dh = 5.0;
        let cfg = FdtdConfig {
            nx: 240,
            nz: 240,
            dh,
            dt: 0.0015,
            nt: 600,
            sponge: 30,
        };
        let vel = VelocitySlice {
            nx: 240,
            nz: 240,
            c: vec![1500.0; 240 * 240],
        };
        // Source at 600 m depth, receiver at 100 m, same x: direct is
        // upward 500 m (t=0.333), ghost path 700 m (t=0.467).
        let src = (120, 120);
        let rec = (120, 20);
        let traces = simulate(&cfg, &vel, src, 25.0, &[rec]);
        let s = &traces[0].samples;
        let t_of = |t: f64| (t / cfg.dt) as usize;
        let delay = 1.2 / 25.0;
        // Sample the windows around both arrivals.
        let w = t_of(0.03);
        let direct_peak: f64 = s[t_of(0.333 + delay) - w..t_of(0.333 + delay) + w]
            .iter()
            .cloned()
            .fold(0.0, |a: f64, b| if b.abs() > a.abs() { b } else { a });
        let ghost_peak: f64 = s[t_of(0.467 + delay) - w..t_of(0.467 + delay) + w]
            .iter()
            .cloned()
            .fold(0.0, |a: f64, b| if b.abs() > a.abs() { b } else { a });
        assert!(direct_peak.abs() > 0.0 && ghost_peak.abs() > 0.0);
        assert!(
            direct_peak.signum() != ghost_peak.signum(),
            "ghost must flip polarity: direct {direct_peak}, ghost {ghost_peak}"
        );
        // Ghost weaker (longer path spreading).
        assert!(ghost_peak.abs() < direct_peak.abs());
    }

    #[test]
    #[should_panic(expected = "CFL violated")]
    fn cfl_enforced() {
        let cfg = FdtdConfig {
            nx: 50,
            nz: 50,
            dh: 5.0,
            dt: 0.01,
            nt: 10,
            sponge: 10,
        };
        let vel = VelocitySlice {
            nx: 50,
            nz: 50,
            c: vec![1500.0; 2500],
        };
        let _ = simulate(&cfg, &vel, (25, 25), 25.0, &[(30, 25)]);
    }

    /// The water-bottom multiple: in a water layer over a fast half-space,
    /// the receiver at the seafloor sees direct + a surface-bounce
    /// multiple delayed by the two-way surface path.
    #[test]
    fn water_layer_multiple_timing() {
        let dh = 5.0;
        let nz = 200;
        let nx = 160;
        // 300 m water (60 cells) over 2500 m/s half-space.
        let mut c = vec![1500.0; nx * nz];
        for iz in 60..nz {
            for ix in 0..nx {
                c[iz * nx + ix] = 2500.0;
            }
        }
        let vel = VelocitySlice { nx, nz, c };
        let cfg = FdtdConfig {
            nx,
            nz,
            dh,
            dt: 0.0012,
            nt: 900,
            sponge: 30,
        };
        // Source near the surface (10 m), receiver on the seafloor,
        // both mid-x.
        let src = (80, 2);
        let rec = (80, 60);
        let traces = simulate(&cfg, &vel, src, 25.0, &[rec]);
        let s = &traces[0].samples;
        let delay = 1.2 / 25.0;
        // Direct: 290/1500 = 0.193; ghost at 310/1500 = 0.207 (merged);
        // first water multiple (bounce seafloor→surface→seafloor):
        // ~(290+600)/1500 = 0.593 s.
        let t_of = |t: f64| (t / cfg.dt) as usize;
        let w = t_of(0.04);
        let energy = |t0: f64| -> f64 {
            s[t_of(t0 + delay) - w..t_of(t0 + delay) + w]
                .iter()
                .map(|v| v * v)
                .sum()
        };
        let direct_e = energy(0.193);
        let mult_e = energy(0.593);
        let quiet_e = energy(0.4); // between the arrivals
        assert!(
            direct_e > 10.0 * quiet_e,
            "direct {direct_e} vs quiet {quiet_e}"
        );
        assert!(
            mult_e > 3.0 * quiet_e,
            "multiple {mult_e} vs quiet {quiet_e}"
        );
        assert!(direct_e > mult_e, "direct should dominate the multiple");
    }
}
