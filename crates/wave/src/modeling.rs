//! Frequency-domain Green's-function modeling of the downgoing and
//! reflectivity wavefields.
//!
//! The algebraic structure the paper exploits — oscillatory,
//! distance-decaying complex kernels whose tiles become low-rank after a
//! Hilbert sort — is produced here with the image-source method: direct
//! arrivals, free-surface ghosts, and water-layer reverberations for the
//! downgoing wavefield `P⁺`, and specular reflections off the subsurface
//! reflectors for the local reflectivity `R`.

use std::collections::HashMap;

use rayon::prelude::*;
use seismic_geom::{Acquisition, Point3, StationGrid};
use seismic_la::scalar::{C32, C64};
use seismic_la::Matrix;

use crate::velocity::VelocityModel;

/// Modeling options for the wavefield kernels.
#[derive(Clone, Copy, Debug)]
pub struct ModelingConfig {
    /// Water-layer reverberation orders included in `P⁺` (0 = direct +
    /// ghost only). The paper's free-surface multiples come from here.
    pub n_water_multiples: usize,
    /// Seafloor reflection coefficient used by the reverberation series.
    pub seafloor_coefficient: f64,
}

impl Default for ModelingConfig {
    fn default() -> Self {
        Self {
            n_water_multiples: 2,
            seafloor_coefficient: 0.35,
        }
    }
}

/// Spreading amplitude `1 / (4πd)` of the free-space Green's function,
/// with a near-field clamp.
#[inline]
fn spreading(d: f64) -> f64 {
    let d_eff = d.max(1.0); // clamp: stations are never closer than ~1 m
    1.0 / (4.0 * std::f64::consts::PI * d_eff)
}

/// Free-space Green's function `e^{-iωd/c} / (4πd)`.
#[inline]
fn greens(omega: f64, d: f64, c: f64) -> C64 {
    C64::from_polar(spreading(d), -omega * d / c)
}

/// The image-source arrivals of `P⁺(src → rec)` through the water column,
/// `(path length, reflection weight)` each: per reverberation order `k`
/// the direct family (image source at `z_s − 2k·z_w`), then the
/// free-surface ghost (image at `−z_s − 2k·z_w`). A pair enters only
/// through its horizontal distance `h` and the two depths, and nothing
/// here depends on frequency: that is what lets [`downgoing_stack`]
/// compute it once per distinct geometry; [`downgoing_value`] sums the
/// same terms in the same order.
fn image_terms(
    h: f64,
    z_src: f64,
    z_rec: f64,
    model: &VelocityModel,
    cfg: &ModelingConfig,
) -> impl Iterator<Item = (f64, f64)> {
    let zw = model.water_depth;
    let r_fs = model.free_surface_coefficient;
    let r_sf = cfg.seafloor_coefficient;
    let (dz_direct, dz_ghost) = (z_rec - z_src, z_rec + z_src);
    let mut bounce_amp = 1.0f64;
    (0..=cfg.n_water_multiples).flat_map(move |k| {
        let extra = 2.0 * k as f64 * zw;
        let dz1 = dz_direct + extra;
        let dz2 = dz_ghost + extra;
        let terms = [
            ((h * h + dz1 * dz1).sqrt(), bounce_amp),
            ((h * h + dz2 * dz2).sqrt(), bounce_amp * r_fs),
        ];
        bounce_amp *= r_sf * r_fs;
        terms
    })
}

/// Downgoing wavefield value `P⁺(ω; src → rec)` through the water column:
/// image-source series over free-surface ghosts and water-layer bounces.
pub fn downgoing_value(
    omega: f64,
    src: &Point3,
    rec: &Point3,
    model: &VelocityModel,
    cfg: &ModelingConfig,
) -> C64 {
    let c = model.water_velocity;
    let mut acc = C64::new(0.0, 0.0);
    for (d, weight) in image_terms(src.hdist(rec), src.z, rec.z, model, cfg) {
        acc += greens(omega, d, c).scale(weight);
    }
    acc
}

/// Local-reflectivity value `R(ω; a ↔ b)` between two seafloor stations:
/// sum of specular reflections off every subsurface reflector. This is the
/// MDD *ground truth* — it contains only arrivals from below the boundary.
pub fn reflectivity_value(omega: f64, a: &Point3, b: &Point3, model: &VelocityModel) -> C64 {
    let mut acc = C64::new(0.0, 0.0);
    for idx in 0..model.reflectors.len() {
        let t = model.reflection_travel_time(a, b, idx);
        // `reflection_distance`'s expression, without a second ray trace.
        let d = t * model.sediment_velocity;
        let coeff = model.reflectors[idx].coefficient;
        let d_eff = d.max(1.0);
        acc += C64::from_polar(coeff / (4.0 * std::f64::consts::PI * d_eff), -omega * t);
    }
    acc
}

/// Build the frequency matrix `A_f[s, r] = W(ω)·P⁺(ω; src_s → rec_r)` —
/// rows are sources, columns receivers, matching the paper's
/// `26040 × 15930` layout. `wavelet_amp` is the source spectrum at `ω`.
pub fn downgoing_matrix(
    freq_hz: f64,
    wavelet_amp: f64,
    acq: &Acquisition,
    model: &VelocityModel,
    cfg: &ModelingConfig,
) -> Matrix<C32> {
    let omega = 2.0 * std::f64::consts::PI * freq_hz;
    let srcs = acq.sources.positions();
    let recs = acq.receivers.positions();
    let m = srcs.len();
    let n = recs.len();
    let mut data = vec![C32::new(0.0, 0.0); m * n];
    // Column-major fill, parallel over receiver columns (none without
    // sources: a chunk size may not be 0).
    data.par_chunks_mut(m.max(1))
        .enumerate()
        .for_each(|(r, col)| {
            let rec = &recs[r];
            for (s, out) in col.iter_mut().enumerate() {
                let v = downgoing_value(omega, &srcs[s], rec, model, cfg).scale(wavelet_amp);
                *out = v.narrow();
            }
        });
    Matrix::from_col_major(m, n, data)
}

/// One image-source arrival while [`downgoing_stack`] walks the bins: its
/// frequency-independent amplitude factors, the unit phasor
/// `e^{-iω·d/c}` at the current bin, the phasor of one bin step, and
/// `step^gap` for the current gap between retained bins.
struct Arrival {
    spreading: f64,
    weight: f64,
    phasor: C64,
    step: C64,
    leap: C64,
}

impl Arrival {
    /// Set `leap` to `step^gap`, by `gap − 1` multiplies.
    fn set_gap(&mut self, gap: usize) {
        self.leap = self.step;
        for _ in 1..gap {
            self.leap *= self.step;
        }
    }
}

/// Everything an entry of `P⁺` reads of its station pair, as bits: the
/// horizontal distance and the two depths, the arguments of
/// `image_terms`. Two pairs with equal keys compute every entry from
/// identical inputs, so [`downgoing_stack`] computes it once for both.
type Geometry = [u64; 3];

fn geometry(src: &Point3, rec: &Point3) -> Geometry {
    [src.hdist(rec).to_bits(), src.z.to_bits(), rec.z.to_bits()]
}

/// Station pairs per run of receiver columns in [`downgoing_stack`]'s
/// walk, rounded down to whole columns (at least one). A fixed count, not
/// a share of the pool, so the tables — and what a dataset holds — are
/// the same on every host: 10 runs at scale 5, 2 at scale 8, 1 at scale 12.
/// The walk is parallel over runs, so it uses at most that many threads.
const RUN_PAIRS: usize = 1 << 16;

/// The downgoing stack `A_f[s, r] = W_f·P⁺(2π·bins[f]·df; src_s → rec_r)`
/// of every retained bin, held as the tables [`downgoing_stack`] walks
/// instead of as `bins × m × n` entries: per run of receiver columns, each
/// pair's key index (`u32`, column-major) and one walked row per key.
/// Entry `(s, r)` at bin `f` is `rows[f·keys + pair_key[(r − r0)·m + s]]`
/// of `r`'s run, which starts at column `r0`.
///
/// Three gathers read it, each the bits of the dense form it stands in
/// for, because each reads the same entries and does the same arithmetic
/// on them in the same order: [`Self::matrix`] is the matrix of one bin,
/// [`Self::permuted`] is that matrix under [`Matrix::permute`], gathered
/// straight into the requested order, and [`Self::gemv`] is
/// [`seismic_la::blas::gemv`] on it. What it holds is
/// [`Self::resident_bytes`]: 4 B per pair plus 8 B per key, bin and run —
/// on a grid whose pairs share no key, the dense stack plus 4 B per pair.
#[derive(Clone, Debug)]
pub struct DowngoingStack {
    m: usize,
    n: usize,
    n_bins: usize,
    /// Receiver columns per run; every run but the last holds this many.
    run_len: usize,
    runs: Vec<Run>,
}

/// One run of receiver columns of a [`DowngoingStack`].
#[derive(Clone, Debug)]
struct Run {
    /// Key index of each of the run's pairs, column-major.
    pair_key: Vec<u32>,
    /// Keys the run numbered.
    n_keys: usize,
    /// The walked rows, bin-major: `rows[f·n_keys + k]` is key `k` at bin
    /// `f`, so one bin of the run is `n_keys` consecutive entries.
    rows: Vec<C32>,
}

impl DowngoingStack {
    /// Retained bins.
    pub fn n_bins(&self) -> usize {
        self.n_bins
    }

    /// Bytes held: the pair keys and the walked rows.
    pub fn resident_bytes(&self) -> usize {
        self.runs
            .iter()
            .map(|run| {
                run.pair_key.len() * std::mem::size_of::<u32>()
                    + run.rows.len() * std::mem::size_of::<C32>()
            })
            .sum()
    }

    /// Receiver column `r`'s key indices, and the row of bin `f` its run's
    /// keys index.
    fn column(&self, f: usize, r: usize) -> (&[u32], &[C32]) {
        let run = &self.runs[r / self.run_len];
        let at = (r % self.run_len) * self.m;
        (
            &run.pair_key[at..at + self.m],
            &run.rows[f * run.n_keys..(f + 1) * run.n_keys],
        )
    }

    fn check_bin(&self, f: usize) {
        assert!(f < self.n_bins, "bin {f} of a stack of {}", self.n_bins);
    }

    /// The matrix of bin `f`, column-major in natural station order: what
    /// [`downgoing_matrix`] computes at that bin, bit for bit.
    ///
    /// # Panics
    /// If `f` is not a bin of the stack.
    pub fn matrix(&self, f: usize) -> Matrix<C32> {
        let rows: Vec<usize> = (0..self.m).collect();
        let cols: Vec<usize> = (0..self.n).collect();
        self.permuted(f, &rows, &cols)
    }

    /// `self.matrix(f).permute(rows, cols)` — `out[i, j] = A_f[rows[i],
    /// cols[j]]` — gathered straight from the tables, without the
    /// natural-order matrix.
    ///
    /// # Panics
    /// If `f` is not a bin of the stack, or `rows` / `cols` do not have
    /// one entry per source / receiver.
    pub fn permuted(&self, f: usize, rows: &[usize], cols: &[usize]) -> Matrix<C32> {
        self.check_bin(f);
        assert_eq!(rows.len(), self.m, "one row index per source");
        assert_eq!(cols.len(), self.n, "one column index per receiver");
        let mut data = Vec::with_capacity(self.m * self.n);
        for &c in cols {
            let (keys, row) = self.column(f, c);
            data.extend(rows.iter().map(|&s| row[keys[s] as usize]));
        }
        Matrix::from_col_major(self.m, self.n, data)
    }

    /// `y = A_f·x`, the bits of [`seismic_la::blas::gemv`] on
    /// [`Self::matrix`]: the same column sweep, `y_s += x_r·A_f[s, r]` in
    /// ascending `r`, skipping an `x_r` equal to zero (`+0` or `−0`) as
    /// `gemv_acc` does, so a NaN or an infinity in `x` reaches `y` as it
    /// does there. Each entry's product is formed in place, one multiply
    /// per entry as in the dense sweep.
    ///
    /// # Panics
    /// If `f` is not a bin of the stack, or `x` / `y` do not have one
    /// entry per receiver / source.
    pub fn gemv(&self, f: usize, x: &[C32], y: &mut [C32]) {
        self.check_bin(f);
        assert_eq!(x.len(), self.n, "gemv: x length mismatch");
        assert_eq!(y.len(), self.m, "gemv: y length mismatch");
        let zero = C32::new(0.0, 0.0);
        y.fill(zero);
        for (r, &xr) in x.iter().enumerate() {
            if xr == zero {
                continue;
            }
            let (keys, row) = self.column(f, r);
            for (yi, &k) in y.iter_mut().zip(keys) {
                *yi += xr * row[k as usize];
            }
        }
    }
}

/// The downgoing stack of every retained bin as its station-pair tables
/// ([`DowngoingStack`]): `bins` are FFT bin indices, strictly ascending,
/// `df` the bin width (Hz) and `amps[f]` the source spectrum at `bins[f]`.
///
/// Its matrix at bin `f` equals [`downgoing_matrix`] at `bins[f] as f64 *
/// df`, bit for bit, at a fraction of its cost, and no matrix is written
/// until one is asked for. An entry reads its station pair only through
/// `(h, z_src, z_rec)` (`image_terms`), and on grids of one spacing and
/// origin most pairs share those bits with another: the benchmark's
/// 650,160 pairs at scale 5 have 594 distinct geometries. So the stack is
/// built parallel over runs of receiver columns (`RUN_PAIRS` pairs
/// each): a run keys each pair by the bits of `(h, z_src, z_rec)` and
/// walks the bins once per key it has not seen. A key's row is a pure
/// function of its bits, so which run walks it, and in what order, moves
/// no bit. Cost scales with distinct geometries × runs × bins for the
/// arithmetic plus one hashed lookup per pair; a geometry that shares no
/// keys has as many as it has pairs.
///
/// The walk: the path lengths and weights of a geometry's image-source
/// arrivals do not depend on `ω`, so the only trigonometry per arrival
/// is its phasor at `bins[0]` and the phasor `e^{-i·2π·df·d/c}` of one
/// bin — one `cis` when `bins[0]` is bin 1, whose phasor is the step
/// itself. From there each retained bin costs one complex multiply per
/// arrival, by `step^gap`, plus `gap − 1` multiplies to rebuild
/// `step^gap` whenever the gap to the previous retained bin changes. The
/// recurrence runs in `C64`, where its rounding (`≲ k·2⁻⁵²` after `k`
/// multiplies, `k` at most the bins spanned) is nine orders below the
/// `f32` the entry is narrowed to once, as in the one-frequency form.
///
/// # Panics
/// If `bins` is not strictly ascending or `amps` has another length.
pub fn downgoing_stack(
    bins: &[usize],
    df: f64,
    amps: &[f64],
    acq: &Acquisition,
    model: &VelocityModel,
    cfg: &ModelingConfig,
) -> DowngoingStack {
    assert_eq!(amps.len(), bins.len(), "`amps` needs one entry per bin");
    assert!(
        bins.windows(2).all(|w| w[0] < w[1]),
        "`bins` must be strictly ascending, got {bins:?}"
    );
    let srcs = acq.sources.positions();
    let recs = acq.receivers.positions();
    let (m, n, nb) = (srcs.len(), recs.len(), bins.len());
    // A run holds at most `max(RUN_PAIRS, m)` pairs, so a `u32` numbers
    // its keys on any grid of fewer than 2³² sources.
    let run_len = (RUN_PAIRS / m.max(1)).max(1);
    if nb == 0 {
        return DowngoingStack {
            m,
            n,
            n_bins: 0,
            run_len,
            runs: Vec::new(),
        };
    }
    let c = model.water_velocity;
    let two_pi = 2.0 * std::f64::consts::PI;
    let first = bins[0];
    let omega_first = two_pi * (first as f64 * df);
    let omega_step = two_pi * df;
    // Bin 1's phasor is the step's: same argument bits, one `cis` saved.
    let first_is_step = omega_first.to_bits() == omega_step.to_bits();

    // One walk over the retained bins for one geometry, into every
    // `stride`-th entry of `out`.
    let walk = |&[h, z_src, z_rec]: &Geometry, out: &mut [C32], stride: usize| {
        let mut arrivals: Vec<Arrival> = image_terms(
            f64::from_bits(h),
            f64::from_bits(z_src),
            f64::from_bits(z_rec),
            model,
            cfg,
        )
        .map(|(d, weight)| {
            let step = C64::cis(-omega_step * d / c);
            let phasor = if first_is_step {
                step
            } else {
                C64::cis(-omega_first * d / c)
            };
            Arrival {
                spreading: spreading(d),
                weight,
                phasor,
                step,
                leap: step,
            }
        })
        .collect();
        let (mut at, mut gap) = (first, 1);
        for ((&bin, &amp), out) in bins.iter().zip(amps).zip(out.iter_mut().step_by(stride)) {
            if bin != at {
                if bin - at != gap {
                    gap = bin - at;
                    for a in &mut arrivals {
                        a.set_gap(gap);
                    }
                }
                for a in &mut arrivals {
                    a.phasor *= a.leap;
                }
                at = bin;
            }
            let mut acc = C64::new(0.0, 0.0);
            for a in &arrivals {
                acc += a.phasor.scale(a.spreading).scale(a.weight);
            }
            *out = acc.scale(amp).narrow();
        }
    };

    // One task per run of receiver columns: each pair's key index
    // (column-major, keys numbered as first seen), then one walk per key
    // into the run's rows.
    let runs: Vec<Run> = recs
        .par_chunks(run_len)
        .map(|columns| {
            let mut index: HashMap<Geometry, u32> = HashMap::new();
            let mut keys: Vec<Geometry> = Vec::new();
            let mut pair_key = Vec::with_capacity(m * columns.len());
            for rec in columns {
                for src in &srcs {
                    let key = geometry(src, rec);
                    pair_key.push(*index.entry(key).or_insert_with(|| {
                        keys.push(key);
                        (keys.len() - 1) as u32
                    }));
                }
            }
            let n_keys = keys.len();
            let mut rows = vec![C32::new(0.0, 0.0); n_keys * nb];
            for (k, key) in keys.iter().enumerate() {
                walk(key, &mut rows[k..], n_keys);
            }
            Run {
                pair_key,
                n_keys,
                rows,
            }
        })
        .collect();
    DowngoingStack {
        m,
        n,
        n_bins: nb,
        run_len,
        runs,
    }
}

/// Build the true reflectivity column for virtual source `vs` (a receiver
/// index): `x_f[r] = R(ω; rec_r ↔ rec_vs)`.
pub fn reflectivity_column(
    freq_hz: f64,
    vs: usize,
    receivers: &StationGrid,
    model: &VelocityModel,
) -> Vec<C32> {
    let omega = 2.0 * std::f64::consts::PI * freq_hz;
    let recs = receivers.positions();
    let vs_pos = recs[vs];
    recs.iter()
        .map(|r| reflectivity_value(omega, r, &vs_pos, model).narrow())
        .collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use seismic_geom::{station_permutation, Acquisition, Ordering};
    use seismic_la::blas::gemv;

    fn setup() -> (Acquisition, VelocityModel, ModelingConfig) {
        (
            Acquisition::scaled(24),
            VelocityModel::overthrust(),
            ModelingConfig::default(),
        )
    }

    #[test]
    fn downgoing_phase_matches_travel_time() {
        let model = VelocityModel::overthrust();
        let cfg = ModelingConfig {
            n_water_multiples: 0,
            ..Default::default()
        };
        // Vertically below the source, direct term dominates; check its
        // phase: ω·(d/c).
        let src = Point3::new(1000.0, 1000.0, 10.0);
        let rec = Point3::new(1000.0, 1000.0, 300.0);
        let f = 5.0;
        let omega = 2.0 * std::f64::consts::PI * f;
        let v = downgoing_value(omega, &src, &rec, &model, &cfg);
        // direct: d=290, ghost: d=310 — sum of two phasors; verify against
        // the explicit two-term formula.
        let want = greens(omega, 290.0, 1500.0) + greens(omega, 310.0, 1500.0).scale(-1.0);
        assert!((v - want).abs() < 1e-12);
    }

    #[test]
    fn multiples_add_energy() {
        let model = VelocityModel::overthrust();
        let src = Point3::new(500.0, 500.0, 10.0);
        let rec = Point3::new(700.0, 500.0, 300.0);
        let omega = 2.0 * std::f64::consts::PI * 12.0;
        let v0 = downgoing_value(
            omega,
            &src,
            &rec,
            &model,
            &ModelingConfig {
                n_water_multiples: 0,
                ..Default::default()
            },
        );
        let v2 = downgoing_value(
            omega,
            &src,
            &rec,
            &model,
            &ModelingConfig {
                n_water_multiples: 2,
                ..Default::default()
            },
        );
        assert!((v2 - v0).abs() > 1e-9, "reverberations must contribute");
    }

    #[test]
    fn reflectivity_is_reciprocal() {
        let model = VelocityModel::overthrust();
        let a = Point3::new(300.0, 200.0, 300.0);
        let b = Point3::new(900.0, 700.0, 300.0);
        let omega = 2.0 * std::f64::consts::PI * 17.0;
        let ab = reflectivity_value(omega, &a, &b, &model);
        let ba = reflectivity_value(omega, &b, &a, &model);
        assert!((ab - ba).abs() < 1e-12, "source-receiver reciprocity");
    }

    #[test]
    fn matrix_shape_and_finiteness() {
        let (acq, model, cfg) = setup();
        let a = downgoing_matrix(15.0, 1.0, &acq, &model, &cfg);
        assert_eq!(a.shape(), (acq.n_sources(), acq.n_receivers()));
        assert!(a.all_finite());
        assert!(a.fro_norm() > 0.0);
    }

    fn bits(a: &Matrix<C32>) -> Vec<(u32, u32)> {
        vec_bits(a.as_slice())
    }

    /// Bit patterns of `v`: `−0` and NaN payloads count.
    pub(crate) fn vec_bits(v: &[C32]) -> Vec<(u32, u32)> {
        v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
    }

    /// Every bin's matrix of `stack`.
    fn matrices(stack: &DowngoingStack) -> Vec<Matrix<C32>> {
        (0..stack.n_bins()).map(|f| stack.matrix(f)).collect()
    }

    /// Vectors of `n` entries for a gemv: finite ones, then the same with
    /// a `+0` and two `−0`s (which `gemv_acc` skips), then with a NaN, an
    /// infinity, and both added (which it carries to `y`).
    pub(crate) fn probe_vectors(n: usize) -> Vec<Vec<C32>> {
        let finite: Vec<C32> = (0..n)
            .map(|j| C32::new(0.5 - j as f32 * 0.01, 0.25 + j as f32 * 0.02))
            .collect();
        let with = |specials: &[(usize, C32)]| {
            let mut x = finite.clone();
            for &(at, v) in specials {
                if at < n {
                    x[at] = v;
                }
            }
            x
        };
        let zeros = [
            (n / 5, C32::new(0.0, 0.0)),
            (n / 3, C32::new(-0.0, -0.0)),
            (n / 2, C32::new(-0.0, 0.0)),
        ];
        let nan = (3 * n / 5, C32::new(f32::NAN, 0.5));
        let inf = (4 * n / 5, C32::new(f32::INFINITY, 0.5));
        vec![
            finite.clone(),
            with(&zeros),
            with(&[zeros[0], zeros[1], zeros[2], nan]),
            with(&[zeros[0], zeros[1], zeros[2], inf]),
            with(&[zeros[0], zeros[1], zeros[2], nan, inf]),
        ]
    }

    /// The three gathers of the stack against the dense forms they stand
    /// in for, bit for bit: `matrix` against [`downgoing_matrix`],
    /// `permuted` against [`Matrix::permute`] of it (Hilbert and reversed
    /// orders), `gemv` against [`gemv`] on it over [`probe_vectors`].
    fn assert_gathers_are_the_dense_forms(
        bins: &[usize],
        df: f64,
        amps: &[f64],
        acq: &Acquisition,
        model: &VelocityModel,
        cfg: &ModelingConfig,
    ) {
        let stack = downgoing_stack(bins, df, amps, acq, model, cfg);
        let (m, n) = (acq.n_sources(), acq.n_receivers());
        assert_eq!(stack.n_bins(), bins.len());
        let orders = [
            (
                station_permutation(&acq.sources, Ordering::Hilbert).forward,
                station_permutation(&acq.receivers, Ordering::Hilbert).forward,
            ),
            ((0..m).rev().collect(), (0..n).rev().collect()),
        ];
        for (f, (&bin, &amp)) in bins.iter().zip(amps).enumerate() {
            let dense = downgoing_matrix(bin as f64 * df, amp, acq, model, cfg);
            let got = stack.matrix(f);
            assert_eq!(got.shape(), dense.shape());
            assert!(bits(&got) == bits(&dense), "matrix, bin {bin}");
            for (rows, cols) in &orders {
                let want = dense.permute(rows, cols);
                assert!(
                    bits(&stack.permuted(f, rows, cols)) == bits(&want),
                    "permuted, bin {bin}"
                );
            }
            for (p, x) in probe_vectors(n).iter().enumerate() {
                let (mut got, mut want) =
                    (vec![C32::new(1.0, 1.0); m], vec![C32::new(0.0, 0.0); m]);
                stack.gemv(f, x, &mut got);
                gemv(&dense, x, &mut want);
                assert!(
                    vec_bits(&got) == vec_bits(&want),
                    "gemv, bin {bin}, probe {p}"
                );
            }
        }
    }

    /// The stack against its oracle, [`downgoing_matrix`] per frequency,
    /// bit for bit: the `DatasetConfig::tiny()` stack (4 bins, stride 2),
    /// the default scale-12 one (all 36 bins), a constant gap that does not
    /// start at bin 1 (no first-bin reuse), the benchmark's stride-3 list,
    /// a list whose gap changes twice and a gapped list.
    #[test]
    fn stack_equals_the_one_frequency_form_bit_for_bit() {
        let model = VelocityModel::overthrust();
        let cfg = ModelingConfig::default();
        let every_bin: Vec<usize> = (1..=36).collect();
        let stride_3: Vec<usize> = (1..=34).step_by(3).collect();
        let df = 1.0 / (256.0 * 0.008);
        let cases: [(usize, f64, &[usize]); 6] = [
            (40, 1.0 / (64.0 * 0.008), &[1, 3, 5, 7]),
            (12, df, &every_bin),
            (24, df, &[2, 5, 8, 11, 14]),
            (24, df, &stride_3),
            (24, df, &[1, 3, 5, 9, 13, 14, 15]),
            (24, df, &[3, 4, 9, 30]),
        ];
        for (scale, df, bins) in cases {
            let acq = Acquisition::scaled_with(scale, 40.0);
            let amps: Vec<f64> = bins.iter().map(|&b| 1.0 / (1.0 + b as f64)).collect();
            let stack = matrices(&downgoing_stack(bins, df, &amps, &acq, &model, &cfg));
            assert_eq!(stack.len(), bins.len());
            for ((&bin, &amp), got) in bins.iter().zip(&amps).zip(&stack) {
                let want = downgoing_matrix(bin as f64 * df, amp, &acq, &model, &cfg);
                assert_eq!(got.shape(), want.shape());
                assert!(bits(got) == bits(&want), "scale {scale}, bin {bin}");
            }
        }
    }

    #[test]
    fn stack_of_no_bins_is_empty_and_one_bin_needs_no_stepping() {
        let (acq, model, cfg) = setup();
        assert!(matrices(&downgoing_stack(&[], 0.5, &[], &acq, &model, &cfg)).is_empty());
        // A lone bin is never stepped to: its phasors are the oracle's own
        // `cis`, so even a bin far beyond any recurrence's reach is exact.
        let stack = matrices(&downgoing_stack(&[5000], 0.5, &[0.7], &acq, &model, &cfg));
        assert_eq!(stack.len(), 1);
        let want = downgoing_matrix(2500.0, 0.7, &acq, &model, &cfg);
        assert!(bits(&stack[0]) == bits(&want));
    }

    /// Source and receiver grids of different origins and spacings share
    /// almost no pair geometry: the memo must keep every key apart and
    /// still match the oracle bit for bit.
    #[test]
    fn stack_of_unshared_geometries_equals_the_one_frequency_form_bit_for_bit() {
        let model = VelocityModel::overthrust();
        let cfg = ModelingConfig::default();
        let grid = |nx, ny, x0, dx, depth| StationGrid {
            nx,
            ny,
            dx,
            dy: dx,
            x0,
            y0: x0,
            depth,
        };
        let acq = Acquisition {
            sources: grid(7, 5, 7.3, 37.9, 10.0),
            receivers: grid(6, 4, 0.0, 41.3, 300.0),
        };
        let df = 1.0 / (256.0 * 0.008);
        let bins = [2, 5, 8, 11, 15];
        let amps = [0.9, 0.8, 0.7, 0.6, 0.5];
        let stack = matrices(&downgoing_stack(&bins, df, &amps, &acq, &model, &cfg));
        assert_eq!(stack.len(), bins.len());
        for ((&bin, &amp), got) in bins.iter().zip(&amps).zip(&stack) {
            let want = downgoing_matrix(bin as f64 * df, amp, &acq, &model, &cfg);
            assert_eq!(got.shape(), (35, 24));
            assert!(bits(got) == bits(&want), "bin {bin}");
        }
    }

    /// An empty source or receiver grid gives one empty matrix per bin.
    #[test]
    fn stack_over_an_empty_grid_has_one_empty_matrix_per_bin() {
        let (acq, model, cfg) = setup();
        let (m, n) = (acq.n_sources(), acq.n_receivers());
        let no_sources = Acquisition {
            sources: StationGrid {
                nx: 0,
                ..acq.sources.clone()
            },
            receivers: acq.receivers.clone(),
        };
        let no_receivers = Acquisition {
            sources: acq.sources.clone(),
            receivers: StationGrid {
                ny: 0,
                ..acq.receivers.clone()
            },
        };
        for (acq, shape) in [(no_sources, (0, n)), (no_receivers, (m, 0))] {
            let stack = matrices(&downgoing_stack(
                &[1, 3, 5],
                0.5,
                &[1.0, 0.5, 0.25],
                &acq,
                &model,
                &cfg,
            ));
            assert_eq!(stack.len(), 3);
            assert!(stack.iter().all(|a| a.shape() == shape), "{shape:?}");
        }
    }

    /// The gathers on a grid of two runs (405 × 242 pairs, the scale-8
    /// geometry): a column's run and its offset in it are found by
    /// division, on both sides of the boundary between the runs.
    #[test]
    fn gathers_across_runs_are_the_dense_forms_bit_for_bit() {
        let acq = Acquisition::scaled_with(8, 40.0);
        let (model, cfg) = (VelocityModel::overthrust(), ModelingConfig::default());
        assert!(acq.n_sources() * acq.n_receivers() > RUN_PAIRS);
        let df = 1.0 / (256.0 * 0.008);
        assert_gathers_are_the_dense_forms(&[4, 9], df, &[0.8, 0.3], &acq, &model, &cfg);
    }

    /// Grids offset and spaced apart on both axes share no pair geometry:
    /// every pair is a key of its own, the tables hold the dense stack
    /// plus 4 B per pair — exactly — and the gathers are still the dense
    /// forms bit for bit.
    #[test]
    fn gathers_of_a_grid_that_shares_no_key_are_the_dense_forms_bit_for_bit() {
        let model = VelocityModel::overthrust();
        let cfg = ModelingConfig::default();
        let grid = |nx, ny, (x0, y0), (dx, dy), depth| StationGrid {
            nx,
            ny,
            dx,
            dy,
            x0,
            y0,
            depth,
        };
        let acq = Acquisition {
            sources: grid(7, 5, (7.3, 3.1), (37.9, 35.3), 10.0),
            receivers: grid(6, 4, (0.0, 0.0), (41.3, 43.7), 300.0),
        };
        let df = 1.0 / (256.0 * 0.008);
        let (bins, amps) = ([2, 5, 8, 11, 15], [0.9, 0.8, 0.7, 0.6, 0.5]);
        let stack = downgoing_stack(&bins, df, &amps, &acq, &model, &cfg);
        let pairs = 35 * 24;
        assert_eq!(stack.resident_bytes(), pairs * 4 + pairs * bins.len() * 8);
        assert_gathers_are_the_dense_forms(&bins, df, &amps, &acq, &model, &cfg);
    }

    /// Over an empty source or receiver grid every gather has its empty
    /// dense form, and the gemv over no receivers writes `m` zeros.
    #[test]
    fn gathers_over_an_empty_grid_are_the_dense_forms() {
        let (acq, model, cfg) = setup();
        let no_sources = Acquisition {
            sources: StationGrid {
                nx: 0,
                ..acq.sources.clone()
            },
            receivers: acq.receivers.clone(),
        };
        let no_receivers = Acquisition {
            sources: acq.sources.clone(),
            receivers: StationGrid {
                ny: 0,
                ..acq.receivers.clone()
            },
        };
        for acq in [no_sources, no_receivers] {
            assert_gathers_are_the_dense_forms(
                &[1, 3, 5],
                0.5,
                &[1.0, 0.5, 0.25],
                &acq,
                &model,
                &cfg,
            );
        }
    }

    /// `reflectivity_value` traces each reflection once; the column equals
    /// the form that traced it twice (`reflection_travel_time`, then
    /// `reflection_distance`), bit for bit.
    #[test]
    fn reflectivity_column_equals_the_two_trace_form_bit_for_bit() {
        let model = VelocityModel::overthrust();
        for (scale, vs) in [(40, 3), (12, 57)] {
            let recs = Acquisition::scaled_with(scale, 40.0).receivers;
            let positions = recs.positions();
            for freq_hz in [2.0, 11.5, 17.0] {
                let omega = 2.0 * std::f64::consts::PI * freq_hz;
                let got = reflectivity_column(freq_hz, vs, &recs, &model);
                assert_eq!(got.len(), positions.len());
                for (g, a) in got.iter().zip(&positions) {
                    let mut acc = C64::new(0.0, 0.0);
                    for idx in 0..model.reflectors.len() {
                        let t = model.reflection_travel_time(a, &positions[vs], idx);
                        let d = model.reflection_distance(a, &positions[vs], idx);
                        let amp = model.reflectors[idx].coefficient
                            / (4.0 * std::f64::consts::PI * d.max(1.0));
                        acc += C64::from_polar(amp, -omega * t);
                    }
                    let want = acc.narrow();
                    assert_eq!(
                        (g.re.to_bits(), g.im.to_bits()),
                        (want.re.to_bits(), want.im.to_bits()),
                        "scale {scale}, {freq_hz} Hz"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "`bins` must be strictly ascending")]
    fn stack_rejects_bins_that_do_not_ascend() {
        let (acq, model, cfg) = setup();
        let _ = downgoing_stack(&[3, 3], 0.5, &[1.0, 1.0], &acq, &model, &cfg);
    }

    #[test]
    fn amplitude_decays_with_distance() {
        let model = VelocityModel::overthrust();
        let cfg = ModelingConfig {
            n_water_multiples: 0,
            ..Default::default()
        };
        let src = Point3::new(0.0, 0.0, 10.0);
        let near = Point3::new(0.0, 0.0, 300.0);
        let far = Point3::new(3000.0, 0.0, 300.0);
        let omega = 2.0 * std::f64::consts::PI * 10.0;
        let vn = downgoing_value(omega, &src, &near, &model, &cfg).abs();
        let vf = downgoing_value(omega, &src, &far, &model, &cfg).abs();
        assert!(vn > 3.0 * vf);
    }

    #[test]
    fn wavelet_amp_scales_matrix() {
        let (acq, model, cfg) = setup();
        let a1 = downgoing_matrix(10.0, 1.0, &acq, &model, &cfg);
        let a2 = downgoing_matrix(10.0, 0.5, &acq, &model, &cfg);
        let ratio = a2.fro_norm() / a1.fro_norm();
        assert!((ratio - 0.5).abs() < 1e-5);
    }
}
