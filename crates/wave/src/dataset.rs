//! The synthetic multi-frequency dataset: the workspace's stand-in for the
//! paper's 763 GB of Overthrust frequency matrices.

use rand::SeedableRng;
use rayon::prelude::*;
use seismic_geom::{station_permutation, Acquisition, Ordering, Permutation};
use seismic_la::scalar::C32;
use seismic_la::Matrix;

use crate::modeling::{downgoing_stack, reflectivity_column, DowngoingStack, ModelingConfig};
use crate::velocity::VelocityModel;
use crate::wavelet::flat_band_spectrum;

/// Dataset generation parameters.
#[derive(Clone, Debug)]
pub struct DatasetConfig {
    /// Geometry downscale factor relative to the paper (1 = full 26040
    /// sources; 12 ≈ a few hundred stations for laptop runs).
    pub scale: usize,
    /// Time samples per trace.
    pub nt: usize,
    /// Temporal sampling (s) — 4 ms in the paper.
    pub dt: f64,
    /// Flat part of the source spectrum (Hz) — 45 Hz in the paper.
    pub f_flat: f64,
    /// Spectrum rolloff end (Hz).
    pub f_max: f64,
    /// Keep every `freq_stride`-th usable frequency bin (1 = all).
    /// Synthesis cost scales with distinct station-pair geometries × bins
    /// retained, not with the bins they span ([`downgoing_stack`] leaps a
    /// stride in one multiply), plus one hashed lookup per station pair;
    /// entries are written only when a kernel is gathered.
    pub freq_stride: usize,
    /// Water-layer reverberation orders in the downgoing kernels.
    pub n_water_multiples: usize,
    /// Station spacing (m). Keep near `c_water / (2·f_max)` so the
    /// kernels stay unaliased and tile-compressible (the paper's 20 m at
    /// 45 Hz; a scaled run at 18 Hz tolerates ~40 m).
    pub station_spacing: f64,
}

impl Default for DatasetConfig {
    fn default() -> Self {
        Self {
            scale: 12,
            nt: 256,
            dt: 0.008,
            f_flat: 15.0,
            f_max: 18.0,
            freq_stride: 1,
            n_water_multiples: 2,
            station_spacing: 40.0,
        }
    }
}

impl DatasetConfig {
    /// Small configuration for unit tests (a few dozen stations, a handful
    /// of frequencies).
    pub fn tiny() -> Self {
        Self {
            scale: 40,
            nt: 64,
            dt: 0.008,
            f_flat: 12.0,
            f_max: 16.0,
            freq_stride: 2,
            ..Default::default()
        }
    }

    /// Frequency-bin resolution `df = 1/(nt·dt)`.
    pub fn df(&self) -> f64 {
        1.0 / (self.nt as f64 * self.dt)
    }
}

/// One retained frequency: its bin, physical frequency and source
/// amplitude. Its kernel is [`SyntheticDataset::kernel`].
#[derive(Clone, Debug)]
pub struct FrequencySlice {
    /// FFT bin index in the `nt`-sample trace spectrum.
    pub bin: usize,
    /// Physical frequency (Hz).
    pub freq_hz: f64,
    /// Source-spectrum amplitude baked into the kernel.
    pub wavelet_amp: f64,
}

/// A complete synthetic dataset: acquisition geometry, velocity model, and
/// one kernel matrix per retained frequency — held as the station-pair
/// tables they are gathered from ([`DowngoingStack`]), not as matrices.
pub struct SyntheticDataset {
    /// Acquisition geometry used for generation.
    pub acq: Acquisition,
    /// Velocity model used for generation.
    pub model: VelocityModel,
    /// Generation parameters.
    pub config: DatasetConfig,
    /// Retained frequency slices, ascending in frequency.
    pub slices: Vec<FrequencySlice>,
    /// The kernels of `slices`, one bin each.
    stack: DowngoingStack,
}

impl SyntheticDataset {
    /// Generate the kernels of every retained frequency, each distinct
    /// station-pair geometry synthesised once ([`downgoing_stack`]); no
    /// matrix is written until a caller gathers one.
    pub fn generate(config: DatasetConfig, model: VelocityModel) -> Self {
        let acq = Acquisition::scaled_with(config.scale, config.station_spacing);
        let df = config.df();
        let nf = config.nt / 2 + 1;
        let spectrum = flat_band_spectrum(nf, df, config.f_flat, config.f_max);
        let mcfg = ModelingConfig {
            n_water_multiples: config.n_water_multiples,
            ..Default::default()
        };
        // Usable bins: skip DC, keep bins with non-negligible source energy.
        let bins: Vec<usize> = (1..nf)
            .filter(|&k| spectrum[k] > 1e-6)
            .step_by(config.freq_stride.max(1))
            .collect();
        let amps: Vec<f64> = bins.iter().map(|&bin| spectrum[bin]).collect();
        let stack = downgoing_stack(&bins, df, &amps, &acq, &model, &mcfg);
        let slices: Vec<FrequencySlice> = bins
            .iter()
            .zip(&amps)
            .map(|(&bin, &wavelet_amp)| FrequencySlice {
                bin,
                freq_hz: bin as f64 * df,
                wavelet_amp,
            })
            .collect();
        Self {
            acq,
            model,
            config,
            slices,
            stack,
        }
    }

    /// Number of retained frequencies.
    pub fn n_freqs(&self) -> usize {
        self.slices.len()
    }

    /// Matrix dimensions `(n_src, n_rec)`.
    pub fn kernel_shape(&self) -> (usize, usize) {
        (self.acq.n_sources(), self.acq.n_receivers())
    }

    /// Row (source) and column (receiver) permutations for an ordering.
    pub fn permutations(&self, ordering: Ordering) -> (Permutation, Permutation) {
        (
            station_permutation(&self.acq.sources, ordering),
            station_permutation(&self.acq.receivers, ordering),
        )
    }

    /// Kernel of slice `idx` (`n_src × n_rec`, natural station ordering),
    /// gathered from the tables on each call.
    pub fn kernel(&self, idx: usize) -> Matrix<C32> {
        self.stack.matrix(idx)
    }

    /// The tables every kernel is gathered from: slice `idx` is bin `idx`
    /// of the stack. A caller that reads a kernel in pieces — the
    /// compressor, one tile at a time — gathers each piece from here
    /// ([`DowngoingStack::gather`]) instead of the whole matrix.
    pub fn stack(&self) -> &DowngoingStack {
        &self.stack
    }

    /// Kernel of slice `idx` with rows/columns reordered.
    pub fn reordered_kernel(&self, idx: usize, ordering: Ordering) -> Matrix<C32> {
        let (rows, cols) = self.permutations(ordering);
        self.reordered_kernel_with(idx, &rows, &cols)
    }

    /// [`Self::reordered_kernel`] under permutations the caller holds —
    /// [`Self::permutations`] computed once for all the frequencies.
    /// Gathered straight into that order: `self.kernel(idx).permute(..)`
    /// bit for bit, without the natural-order copy.
    ///
    /// This is the whole frequency matrix, for a caller that needs it
    /// dense (a reference, a test, a one-matrix experiment). The
    /// compressor does not: `compress_dataset` gathers each tile of this
    /// matrix from the tables as it compresses it, and its operator is
    /// `compress` of this matrix bit for bit.
    pub fn reordered_kernel_with(
        &self,
        idx: usize,
        rows: &Permutation,
        cols: &Permutation,
    ) -> Matrix<C32> {
        self.stack.permuted(idx, &rows.forward, &cols.forward)
    }

    /// True reflectivity columns (natural receiver ordering) for a virtual
    /// source, one vector per retained frequency.
    pub fn true_reflectivity(&self, vs: usize) -> Vec<Vec<C32>> {
        self.slices
            .par_iter()
            .map(|s| reflectivity_column(s.freq_hz, vs, &self.acq.receivers, &self.model))
            .collect()
    }

    /// Observed upgoing data for a virtual source: `y_f = A_f · x_f` per
    /// frequency (natural orderings) — the noiseless forward-modeled `p⁻`.
    pub fn observed_data(&self, vs: usize) -> Vec<Vec<C32>> {
        self.observed_data_of(&self.true_reflectivity(vs))
    }

    /// `y_f = A_f · x_f` per frequency for a reflectivity already in hand
    /// (one vector per retained frequency, natural orderings): what
    /// [`Self::observed_data`] computes, for a caller that also needs the
    /// [`Self::true_reflectivity`] it is the image of. Each product is
    /// gathered from the tables: [`seismic_la::blas::gemv`] on
    /// [`Self::kernel`], bit for bit ([`DowngoingStack::gemv`]).
    pub fn observed_data_of(&self, x: &[Vec<C32>]) -> Vec<Vec<C32>> {
        assert_eq!(x.len(), self.slices.len(), "one vector per frequency");
        x.par_iter()
            .enumerate()
            .map(|(f, xf)| {
                let mut y = vec![C32::new(0.0, 0.0); self.acq.n_sources()];
                self.stack.gemv(f, xf, &mut y);
                y
            })
            .collect()
    }

    /// Observed data with additive complex Gaussian noise at the given
    /// signal-to-noise ratio (power ratio). Real recordings are noisy —
    /// the paper's Fig. 13 notes "the increased level of background
    /// noise in the deconvolved data" that motivates its stacking step.
    pub fn observed_data_noisy(&self, vs: usize, snr: f64, seed: u64) -> Vec<Vec<C32>> {
        let clean = self.observed_data(vs);
        let signal_power: f64 = clean
            .iter()
            .flatten()
            .map(|v| v.norm_sqr() as f64)
            .sum::<f64>()
            / clean.iter().map(|v| v.len()).sum::<usize>().max(1) as f64;
        let sigma = (signal_power / snr / 2.0).sqrt();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        clean
            .into_iter()
            .map(|yf| {
                yf.into_iter()
                    .map(|v| {
                        let nr = normal(&mut rng) * sigma;
                        let ni = normal(&mut rng) * sigma;
                        C32::new(v.re + nr as f32, v.im + ni as f32)
                    })
                    .collect()
            })
            .collect()
    }

    /// Total dense storage in bytes (8 B per c32 entry) — the "original
    /// dataset" size the paper's 7× compression factor is measured against.
    pub fn dense_bytes(&self) -> usize {
        let (m, n) = self.kernel_shape();
        self.n_freqs() * m * n * std::mem::size_of::<C32>()
    }

    /// Bytes the dataset holds for its kernels: the station-pair keys and
    /// the walked rows ([`DowngoingStack::resident_bytes`]), where
    /// [`Self::dense_bytes`] is what the matrices would take.
    pub fn resident_bytes(&self) -> usize {
        self.stack.resident_bytes()
    }
}

/// Box-Muller normal sample (local helper to avoid a dev-only re-export).
fn normal<R: rand::Rng>(rng: &mut R) -> f64 {
    seismic_la::dense::normal_sample(rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modeling::downgoing_matrix;
    use crate::modeling::tests::{probe_vectors, vec_bits};
    use seismic_la::blas::gemv;

    fn tiny() -> SyntheticDataset {
        SyntheticDataset::generate(DatasetConfig::tiny(), VelocityModel::overthrust())
    }

    #[test]
    fn generation_shapes() {
        let ds = tiny();
        assert!(ds.n_freqs() > 3);
        let (m, n) = ds.kernel_shape();
        assert!(m > n, "paper layout: more sources than receivers");
        for f in 0..ds.n_freqs() {
            let kernel = ds.kernel(f);
            assert_eq!(kernel.shape(), (m, n));
            assert!(kernel.all_finite());
        }
        // Frequencies ascend.
        for w in ds.slices.windows(2) {
            assert!(w[0].freq_hz < w[1].freq_hz);
        }
    }

    #[test]
    fn observed_data_consistency() {
        let ds = tiny();
        let vs = ds.acq.n_receivers() / 2;
        let x = ds.true_reflectivity(vs);
        let y = ds.observed_data(vs);
        assert_eq!(x.len(), ds.n_freqs());
        assert_eq!(y.len(), ds.n_freqs());
        // Spot-check one frequency against a manual gemv.
        let f = ds.n_freqs() / 2;
        let mut want = vec![C32::new(0.0, 0.0); ds.kernel_shape().0];
        gemv(&ds.kernel(f), &x[f], &mut want);
        for (got, want) in y[f].iter().zip(&want) {
            assert!((*got - *want).abs() < 1e-6);
        }
    }

    #[test]
    fn reordering_is_a_permutation_of_entries() {
        let ds = tiny();
        let k0 = &ds.kernel(0);
        let kh = ds.reordered_kernel(0, Ordering::Hilbert);
        assert_eq!(k0.shape(), kh.shape());
        assert!((k0.fro_norm() - kh.fro_norm()).abs() < 1e-3 * k0.fro_norm());
    }

    #[test]
    fn noisy_data_has_requested_snr() {
        let ds = tiny();
        let vs = 2;
        let clean = ds.observed_data(vs);
        let noisy = ds.observed_data_noisy(vs, 10.0, 42);
        let sig: f64 = clean.iter().flatten().map(|v| v.norm_sqr() as f64).sum();
        let noise: f64 = clean
            .iter()
            .flatten()
            .zip(noisy.iter().flatten())
            .map(|(c, n)| (*n - *c).norm_sqr() as f64)
            .sum();
        let snr = sig / noise;
        assert!(snr > 5.0 && snr < 20.0, "snr {snr}");
        // Deterministic under the seed.
        let again = ds.observed_data_noisy(vs, 10.0, 42);
        assert_eq!(noisy[0], again[0]);
    }

    #[test]
    fn dense_bytes_counts() {
        let ds = tiny();
        let (m, n) = ds.kernel_shape();
        assert_eq!(ds.dense_bytes(), ds.n_freqs() * m * n * 8);
    }

    /// On the tiny dataset, every kernel the dataset gathers is its dense
    /// form bit for bit: `kernel` is `downgoing_matrix`, `reordered_kernel`
    /// its `permute`, and `observed_data_of` `gemv` on it — over probes
    /// holding `+0`, `−0`, a NaN and an infinity as well as finite ones.
    #[test]
    fn gathers_are_the_dense_forms_bit_for_bit() {
        let ds = tiny();
        let mcfg = ModelingConfig {
            n_water_multiples: ds.config.n_water_multiples,
            ..Default::default()
        };
        let (rows, cols) = ds.permutations(Ordering::Hilbert);
        let n = ds.acq.n_receivers();
        let dense: Vec<Matrix<C32>> = ds
            .slices
            .iter()
            .map(|s| downgoing_matrix(s.freq_hz, s.wavelet_amp, &ds.acq, &ds.model, &mcfg))
            .collect();
        for (f, want) in dense.iter().enumerate() {
            assert!(vec_bits(ds.kernel(f).as_slice()) == vec_bits(want.as_slice()));
            let permuted = want.permute(&rows.forward, &cols.forward);
            let got = ds.reordered_kernel(f, Ordering::Hilbert);
            assert!(vec_bits(got.as_slice()) == vec_bits(permuted.as_slice()));
        }
        for probe in probe_vectors(n) {
            let x = vec![probe; ds.n_freqs()];
            for ((got, want), xf) in ds.observed_data_of(&x).iter().zip(&dense).zip(&x) {
                let mut y = vec![C32::new(0.0, 0.0); want.nrows()];
                gemv(want, xf, &mut y);
                assert!(vec_bits(got) == vec_bits(&y));
            }
        }
    }

    /// What the dataset holds is its tables, not its matrices: pinned to
    /// the byte on the default dataset (17,640 pair keys and 118 keys × 36
    /// bins in one run), and under 1/8 of the dense stack on the four
    /// datasets the benchmark generates. A change that holds the matrices
    /// again fails here.
    #[test]
    fn dataset_holds_its_tables_not_its_matrices() {
        let ds = SyntheticDataset::generate(DatasetConfig::default(), VelocityModel::overthrust());
        assert_eq!(ds.resident_bytes(), 17_640 * 4 + 118 * 36 * 8);
        for (scale, freq_stride) in [(12, 1), (8, 3), (5, 3), (5, 2)] {
            let config = DatasetConfig {
                scale,
                freq_stride,
                ..DatasetConfig::default()
            };
            let ds = SyntheticDataset::generate(config, VelocityModel::overthrust());
            assert!(
                ds.resident_bytes() * 8 < ds.dense_bytes(),
                "scale {scale} / stride {freq_stride}: {} B held of {} B dense",
                ds.resident_bytes(),
                ds.dense_bytes()
            );
        }
    }
}
