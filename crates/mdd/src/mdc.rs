//! The Multi-Dimensional Convolution operator `y = Fᴴ K F x` for a single
//! virtual source: per-frequency kernel MVMs between the forward and
//! inverse Fourier transforms (paper Eqn. 2).
//!
//! The frequency-domain core (`K`) is a block-diagonal stack of the
//! per-frequency kernels — dense or TLR-compressed interchangeably via
//! [`LinearOperator`]. Each kernel writes its own disjoint chunk of the
//! caller's output (`apply_into` / `apply_adjoint_into`), so one
//! application of the whole stack allocates no output vector. LSQR's
//! call, `adjoint_then_apply_into`, is one task per frequency — each
//! kernel's own fused half-step pair on its own chunks — so an iteration
//! is one fork-join and, over TLR kernels, one pass over the stack.
//!
//! Over owned [`tlr_mvm::TlrMatrix`] kernels this is also the engine's
//! batched operator ([`crate::engine::FrequencyOperators`]): the one
//! frequency sweep in the workspace.

use rayon::prelude::*;
use seismic_fft::RealFft;
use seismic_la::scalar::{C32, C64};
use tlr_mvm::invariant::assert_finite;
use tlr_mvm::LinearOperator;

/// Frequency-domain MDC core: one kernel per retained frequency bin,
/// applied to the matching segment of the concatenated input.
///
/// ```
/// use seismic_la::{Matrix, C32};
/// use seismic_mdd::MdcOperator;
/// use tlr_mvm::LinearOperator;
///
/// // Two retained frequency bins, each with a 3×2 source/receiver kernel.
/// let k = |f: usize| {
///     Matrix::from_fn(3, 2, move |i, j| C32::new((f + i) as f32, j as f32))
/// };
/// let op = MdcOperator::new(vec![k(0), k(1)]);
/// assert_eq!(op.n_freqs(), 2);
/// assert_eq!((op.nrows(), op.ncols()), (6, 4));
/// // Frequency blocks act independently on their input segments.
/// let x = vec![C32::new(1.0, 0.0); 4];
/// let y = op.apply(&x);
/// let y0 = op.kernels()[0].apply(&x[..2]);
/// assert_eq!(&y[..3], &y0[..]);
/// ```
pub struct MdcOperator<O: LinearOperator> {
    kernels: Vec<O>,
    /// [`LinearOperator::stored_bytes`] of each kernel.
    bytes: Vec<usize>,
    /// The frequencies in the order their tasks are handed out: largest
    /// stored bytes first, ties in index order.
    order: Vec<usize>,
    n_src: usize,
    n_rec: usize,
}

impl<O: LinearOperator> MdcOperator<O> {
    /// Assemble from per-frequency kernels (all must share their shape).
    pub fn new(kernels: Vec<O>) -> Self {
        assert!(!kernels.is_empty());
        let n_src = kernels[0].nrows();
        let n_rec = kernels[0].ncols();
        for k in &kernels {
            assert_eq!((k.nrows(), k.ncols()), (n_src, n_rec));
        }
        let bytes: Vec<usize> = kernels.iter().map(O::stored_bytes).collect();
        let mut order: Vec<usize> = (0..kernels.len()).collect();
        order.sort_by_key(|&f| std::cmp::Reverse(bytes[f]));
        Self {
            kernels,
            bytes,
            order,
            n_src,
            n_rec,
        }
    }

    /// `chunks` — one per frequency, in frequency order — paired with
    /// their frequency and listed in task order, ready to hand to the pool.
    fn tasks<T>(&self, chunks: impl Iterator<Item = T>) -> Vec<(usize, T)> {
        let mut slots: Vec<Option<T>> = chunks.map(Some).collect();
        self.order
            .iter()
            .filter_map(|&f| Some((f, slots.get_mut(f)?.take()?)))
            .collect()
    }

    /// Number of frequency blocks.
    pub fn n_freqs(&self) -> usize {
        self.kernels.len()
    }

    /// Sources per frequency (rows of each kernel).
    pub fn n_src(&self) -> usize {
        self.n_src
    }

    /// Receivers per frequency (columns of each kernel).
    pub fn n_rec(&self) -> usize {
        self.n_rec
    }

    /// The kernels.
    pub fn kernels(&self) -> &[O] {
        &self.kernels
    }
}

impl<O: LinearOperator> LinearOperator for MdcOperator<O> {
    fn nrows(&self) -> usize {
        self.n_src * self.kernels.len()
    }
    fn ncols(&self) -> usize {
        self.n_rec * self.kernels.len()
    }
    fn apply(&self, x: &[C32]) -> Vec<C32> {
        let mut y = vec![C32::new(0.0, 0.0); self.nrows()];
        self.apply_into(x, &mut y);
        y
    }
    fn apply_adjoint(&self, y: &[C32]) -> Vec<C32> {
        let mut x = vec![C32::new(0.0, 0.0); self.ncols()];
        self.apply_adjoint_into(y, &mut x);
        x
    }
    /// Frequency blocks are independent → one task per frequency (this
    /// is the embarrassingly parallel structure the paper maps onto PEs),
    /// each kernel writing its own `n_src` chunk of `y` in place, handed
    /// out largest [`LinearOperator::stored_bytes`] first: a frequency
    /// stack's bytes rise several-fold from its first matrix to its last,
    /// and the pool hands tasks out in list order, so the big ones must
    /// not start last. The order is fixed in [`MdcOperator::new`] and
    /// changes no result. A TLR kernel's products are serial, so a stack
    /// with fewer frequencies than threads leaves threads idle here; the
    /// stacks this runs on hold 12–230.
    fn apply_into(&self, x: &[C32], y: &mut [C32]) {
        assert_eq!(x.len(), self.ncols());
        assert_eq!(y.len(), self.nrows());
        assert_finite("mdc.apply.x", x);
        let nr = self.n_rec;
        let tasks = self.tasks(y.chunks_mut(self.n_src.max(1)));
        let _span = tlr_mvm::trace::span("mdc.apply");
        tasks.into_par_iter().for_each(|(f, yf)| {
            self.kernels[f].apply_into(&x[f * nr..(f + 1) * nr], yf);
        });
        assert_finite("mdc.apply.y", y);
    }
    /// One task per frequency, as [`LinearOperator::apply_into`] runs.
    fn apply_adjoint_into(&self, y: &[C32], x: &mut [C32]) {
        assert_eq!(y.len(), self.nrows());
        assert_eq!(x.len(), self.ncols());
        assert_finite("mdc.apply_adjoint.y", y);
        let ns = self.n_src;
        let tasks = self.tasks(x.chunks_mut(self.n_rec.max(1)));
        let _span = tlr_mvm::trace::span("mdc.apply_adjoint");
        tasks.into_par_iter().for_each(|(f, xf)| {
            self.kernels[f].apply_adjoint_into(&y[f * ns..(f + 1) * ns], xf);
        });
        assert_finite("mdc.apply_adjoint.x", x);
    }
    /// One task per frequency, as [`LinearOperator::apply_into`] runs:
    /// each kernel's own fused pair on its own chunks of `v`, `w` and
    /// `scratch`.
    fn adjoint_then_apply_into(
        &self,
        u: &[C32],
        beta: f32,
        v: &mut [C32],
        w: &mut [C32],
        scratch: &mut [C32],
    ) {
        assert_eq!(u.len(), self.nrows());
        assert_eq!(w.len(), self.nrows());
        assert_eq!(v.len(), self.ncols());
        assert_eq!(scratch.len(), self.ncols());
        assert_finite("mdc.adjoint_then_apply.u", u);
        let (ns, nr) = (self.n_src, self.n_rec);
        let tasks = self.tasks(
            v.chunks_mut(nr.max(1))
                .zip(w.chunks_mut(ns.max(1)))
                .zip(scratch.chunks_mut(nr.max(1))),
        );
        let _span = tlr_mvm::trace::span("mdc.adjoint_then_apply");
        tasks.into_par_iter().for_each(|(f, ((vf, wf), zf))| {
            self.kernels[f].adjoint_then_apply_into(&u[f * ns..(f + 1) * ns], beta, vf, wf, zf);
        });
        assert_finite("mdc.adjoint_then_apply.v", v);
        assert_finite("mdc.adjoint_then_apply.w", w);
    }
    fn stored_bytes(&self) -> usize {
        self.bytes.iter().sum()
    }
}

/// Convert per-frequency station vectors (concatenated frequency-major,
/// only the retained bins populated) back to time-domain traces: the
/// `Fᴴ` of Eqn. 2. `bins[f]` is the FFT bin of segment `f`; `nt` the time
/// samples per trace; `n_sta` the stations per frequency segment.
pub fn freq_vectors_to_time_traces(
    data: &[C32],
    bins: &[usize],
    n_sta: usize,
    nt: usize,
) -> Vec<Vec<f64>> {
    assert_eq!(data.len(), bins.len() * n_sta);
    assert_finite("freq_to_time.data", data);
    let rf = RealFft::<f64>::new(nt);
    let nf_full = rf.spectrum_len();
    assert!(
        bins.iter().all(|&b| b < nf_full),
        "frequency bin out of range: spectrum has {nf_full} bins for nt={nt}"
    );
    // O(nf) next to the inverse FFTs: checked in every build, because a
    // repeated bin would overwrite an earlier frequency's data.
    assert!(
        bins.windows(2).all(|w| w[0] < w[1]),
        "frequency bins must be strictly increasing (duplicates silently overwrite)"
    );
    (0..n_sta)
        .into_par_iter()
        .map(|s| {
            let mut spec = vec![C64::new(0.0, 0.0); nf_full];
            for (f, &bin) in bins.iter().enumerate() {
                let v = data[f * n_sta + s];
                spec[bin] = C64::new(v.re as f64, v.im as f64);
            }
            // Conjugate-symmetry contract of the real inverse transform:
            // DC and (for even nt) Nyquist must be real, or the inverse
            // silently discards the imaginary energy.
            #[cfg(debug_assertions)]
            {
                let scale = spec
                    .iter()
                    .map(|z| z.re.abs().max(z.im.abs()))
                    .fold(0.0f64, f64::max);
                let tol = 1e-3 * (scale + f64::MIN_POSITIVE);
                debug_assert!(
                    spec[0].im.abs() <= tol,
                    "conjugate-symmetry violation: DC bin imaginary part {} (scale {scale})",
                    spec[0].im
                );
                if nt.is_multiple_of(2) {
                    debug_assert!(
                        spec[nf_full - 1].im.abs() <= tol,
                        "conjugate-symmetry violation: Nyquist bin imaginary part {}",
                        spec[nf_full - 1].im
                    );
                }
            }
            rf.inverse(&spec)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use seismic_la::blas::dotc;
    use seismic_la::Matrix;

    fn rand_cvec(n: usize, seed: u64) -> Vec<C32> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                C32::new(
                    seismic_la::dense::normal_sample(&mut rng) as f32,
                    seismic_la::dense::normal_sample(&mut rng) as f32,
                )
            })
            .collect()
    }

    #[test]
    fn mdc_applies_blocks_independently() {
        let mut rng = ChaCha8Rng::seed_from_u64(121);
        let k1 = Matrix::<C32>::random_normal(6, 4, &mut rng);
        let k2 = Matrix::<C32>::random_normal(6, 4, &mut rng);
        let op = MdcOperator::new(vec![k1.clone(), k2.clone()]);
        assert_eq!(op.nrows(), 12);
        assert_eq!(op.ncols(), 8);
        let x = rand_cvec(8, 122);
        let y = op.apply(&x);
        let y1 = k1.apply(&x[..4]);
        assert_eq!(&y[..6], &y1[..]);
    }

    #[test]
    fn mdc_adjoint_identity() {
        let mut rng = ChaCha8Rng::seed_from_u64(123);
        let kernels: Vec<Matrix<C32>> = (0..3)
            .map(|_| Matrix::<C32>::random_normal(5, 7, &mut rng))
            .collect();
        let op = MdcOperator::new(kernels);
        let x = rand_cvec(21, 124);
        let y = rand_cvec(15, 125);
        let lhs = dotc(&y, &op.apply(&x));
        let rhs = dotc(&op.apply_adjoint(&y), &x);
        assert!((lhs - rhs).abs() < 1e-2 * (1.0 + lhs.abs()));
    }

    /// A repeated bin is refused in every build profile: `--release`
    /// runs this too, where a `debug_assert!` would let the second
    /// frequency overwrite the first.
    #[test]
    #[should_panic(expected = "frequency bins must be strictly increasing")]
    fn time_conversion_rejects_a_repeated_bin() {
        let data = vec![C32::new(1.0, 0.0), C32::new(2.0, 0.0)];
        freq_vectors_to_time_traces(&data, &[5, 5], 1, 64);
    }

    #[test]
    fn time_conversion_places_energy_at_right_bin() {
        // A single populated bin should produce a cosine at that frequency.
        let nt = 64;
        let bins = vec![5usize];
        let n_sta = 2;
        let data = vec![C32::new(1.0, 0.0), C32::new(0.0, 0.0)];
        let traces = freq_vectors_to_time_traces(&data, &bins, n_sta, nt);
        assert_eq!(traces.len(), 2);
        // Station 1 got a zero spectrum → zero trace.
        assert!(traces[1].iter().all(|&v| v.abs() < 1e-12));
        // Station 0: cos(2π·5·t/64)·(2/64) after Hermitian extension.
        let want0 = 2.0 / 64.0;
        assert!((traces[0][0] - want0).abs() < 1e-12, "{}", traces[0][0]);
    }
}
