//! Frequency-weighted (preconditioned) MDD — the standard response to
//! the band-edge pathology the §4 ablation exposes: scale each frequency
//! block so that poorly-excited frequencies (wavelet rolloff) and strong
//! ones have comparable leverage in the joint least-squares fit.
//!
//! Solving `min ‖W(Ax − b)‖` with `W = diag(w_f)` per frequency block and
//! weights `w_f` ∝ 1/(‖A_f‖ + ε) equalizes the blocks' leverage; the
//! solution is read off directly (the unknown is unchanged). It is a
//! preconditioner, not a regulariser: on noisy data the weighted solve
//! reaches a lower error in fewer iterations (SNR 10 on the tiny dataset:
//! best early-stopped NMSE 0.021 at 2 iterations against 0.048 at 4), and
//! run on undamped it amplifies the noise as the plain solve does.

use seismic_la::scalar::C32;
use tlr_mvm::{LinearOperator, TlrMatrix};

use crate::lsqr::{lsqr, LsqrOptions, LsqrResult};
use crate::mdc::MdcOperator;

/// A row-weighted wrapper: applies `w_f · A_f` per frequency block.
pub struct WeightedMdcOperator<'a> {
    inner: MdcOperator<&'a TlrMatrix>,
    weights: Vec<f32>,
    n_src: usize,
}

impl<'a> WeightedMdcOperator<'a> {
    /// Weight each block by `1 / (‖A_f‖_F + ε·max_f ‖A_f‖_F)` — blocks
    /// with weak excitation get *no more* leverage than strong ones.
    pub fn new(blocks: &'a [TlrMatrix], eps: f32) -> Self {
        let norms: Vec<f32> = blocks
            .iter()
            .map(|b| {
                // ‖A‖_F from the tiles as stored, nothing densified.
                b.tiles_with_coords()
                    .map(|(_, _, t)| t.fro_norm_sq())
                    .sum::<f64>()
                    .sqrt() as f32
            })
            .collect();
        let max = norms.iter().cloned().fold(0.0f32, f32::max).max(1e-30);
        let weights = norms.iter().map(|&n| 1.0 / (n + eps * max)).collect();
        let n_src = blocks.first().map_or(0, |b| b.shape().0);
        Self {
            inner: MdcOperator::new(blocks.iter().collect()),
            weights,
            n_src,
        }
    }

    /// Apply the weights to a data vector (the `W·b` right-hand side).
    pub fn weight_data(&self, y: &[C32]) -> Vec<C32> {
        assert_eq!(y.len(), self.inner.nrows());
        let mut out = y.to_vec();
        self.scale_blocks(&mut out, self.n_src);
        out
    }

    /// The per-frequency weights.
    pub fn weights(&self) -> &[f32] {
        &self.weights
    }

    /// Scale block `f` (of `block` entries) of a frequency-major vector
    /// by `w_f`, in place.
    fn scale_blocks(&self, data: &mut [C32], block: usize) {
        for (f, &w) in self.weights.iter().enumerate() {
            for v in &mut data[f * block..(f + 1) * block] {
                *v = v.scale(w);
            }
        }
    }
}

impl LinearOperator for WeightedMdcOperator<'_> {
    fn nrows(&self) -> usize {
        self.inner.nrows()
    }
    fn ncols(&self) -> usize {
        self.inner.ncols()
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
    fn apply_into(&self, x: &[C32], y: &mut [C32]) {
        self.inner.apply_into(x, y);
        self.scale_blocks(y, self.n_src);
    }
    /// `(WA)ᴴ y = Aᴴ W y`, and `W` is one real scalar per frequency block
    /// of a block-diagonal `A`, so `x_f = w_f · A_fᴴ y_f`: the inner
    /// adjoint runs on `y` as given and the weights scale its output in
    /// place — no weighted copy of `y`.
    fn apply_adjoint_into(&self, y: &[C32], x: &mut [C32]) {
        self.inner.apply_adjoint_into(y, x);
        self.scale_blocks(x, self.inner.n_rec());
    }
}

/// Solve the weighted system `min ‖W(Ax − b)‖` with LSQR.
pub fn weighted_lsqr(blocks: &[TlrMatrix], y: &[C32], eps: f32, opts: LsqrOptions) -> LsqrResult {
    let op = WeightedMdcOperator::new(blocks, eps);
    let wy = op.weight_data(y);
    lsqr(&op, &wy, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::compress_dataset;
    use crate::metrics::nmse;
    use seis_wave::{DatasetConfig, SyntheticDataset, VelocityModel};
    use seismic_geom::Ordering;
    use seismic_la::blas::dotc;
    use tlr_mvm::{CompressionConfig, CompressionMethod, ToleranceMode};

    fn setup() -> (SyntheticDataset, Vec<TlrMatrix>) {
        let ds = SyntheticDataset::generate(DatasetConfig::tiny(), VelocityModel::overthrust());
        let tlr = compress_dataset(
            &ds,
            CompressionConfig {
                nb: 8,
                acc: 1e-4,
                method: CompressionMethod::Svd,
                mode: ToleranceMode::RelativeTile,
            },
            Ordering::Hilbert,
        );
        (ds, tlr)
    }

    #[test]
    fn weighted_operator_adjoint_identity() {
        let (ds, tlr) = setup();
        let op = WeightedMdcOperator::new(&tlr, 0.1);
        let n = op.ncols();
        let m = op.nrows();
        let x: Vec<C32> = (0..n)
            .map(|i| C32::new((i as f32 * 0.2).sin(), 0.3))
            .collect();
        let y: Vec<C32> = (0..m)
            .map(|i| C32::new(0.1, (i as f32 * 0.15).cos()))
            .collect();
        let lhs = dotc(&y, &op.apply(&x));
        let rhs = dotc(&op.apply_adjoint(&y), &x);
        assert!(
            (lhs - rhs).abs() < 1e-3 * (1.0 + lhs.abs()),
            "{lhs} vs {rhs}"
        );
        let _ = ds;
    }

    #[test]
    fn weights_equalize_block_leverage() {
        let (_, tlr) = setup();
        let op = WeightedMdcOperator::new(&tlr, 0.05);
        // Weighted block norms should span a much smaller range than the
        // raw block norms.
        let raw: Vec<f32> = tlr.iter().map(|b| b.reconstruct().fro_norm()).collect();
        let weighted: Vec<f32> = raw.iter().zip(op.weights()).map(|(&n, &w)| n * w).collect();
        let spread = |v: &[f32]| {
            let max = v.iter().cloned().fold(0.0f32, f32::max);
            let min = v.iter().cloned().fold(f32::INFINITY, f32::min);
            max / min.max(1e-30)
        };
        assert!(spread(&weighted) < 0.5 * spread(&raw) + 2.0);
    }

    /// What weighting buys on noisy data, posed where the answer means
    /// something. Undamped LSQR on SNR-10 data semi-converges: the NMSE
    /// falls for a handful of iterations and then climbs as the small
    /// singular directions fill with noise, and by iteration 30 both solves
    /// are amplified noise whose ranking is rounding luck. The assertion
    /// this replaces, `weighted ≤ 1.2·plain` at 30 iterations, held at
    /// 42.8 ≤ 1.2·43.5 and fails on a last-bit edit of the solver. The
    /// iterate a user keeps is the early-stopped one, and there the weights
    /// matter — the weighted solve bottoms out sooner and lower — and
    /// rounding has not been amplified yet:
    ///
    /// | `plain`, `weighted` NMSE          | best `k ≤ 8`            | `k = 30`   |
    /// |-----------------------------------|-------------------------|------------|
    /// | PR 21 (two calls, `A(v̂/α)`)       | 0.048351 at 4, 0.021159 at 2 | 43.5, 42.8 |
    /// | PR 21, `scale` as `e / (1.0 / s)` | 0.048351 at 4, 0.021159 at 2 | 44.8, 54.0 |
    /// | this tree (`(Av̂)/α`)              | 0.048351 at 4, 0.021159 at 2 | 43.4, 53.3 |
    ///
    /// (Through `k = 5` the three agree to six digits at every `k`; at
    /// `k = 8` the second digit of the plain solve has moved.)
    #[test]
    fn weighting_tames_noisy_joint_inversion() {
        let (ds, tlr) = setup();
        let vs = 2;
        let y: Vec<C32> = ds.observed_data_noisy(vs, 10.0, 99).concat();
        // Reorder data rows to match the permuted kernels.
        let (rows, cols) = ds.permutations(Ordering::Hilbert);
        let n_src = ds.acq.n_sources();
        let nf = ds.n_freqs();
        let y_perm: Vec<C32> = (0..nf)
            .flat_map(|f| rows.apply(&y[f * n_src..(f + 1) * n_src]))
            .collect();
        let x_true: Vec<C32> = ds.true_reflectivity(vs).concat();
        let n_rec = ds.acq.n_receivers();
        let error = |x: &[C32]| -> f64 {
            let natural: Vec<C32> = (0..nf)
                .flat_map(|f| cols.unapply(&x[f * n_rec..(f + 1) * n_rec]))
                .collect();
            nmse(&natural, &x_true)
        };
        let plain_op = MdcOperator::new(tlr.iter().collect::<Vec<_>>());
        // (NMSE, k) of the best early-stopped iterate, k = 1..=8.
        let best = |solve: &dyn Fn(LsqrOptions) -> LsqrResult| {
            (1..=8)
                .map(|max_iters| {
                    let opts = LsqrOptions {
                        max_iters,
                        rel_tol: 0.0,
                        damp: 0.0,
                    };
                    (error(&solve(opts).x), max_iters)
                })
                .fold((f64::INFINITY, 0), |a, b| if b.0 < a.0 { b } else { a })
        };
        let (nmse_plain, k_plain) = best(&|opts| lsqr(&plain_op, &y_perm, opts));
        let (nmse_weighted, k_weighted) = best(&|opts| weighted_lsqr(&tlr, &y_perm, 0.1, opts));
        assert!(nmse_plain < 0.1, "plain {nmse_plain} at k = {k_plain}");
        assert!(
            nmse_weighted <= 0.75 * nmse_plain && k_weighted <= k_plain,
            "weighted {nmse_weighted} at k = {k_weighted} vs plain {nmse_plain} at k = {k_plain}"
        );
    }
}
