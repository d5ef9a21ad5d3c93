//! Frequency-weighted (preconditioned) MDD — the standard cure for the
//! band-edge pathology the §4 ablation exposes: scale each frequency
//! block so poorly-excited frequencies (wavelet rolloff) cannot dominate
//! the joint least-squares fit with amplified noise.
//!
//! Solving `min ‖W(Ax − b)‖` with `W = diag(w_f)` per frequency block and
//! weights `w_f` ∝ 1/(‖A_f‖ + ε) equalizes the blocks' leverage; the
//! solution is read off directly (the unknown is unchanged).

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
        let unpermute = |data: &[C32]| -> Vec<C32> {
            (0..nf)
                .flat_map(|f| cols.unapply(&data[f * n_rec..(f + 1) * n_rec]))
                .collect()
        };
        let opts = LsqrOptions {
            max_iters: 30,
            rel_tol: 0.0,
            damp: 0.0,
        };
        // Plain joint solve.
        let plain_op = MdcOperator::new(tlr.iter().collect::<Vec<_>>());
        let plain = lsqr(&plain_op, &y_perm, opts);
        let nmse_plain = nmse(&unpermute(&plain.x), &x_true);
        // Weighted solve.
        let weighted = weighted_lsqr(&tlr, &y_perm, 0.1, opts);
        let nmse_weighted = nmse(&unpermute(&weighted.x), &x_true);
        // The weighted solve must be no worse (usually better) and finite.
        assert!(nmse_weighted.is_finite());
        assert!(
            nmse_weighted <= nmse_plain * 1.2,
            "weighted {nmse_weighted} vs plain {nmse_plain}"
        );
    }
}
