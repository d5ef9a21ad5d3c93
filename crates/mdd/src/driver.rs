//! The end-to-end MDD pipeline: Hilbert-reorder → TLR-compress → build the
//! MDC operator → adjoint (cross-correlation) and LSQR inversion →
//! quality metrics. This is the paper's §6.2 experiment in miniature.
//!
//! This module is the *one-shot* path: each call compresses (or
//! receives) the operator stack and runs a single inversion to
//! completion on the caller's thread. Two siblings scale it out:
//!
//! * [`crate::multi`] fans the same pipeline over many virtual
//!   sources (the paper's §6.4 production mode), reusing one
//!   compressed stack across all of them.
//! * [`crate::engine`] (DESIGN.md §13) is the serving layer: the same
//!   per-frequency operators prebuilt into a batched
//!   [`crate::engine::FrequencyOperators`] sweep, cached across
//!   requests by compression key, and scheduled as async
//!   [`crate::engine::JobSpec::Mdd`] jobs — an LSQR identical to the
//!   one here, driven through the batched operator instead of
//!   [`MdcOperator`]'s per-frequency loop.

use rayon::prelude::*;
use seis_wave::SyntheticDataset;
use seismic_geom::Ordering;
use seismic_la::scalar::{exactly_zero_f32, C32};
use tlr_mvm::{compress_blocks, CompressionConfig, LinearOperator, TlrMatrix};

use crate::lsqr::{lsqr, LsqrOptions};
use crate::mdc::MdcOperator;
use crate::metrics::nmse;

/// Full MDD experiment configuration.
#[derive(Clone, Copy, Debug)]
pub struct MddConfig {
    /// TLR compression settings (`nb`, `acc`, backend).
    pub compression: CompressionConfig,
    /// Station ordering applied to rows and columns before tiling.
    pub ordering: Ordering,
    /// LSQR settings (30 iterations in the paper).
    pub lsqr: LsqrOptions,
}

impl Default for MddConfig {
    fn default() -> Self {
        Self {
            compression: CompressionConfig::paper_default(),
            ordering: Ordering::Hilbert,
            lsqr: LsqrOptions::default(),
        }
    }
}

/// Aggregate compression statistics over all frequency matrices.
#[derive(Clone, Copy, Debug, Default)]
pub struct CompressionStats {
    /// Σ tile ranks over all frequencies.
    pub total_rank: usize,
    /// Stored bases bytes.
    pub compressed_bytes: usize,
    /// Dense bytes replaced.
    pub dense_bytes: usize,
    /// `dense / compressed`.
    pub ratio: f64,
    /// Worst per-matrix reconstruction error bound is `acc` by
    /// construction; this records the largest tile rank seen.
    pub max_rank: usize,
    /// Tiles stored dense rather than as factors.
    pub dense_tiles: usize,
}

/// Result of one MDD run for one virtual source.
#[derive(Clone, Debug)]
pub struct MddRun {
    /// Ground-truth reflectivity (frequency-major, natural ordering).
    pub x_true: Vec<C32>,
    /// Adjoint (cross-correlation) image, optimally scaled, natural
    /// ordering.
    pub adjoint: Vec<C32>,
    /// LSQR inversion result, natural ordering.
    pub inverted: Vec<C32>,
    /// NMSE of the scaled adjoint vs truth.
    pub nmse_adjoint: f64,
    /// NMSE of the inversion vs truth.
    pub nmse_inverse: f64,
    /// LSQR residual history.
    pub residual_history: Vec<f32>,
    /// LSQR iterations run.
    pub iterations: usize,
    /// Compression statistics of the operator stack.
    pub compression: CompressionStats,
}

/// Compress every frequency matrix of the dataset after reordering
/// (rayon-parallel over frequencies — the pre-processing step the paper
/// performs on the host).
///
/// No frequency matrix is formed: each tile is gathered from the
/// dataset's station-pair tables as it is compressed
/// ([`seis_wave::DowngoingStack::gather`] over slices of the
/// permutations), and `‖A_f‖_F`, which only
/// [`tlr_mvm::ToleranceMode::RelativeGlobal`] reads, is summed from them
/// ([`seis_wave::DowngoingStack::gather_fro_norm`]). Set-up holds the
/// tables, the operators built so far and the tiles in flight. Each
/// operator is `compress(&ds.reordered_kernel_with(f, ..), config)` bit
/// for bit: the tiles and the norm are the same entries in the same
/// order.
pub fn compress_dataset(
    ds: &SyntheticDataset,
    config: CompressionConfig,
    ordering: Ordering,
) -> Vec<TlrMatrix> {
    let (rows, cols) = ds.permutations(ordering);
    let (rows, cols) = (&rows.forward, &cols.forward);
    let stack = ds.stack();
    (0..ds.n_freqs())
        .into_par_iter()
        .map(|f| {
            compress_blocks(
                ds.kernel_shape(),
                config,
                || stack.gather_fro_norm(f, rows, cols),
                |r0, c0, m, n| stack.gather(f, &rows[r0..r0 + m], &cols[c0..c0 + n]),
            )
        })
        .collect()
}

/// Aggregate compression statistics.
pub fn compression_stats(mats: &[TlrMatrix]) -> CompressionStats {
    let mut s = CompressionStats::default();
    for m in mats {
        s.total_rank += m.total_rank();
        s.compressed_bytes += m.compressed_bytes();
        s.dense_bytes += m.dense_bytes();
        s.max_rank = s.max_rank.max(m.max_rank());
        s.dense_tiles += m.dense_tiles();
    }
    s.ratio = s.dense_bytes as f64 / s.compressed_bytes.max(1) as f64;
    s
}

/// Optimal least-squares scaling `α = ⟨a, t⟩/⟨a, a⟩` applied to `a` —
/// makes the (arbitrarily scaled) adjoint image comparable to the truth.
fn scaled_to_match(a: &[C32], t: &[C32]) -> Vec<C32> {
    let mut num = C32::new(0.0, 0.0);
    let mut den = 0.0f32;
    for (ai, ti) in a.iter().zip(t) {
        num += ai.conj() * *ti;
        den += ai.norm_sqr();
    }
    if exactly_zero_f32(den) {
        return a.to_vec();
    }
    let alpha = num.scale(1.0 / den);
    a.iter().map(|ai| *ai * alpha).collect()
}

/// Run MDD for one virtual source with a pre-compressed operator stack.
pub fn run_mdd_with_operators(
    ds: &SyntheticDataset,
    tlr: &[TlrMatrix],
    vs: usize,
    cfg: &MddConfig,
) -> MddRun {
    let (rows, cols) = ds.permutations(cfg.ordering);
    let n_rec = ds.acq.n_receivers();
    let n_src = ds.acq.n_sources();
    let nf = ds.n_freqs();

    // Ground truth and observed data (natural ordering, per frequency).
    let x_true_blocks = ds.true_reflectivity(vs);
    let y_blocks = ds.observed_data_of(&x_true_blocks);

    // Reorder data to match the permuted kernels.
    let y_perm: Vec<C32> = y_blocks.iter().flat_map(|yf| rows.apply(yf)).collect();

    let op = MdcOperator::new(tlr.iter().collect::<Vec<&TlrMatrix>>());
    debug_assert_eq!(op.nrows(), nf * n_src);
    debug_assert_eq!(op.ncols(), nf * n_rec);

    // Adjoint image.
    let adj_perm = op.apply_adjoint(&y_perm);
    // Inversion.
    let sol = lsqr(&op, &y_perm, cfg.lsqr);

    // Back to natural receiver ordering, per frequency block.
    let unpermute = |data: &[C32]| -> Vec<C32> {
        (0..nf)
            .flat_map(|f| cols.unapply(&data[f * n_rec..(f + 1) * n_rec]))
            .collect()
    };
    let x_true: Vec<C32> = x_true_blocks.concat();
    let adjoint_nat = unpermute(&adj_perm);
    let inverted = unpermute(&sol.x);
    let adjoint = scaled_to_match(&adjoint_nat, &x_true);

    MddRun {
        nmse_adjoint: nmse(&adjoint, &x_true),
        nmse_inverse: nmse(&inverted, &x_true),
        x_true,
        adjoint,
        inverted,
        residual_history: sol.residual_history,
        iterations: sol.iterations,
        compression: compression_stats(tlr),
    }
}

/// Convenience: compress and run in one call.
pub fn run_mdd(ds: &SyntheticDataset, vs: usize, cfg: &MddConfig) -> MddRun {
    let tlr = compress_dataset(ds, cfg.compression, cfg.ordering);
    run_mdd_with_operators(ds, &tlr, vs, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use seis_wave::{DatasetConfig, VelocityModel};
    use seismic_la::Matrix;
    use tlr_mvm::{compress, CompressionMethod, TileRef, ToleranceMode};

    fn tiny_ds() -> SyntheticDataset {
        SyntheticDataset::generate(DatasetConfig::tiny(), VelocityModel::overthrust())
    }

    fn cfg(nb: usize, acc: f32) -> MddConfig {
        MddConfig {
            compression: CompressionConfig {
                nb,
                acc,
                method: CompressionMethod::Svd,
                mode: ToleranceMode::RelativeTile,
            },
            ordering: Ordering::Hilbert,
            lsqr: LsqrOptions {
                max_iters: 30,
                rel_tol: 0.0,
                damp: 0.0,
            },
        }
    }

    #[test]
    fn inversion_beats_adjoint() {
        let ds = tiny_ds();
        let vs = ds.acq.n_receivers() / 2;
        let run = run_mdd(&ds, vs, &cfg(8, 1e-4));
        assert!(
            run.nmse_inverse < run.nmse_adjoint,
            "inverse {} vs adjoint {}",
            run.nmse_inverse,
            run.nmse_adjoint
        );
        // Noiseless, well-posed small problem: inversion should be decent.
        assert!(run.nmse_inverse < 0.3, "nmse {}", run.nmse_inverse);
        assert_eq!(run.iterations, 30);
    }

    #[test]
    fn looser_accuracy_degrades_or_matches_quality() {
        let ds = tiny_ds();
        let vs = 3;
        let tight = run_mdd(&ds, vs, &cfg(8, 1e-5));
        let loose = run_mdd(&ds, vs, &cfg(8, 3e-2));
        assert!(
            loose.nmse_inverse >= tight.nmse_inverse * 0.99,
            "loose {} vs tight {}",
            loose.nmse_inverse,
            tight.nmse_inverse
        );
        // Looser tolerance must compress at least as hard.
        assert!(loose.compression.compressed_bytes <= tight.compression.compressed_bytes);
    }

    #[test]
    fn hilbert_compresses_better_than_natural() {
        let ds = tiny_ds();
        let c = CompressionConfig {
            nb: 8,
            acc: 1e-3,
            method: CompressionMethod::Svd,
            mode: ToleranceMode::RelativeTile,
        };
        let hil = compression_stats(&compress_dataset(&ds, c, Ordering::Hilbert));
        let nat = compression_stats(&compress_dataset(&ds, c, Ordering::Natural));
        assert!(
            hil.compressed_bytes <= nat.compressed_bytes,
            "hilbert {} vs natural {}",
            hil.compressed_bytes,
            nat.compressed_bytes
        );
    }

    #[test]
    fn residuals_decrease() {
        let ds = tiny_ds();
        let run = run_mdd(&ds, 1, &cfg(8, 1e-4));
        let h = &run.residual_history;
        assert!(h.last().unwrap() < &(h[0] * 1.0001));
    }

    fn bits(a: &Matrix<C32>) -> Vec<(u32, u32)> {
        a.as_slice()
            .iter()
            .map(|z| (z.re.to_bits(), z.im.to_bits()))
            .collect()
    }

    /// `compress_dataset`, which gathers each tile from the tables, against
    /// `compress` of each Hilbert-ordered frequency matrix, tile by tile:
    /// the same form and rank, and the same bits of the skeleton's panel
    /// and column order or of the dense block — under both tolerance
    /// modes.
    fn assert_compress_dataset_is_compress_of_each_kernel(
        ds: &SyntheticDataset,
        nb: usize,
        method: CompressionMethod,
    ) {
        let (rows, cols) = ds.permutations(Ordering::Hilbert);
        let kernels: Vec<_> = (0..ds.n_freqs())
            .map(|f| ds.reordered_kernel_with(f, &rows, &cols))
            .collect();
        for mode in [ToleranceMode::RelativeTile, ToleranceMode::RelativeGlobal] {
            let config = CompressionConfig {
                nb,
                acc: 1e-3,
                method,
                mode,
            };
            let got = compress_dataset(ds, config, Ordering::Hilbert);
            assert_eq!(got.len(), kernels.len());
            for (f, (got, kernel)) in got.iter().zip(&kernels).enumerate() {
                let want = compress(kernel, config);
                assert_eq!(got.tiling(), want.tiling());
                let tiles = got.tiles_with_coords().zip(want.tiles_with_coords());
                for ((i, j, g), (_, _, w)) in tiles {
                    let at = format!("nb {nb} {method:?} {mode:?}: bin {f}, tile ({i},{j})");
                    assert_eq!(g.rank(), w.rank(), "{at}");
                    match (g, w) {
                        (TileRef::LowRank(g), TileRef::LowRank(w)) => {
                            assert!(bits(g.panel()) == bits(w.panel()), "{at}: panel");
                            assert!(g.perm().eq(w.perm()), "{at}: column order");
                        }
                        (TileRef::Dense(g), TileRef::Dense(w)) => {
                            assert!(bits(&g.to_matrix()) == bits(&w.to_matrix()), "{at}: block");
                        }
                        _ => panic!("{at}: stored in another form"),
                    }
                }
            }
        }
    }

    /// The tiny dataset at ragged tile sizes (5 and 8 leave partial edge
    /// tiles on both axes, 16 a single partial tile column), every backend.
    #[test]
    fn compress_dataset_is_compress_of_each_kernel_on_the_tiny_dataset() {
        let ds = tiny_ds();
        for nb in [5, 8, 16] {
            for method in CompressionMethod::ALL {
                assert_compress_dataset_is_compress_of_each_kernel(&ds, nb, method);
            }
        }
    }

    /// The default (scale-12) dataset, `solve-small`'s and `serve-mix`'s,
    /// at its tile size 16.
    #[test]
    fn compress_dataset_is_compress_of_each_kernel_on_the_default_dataset() {
        let ds = SyntheticDataset::generate(DatasetConfig::default(), VelocityModel::overthrust());
        for method in [CompressionMethod::Svd, CompressionMethod::Rrqr] {
            assert_compress_dataset_is_compress_of_each_kernel(&ds, 16, method);
        }
    }

    /// The randomized backend on the default dataset, at `nb` 32 (at 16
    /// its sketch spans the tile): four stacks of its adaptive sketches
    /// take ≈ 18 s unoptimised, so only the optimised build runs it.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "≈ 18 s unoptimised: CI runs it in release")]
    fn compress_dataset_is_compress_of_each_kernel_on_the_default_dataset_randomized() {
        let ds = SyntheticDataset::generate(DatasetConfig::default(), VelocityModel::overthrust());
        assert_compress_dataset_is_compress_of_each_kernel(&ds, 32, CompressionMethod::Rsvd);
    }
}
