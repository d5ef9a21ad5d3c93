//! TLR compression: tile the matrix, compress every tile independently,
//! and store each either as the skeleton form of its rank-`k` approximant
//! — while `k·(m+n) < m·n` — or as the dense block ([`compress_tile`]).
//! The choice is a function of the data alone, and the stored operator is
//! never larger than the dense one.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;
use seismic_la::blas::gemm_conj_transpose_right;
use seismic_la::qr::{pivoted_qr_until, RankStop};
use seismic_la::rsvd::rsvd_compress_adaptive;
use seismic_la::scalar::C32;
use seismic_la::svd::svd_truncate;
use seismic_la::Matrix;

use crate::accuracy;
use crate::matrix::{TileRef, TlrMatrix};
use crate::skeleton::Skeleton;
use crate::tiling::Tiling;
use crate::trace;

/// Algebraic compression backend.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CompressionMethod {
    /// Optimal (Eckart–Young) truncation by one-sided Jacobi SVD, taken
    /// of the rank-revealing-QR approximant of the tile, whose own error
    /// is at most `tol/32` and is counted in the tolerance (see
    /// [`seismic_la::svd::svd_compress`]). The reference backend.
    Svd,
    /// Rank-revealing column-pivoted QR.
    Rrqr,
    /// Randomized SVD with adaptive sketch growth.
    Rsvd,
}

impl CompressionMethod {
    /// All backends, for sweeps/ablations.
    pub const ALL: [CompressionMethod; 3] = [
        CompressionMethod::Svd,
        CompressionMethod::Rrqr,
        CompressionMethod::Rsvd,
    ];
}

/// How the scalar accuracy `acc` is turned into per-tile truncation
/// tolerances.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ToleranceMode {
    /// Per-tile relative: `‖E_t‖_F ≤ acc · ‖A_t‖_F`. Matches the paper's
    /// "tile-wise accuracy tolerance".
    RelativeTile,
    /// Globally calibrated: `‖E_t‖_F ≤ acc · ‖A‖_F / √(#tiles)`, which
    /// guarantees `‖A − Ã‖_F ≤ acc · ‖A‖_F`.
    RelativeGlobal,
}

/// Full compression configuration.
#[derive(Clone, Copy, Debug)]
pub struct CompressionConfig {
    /// Tile size (`nb` in the paper: 25, 50, 70).
    pub nb: usize,
    /// Accuracy threshold (`acc` in the paper: 1e-4 … 7e-4).
    pub acc: f32,
    /// Backend.
    pub method: CompressionMethod,
    /// Tolerance semantics.
    pub mode: ToleranceMode,
}

impl CompressionConfig {
    /// The paper's headline configuration (`nb = 70`, `acc = 1e-4`, SVD).
    pub fn paper_default() -> Self {
        Self {
            nb: 70,
            acc: 1e-4,
            method: CompressionMethod::Svd,
            mode: ToleranceMode::RelativeTile,
        }
    }

    /// Same accuracy, different tile size.
    pub fn with_nb(mut self, nb: usize) -> Self {
        self.nb = nb;
        self
    }

    /// Same tile size, different accuracy.
    pub fn with_acc(mut self, acc: f32) -> Self {
        self.acc = acc;
        self
    }
}

/// Compress a dense matrix to TLR form: [`compress_blocks`] reading each
/// tile with [`Matrix::block`] and `‖A‖_F` with [`Matrix::fro_norm`].
///
/// # Panics
///
/// As [`compress_blocks`].
pub fn compress(dense: &Matrix<C32>, config: CompressionConfig) -> TlrMatrix {
    compress_blocks(
        dense.shape(),
        config,
        || dense.fro_norm(),
        |r0, c0, m, n| dense.block(r0, c0, m, n),
    )
}

/// Compress the `rows × cols` operator whose tiles `block` returns to TLR
/// form, without ever holding the operator: `block(r0, c0, m, n)` is
/// its `m × n` block at rows `r0..r0+m` and columns `c0..c0+n`, asked for
/// once per tile (twice while tracing) and dropped as soon as that tile is
/// compressed, then once per maximal run of dense tiles in a tile column,
/// for the run's whole rectangle, which [`TlrMatrix::new`] keeps as the
/// run's panel; `fro_norm` is `‖A‖_F`, called once, only under
/// [`ToleranceMode::RelativeGlobal`]. A source whose blocks and norm are
/// the bits of a matrix's [`Matrix::block`] and [`Matrix::fro_norm`] gives
/// the operator [`compress`] gives that matrix, bit for bit: every tile
/// reaches [`compress_tile`] with the same entries and the same
/// tolerance, and every dense run is the same rows of the matrix.
///
/// Tiles are compressed independently and in parallel; a tile whose
/// factors would not be smaller than the block itself is stored dense, so
/// the tolerance always holds and [`TlrMatrix::compression_ratio`] is at
/// least 1.
///
/// While tracing is enabled the compression observatory also records,
/// per tile, the rank histogram plus three accuracy grids (rank, stored
/// bytes, and the truncation backward error — see [`crate::accuracy`]);
/// the grid totals reconcile *exactly* with the returned matrix's
/// [`TlrMatrix::total_rank`] / [`TlrMatrix::compressed_bytes`].
///
/// # Panics
///
/// On a negative, `NaN` or infinite `config.acc` (`0` is legal: every
/// tile is kept to rounding), and on `config.nb == 0` ([`Tiling::new`]).
pub fn compress_blocks<B>(
    (rows, cols): (usize, usize),
    config: CompressionConfig,
    fro_norm: impl FnOnce() -> f32,
    block: B,
) -> TlrMatrix
where
    B: Fn(usize, usize, usize, usize) -> Matrix<C32> + Sync,
{
    assert!(
        config.acc >= 0.0 && config.acc.is_finite(),
        "accuracy must be finite and non-negative, got {}",
        config.acc
    );
    let tiling = Tiling::new(rows, cols, config.nb);
    let mt = tiling.tile_rows();
    let nt = tiling.tile_cols();
    // Only the global mode reads ‖A‖_F; the per-tile mode skips the pass.
    let global_tol = match config.mode {
        ToleranceMode::RelativeTile => None,
        ToleranceMode::RelativeGlobal => {
            Some(config.acc * fro_norm() / crate::cast::usize_to_f32(tiling.tile_count()).sqrt())
        }
    };
    let observe = trace::is_enabled();
    // Tile `idx` (column-major: idx = j*mt + i) read from the source.
    let tile_block = |idx: usize| {
        let (r0, rl) = tiling.row_range(idx % mt);
        let (c0, cl) = tiling.col_range(idx / mt);
        block(r0, c0, rl, cl)
    };

    // One slot per tile (`None`: stored dense) is allocated before the
    // span opens: the traced region is pure per-tile compression (HP01).
    let mut skeletons: Vec<Option<Skeleton>> = vec![None; mt * nt];
    {
        let _span = trace::span("compress.tiles");
        skeletons
            .par_iter_mut()
            .enumerate()
            .for_each(|(idx, slot)| {
                let tile = tile_block(idx);
                let tol = global_tol.unwrap_or_else(|| config.acc * tile.fro_norm());
                *slot = compress_tile(&tile, tol, config.method, crate::cast::to_u64(idx));
            });
    }
    let tlr = TlrMatrix::new(tiling, config, skeletons, &block);

    if observe {
        // Second pass for the backward-error grid only: each skeleton's
        // truncation error is measured against its tile, read from the
        // source again, outside the timed span, so the observatory never
        // perturbs the traced compression kernel itself. A dense tile
        // truncated nothing: its cell stays 0 and its block is not read.
        let mut tail_ppb: Vec<u64> = vec![0; mt * nt];
        tail_ppb.par_iter_mut().enumerate().for_each(|(idx, cell)| {
            if let TileRef::LowRank(s) = tlr.tile(idx % mt, idx / mt) {
                *cell = accuracy::tile_tail_ppb(s, &tile_block(idx));
            }
        });
        accuracy::record_compression_grids(&tlr, &tail_ppb);
        for (_, _, t) in tlr.tiles_with_coords() {
            trace::record_tile_rank(t.rank());
        }
    }
    tlr
}

/// Compress a single tile with the chosen backend and store its rank-`k`
/// approximant in skeleton form while `k·(m+n) < m·n` — the rule that
/// decides which tiles are approximated at all, so the rule the accuracy
/// of the operator rests on — and the block itself otherwise.
///
/// The SVD backend is told the rank from which that rule stores the block
/// (`⌈m·n/(m+n)⌉`), and gives up without running Jacobi when the leading
/// rows of its QR prove the truncation would keep at least that many
/// ([`seismic_la::svd::svd_truncate`]: about 9 in 10 of the tiles stored
/// dense on the benchmark's stacks); the RRQR backend stops its QR at that
/// rank. `None` stores the tile dense: the caller drops its block, and
/// [`TlrMatrix::new`] reads the tile's dense run from the source, so
/// neither early exit changes a stored bit.
///
/// A tile reaches a factoriser only when its Frobenius norm and `tol` are
/// both finite. One holding a `NaN` or `Inf` (or truncated against a
/// non-finite tolerance, as every tile is under
/// [`ToleranceMode::RelativeGlobal`] once one entry is poisoned) is stored
/// dense, so the poison reaches the output of the apply, where the
/// finiteness checks see it, instead of vanishing into a rank-0 tile.
pub fn compress_tile(
    tile: &Matrix<C32>,
    tol: f32,
    method: CompressionMethod,
    seed: u64,
) -> Option<Skeleton> {
    if !(tol.is_finite() && tile.fro_norm().is_finite()) {
        return None;
    }
    let (m, n) = tile.shape();
    // Factors save storage only below this rank.
    let pays = |k: usize| k * (m + n) < m * n;
    let dense_from = (m * n).div_ceil((m + n).max(1));
    match method {
        CompressionMethod::Svd => {
            svd_truncate(tile, tol, Some(dense_from))
                .filter(|t| pays(t.rank()))
                .map(|t| {
                    // C = Q_k·(core·V_Jᴴ): the r × r product is taken in
                    // the k × r core, before the reflectors expand it to
                    // m rows.
                    Skeleton::from_right_factor(&t.v, |v_j| {
                        t.qr.q_times(&gemm_conj_transpose_right(&t.core, v_j))
                    })
                })
        }
        CompressionMethod::Rrqr => {
            // The QR is its own rank: it need not go past the first that
            // no longer pays.
            let stop = RankStop {
                rank: dense_from,
                sigma: f64::NEG_INFINITY,
                per_norm: 0.0,
            };
            let f = pivoted_qr_until(tile, tol, Some(stop));
            (!f.stopped && pays(f.rank)).then(|| Skeleton::from_pivoted_qr(&f))
        }
        CompressionMethod::Rsvd => {
            let mut rng = ChaCha8Rng::seed_from_u64(0x7a5e_ed00 ^ seed);
            let lr = rsvd_compress_adaptive(tile, tol, &mut rng);
            pays(lr.rank()).then(|| Skeleton::from_factors(&lr.u, &lr.v))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// Smooth oscillatory kernel with low-rank tiles.
    fn smooth_kernel(m: usize, n: usize) -> Matrix<C32> {
        Matrix::from_fn(m, n, |i, j| {
            let x = i as f32 / m as f32;
            let y = j as f32 / n as f32;
            let d = ((x - y) * (x - y) + 0.01).sqrt();
            seismic_la::scalar::C32::from_polar(1.0 / (1.0 + 4.0 * d), -12.0 * d)
        })
    }

    #[test]
    fn compression_reconstruction_error_bounded() {
        let a = smooth_kernel(96, 80);
        for mode in [ToleranceMode::RelativeTile, ToleranceMode::RelativeGlobal] {
            let cfg = CompressionConfig {
                nb: 16,
                acc: 1e-3,
                method: CompressionMethod::Svd,
                mode,
            };
            let tlr = compress(&a, cfg);
            let err = tlr.reconstruct().sub(&a).fro_norm();
            // Both modes guarantee ≤ acc·‖A‖_F globally (per-tile mode even
            // implies it since Σ‖E_t‖² ≤ acc²Σ‖A_t‖² = acc²‖A‖²).
            assert!(err <= 1.1e-3 * a.fro_norm(), "mode {mode:?}: err {err}");
        }
    }

    #[test]
    fn all_methods_meet_tolerance() {
        let a = smooth_kernel(60, 48);
        for method in CompressionMethod::ALL {
            let cfg = CompressionConfig {
                nb: 12,
                acc: 5e-3,
                method,
                mode: ToleranceMode::RelativeTile,
            };
            let tlr = compress(&a, cfg);
            let err = tlr.reconstruct().sub(&a).fro_norm();
            assert!(
                err <= 6e-3 * a.fro_norm(),
                "{method:?} err {err} vs {}",
                a.fro_norm()
            );
        }
    }

    #[test]
    fn smooth_kernel_compresses_well() {
        let a = smooth_kernel(128, 128);
        let cfg = CompressionConfig {
            nb: 32,
            acc: 1e-3,
            method: CompressionMethod::Svd,
            mode: ToleranceMode::RelativeTile,
        };
        let tlr = compress(&a, cfg);
        assert!(
            tlr.compression_ratio() > 2.0,
            "ratio {}",
            tlr.compression_ratio()
        );
    }

    #[test]
    fn random_matrix_falls_back_to_dense_tiles() {
        let mut rng = ChaCha8Rng::seed_from_u64(71);
        let a = Matrix::<C32>::random_normal(40, 40, &mut rng);
        let cfg = CompressionConfig {
            nb: 10,
            acc: 1e-6,
            method: CompressionMethod::Svd,
            mode: ToleranceMode::RelativeTile,
        };
        let tlr = compress(&a, cfg);
        // Incompressible tiles are stored as the blocks themselves, so
        // the tolerance holds exactly and nothing is larger than dense.
        assert!(tlr.compression_ratio() >= 1.0);
        assert_eq!(tlr.dense_tiles(), tlr.tiling().tile_count());
        assert_eq!(tlr.max_rank(), 10, "full-rank tiles expected");
        let err = tlr.reconstruct().sub(&a).fro_norm();
        assert!(err <= 1e-5 * a.fro_norm());
    }

    #[test]
    fn looser_accuracy_never_increases_ranks() {
        let a = smooth_kernel(80, 64);
        let tight = compress(
            &a,
            CompressionConfig {
                nb: 16,
                acc: 1e-4,
                method: CompressionMethod::Svd,
                mode: ToleranceMode::RelativeTile,
            },
        );
        let loose = compress(
            &a,
            CompressionConfig {
                nb: 16,
                acc: 1e-2,
                method: CompressionMethod::Svd,
                mode: ToleranceMode::RelativeTile,
            },
        );
        assert!(loose.total_rank() <= tight.total_rank());
        assert!(loose.compressed_bytes() <= tight.compressed_bytes());
    }

    fn svd_config(nb: usize, acc: f32) -> CompressionConfig {
        CompressionConfig {
            nb,
            acc,
            method: CompressionMethod::Svd,
            mode: ToleranceMode::RelativeTile,
        }
    }

    #[test]
    fn zero_matrix_compresses_to_rank_zero_tiles() {
        let a = Matrix::<C32>::zeros(40, 24);
        for method in CompressionMethod::ALL {
            let tlr = compress(
                &a,
                CompressionConfig {
                    method,
                    ..svd_config(16, 1e-4)
                },
            );
            assert_eq!(tlr.total_rank(), 0, "{method:?}");
            for (i, j, t) in tlr.tiles_with_coords() {
                let (_, rl) = tlr.tiling().row_range(i);
                let (_, cl) = tlr.tiling().col_range(j);
                let TileRef::LowRank(s) = t else {
                    panic!("{method:?} tile ({i},{j}) stored dense");
                };
                assert_eq!((s.rank(), s.shape()), (0, (rl, cl)), "{method:?} ({i},{j})");
                assert_eq!(t.stored_bytes(), 0, "{method:?} tile ({i},{j})");
            }
            assert!(seismic_la::exactly_zero_f32(tlr.reconstruct().fro_norm()));
        }
    }

    #[test]
    fn rank_one_matrix_compresses_to_rank_one_tiles() {
        let a = Matrix::from_fn(48, 32, |i, j| {
            C32::from_polar(1.0 + 0.01 * i as f32, 0.3 * i as f32)
                * C32::from_polar(2.0 - 0.02 * j as f32, -0.2 * j as f32)
        });
        let tlr = compress(&a, svd_config(16, 1e-4));
        assert_eq!(tlr.max_rank(), 1);
        assert_eq!(tlr.total_rank(), tlr.tiling().tile_count());
        assert!(tlr.reconstruct().sub(&a).fro_norm() <= 1e-4 * a.fro_norm());
    }

    #[test]
    fn zero_accuracy_stores_every_tile_to_roundoff() {
        let a = smooth_kernel(40, 24);
        let tlr = compress(&a, svd_config(16, 0.0));
        assert!(tlr.reconstruct().sub(&a).fro_norm() <= 1e-5 * a.fro_norm());
    }

    #[test]
    fn accuracy_above_one_keeps_nothing() {
        let a = smooth_kernel(40, 24);
        let tlr = compress(&a, svd_config(16, 1.5));
        assert_eq!(tlr.total_rank(), 0);
        assert_eq!(tlr.shape(), (40, 24));
    }

    #[test]
    fn edge_tiles_wide_and_tall_meet_the_tile_tolerance() {
        // 37 = 2·16 + 5 rows and 21 = 16 + 5 columns: 5×16 (m < n),
        // 16×5 (m > n) and 5×5 edge tiles beside the full ones.
        let a = smooth_kernel(37, 21);
        let tlr = compress(&a, svd_config(16, 1e-3));
        for (i, j, t) in tlr.tiles_with_coords() {
            let (r0, rl) = tlr.tiling().row_range(i);
            let (c0, cl) = tlr.tiling().col_range(j);
            let tile = a.block(r0, c0, rl, cl);
            assert_eq!(t.shape(), (rl, cl));
            let err = t.to_dense().sub(&tile).fro_norm();
            assert!(
                err <= 1.001e-3 * tile.fro_norm(),
                "tile ({i},{j}) {rl}x{cl}: err {err}"
            );
        }
    }

    /// Compression compresses: whatever the backend, the grid and the
    /// accuracy, no tile stores more words than its block, so the stored
    /// operator is never larger than the dense one — and the tolerance
    /// still holds (to roundoff at `acc` 0, trivially at `acc` > 1).
    #[test]
    fn no_tile_stores_more_than_its_dense_block() {
        let mut rng = ChaCha8Rng::seed_from_u64(72);
        let matrices = [
            (smooth_kernel(53, 37), 16),
            (smooth_kernel(20, 15), 64),
            (smooth_kernel(37, 21), 5),
            (Matrix::<C32>::random_normal(45, 38, &mut rng), 12),
        ];
        for (a, nb) in &matrices {
            for method in CompressionMethod::ALL {
                for acc in [0.0, 1e-6, 1e-3, 1.5] {
                    let tlr = compress(
                        a,
                        CompressionConfig {
                            method,
                            ..svd_config(*nb, acc)
                        },
                    );
                    let what = format!("{:?} nb {nb} {method:?} acc {acc}", a.shape());
                    assert!(tlr.compressed_bytes() <= tlr.dense_bytes(), "{what}");
                    assert!(tlr.compression_ratio() >= 1.0, "{what}");
                    for (i, j, t) in tlr.tiles_with_coords() {
                        let (rl, cl) = t.shape();
                        assert!(t.stored_elements() <= rl * cl, "{what} tile ({i},{j})");
                    }
                    let err = tlr.reconstruct().sub(a).fro_norm();
                    assert!(err <= (1.2 * acc + 2e-5) * a.fro_norm(), "{what}: {err}");
                }
            }
        }
    }

    /// A `NaN` or `Inf` entry must not make its tile vanish: for every
    /// backend the poisoned tile is stored dense as given, so `apply`
    /// carries the poison to the entry's row of `y` (and `apply_adjoint`
    /// to its column of `x`) and nowhere else, and every other tile keeps
    /// the rank it has on the clean matrix.
    #[test]
    fn a_non_finite_entry_keeps_its_tile_dense_and_reaches_the_output() {
        let clean = smooth_kernel(40, 24);
        let (pi, pj) = (5, 3);
        let x: Vec<C32> = (0..24)
            .map(|i| C32::new(1.0 + 0.1 * i as f32, -0.5))
            .collect();
        let y: Vec<C32> = (0..40)
            .map(|i| C32::new(0.5, 1.0 + 0.05 * i as f32))
            .collect();
        for method in CompressionMethod::ALL {
            let config = CompressionConfig {
                method,
                ..svd_config(16, 1e-3)
            };
            let reference = compress(&clean, config);
            for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                let what = format!("{method:?} {bad}");
                let mut a = clean.clone();
                a[(pi, pj)] = C32::new(bad, 0.25);
                let tlr = compress(&a, config);
                for (i, j, t) in tlr.tiles_with_coords() {
                    if (i, j) == (0, 0) {
                        assert!(matches!(t, TileRef::Dense(_)), "{what}: tile (0,0) {t:?}");
                    } else {
                        assert_eq!(t.rank(), reference.rank(i, j), "{what}: tile ({i},{j})");
                    }
                }
                for (i, v) in tlr.apply(&x).iter().enumerate() {
                    assert_eq!(v.is_finite(), i != pi, "{what}: y[{i}] = {v}");
                }
                for (j, v) in tlr.apply_adjoint(&y).iter().enumerate() {
                    assert_eq!(v.is_finite(), j != pj, "{what}: x[{j}] = {v}");
                }
            }
        }
    }

    /// Under `RelativeGlobal` one poisoned entry makes every tolerance
    /// non-finite, so every tile is kept exactly rather than truncated
    /// against a `NaN`.
    #[test]
    fn a_non_finite_entry_keeps_every_tile_dense_under_the_global_tolerance() {
        let mut a = smooth_kernel(40, 24);
        a[(5, 3)] = C32::new(0.25, f32::INFINITY);
        for method in CompressionMethod::ALL {
            let tlr = compress(
                &a,
                CompressionConfig {
                    method,
                    mode: ToleranceMode::RelativeGlobal,
                    ..svd_config(16, 1e-3)
                },
            );
            assert_eq!(tlr.dense_tiles(), tlr.tiling().tile_count(), "{method:?}");
            for (i, j, t) in tlr.tiles_with_coords() {
                let (r0, rl) = tlr.tiling().row_range(i);
                let (c0, cl) = tlr.tiling().col_range(j);
                if (i, j) != (0, 0) {
                    assert_eq!(t.to_dense(), a.block(r0, c0, rl, cl), "{method:?}");
                }
            }
        }
    }

    /// A subnormal entry is an ordinary finite number: its tile is
    /// truncated like any other (one rank more than the clean tile at
    /// most, for the entry it replaces).
    #[test]
    fn a_subnormal_entry_still_compresses() {
        let clean = smooth_kernel(40, 24);
        let mut a = clean.clone();
        a[(5, 3)] = C32::new(1e-42, 0.0);
        assert!(a[(5, 3)].re > 0.0 && !a[(5, 3)].re.is_normal());
        for method in CompressionMethod::ALL {
            let config = CompressionConfig {
                method,
                ..svd_config(16, 1e-2)
            };
            let (tlr, reference) = (compress(&a, config), compress(&clean, config));
            assert!(matches!(tlr.tile(0, 0), TileRef::LowRank(_)), "{method:?}");
            assert!((1..=reference.rank(0, 0) + 1).contains(&tlr.rank(0, 0)));
            let err = tlr.reconstruct().sub(&a).fro_norm();
            assert!(err <= 1.2e-2 * a.fro_norm(), "{method:?}: {err}");
        }
    }

    /// `compress` refuses an accuracy that is negative, `NaN` or infinite
    /// under `method`, in either tolerance mode, instead of answering with
    /// ranks that depend on the backend.
    fn refuses_a_bad_accuracy(method: CompressionMethod) {
        let a = smooth_kernel(40, 24);
        for mode in [ToleranceMode::RelativeTile, ToleranceMode::RelativeGlobal] {
            for acc in [
                -1e-3,
                -f32::MIN_POSITIVE,
                f32::NAN,
                f32::INFINITY,
                f32::NEG_INFINITY,
            ] {
                let config = CompressionConfig {
                    method,
                    mode,
                    ..svd_config(16, acc)
                };
                let refused = std::panic::catch_unwind(|| compress(&a, config)).is_err();
                assert!(refused, "{method:?} {mode:?} accepted acc {acc}");
            }
        }
    }

    #[test]
    fn svd_refuses_a_negative_or_non_finite_accuracy() {
        refuses_a_bad_accuracy(CompressionMethod::Svd);
    }

    #[test]
    fn rrqr_refuses_a_negative_or_non_finite_accuracy() {
        refuses_a_bad_accuracy(CompressionMethod::Rrqr);
    }

    #[test]
    fn rsvd_refuses_a_negative_or_non_finite_accuracy() {
        refuses_a_bad_accuracy(CompressionMethod::Rsvd);
    }

    /// Block-source rectangles `(r0, c0, m, n)`.
    type Rects = Vec<(usize, usize, usize, usize)>;

    /// `compress_blocks` at `nb` 8 on a 36 × 21 matrix that is zero
    /// (rank-0 skeletons) but for noise tiles (stored dense) that make
    /// tile column 0 hold a run of two and a run of one, tile column 1 a
    /// run of the whole column and tile column 2 none. Returns the
    /// rectangles its source was asked for and those it is due to ask
    /// for, both sorted: every tile's and every dense run's once, and
    /// while tracing every skeleton tile's again, for the backward-error
    /// grid (a dense tile truncated nothing: its cell is 0 unread).
    fn asked_and_due(traced: bool) -> (Rects, Rects) {
        let (nb, m, n) = (8, 36, 21);
        let mut a = Matrix::<C32>::zeros(m, n);
        let mut rng = ChaCha8Rng::seed_from_u64(73);
        for (r0, c0, rows) in [(0, 0, 16), (24, 0, 8), (0, 8, m)] {
            a.set_block(r0, c0, &Matrix::<C32>::random_normal(rows, nb, &mut rng));
        }
        let asked = std::sync::Mutex::new(Vec::new());
        crate::trace::set_enabled(traced);
        let tlr = compress_blocks(
            a.shape(),
            svd_config(nb, 1e-6),
            || a.fro_norm(),
            |r0, c0, m, n| {
                asked.lock().unwrap().push((r0, c0, m, n));
                a.block(r0, c0, m, n)
            },
        );
        crate::trace::set_enabled(false);
        let mut asked = asked.into_inner().unwrap();
        asked.sort_unstable();

        let t = *tlr.tiling();
        let mut due = vec![(0, 0, 16, 8), (24, 0, 8, 8), (0, 8, m, 8)];
        for (i, j, tile) in tlr.tiles_with_coords() {
            let ((r0, rl), (c0, cl)) = (t.row_range(i), t.col_range(j));
            let reads = 1 + usize::from(traced && matches!(tile, TileRef::LowRank(_)));
            due.extend(std::iter::repeat_n((r0, c0, rl, cl), reads));
        }
        due.sort_unstable();
        assert_eq!((t.tile_rows(), tlr.dense_tiles()), (5, 8));
        assert_eq!(tlr.reconstruct(), a);
        (asked, due)
    }

    /// With tracing off, `compress_blocks` asks its source for each
    /// tile's rectangle once and for each maximal dense run's once, and
    /// for nothing else: a dense tile of a longer run is never read again
    /// on its own.
    #[test]
    fn compress_blocks_reads_each_tile_and_each_dense_run_once() {
        let _trace = crate::trace::tests::locked();
        let (asked, due) = asked_and_due(false);
        assert_eq!(asked, due);
    }

    /// While tracing, the backward-error pass reads the 7 skeleton tiles
    /// once more and none of the 8 dense ones.
    #[test]
    fn traced_compress_blocks_rereads_only_the_skeleton_tiles() {
        let _trace = crate::trace::tests::locked();
        let (asked, due) = asked_and_due(true);
        assert_eq!(asked.len(), 15 + 3 + 7);
        assert_eq!(asked, due);
    }

    #[test]
    fn ragged_matrix_compression() {
        let a = smooth_kernel(53, 37);
        let cfg = CompressionConfig {
            nb: 16,
            acc: 1e-3,
            method: CompressionMethod::Svd,
            mode: ToleranceMode::RelativeTile,
        };
        let tlr = compress(&a, cfg);
        let err = tlr.reconstruct().sub(&a).fro_norm();
        assert!(err <= 1.1e-3 * a.fro_norm());
    }
}
