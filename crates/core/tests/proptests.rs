//! Property-based tests for the TLR core: compression contracts, layout
//! equivalence, chunking invariants, adjoint identities.

use proptest::prelude::*;
use seismic_la::blas::{dotc, gemv, nrm2};
use seismic_la::scalar::C32;
use seismic_la::Matrix;
use tlr_mvm::{
    compress, CommAvoiding, CompressionConfig, CompressionMethod, ThreePhase, Tiling, ToleranceMode,
};

/// Oscillatory kernel parameterized by a seed-driven scale, so different
/// cases exercise different rank structures.
fn kernel(m: usize, n: usize, osc: f32) -> Matrix<C32> {
    Matrix::from_fn(m, n, |i, j| {
        let x = i as f32 / m as f32;
        let y = j as f32 / n as f32;
        let d = ((x - y) * (x - y) + 0.03).sqrt();
        C32::from_polar(1.0 / (1.0 + 3.0 * d), -osc * d)
    })
}

fn cvec(n: usize, seed: u64) -> Vec<C32> {
    (0..n)
        .map(|i| {
            let t = i as f32 + seed as f32 * 0.61;
            C32::new((t * 0.37).sin(), (t * 0.23).cos())
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Compression reconstruction error is bounded by the tile tolerance
    /// for arbitrary shapes, tile sizes, and oscillation scales.
    #[test]
    fn compression_contract(
        m in 8usize..90,
        n in 8usize..90,
        nb in 4usize..24,
        osc in 1.0f32..40.0,
        acc_exp in 2i32..5,
    ) {
        let a = kernel(m, n, osc);
        let acc = 10f32.powi(-acc_exp);
        let tlr = compress(&a, CompressionConfig {
            nb,
            acc,
            method: CompressionMethod::Svd,
            mode: ToleranceMode::RelativeTile,
        });
        let err = tlr.reconstruct().sub(&a).fro_norm();
        prop_assert!(err <= 1.05 * acc * a.fro_norm(), "err {err}");
    }

    /// All three execution layouts agree with the dense product of the
    /// reconstructed operator.
    #[test]
    fn layouts_agree(
        m in 10usize..70,
        n in 10usize..70,
        nb in 5usize..20,
        osc in 1.0f32..30.0,
        seed in 0u64..100,
    ) {
        let a = kernel(m, n, osc);
        let tlr = compress(&a, CompressionConfig {
            nb,
            acc: 1e-3,
            method: CompressionMethod::Svd,
            mode: ToleranceMode::RelativeTile,
        });
        let x = cvec(n, seed);
        let mut dense_y = vec![C32::new(0.0, 0.0); m];
        gemv(&tlr.reconstruct(), &x, &mut dense_y);
        let scale = nrm2(&dense_y).max(1.0);

        let y_tile = tlr.apply(&x);
        let y_tp = ThreePhase::new(&tlr).apply(&x);
        let ca = CommAvoiding::new(&tlr);
        let y_ca = ca.apply(&x);
        for ((a1, a2), (a3, d)) in y_tile.iter().zip(&y_tp).zip(y_ca.iter().zip(&dense_y)) {
            prop_assert!((*a1 - *d).abs() < 1e-3 * scale);
            prop_assert!((*a2 - *d).abs() < 1e-3 * scale);
            prop_assert!((*a3 - *d).abs() < 1e-3 * scale);
        }
    }

    /// Chunked execution is invariant to the stack width.
    #[test]
    fn chunking_invariant(
        m in 10usize..60,
        n in 10usize..60,
        nb in 5usize..16,
        sw in 1usize..40,
        seed in 0u64..100,
    ) {
        let a = kernel(m, n, 12.0);
        let tlr = compress(&a, CompressionConfig {
            nb,
            acc: 1e-3,
            method: CompressionMethod::Svd,
            mode: ToleranceMode::RelativeTile,
        });
        let ca = CommAvoiding::new(&tlr);
        let x = cvec(n, seed);
        let want = ca.apply(&x);
        let got = ca.apply_chunked(&x, sw);
        let scale = nrm2(&want).max(1.0);
        for (g, w) in got.iter().zip(&want) {
            prop_assert!((*g - *w).abs() < 1e-4 * scale);
        }
        // Chunk widths partition the total rank.
        let total: usize = ca.chunks(sw).iter().map(|c| c.width()).sum();
        prop_assert_eq!(total, tlr.total_rank());
    }

    /// ⟨Ãx, y⟩ = ⟨x, Ãᴴy⟩ exactly (to roundoff) on the compressed operator:
    /// the tile path's adjoint, the only one the workspace keeps.
    #[test]
    fn adjoint_identity(
        m in 10usize..60,
        n in 10usize..60,
        nb in 5usize..16,
        seed in 0u64..100,
    ) {
        let a = kernel(m, n, 15.0);
        let tlr = compress(&a, CompressionConfig {
            nb,
            acc: 1e-2,
            method: CompressionMethod::Svd,
            mode: ToleranceMode::RelativeTile,
        });
        let x = cvec(n, seed);
        let y = cvec(m, seed + 7);
        let lhs = dotc(&y, &tlr.apply(&x));
        let rhs = dotc(&tlr.apply_adjoint(&y), &x);
        prop_assert!((lhs - rhs).abs() < 1e-3 * (1.0 + lhs.abs()));
    }

    /// Tilings always partition the matrix exactly.
    #[test]
    fn tiling_partitions(m in 1usize..500, n in 1usize..500, nb in 1usize..80) {
        let t = Tiling::new(m, n, nb);
        let rows: usize = (0..t.tile_rows()).map(|i| t.row_range(i).1).sum();
        let cols: usize = (0..t.tile_cols()).map(|j| t.col_range(j).1).sum();
        prop_assert_eq!(rows, m);
        prop_assert_eq!(cols, n);
        for i in 0..t.tile_rows() {
            let (s, l) = t.row_range(i);
            prop_assert!(l >= 1 && l <= nb && s + l <= m);
        }
    }
}
