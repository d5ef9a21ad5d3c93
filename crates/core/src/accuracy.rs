//! Numerical-quality observability: the accuracy observatory.
//!
//! Every other observability layer in this workspace (trace spans, the
//! flight recorder) measures time, bytes, and flops.
//! This module observes the quantity the paper's entire argument rests
//! on — *numerical quality under algebraic compression* — from the live
//! pipeline:
//!
//! * **Per-tile compression grids.** While tracing is enabled,
//!   [`crate::compress::compress`] records three accuracy grids (one
//!   cell per tile, row-major `mt × nt`):
//!   [`GRID_TILE_RANK`] (truncation rank), [`GRID_TILE_STORED_BYTES`]
//!   (bytes of the stored form — skeleton with its column order, or the
//!   dense block: [`TileRef::stored_bytes`]), and [`GRID_TILE_TAIL_PPB`]
//!   (the truncation backward error `‖A_t − U Vᴴ‖_F / ‖A_t‖_F` in parts
//!   per billion — for the SVD backend this is the QR residual plus the
//!   discarded singular-value tail, `sqrt(‖E₁‖² + Σ_{i≥k} σᵢ²)`, which
//!   `svd_compress_with_tail` returns). The rank
//!   and byte grids reconcile **exactly** (`==`) with the
//!   [`TlrMatrix`] they describe — [`verify_compression_grids`] is the
//!   checked form of that contract.
//! * **Sampled-probe NMSE estimator.** [`probe_nmse`] measures the
//!   whole-operator relative error `‖A − Ã‖²_F / ‖A‖²_F` from `k`
//!   sampled tiles and a handful of random probe vectors per tile
//!   (`E‖M x‖² = c·‖M‖²_F` for isotropic complex Gaussian `x`; the
//!   constant cancels in the ratio), H2OPUS-TLR-style — no dense
//!   operator is ever materialized beyond the sampled tile blocks.
//!
//! Estimator math and the accgate methodology are documented in
//! `DESIGN.md` §16.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use seismic_la::blas::gemv;
use seismic_la::scalar::C32;
use seismic_la::Matrix;

use crate::matrix::{TileRef, TlrMatrix};
use crate::precision::{f64_to_u64, to_u64};
use crate::trace::{self, TraceReport};

/// Grid name: per-tile truncation rank (`total() == TlrMatrix::total_rank`).
pub const GRID_TILE_RANK: &str = "accuracy.tile_rank";
/// Grid name: per-tile stored bytes, skeleton or dense block
/// (`total() == TlrMatrix::compressed_bytes`).
pub const GRID_TILE_STORED_BYTES: &str = "accuracy.tile_stored_bytes";
/// Grid name: per-tile relative truncation backward error, parts per
/// billion (`round(1e9 · ‖A_t − U Vᴴ‖_F / ‖A_t‖_F)`).
pub const GRID_TILE_TAIL_PPB: &str = "accuracy.tile_tail_ppb";

/// Relative truncation backward error of one compressed tile, in parts
/// per billion: `round(1e9 · ‖A_t − U Vᴴ‖_F / ‖A_t‖_F)`, saturating.
/// A zero-norm tile has nothing to get wrong and reports 0, and so does
/// a tile stored dense: nothing was truncated (which also keeps a
/// non-finite tile, always stored dense, out of the arithmetic below).
pub fn tile_tail_ppb(tile: &Matrix<C32>, stored: TileRef<'_>) -> u64 {
    if matches!(stored, TileRef::Dense(_)) {
        return 0;
    }
    let norm = f64::from(tile.fro_norm());
    if norm <= 0.0 {
        return 0;
    }
    let err = f64::from(stored.to_dense().sub(tile).fro_norm());
    let rel = (err / norm).min(u64::MAX as f64 / 1e10);
    f64_to_u64((rel * 1e9).round())
}

/// Record the three per-tile accuracy grids for one compressed matrix,
/// reading each tile's rank and stored bytes from `tlr`. `tail_ppb`
/// carries the pre-measured backward-error cells tile-column-major
/// (`idx = j·mt + i`, the [`TlrMatrix::tiles_with_coords`] order); the
/// grids are row-major `mt × nt` like every other trace grid. No-op while
/// tracing is disabled.
pub fn record_compression_grids(tlr: &TlrMatrix, tail_ppb: &[u64]) {
    if !trace::is_enabled() {
        return;
    }
    let tiling = tlr.tiling();
    let mt = tiling.tile_rows();
    let nt = tiling.tile_cols();
    if tail_ppb.len() != mt * nt {
        return;
    }
    let mut rank_cells = vec![0u64; mt * nt];
    let mut byte_cells = vec![0u64; mt * nt];
    let mut tail_cells = vec![0u64; mt * nt];
    for (i, j, tile) in tlr.tiles_with_coords() {
        let cell = i * nt + j;
        rank_cells[cell] = to_u64(tile.rank());
        byte_cells[cell] = to_u64(tile.stored_bytes());
        tail_cells[cell] = tail_ppb[tiling.tile_index(i, j)];
    }
    trace::add_grid(GRID_TILE_RANK, mt, nt, &rank_cells);
    trace::add_grid(GRID_TILE_STORED_BYTES, mt, nt, &byte_cells);
    trace::add_grid(GRID_TILE_TAIL_PPB, mt, nt, &tail_cells);
}

/// Verify the exact (`==`) reconciliation between the accuracy grids in
/// a trace snapshot and the [`TlrMatrix`] they were recorded for: the
/// rank grid must total `total_rank()`, the stored-bytes grid
/// `compressed_bytes()`, and every rank cell must equal `rank(i, j)`.
/// Errors name the first discrepancy. Intended for a trace window that
/// observed exactly one compression of `tlr` (grids are cumulative).
pub fn verify_compression_grids(tlr: &TlrMatrix, report: &TraceReport) -> Result<(), String> {
    let rank_grid = report
        .grid_for(GRID_TILE_RANK)
        .ok_or_else(|| format!("missing grid {GRID_TILE_RANK}"))?;
    let byte_grid = report
        .grid_for(GRID_TILE_STORED_BYTES)
        .ok_or_else(|| format!("missing grid {GRID_TILE_STORED_BYTES}"))?;
    let mt = tlr.tiling().tile_rows();
    let nt = tlr.tiling().tile_cols();
    if (rank_grid.rows, rank_grid.cols) != (to_u64(mt), to_u64(nt)) {
        return Err(format!(
            "{GRID_TILE_RANK}: grid is {}x{}, matrix tiling is {mt}x{nt}",
            rank_grid.rows, rank_grid.cols
        ));
    }
    if rank_grid.total() != to_u64(tlr.total_rank()) {
        return Err(format!(
            "{GRID_TILE_RANK}: grid total {} != total_rank {}",
            rank_grid.total(),
            tlr.total_rank()
        ));
    }
    if byte_grid.total() != to_u64(tlr.compressed_bytes()) {
        return Err(format!(
            "{GRID_TILE_STORED_BYTES}: grid total {} != compressed_bytes {}",
            byte_grid.total(),
            tlr.compressed_bytes()
        ));
    }
    for i in 0..mt {
        for j in 0..nt {
            let cell = rank_grid.cells.get(i * nt + j).copied().unwrap_or(0);
            if cell != to_u64(tlr.rank(i, j)) {
                return Err(format!(
                    "{GRID_TILE_RANK}: cell ({i},{j}) is {cell}, tile rank is {}",
                    tlr.rank(i, j)
                ));
            }
        }
    }
    Ok(())
}

/// Result of one sampled-probe NMSE estimation.
#[derive(Clone, Copy, Debug)]
pub struct ProbeEstimate {
    /// Estimated `‖A − Ã‖²_F / ‖A‖²_F`.
    pub nmse: f64,
    /// Tiles actually sampled (≤ requested, capped at the tile count).
    pub sampled_tiles: usize,
    /// Probe vectors applied per sampled tile.
    pub probes_per_tile: usize,
}

/// Estimate the whole-operator compression NMSE
/// `‖A − Ã‖²_F / ‖A‖²_F` by probing `sampled_tiles` uniformly sampled
/// tiles with `probes` random complex Gaussian vectors each
/// (H2OPUS-TLR-style): for isotropic `x`, `E‖M x‖² ∝ ‖M‖²_F`, and the
/// proportionality constant cancels in the error/reference ratio. Fully
/// deterministic for a given `seed`. The dense matrix is only touched
/// through the sampled tile blocks — nothing operator-sized is formed.
pub fn probe_nmse(
    dense: &Matrix<C32>,
    tlr: &TlrMatrix,
    sampled_tiles: usize,
    probes: usize,
    seed: u64,
) -> ProbeEstimate {
    let tiling = tlr.tiling();
    let mt = tiling.tile_rows();
    let nt = tiling.tile_cols();
    let total = mt * nt;
    let k = sampled_tiles.clamp(1, total.max(1));
    let probes = probes.max(1);
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xacc0_b5e7);

    // Partial Fisher–Yates over the tile indices: the first k slots are
    // a uniform sample without replacement (modulo bias over a u64 draw
    // is immaterial at tile-grid cardinalities).
    let mut order: Vec<usize> = (0..total).collect();
    for t in 0..k.min(total.saturating_sub(1)) {
        let span = to_u64(total - t);
        let r = t + crate::precision::to_usize(rand::RngCore::next_u64(&mut rng) % span);
        order.swap(t, r);
    }

    let mut err2 = 0.0f64;
    let mut ref2 = 0.0f64;
    for &idx in order.iter().take(k) {
        let i = idx % mt;
        let j = idx / mt;
        let (r0, rl) = tiling.row_range(i);
        let (c0, cl) = tiling.col_range(j);
        let tile = dense.block(r0, c0, rl, cl);
        let stored = tlr.tile(i, j);
        let x_probes = Matrix::<C32>::random_normal(cl, probes, &mut rng);
        let mut y_ref = vec![C32::new(0.0, 0.0); rl];
        let mut y_tlr = vec![C32::new(0.0, 0.0); rl];
        for p in 0..probes {
            let x = x_probes.col(p);
            gemv(&tile, x, &mut y_ref);
            for y in &mut y_tlr {
                *y = C32::new(0.0, 0.0);
            }
            stored.apply_acc(x, &mut y_tlr);
            for (r, t) in y_ref.iter().zip(&y_tlr) {
                err2 += f64::from((*r - *t).norm_sqr());
                ref2 += f64::from(r.norm_sqr());
            }
        }
    }
    ProbeEstimate {
        nmse: if ref2 > 0.0 { err2 / ref2 } else { 0.0 },
        sampled_tiles: k,
        probes_per_tile: probes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::{compress, CompressionConfig, CompressionMethod, ToleranceMode};
    // The trace flag is process-global: share the `trace` tests' lock.
    use crate::trace::tests::locked;

    fn smooth_kernel(m: usize, n: usize) -> Matrix<C32> {
        Matrix::from_fn(m, n, |i, j| {
            let x = i as f32 / m as f32;
            let y = j as f32 / n as f32;
            let d = ((x - y) * (x - y) + 0.01).sqrt();
            C32::from_polar(1.0 / (1.0 + 4.0 * d), -12.0 * d)
        })
    }

    #[test]
    fn compression_grids_reconcile_exactly() {
        let _g = locked();
        let a = smooth_kernel(96, 80);
        let cfg = CompressionConfig {
            nb: 16,
            acc: 1e-3,
            method: CompressionMethod::Svd,
            mode: ToleranceMode::RelativeTile,
        };
        // The collector is process-global: a test of another module that
        // compresses while this one has tracing on adds to the same grids.
        // That shows as a mismatch here, so the window is taken again; a
        // real discrepancy fails every time.
        let mut attempt = 0;
        let report = loop {
            crate::trace::reset();
            crate::trace::set_enabled(true);
            let tlr = compress(&a, cfg);
            crate::trace::set_enabled(false);
            let report = crate::trace::snapshot();
            attempt += 1;
            match verify_compression_grids(&tlr, &report) {
                Ok(()) => break report,
                Err(why) => assert!(attempt < 4, "{why}"),
            }
        };
        // The tail grid exists and stays inside the tolerance: every
        // tile's relative error is ≤ acc (RelativeTile mode), i.e.
        // ≤ 1e-3 · 1e9 = 1e6 ppb per cell (small float slack).
        let tail = report.grid_for(GRID_TILE_TAIL_PPB).expect("tail grid");
        assert_eq!(tail.cells.len(), 30);
        assert!(
            tail.cells.iter().all(|&c| c <= 1_100_000),
            "{:?}",
            tail.cells
        );
        // A non-trivial compression truncates something somewhere.
        assert!(tail.total() > 0);
    }

    #[test]
    fn grids_are_not_recorded_while_disabled() {
        let _g = locked();
        let a = smooth_kernel(32, 32);
        crate::trace::reset();
        crate::trace::set_enabled(false);
        let _tlr = compress(&a, CompressionConfig::paper_default().with_nb(8));
        let report = crate::trace::snapshot();
        assert!(report.grid_for(GRID_TILE_RANK).is_none());
        assert!(report.grid_for(GRID_TILE_STORED_BYTES).is_none());
        assert!(report.grid_for(GRID_TILE_TAIL_PPB).is_none());
    }

    #[test]
    fn probe_estimator_tracks_exact_nmse() {
        let a = smooth_kernel(96, 80);
        let cfg = CompressionConfig {
            nb: 16,
            acc: 5e-3,
            method: CompressionMethod::Svd,
            mode: ToleranceMode::RelativeTile,
        };
        let tlr = compress(&a, cfg);
        let diff = tlr.reconstruct().sub(&a);
        let exact = (f64::from(diff.fro_norm()) / f64::from(a.fro_norm())).powi(2);
        // Full tile coverage, several probes: the estimator must land
        // within a small factor of the exact NMSE.
        let est = probe_nmse(&a, &tlr, 36, 8, 7);
        assert_eq!(est.sampled_tiles, 30);
        assert!(est.nmse > 0.0);
        assert!(
            est.nmse < exact * 4.0 + 1e-12 && est.nmse > exact / 4.0,
            "probe {} vs exact {exact}",
            est.nmse
        );
        // Deterministic for a fixed seed.
        let est2 = probe_nmse(&a, &tlr, 36, 8, 7);
        assert!((est.nmse - est2.nmse).abs() < 1e-15);
    }

    #[test]
    fn probe_estimator_is_zero_for_lossless_compression() {
        let a = smooth_kernel(40, 40);
        let cfg = CompressionConfig {
            nb: 10,
            acc: 1e-9,
            method: CompressionMethod::Svd,
            mode: ToleranceMode::RelativeTile,
        };
        let tlr = compress(&a, cfg);
        let est = probe_nmse(&a, &tlr, 16, 4, 3);
        assert!(est.nmse < 1e-10, "nmse {}", est.nmse);
    }
}
