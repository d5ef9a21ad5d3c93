//! Flop and memory-traffic accounting, using the paper's exact formulas
//! (§6.6).
//!
//! For a real FP32 `M × N` MVM:
//!
//! * **relative** bytes — cache-model accounting, every operand read once:
//!   `4·(M·N + M + N)`;
//! * **absolute** bytes — flat-SRAM accounting, `y` re-read and re-written
//!   per column sweep: `4·(3·M·N + N)`;
//! * flops: `2·M·N` (one fmac = 2 flops).
//!
//! A complex MVM executes as four real MVMs (the CS-2 SDK has no complex
//! kernel: `y_re = A_re·x_re − A_im·x_im`, `y_im = A_re·x_im + A_im·x_re`),
//! so the TLR-MVM totals below multiply the per-basis counts by 4 for the
//! V batch plus 4 for the U batch.

use crate::matrix::TlrMatrix;
use crate::precision::to_u64;

/// Bytes moved by one real FP32 `m × n` MVM under the cache (relative)
/// model.
pub fn relative_bytes(m: usize, n: usize) -> u64 {
    let (m, n) = (to_u64(m), to_u64(n));
    4 * (m * n + m + n)
}

/// Bytes moved by one real FP32 `m × n` MVM under the flat-SRAM (absolute)
/// model: per column, read `y`, `A_j`, `x_j`, write `y`.
pub fn absolute_bytes(m: usize, n: usize) -> u64 {
    let (m, n) = (to_u64(m), to_u64(n));
    4 * (3 * m * n + n)
}

/// Flops of one real `m × n` MVM (fmac = 2 flops).
pub fn mvm_flops(m: usize, n: usize) -> u64 {
    2 * to_u64(m) * to_u64(n)
}

/// Aggregate cost of one full TLR-MVM in the complex-as-4-real execution
/// model.
#[derive(Clone, Copy, Debug, Default)]
pub struct TlrMvmCost {
    /// Total real-FP32 flops (V batch + U batch, ×4 real MVMs each).
    pub flops: u64,
    /// Relative (cache-model) bytes.
    pub relative_bytes: u64,
    /// Absolute (flat-SRAM) bytes.
    pub absolute_bytes: u64,
    /// Σ tile ranks.
    pub total_rank: u64,
}

impl TlrMvmCost {
    /// Arithmetic intensity under the relative byte model (flop/byte).
    pub fn relative_intensity(&self) -> f64 {
        self.flops as f64 / self.relative_bytes.max(1) as f64
    }

    /// Arithmetic intensity under the absolute byte model.
    pub fn absolute_intensity(&self) -> f64 {
        self.flops as f64 / self.absolute_bytes.max(1) as f64
    }
}

/// Cost of one TLR-MVM with the given compressed matrix.
///
/// Per tile column `j` with width `cl_j` and stacked rank `K_j`, the fused
/// communication-avoiding kernel runs the V batch as 4 real `(K_j × cl_j)`
/// products and the U batch as 4 real `(nb × K_j)` products.
///
/// This is the stacked (§6.6 / wafer) model: it counts ranks, so a tile
/// stored dense ([`crate::TileRef::Dense`]) is charged as the `(A, I)`
/// expansion the stacked views and `wse-sim` still execute, not as the one
/// `m × n` product the host's tile-fused apply runs on it — until the
/// wafer model takes a dense chunk (ROADMAP item 3b). `tests/perf.rs`
/// declares it for every fixture kernel that sweeps tiles, the engine's
/// batched and queued sweeps alike: they run the same kernels on it.
pub fn tlr_mvm_cost(tlr: &TlrMatrix) -> TlrMvmCost {
    let t = tlr.tiling();
    let nb = t.nb;
    let mut cost = TlrMvmCost::default();
    for j in 0..t.tile_cols() {
        let (_, cl) = t.col_range(j);
        let kj = tlr.column_rank(j);
        if kj == 0 {
            continue;
        }
        // V batch: y_v (K_j) = Vᴴ (K_j × cl) · x (cl) — 4 real MVMs.
        cost.flops += 4 * mvm_flops(kj, cl);
        cost.relative_bytes += 4 * relative_bytes(kj, cl);
        cost.absolute_bytes += 4 * absolute_bytes(kj, cl);
        // U batch: y (nb) += U (nb × K_j) · y_v (K_j) — 4 real MVMs.
        cost.flops += 4 * mvm_flops(nb, kj);
        cost.relative_bytes += 4 * relative_bytes(nb, kj);
        cost.absolute_bytes += 4 * absolute_bytes(nb, kj);
        cost.total_rank += to_u64(kj);
    }
    cost
}

/// Cost of one TLR-MMM with `s` right-hand sides in the
/// complex-as-4-real execution model — the paper's §8 "open research
/// opportunity" of processing `s` virtual sources at once, as a model
/// (`repro mmm`): flops scale by `s`, but the base matrices are read once
/// per chunk — arithmetic intensity grows ~`s`× until the panel traffic
/// dominates.
pub fn tlr_mmm_cost(tlr: &TlrMatrix, s: usize) -> TlrMvmCost {
    let t = tlr.tiling();
    let nb = t.nb;
    let s64 = to_u64(s);
    let mut cost = TlrMvmCost::default();
    for j in 0..t.tile_cols() {
        let (_, cl) = t.col_range(j);
        let kj = tlr.column_rank(j);
        if kj == 0 {
            continue;
        }
        let (kj64, cl64, nb64) = (to_u64(kj), to_u64(cl), to_u64(nb));
        // Flops: s MVMs worth.
        cost.flops += 4 * s64 * (mvm_flops(kj, cl) + mvm_flops(nb, kj));
        // Bytes: bases read once (the MMM win); panels read/written per s.
        // Relative model: bases + s·(x + t + y) vectors.
        let bases = 4u64 * 4 * (kj64 * cl64 + nb64 * kj64);
        let panels = 4u64 * 4 * s64 * (cl64 + 2 * kj64 + nb64);
        cost.relative_bytes += bases + panels;
        // Absolute (flat SRAM): no cache, no reuse — each of the s
        // sources pays the full per-MVM traffic, so absolute intensity
        // does not improve with s (the §8 re-exacerbated memory wall).
        cost.absolute_bytes += 4 * s64 * (absolute_bytes(kj, cl) + absolute_bytes(nb, kj));
        cost.total_rank += kj64;
    }
    cost
}

/// Per-phase cost breakdown of the classic three-phase TLR-MVM
/// (V-batch → shuffle → U-batch, paper Figs. 4–7).
///
/// The V and U entries use the same §6.6 formulas as [`tlr_mvm_cost`],
/// but grouped the way the three-phase pipeline actually batches them:
/// V per tile *column* stack, U per tile *row* stack (with the ragged
/// edge's true height). The shuffle moves `Σ ranks` complex values from
/// column-major to row-major order — zero flops, one read plus one
/// write of 8 bytes per rank entry under both byte models.
#[derive(Clone, Copy, Debug, Default)]
pub struct ThreePhaseCost {
    /// V batch: per tile column `j`, 4 real `(K_j × cl_j)` MVMs.
    pub v: TlrMvmCost,
    /// Shuffle: permute `Σ ranks` complex values (pure data movement).
    pub shuffle: TlrMvmCost,
    /// U batch: per tile row `i`, 4 real `(m_i × R_i)` MVMs.
    pub u: TlrMvmCost,
}

impl ThreePhaseCost {
    /// Sum of the three phases.
    pub fn total(&self) -> TlrMvmCost {
        TlrMvmCost {
            flops: self.v.flops + self.shuffle.flops + self.u.flops,
            relative_bytes: self.v.relative_bytes
                + self.shuffle.relative_bytes
                + self.u.relative_bytes,
            absolute_bytes: self.v.absolute_bytes
                + self.shuffle.absolute_bytes
                + self.u.absolute_bytes,
            total_rank: self.v.total_rank,
        }
    }
}

/// Per-phase cost of one classic three-phase TLR-MVM.
pub fn three_phase_cost(tlr: &TlrMatrix) -> ThreePhaseCost {
    let t = tlr.tiling();
    let mut out = ThreePhaseCost::default();
    for j in 0..t.tile_cols() {
        let (_, cl) = t.col_range(j);
        let kj = tlr.column_rank(j);
        if kj == 0 {
            continue;
        }
        out.v.flops += 4 * mvm_flops(kj, cl);
        out.v.relative_bytes += 4 * relative_bytes(kj, cl);
        out.v.absolute_bytes += 4 * absolute_bytes(kj, cl);
        out.v.total_rank += to_u64(kj);
    }
    for i in 0..t.tile_rows() {
        let (_, mi) = t.row_range(i);
        let ri = tlr.row_rank(i);
        if ri == 0 {
            continue;
        }
        out.u.flops += 4 * mvm_flops(mi, ri);
        out.u.relative_bytes += 4 * relative_bytes(mi, ri);
        out.u.absolute_bytes += 4 * absolute_bytes(mi, ri);
        out.u.total_rank += to_u64(ri);
    }
    // Shuffle: read + write one 8-byte complex value per rank entry.
    let moved = 16 * out.v.total_rank;
    out.shuffle.relative_bytes = moved;
    out.shuffle.absolute_bytes = moved;
    out.shuffle.total_rank = out.v.total_rank;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::{compress, CompressionConfig, CompressionMethod, ToleranceMode};
    use seismic_la::scalar::C32;
    use seismic_la::Matrix;

    #[test]
    fn byte_formulas_match_paper_text() {
        // §6.6: relative = 4(MN + M + N), absolute = 4(3MN + N).
        assert_eq!(relative_bytes(10, 20), 4 * (200 + 10 + 20));
        assert_eq!(absolute_bytes(10, 20), 4 * (600 + 20));
        assert_eq!(mvm_flops(10, 20), 400);
    }

    #[test]
    fn absolute_exceeds_relative_by_roughly_3x() {
        // For large matrices the ratio tends to 3 — the paper's observed
        // "3X speedup" of absolute over relative bandwidth (Fig. 14).
        let m = 1000;
        let n = 1000;
        let ratio = absolute_bytes(m, n) as f64 / relative_bytes(m, n) as f64;
        assert!((ratio - 3.0).abs() < 0.01);
    }

    #[test]
    fn tlr_cost_scales_with_rank() {
        // Smoothed-distance phase: non-separable, rank grows with the
        // oscillation scale (like seismic kernels with frequency).
        let kern = |scale: f32| {
            Matrix::from_fn(96, 96, move |i, j| {
                let d = (i as f32 - j as f32) / 96.0;
                let r = (d * d + 0.04).sqrt();
                C32::from_polar(1.0 / (1.0 + 3.0 * r), -scale * r)
            })
        };
        let cfg = CompressionConfig {
            nb: 16,
            acc: 1e-4,
            method: CompressionMethod::Svd,
            mode: ToleranceMode::RelativeTile,
        };
        let smooth = compress(&kern(5.0), cfg);
        let oscillatory = compress(&kern(120.0), cfg);
        let c_smooth = tlr_mvm_cost(&smooth);
        let c_osc = tlr_mvm_cost(&oscillatory);
        assert!(smooth.total_rank() < oscillatory.total_rank());
        assert!(c_smooth.flops < c_osc.flops);
        assert!(c_smooth.absolute_bytes < c_osc.absolute_bytes);
    }

    #[test]
    fn dense_cost_dominates_compressed_cost() {
        let a = Matrix::from_fn(128, 96, |i, j| {
            let d = (i as f32 / 128.0 - j as f32 / 96.0).abs();
            C32::from_polar(1.0 / (1.0 + 2.0 * d), -8.0 * d)
        });
        let tlr = compress(
            &a,
            CompressionConfig {
                nb: 32,
                acc: 1e-3,
                method: CompressionMethod::Svd,
                mode: ToleranceMode::RelativeTile,
            },
        );
        // The dense complex MVM: four real 128 × 96 MVMs.
        let c = tlr_mvm_cost(&tlr);
        assert!(
            c.flops < 4 * mvm_flops(128, 96),
            "TLR must reduce arithmetic"
        );
        assert!(c.absolute_bytes < 4 * absolute_bytes(128, 96));
    }

    #[test]
    fn three_phase_cost_reconciles_with_fused_cost() {
        let a = Matrix::from_fn(100, 90, |i, j| {
            let d = (i as f32 / 100.0 - j as f32 / 90.0).abs();
            C32::from_polar(1.0 / (1.0 + 2.0 * d), -7.0 * d)
        });
        let tlr = compress(
            &a,
            CompressionConfig {
                nb: 16,
                acc: 1e-3,
                method: CompressionMethod::Svd,
                mode: ToleranceMode::RelativeTile,
            },
        );
        let fused = tlr_mvm_cost(&tlr);
        let phased = three_phase_cost(&tlr);
        // Same tiles flow through both paths: V flops agree exactly,
        // U flops differ only by the ragged edge (the fused model pads
        // every row to nb).
        assert!(phased.v.flops + phased.u.flops <= fused.flops);
        assert!(phased.u.flops * 10 >= fused.flops - phased.v.flops);
        assert_eq!(phased.v.total_rank, to_u64(tlr.total_rank()));
        assert_eq!(phased.u.total_rank, phased.v.total_rank);
        // Shuffle is pure data movement.
        assert_eq!(phased.shuffle.flops, 0);
        assert_eq!(phased.shuffle.relative_bytes, 16 * to_u64(tlr.total_rank()));
        // The total stays within the fused model's ballpark.
        let t = phased.total();
        assert!(
            t.relative_bytes > 0 && t.relative_bytes <= fused.relative_bytes + 16 * t.total_rank
        );
    }

    fn smooth_tlr(m: usize, n: usize) -> TlrMatrix {
        let a = Matrix::from_fn(m, n, |i, j| {
            let (x, y) = (i as f32 / m as f32, j as f32 / n as f32);
            let d = ((x - y) * (x - y) + 0.02).sqrt();
            C32::from_polar(1.0 / (1.0 + 3.0 * d), -9.0 * d)
        });
        compress(
            &a,
            CompressionConfig {
                nb: 16,
                acc: 1e-5,
                method: CompressionMethod::Svd,
                mode: ToleranceMode::RelativeTile,
            },
        )
    }

    #[test]
    fn intensity_grows_with_rhs_count() {
        // §8: the MMM recast raises arithmetic intensity (relative model)
        // because the bases amortize over the sources.
        let t = smooth_tlr(80, 64);
        let i1 = tlr_mmm_cost(&t, 1).relative_intensity();
        let i8 = tlr_mmm_cost(&t, 8).relative_intensity();
        let i64 = tlr_mmm_cost(&t, 64).relative_intensity();
        assert!(i8 > 2.0 * i1, "i1={i1} i8={i8}");
        assert!(i64 > i8);
        // Absolute (flat-SRAM) intensity does NOT improve: no cache, no
        // reuse — this is exactly why the memory wall re-appears on CS-2.
        let a1 = tlr_mmm_cost(&t, 1).absolute_intensity();
        let a64 = tlr_mmm_cost(&t, 64).absolute_intensity();
        assert!((a1 - a64).abs() < 0.05 * a1);
    }

    #[test]
    fn single_rhs_cost_matches_mvm_cost() {
        let t = smooth_tlr(64, 48);
        let (mvm, mmm) = (tlr_mvm_cost(&t), tlr_mmm_cost(&t, 1));
        assert_eq!(mvm.flops, mmm.flops);
        assert_eq!(mvm.absolute_bytes, mmm.absolute_bytes);
    }

    #[test]
    fn intensities_are_sane() {
        let d = TlrMvmCost {
            flops: 4 * mvm_flops(500, 500),
            relative_bytes: 4 * relative_bytes(500, 500),
            absolute_bytes: 4 * absolute_bytes(500, 500),
            total_rank: 500,
        };
        // Dense MVM relative intensity -> 2 flops per 4 bytes = 0.5.
        assert!((d.relative_intensity() - 0.5).abs() < 0.01);
        // Absolute intensity -> 2 flops per 12 bytes ≈ 0.167.
        assert!((d.absolute_intensity() - 1.0 / 6.0).abs() < 0.01);
    }
}
