//! Functional execution: actually run the TLR-MVM rank chunks the way the
//! CS-2 placement lays them out — split-complex four-real-MVM arithmetic
//! per virtual PE, host-side reduction — while accumulating the cycle
//! model. Used to prove the mapping computes the right answer.

#![allow(
    clippy::needless_range_loop,
    reason = "index-based loops here walk multiple parallel arrays; iterator zips would obscure \
              the stride structure the kernels are about"
)]

use rayon::prelude::*;
use seismic_la::scalar::C32;
use tlr_mvm::layouts::RankChunk;
use tlr_mvm::precision::to_u64;
use tlr_mvm::real4::{join_vec, split_vec, RealSplitMatrix};

use std::collections::BTreeMap;

use tlr_mvm::trace;

use crate::atlas::ExecAtlas;
use crate::cycles::{strategy1_phase_costs, MvmTask};
use crate::machine::Cs2Config;
use crate::placement::Strategy;

/// Result of a functional run.
#[derive(Clone, Debug)]
pub struct ExecResult {
    /// The reduced output vector (length `m`).
    pub y: Vec<C32>,
    /// Worst per-PE cycle count under the calibrated model.
    pub worst_cycles: u64,
    /// Virtual PEs engaged.
    pub pes_used: u64,
    /// Total real fmacs executed (exact, counted by the kernels).
    pub fmacs: u64,
}

/// Execute rank chunks functionally as virtual PEs.
///
/// Every chunk is executed with split-complex arithmetic (the eight real
/// MVMs of §6.6); the partial `y` vectors are reduced on the host exactly
/// as the paper does. `m` is the (unpadded) output length; `nb` the tile
/// size (partials are `tile_rows·nb` long, zero-padded at the ragged
/// edge).
pub fn execute_chunks(
    chunks: &[RankChunk],
    x: &[C32],
    m: usize,
    nb: usize,
    strategy: Strategy,
    cfg: &Cs2Config,
) -> ExecResult {
    execute_chunks_inner(chunks, x, m, nb, strategy, cfg, None)
}

/// [`execute_chunks`], additionally scattering each chunk's modeled
/// cycles and kernel-counted fmacs into a pre-sized [`ExecAtlas`] during
/// the host reduction (pure indexed adds — the traced region stays
/// allocation-free, and the default path records exactly what it always
/// did).
pub fn execute_chunks_with_atlas(
    chunks: &[RankChunk],
    x: &[C32],
    m: usize,
    nb: usize,
    strategy: Strategy,
    cfg: &Cs2Config,
    atlas: &mut ExecAtlas,
) -> ExecResult {
    execute_chunks_inner(chunks, x, m, nb, strategy, cfg, Some(atlas))
}

fn execute_chunks_inner(
    chunks: &[RankChunk],
    x: &[C32],
    m: usize,
    nb: usize,
    strategy: Strategy,
    cfg: &Cs2Config,
    mut atlas: Option<&mut ExecAtlas>,
) -> ExecResult {
    let tile_rows = m.div_ceil(nb);
    let padded_m = tile_rows * nb;

    struct PartialOut {
        y: Vec<C32>,
        yvr: Vec<f32>,
        yvi: Vec<f32>,
        cycles: u64,
        fmacs: u64,
    }

    // Every per-chunk buffer (partial output plus V-phase scratch) and
    // the reduced output are allocated before the span opens: the traced
    // region is pure simulated-PE compute (lint rule HP01).
    let mut partials: Vec<PartialOut> = chunks
        .iter()
        .map(|ch| PartialOut {
            y: vec![C32::new(0.0, 0.0); padded_m],
            yvr: vec![0.0f32; ch.width()],
            yvi: vec![0.0f32; ch.width()],
            cycles: 0,
            fmacs: 0,
        })
        .collect();
    let mut y = vec![C32::new(0.0, 0.0); m];

    let _span = trace::span("wse.exec");
    trace_pe_groups(chunks, nb, cfg);
    partials.par_iter_mut().enumerate().for_each(|(c, out)| {
        let ch = &chunks[c];
        let w = ch.width();
        let x_col = &x[ch.c0..ch.c0 + ch.cl];
        let (xr, xi) = split_vec(x_col);
        // V phase: yv = Vᴴ x (4 real MVMs).
        let v_split = RealSplitMatrix::from_complex(&ch.v);
        let v_fmacs =
            to_u64(v_split.gemv_conj_transpose_acc_4real(&xr, &xi, &mut out.yvr, &mut out.yvi));
        // U phase: scatter-accumulate per rank column (4 real MVMs
        // worth of fmacs over the padded nb-tall U slice).
        let u_split = RealSplitMatrix::from_complex(&ch.u);
        let mut u_fmacs = 0u64;
        let yv = join_vec(&out.yvr, &out.yvi);
        for r in 0..w {
            let coeff = yv[r];
            let dst0 = ch.row_block[r] * nb;
            let len = ch.row_len[r];
            for i in 0..len {
                let u = C32::new(u_split.re[(i, r)], u_split.im[(i, r)]);
                out.y[dst0 + i] += u * coeff;
            }
            u_fmacs += 4 * to_u64(len);
        }
        // Cycle model for this PE's program.
        let v_task = MvmTask::dot_form(w, ch.cl);
        let u_task = MvmTask::axpy_form(nb, w);
        out.cycles = match strategy {
            Strategy::FusedSinglePe => 4 * v_task.cycles(cfg, true) + 4 * u_task.cycles(cfg, true),
            Strategy::ScatterEightPes => v_task.cycles(cfg, true).max(u_task.cycles(cfg, true)),
        };
        out.fmacs = v_fmacs + u_fmacs;
    });

    // Host reduction.
    let mut worst_cycles = 0u64;
    let mut fmacs = 0u64;
    for (c, p) in partials.iter().enumerate() {
        for (i, yi) in y.iter_mut().enumerate() {
            *yi += p.y[i];
        }
        worst_cycles = worst_cycles.max(p.cycles);
        fmacs += p.fmacs;
        if let Some(a) = atlas.as_deref_mut() {
            a.record(c, p.cycles, p.fmacs);
        }
    }
    let pes_per_chunk = match strategy {
        Strategy::FusedSinglePe => 1,
        Strategy::ScatterEightPes => 8,
    };
    ExecResult {
        y,
        worst_cycles,
        pes_used: to_u64(chunks.len()) * pes_per_chunk,
        fmacs,
    }
}

/// Attribute modeled cycles and resident SRAM bytes per PE *group*
/// (chunks sharing the same `(cl, w)` program shape run the same PE
/// code), plus the modeled V/U phase split summed over all PEs — the
/// numbers a `--trace` run cross-checks against measured wall-clock
/// phase ratios.
fn trace_pe_groups(chunks: &[RankChunk], nb: usize, cfg: &Cs2Config) {
    if !trace::is_enabled() {
        return;
    }
    // (cl, w) → (pes, cycles, sram_bytes).
    let mut groups: BTreeMap<(usize, usize), (u64, u64, u64)> = BTreeMap::new();
    let (mut v_cycles, mut u_cycles) = (0u64, 0u64);
    for ch in chunks {
        let w = ch.width();
        let (v, u) = strategy1_phase_costs(nb, ch.cl, w, cfg, true);
        v_cycles += v.cycles;
        u_cycles += u.cycles;
        // Split-complex storage: 8 bytes per stored complex word.
        let sram = 8 * to_u64(ch.stored_elements());
        let g = groups.entry((ch.cl, w)).or_insert((0, 0, 0));
        g.0 += 1;
        g.1 += v.cycles + u.cycles;
        g.2 += sram;
    }
    for ((cl, w), (pes, cycles, sram)) in &groups {
        let name = format!("wse.pe_group.cl{cl}_w{w}");
        trace::add_cycles(&name, *cycles);
        trace::add_sram_bytes(&name, *sram);
        trace::add_iterations(&name, *pes);
    }
    trace::add_cycles("wse.exec.v_phase", v_cycles);
    trace::add_cycles("wse.exec.u_phase", u_cycles);
}

#[cfg(test)]
mod tests {
    use super::*;
    use seismic_la::blas::gemv;
    use seismic_la::Matrix;
    use tlr_mvm::{compress, CommAvoiding, CompressionConfig, CompressionMethod, ToleranceMode};

    fn kernel(m: usize, n: usize) -> Matrix<C32> {
        Matrix::from_fn(m, n, |i, j| {
            let x = i as f32 / m as f32;
            let y = j as f32 / n as f32;
            let d = ((x - y) * (x - y) + 0.02).sqrt();
            C32::from_polar(1.0 / (1.0 + 3.0 * d), -9.0 * d)
        })
    }

    fn test_x(n: usize) -> Vec<C32> {
        (0..n)
            .map(|i| C32::new((i as f32 * 0.13).sin(), (i as f32 * 0.29).cos()))
            .collect()
    }

    #[test]
    fn functional_exec_matches_host_tlrmvm() {
        let a = kernel(67, 53);
        let tlr = compress(
            &a,
            CompressionConfig {
                nb: 16,
                acc: 1e-4,
                method: CompressionMethod::Svd,
                mode: ToleranceMode::RelativeTile,
            },
        );
        let ca = CommAvoiding::new(&tlr);
        let x = test_x(53);
        let want = ca.apply(&x);
        let cfg = Cs2Config::default();
        for sw in [3usize, 8, 64] {
            let chunks = ca.chunks(sw);
            let res = execute_chunks(&chunks, &x, 67, 16, Strategy::FusedSinglePe, &cfg);
            assert_eq!(res.pes_used, chunks.len() as u64);
            let scale = seismic_la::blas::nrm2(&want).max(1.0);
            for (g, w) in res.y.iter().zip(&want) {
                assert!((*g - *w).abs() < 1e-4 * scale, "sw={sw}: {g} vs {w}");
            }
        }
    }

    #[test]
    fn strategy2_same_answer_fewer_worst_cycles() {
        let a = kernel(48, 40);
        let tlr = compress(
            &a,
            CompressionConfig {
                nb: 12,
                acc: 1e-4,
                method: CompressionMethod::Svd,
                mode: ToleranceMode::RelativeTile,
            },
        );
        let ca = CommAvoiding::new(&tlr);
        let x = test_x(40);
        let cfg = Cs2Config::default();
        let chunks = ca.chunks(6);
        let s1 = execute_chunks(&chunks, &x, 48, 12, Strategy::FusedSinglePe, &cfg);
        let s2 = execute_chunks(&chunks, &x, 48, 12, Strategy::ScatterEightPes, &cfg);
        for (a, b) in s1.y.iter().zip(&s2.y) {
            assert_eq!(a, b, "strategies must compute identical results");
        }
        assert!(s2.worst_cycles < s1.worst_cycles);
        assert_eq!(s2.pes_used, 8 * s1.pes_used);
    }

    #[test]
    fn exec_atlas_reconciles_with_exec_result() {
        use crate::atlas::AtlasConfig;
        let a = kernel(60, 44);
        let tlr = compress(
            &a,
            CompressionConfig {
                nb: 12,
                acc: 1e-4,
                method: CompressionMethod::Svd,
                mode: ToleranceMode::RelativeTile,
            },
        );
        let ca = CommAvoiding::new(&tlr);
        let x = test_x(44);
        let cfg = Cs2Config::default();
        let chunks = ca.chunks(5);
        let plain = execute_chunks(&chunks, &x, 60, 12, Strategy::FusedSinglePe, &cfg);
        let mut atlas = ExecAtlas::new(&cfg, &AtlasConfig::default(), Strategy::FusedSinglePe);
        let res = execute_chunks_with_atlas(
            &chunks,
            &x,
            60,
            12,
            Strategy::FusedSinglePe,
            &cfg,
            &mut atlas,
        );
        // Same answer and counters as the default path…
        for (p, q) in plain.y.iter().zip(&res.y) {
            assert_eq!(p, q);
        }
        assert_eq!(plain.fmacs, res.fmacs);
        // …and the grids reconcile: fmacs exactly, worst-PE cycles as a
        // lower bound of the busiest cell.
        assert_eq!(atlas.fmacs.total(), res.fmacs);
        assert!(atlas.busy_cycles.max() >= res.worst_cycles);
        assert!(atlas.busy_cycles.total() > 0);
    }

    #[test]
    fn exec_matches_dense_reference() {
        let a = kernel(50, 38);
        let tlr = compress(
            &a,
            CompressionConfig {
                nb: 10,
                acc: 1e-5,
                method: CompressionMethod::Svd,
                mode: ToleranceMode::RelativeTile,
            },
        );
        let ca = CommAvoiding::new(&tlr);
        let x = test_x(38);
        let cfg = Cs2Config::default();
        let res = execute_chunks(&ca.chunks(5), &x, 50, 10, Strategy::FusedSinglePe, &cfg);
        let mut want = vec![C32::new(0.0, 0.0); 50];
        gemv(&a, &x, &mut want);
        let scale = seismic_la::blas::nrm2(&want);
        for (g, w) in res.y.iter().zip(&want) {
            assert!((*g - *w).abs() < 1e-4 * scale);
        }
        assert!(res.fmacs > 0);
    }
}
