//! The calibrated per-PE cycle-count model, and what one rank chunk
//! costs under each strategy ([`ChunkCost`]).
//!
//! A real FP32 `m × n` MVM issues one fmac per element. The model assumes
//! every program is bank-aligned: its two operands sit in disjoint SRAM
//! banks, so the PE retires one fmac per cycle (two 64-bit reads + one
//! write, §6.5). Each outer-loop sweep adds loop/DSR overhead, each MVM a
//! launch overhead:
//!
//! ```text
//! cycles = m·n + sweeps·col_overhead + launch_overhead
//! ```
//!
//! where `sweeps` is the outer-loop trip count: the matrix columns for an
//! axpy-form sweep (the U batch and Fig. 14's plain MVM), or the output
//! elements for a dot-product-form sweep (the V batch, whose stacked
//! bases are traversed along the rank dimension). In the TLR-MVM chunk
//! kernels both phases therefore sweep the *stack width* `w`.
//!
//! `col_overhead = 13` and `launch_overhead = 425` are calibrated jointly
//! against the paper's Tables 2–5 worst-cycle counts — within 2.5 % on
//! four of the five validated configurations and 7 % on the fifth — and
//! reproduce Fig. 14's ~2 PB/s single-system relative-bandwidth
//! saturation.

use tlr_mvm::cast::to_u64;

use crate::machine::Cs2Config;
use crate::placement::Strategy;
use crate::sram::{strategy1_bases_bytes, strategy1_vector_bytes, strategy2_pe_bytes};

/// One real MVM task in a PE program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MvmTask {
    /// Output length.
    pub m: usize,
    /// Input length.
    pub n: usize,
    /// Outer-loop trip count (columns for axpy form, outputs for dot
    /// form).
    pub sweeps: usize,
}

impl MvmTask {
    /// Axpy-form (column-sweep) task: `sweeps = n`.
    pub fn axpy_form(m: usize, n: usize) -> Self {
        Self { m, n, sweeps: n }
    }

    /// Dot-product-form task: `sweeps = m`.
    pub fn dot_form(m: usize, n: usize) -> Self {
        Self { m, n, sweeps: m }
    }

    /// Fused multiply-accumulate count.
    pub fn fmacs(&self) -> u64 {
        to_u64(self.m) * to_u64(self.n)
    }

    /// Flops (2 per fmac).
    pub fn flops(&self) -> u64 {
        2 * self.fmacs()
    }

    /// Cycle count under the calibrated model.
    pub fn cycles(&self, cfg: &Cs2Config) -> u64 {
        self.fmacs() + to_u64(self.sweeps) * cfg.col_overhead_cycles + cfg.launch_overhead_cycles
    }

    /// Ideal cycle count (no overheads, perfect alignment) — the paper's
    /// "simulated" curve in Fig. 14.
    pub fn cycles_ideal(&self) -> u64 {
        self.fmacs()
    }

    /// Relative (cache-model) bytes, §6.6.
    pub fn relative_bytes(&self) -> u64 {
        tlr_mvm::relative_bytes(self.m, self.n)
    }

    /// Absolute (flat-SRAM) bytes, §6.6.
    pub fn absolute_bytes(&self) -> u64 {
        tlr_mvm::absolute_bytes(self.m, self.n)
    }
}

/// What a PE's program of real MVMs costs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PeCost {
    /// Total cycles.
    pub cycles: u64,
    /// Total flops.
    pub flops: u64,
    /// Total relative bytes.
    pub relative_bytes: u64,
    /// Total absolute bytes.
    pub absolute_bytes: u64,
}

impl PeCost {
    /// `task` run `times` times back to back on one PE.
    fn repeated(task: MvmTask, times: u64, cfg: &Cs2Config) -> Self {
        Self {
            cycles: times * task.cycles(cfg),
            flops: times * task.flops(),
            relative_bytes: times * task.relative_bytes(),
            absolute_bytes: times * task.absolute_bytes(),
        }
    }
}

/// Code and stack a PE keeps in its runtime reservation (8 KiB, a
/// conservative estimate).
const CODE_BYTES: usize = 8 * 1024;

/// What one chunk of shape `(nb, cl, w)` costs under a [`Strategy`], and
/// what it asks of a PE's SRAM: the one answer [`place`],
/// [`assign_shards`], [`execute_chunks`] and the repro experiments read.
///
/// A chunk runs eight real MVMs on split-complex operands: the V phase,
/// four dot-form `w × cl` MVMs (the stacked bases are traversed along the
/// rank dimension), and the U phase, four axpy-form `nb × w` ones (the
/// `w` rank columns swept). Strategy 1 runs all eight on one PE;
/// strategy 2 scatters them over eight PEs, each holding one real base
/// matrix.
///
/// [`place`]: crate::placement::place
/// [`assign_shards`]: crate::shards::assign_shards
/// [`execute_chunks`]: crate::exec::execute_chunks
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChunkCost {
    /// The V phase summed over its four MVMs.
    pub v: PeCost,
    /// The U phase summed over its four MVMs.
    pub u: PeCost,
    /// PEs the chunk occupies: 1, or 8 scattered.
    pub pes: u64,
    /// Cycles of the chunk's busiest PE (the paper's timing metric).
    pub pe_cycles: u64,
    /// Bases-budget bytes of the chunk's fullest PE.
    pub bases_bytes: usize,
    /// Runtime-reservation bytes of one of its PEs: the working vectors
    /// plus code (strategy 1), or the code alone (strategy 2).
    pub reserved_bytes: usize,
}

impl ChunkCost {
    /// The cost of one `(nb, cl, w)` chunk under `strategy` on `cfg`.
    /// Inlined, so a caller that reads one field (`execute_chunks`' loop
    /// over every chunk) computes only that field.
    #[inline]
    pub fn new(nb: usize, cl: usize, w: usize, strategy: Strategy, cfg: &Cs2Config) -> Self {
        let (v_task, u_task) = (MvmTask::dot_form(w, cl), MvmTask::axpy_form(nb, w));
        let (v, u) = (
            PeCost::repeated(v_task, 4, cfg),
            PeCost::repeated(u_task, 4, cfg),
        );
        let (pes, pe_cycles, bases_bytes, reserved_bytes) = match strategy {
            Strategy::FusedSinglePe => (
                1,
                v.cycles + u.cycles,
                strategy1_bases_bytes(nb, cl, w),
                strategy1_vector_bytes(nb, cl, w) + CODE_BYTES,
            ),
            Strategy::ScatterEightPes => (
                8,
                v_task.cycles(cfg).max(u_task.cycles(cfg)),
                strategy2_pe_bytes(w, cl).max(strategy2_pe_bytes(nb, w)),
                CODE_BYTES,
            ),
        };
        Self {
            v,
            u,
            pes,
            pe_cycles,
            bases_bytes,
            reserved_bytes,
        }
    }

    /// Both phases: what the whole chunk costs, over all its PEs.
    pub fn total(&self) -> PeCost {
        let (v, u) = (self.v, self.u);
        PeCost {
            cycles: v.cycles + u.cycles,
            flops: v.flops + u.flops,
            relative_bytes: v.relative_bytes + u.relative_bytes,
            absolute_bytes: v.absolute_bytes + u.absolute_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The fused chunk's one PE runs both phases back to back; each phase
    /// is four of its MVM.
    #[test]
    fn phase_costs_sum_to_fused_chunk_cost() {
        let cfg = Cs2Config::default();
        for (nb, w) in [(25usize, 64usize), (50, 32), (70, 23)] {
            let c = ChunkCost::new(nb, nb, w, Strategy::FusedSinglePe, &cfg);
            let (v, u) = (MvmTask::dot_form(w, nb), MvmTask::axpy_form(nb, w));
            assert_eq!(c.pe_cycles, 4 * (v.cycles(&cfg) + u.cycles(&cfg)));
            assert_eq!((c.pes, c.total().cycles), (1, c.pe_cycles));
            assert_eq!(c.total().flops, 4 * (v.flops() + u.flops()));
            assert_eq!(c.v.relative_bytes, 4 * v.relative_bytes());
            assert_eq!(c.u.absolute_bytes, 4 * u.absolute_bytes());
        }
    }

    #[test]
    fn cycle_formula() {
        let cfg = Cs2Config::default();
        let t = MvmTask::axpy_form(10, 20);
        assert_eq!(t.cycles(&cfg), 200 + 20 * 13 + 425);
        assert_eq!(t.cycles_ideal(), 200);
        assert_eq!(t.flops(), 400);
        let d = MvmTask::dot_form(10, 20);
        assert_eq!(d.cycles(&cfg), 200 + 10 * 13 + 425);
    }

    #[test]
    fn strategy1_chunk_cycles_match_table2_scale() {
        // Paper Table 2, nb=25 acc=1e-4, stack width 64: worst cycle count
        // 21 350. The model must land within 10 %.
        let cfg = Cs2Config::default();
        let cycles = ChunkCost::new(25, 25, 64, Strategy::FusedSinglePe, &cfg).pe_cycles;
        let rel_err = (cycles as f64 - 21_350.0).abs() / 21_350.0;
        assert!(rel_err < 0.08, "cycles {cycles} vs paper 21350");
    }

    #[test]
    fn all_five_validated_configs_within_10pct() {
        // Table 2: (nb, stack width, worst cycles).
        let cfg = Cs2Config::default();
        for (nb, w, paper) in [
            (25usize, 64usize, 21_350u64),
            (50, 32, 19_214),
            (70, 23, 19_131),
            (50, 18, 12_275),
            (70, 14, 12_999),
        ] {
            // The acc=3e-4 rows use smaller stack widths on the same nb.
            let cycles = ChunkCost::new(nb, nb, w, Strategy::FusedSinglePe, &cfg).pe_cycles;
            let rel_err = (cycles as f64 - paper as f64).abs() / paper as f64;
            // Four configs land within 2.5 %; nb=25/w=64 is ~7 % high.
            assert!(
                rel_err < 0.08,
                "nb={nb} w={w}: model {cycles} vs paper {paper}"
            );
        }
    }

    #[test]
    fn fig14_relative_bandwidth_saturates_near_2pbs() {
        // §7.1: single-precision batched MVM with constant size N on every
        // PE of one CS-2; relative bandwidth saturates to ~2 PB/s.
        let cfg = Cs2Config::default();
        let t = MvmTask::axpy_form(128, 128);
        let cycles = t.cycles(&cfg);
        let secs = cfg.cycles_to_seconds(cycles);
        let bw = t.relative_bytes() as f64 / secs * cfg.usable_pes() as f64;
        assert!(
            bw > 1.6e15 && bw < 2.6e15,
            "relative bandwidth {bw:.3e} not ~2 PB/s"
        );
    }
}
