//! The calibrated per-PE cycle-count model.
//!
//! A real FP32 `m × n` MVM issues one fmac per element. With the operands
//! placed in disjoint SRAM banks the PE retires one fmac per cycle (two
//! 64-bit reads + one write, §6.5); misaligned layouts halve the rate.
//! Each outer-loop sweep adds loop/DSR overhead, each MVM a launch
//! overhead:
//!
//! ```text
//! cycles = m·n·cpf + sweeps·col_overhead + launch_overhead
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
    pub fn cycles(&self, cfg: &Cs2Config, bank_aligned: bool) -> u64 {
        let cpf: u64 = if bank_aligned { 1 } else { 2 };
        self.fmacs() * cpf
            + to_u64(self.sweeps) * cfg.col_overhead_cycles
            + cfg.launch_overhead_cycles
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

/// A PE's whole program: a sequence of real MVMs executed back to back.
#[derive(Clone, Debug, Default)]
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

/// Cost of running `tasks` sequentially on one PE.
pub fn pe_cost(tasks: &[MvmTask], cfg: &Cs2Config, bank_aligned: bool) -> PeCost {
    let mut c = PeCost::default();
    for t in tasks {
        c.cycles += t.cycles(cfg, bank_aligned);
        c.flops += t.flops();
        c.relative_bytes += t.relative_bytes();
        c.absolute_bytes += t.absolute_bytes();
    }
    c
}

/// The eight real MVMs of one strategy-1 chunk (`4×` V-batch `(w × cl)` +
/// `4×` U-batch `(nb × w)`).
pub fn strategy1_tasks(nb: usize, cl: usize, w: usize) -> Vec<MvmTask> {
    let mut tasks = Vec::with_capacity(8);
    for _ in 0..4 {
        // V batch traverses the stacked bases along the rank dimension:
        // dot-product form, w outputs.
        tasks.push(MvmTask::dot_form(w, cl));
    }
    for _ in 0..4 {
        // U batch sweeps the w rank columns in axpy form.
        tasks.push(MvmTask::axpy_form(nb, w));
    }
    tasks
}

/// Per-phase cost of one strategy-1 chunk: `(V phase, U phase)`, each
/// the four real MVMs of its batch. Splitting what [`strategy1_tasks`]
/// fuses lets modeled V/U cycle shares be cross-checked against the
/// measured wall-clock phase ratios a `--trace` run records.
pub fn strategy1_phase_costs(
    nb: usize,
    cl: usize,
    w: usize,
    cfg: &Cs2Config,
    bank_aligned: bool,
) -> (PeCost, PeCost) {
    let v = pe_cost(&[MvmTask::dot_form(w, cl); 4], cfg, bank_aligned);
    let u = pe_cost(&[MvmTask::axpy_form(nb, w); 4], cfg, bank_aligned);
    (v, u)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_costs_sum_to_fused_chunk_cost() {
        let cfg = Cs2Config::default();
        for (nb, w) in [(25usize, 64usize), (50, 32), (70, 23)] {
            let fused = pe_cost(&strategy1_tasks(nb, nb, w), &cfg, true);
            let (v, u) = strategy1_phase_costs(nb, nb, w, &cfg, true);
            assert_eq!(v.cycles + u.cycles, fused.cycles);
            assert_eq!(v.flops + u.flops, fused.flops);
            assert_eq!(v.relative_bytes + u.relative_bytes, fused.relative_bytes);
            assert_eq!(v.absolute_bytes + u.absolute_bytes, fused.absolute_bytes);
        }
    }

    #[test]
    fn cycle_formula() {
        let cfg = Cs2Config::default();
        let t = MvmTask::axpy_form(10, 20);
        assert_eq!(t.cycles(&cfg, true), 200 + 20 * 13 + 425);
        assert_eq!(t.cycles(&cfg, false), 400 + 20 * 13 + 425);
        assert_eq!(t.cycles_ideal(), 200);
        assert_eq!(t.flops(), 400);
        let d = MvmTask::dot_form(10, 20);
        assert_eq!(d.cycles(&cfg, true), 200 + 10 * 13 + 425);
    }

    #[test]
    fn strategy1_chunk_cycles_match_table2_scale() {
        // Paper Table 2, nb=25 acc=1e-4, stack width 64: worst cycle count
        // 21 350. The model must land within 10 %.
        let cfg = Cs2Config::default();
        let cost = pe_cost(&strategy1_tasks(25, 25, 64), &cfg, true);
        let rel_err = (cost.cycles as f64 - 21_350.0).abs() / 21_350.0;
        assert!(rel_err < 0.08, "cycles {} vs paper 21350", cost.cycles);
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
            let cost = pe_cost(&strategy1_tasks(nb, nb, w), &cfg, true);
            let rel_err = (cost.cycles as f64 - paper as f64).abs() / paper as f64;
            // Four configs land within 2.5 %; nb=25/w=64 is ~7 % high.
            assert!(
                rel_err < 0.08,
                "nb={nb} w={w}: model {} vs paper {paper}",
                cost.cycles
            );
        }
    }

    #[test]
    fn misalignment_costs_double_fmacs() {
        let cfg = Cs2Config::default();
        let tasks = strategy1_tasks(50, 50, 32);
        let good = pe_cost(&tasks, &cfg, true);
        let bad = pe_cost(&tasks, &cfg, false);
        let fmacs: u64 = tasks.iter().map(|t| t.fmacs()).sum();
        assert_eq!(bad.cycles - good.cycles, fmacs);
    }

    #[test]
    fn fig14_relative_bandwidth_saturates_near_2pbs() {
        // §7.1: single-precision batched MVM with constant size N on every
        // PE of one CS-2; relative bandwidth saturates to ~2 PB/s.
        let cfg = Cs2Config::default();
        let t = MvmTask::axpy_form(128, 128);
        let cycles = t.cycles(&cfg, true);
        let secs = cfg.cycles_to_seconds(cycles);
        let bw = t.relative_bytes() as f64 / secs * cfg.usable_pes() as f64;
        assert!(
            bw > 1.6e15 && bw < 2.6e15,
            "relative bandwidth {bw:.3e} not ~2 PB/s"
        );
    }
}
