//! A CSL-like per-PE program representation: the concrete instruction
//! schedule one PE executes (DSR setup, fmac loops over SRAM operands),
//! from which cycle counts are *derived* rather than postulated — and
//! shown to agree with the closed-form model in [`crate::cycles`].
//!
//! This is the level the paper programs at ("users develop and write
//! programs in the Cerebras Software Language (CSL)", §6.5): memory DSRs
//! describing strided operand streams feeding a fused-multiply-accumulate
//! pipeline.

use tlr_mvm::precision::to_u64;

use crate::machine::Cs2Config;

/// One operand stream descriptor (a CSL memory DSR).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Dsr {
    /// SRAM byte offset of the stream start.
    pub base: usize,
    /// Stride between consecutive elements (bytes).
    pub stride: usize,
    /// Element count.
    pub len: usize,
}

impl Dsr {
    /// Bank index of element `i` under the given config.
    pub fn bank_of(&self, i: usize, cfg: &Cs2Config) -> usize {
        (self.base + i * self.stride) / cfg.bank_bytes()
    }

    /// `true` when the whole stream stays within one bank set disjoint
    /// from `other` (the dual-read condition).
    pub fn banks_disjoint_from(&self, other: &Dsr, cfg: &Cs2Config) -> bool {
        if self.len == 0 || other.len == 0 {
            return true;
        }
        let a0 = self.bank_of(0, cfg);
        let a1 = self.bank_of(self.len - 1, cfg);
        let b0 = other.bank_of(0, cfg);
        let b1 = other.bank_of(other.len - 1, cfg);
        a1 < b0 || b1 < a0
    }
}

/// One instruction in the PE schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Instr {
    /// Configure a DSR (fixed small cost).
    SetDsr,
    /// `fmacs` fused multiply-accumulates streamed from two operand DSRs;
    /// `dual_read` records whether the bank condition held at build time.
    FmacLoop {
        /// fmac count in this loop (one column/row sweep).
        fmacs: u64,
        /// Both reads retire in one cycle?
        dual_read: bool,
    },
    /// Scalar bookkeeping between sweeps (pointer bumps, loop control).
    LoopOverhead {
        /// Cycle cost.
        cycles: u64,
    },
    /// Task launch/drain (fixed cost per MVM).
    Launch,
}

/// A complete PE program.
#[derive(Clone, Debug, Default)]
pub struct PeProgram {
    /// The instruction schedule.
    pub instrs: Vec<Instr>,
}

impl PeProgram {
    /// Total cycles of the schedule under a config.
    pub fn cycles(&self, cfg: &Cs2Config) -> u64 {
        self.instrs
            .iter()
            .map(|i| match i {
                Instr::SetDsr => 1,
                Instr::FmacLoop { fmacs, dual_read } => {
                    if *dual_read {
                        *fmacs
                    } else {
                        2 * *fmacs
                    }
                }
                Instr::LoopOverhead { cycles } => *cycles,
                Instr::Launch => cfg.launch_overhead_cycles,
            })
            .sum()
    }

    /// Total fmacs in the schedule.
    pub fn fmacs(&self) -> u64 {
        self.instrs
            .iter()
            .map(|i| match i {
                Instr::FmacLoop { fmacs, .. } => *fmacs,
                _ => 0,
            })
            .sum()
    }
}

/// Build the schedule for one real `m × n` MVM with `sweeps` outer-loop
/// iterations of `m·n/sweeps` fmacs each, with operands `a` and `acc`.
///
/// Per sweep: one DSR reconfiguration plus loop bookkeeping — together
/// the `col_overhead_cycles` of the closed-form model (13 = 1 SetDsr +
/// 12 bookkeeping by default).
pub fn mvm_program(
    m: usize,
    n: usize,
    sweeps: usize,
    a: &Dsr,
    acc: &Dsr,
    cfg: &Cs2Config,
) -> PeProgram {
    assert!(sweeps > 0);
    let total = to_u64(m * n);
    let per_sweep = total / to_u64(sweeps);
    let remainder = total - per_sweep * to_u64(sweeps);
    let dual = a.banks_disjoint_from(acc, cfg);
    let mut instrs = Vec::with_capacity(2 * sweeps + 1);
    instrs.push(Instr::Launch);
    for k in 0..sweeps {
        instrs.push(Instr::SetDsr);
        instrs.push(Instr::LoopOverhead {
            cycles: cfg.col_overhead_cycles - 1,
        });
        let f = per_sweep + if to_u64(k) < remainder { 1 } else { 0 };
        instrs.push(Instr::FmacLoop {
            fmacs: f,
            dual_read: dual,
        });
    }
    PeProgram { instrs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cycles::MvmTask;

    fn disjoint_dsrs(cfg: &Cs2Config) -> (Dsr, Dsr) {
        // Matrix stream in bank 0-1, accumulator in bank 3.
        (
            Dsr {
                base: 0,
                stride: 4,
                len: cfg.bank_bytes() / 4,
            },
            Dsr {
                base: 3 * cfg.bank_bytes(),
                stride: 4,
                len: 64,
            },
        )
    }

    #[test]
    fn program_cycles_match_closed_form_model() {
        let cfg = Cs2Config::default();
        let (a, acc) = disjoint_dsrs(&cfg);
        for (m, n, sweeps) in [
            (25usize, 64usize, 64usize),
            (70, 23, 23),
            (50, 32, 32),
            (17, 9, 9),
        ] {
            let prog = mvm_program(m, n, sweeps, &a, &acc, &cfg);
            let task = MvmTask { m, n, sweeps };
            assert_eq!(
                prog.cycles(&cfg),
                task.cycles(&cfg, true),
                "m={m} n={n} sweeps={sweeps}"
            );
            assert_eq!(prog.fmacs(), (m * n) as u64);
        }
    }

    #[test]
    fn bank_conflict_doubles_fmac_cycles() {
        let cfg = Cs2Config::default();
        // Both operands in bank 0.
        let a = Dsr {
            base: 0,
            stride: 4,
            len: 100,
        };
        let acc = Dsr {
            base: 512,
            stride: 4,
            len: 25,
        };
        assert!(!a.banks_disjoint_from(&acc, &cfg));
        let prog = mvm_program(25, 4, 4, &a, &acc, &cfg);
        let task = MvmTask {
            m: 25,
            n: 4,
            sweeps: 4,
        };
        assert_eq!(prog.cycles(&cfg), task.cycles(&cfg, false));
    }

    #[test]
    fn dsr_bank_math() {
        let cfg = Cs2Config::default();
        let d = Dsr {
            base: cfg.bank_bytes() - 4,
            stride: 4,
            len: 3,
        };
        assert_eq!(d.bank_of(0, &cfg), 0);
        assert_eq!(d.bank_of(1, &cfg), 1);
    }

    #[test]
    fn ragged_sweep_distribution_conserves_fmacs() {
        let cfg = Cs2Config::default();
        let (a, acc) = disjoint_dsrs(&cfg);
        // 7 × 5 = 35 fmacs over 3 sweeps -> 12 + 12 + 11.
        let prog = mvm_program(7, 5, 3, &a, &acc, &cfg);
        assert_eq!(prog.fmacs(), 35);
        let loops: Vec<u64> = prog
            .instrs
            .iter()
            .filter_map(|i| match i {
                Instr::FmacLoop { fmacs, .. } => Some(*fmacs),
                _ => None,
            })
            .collect();
        assert_eq!(loops, vec![12, 12, 11]);
    }
}
