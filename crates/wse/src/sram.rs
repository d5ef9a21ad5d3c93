//! Per-PE SRAM planning: bank-aware placement of the arrays one PE needs,
//! with the alignment rule from §6.5 — two reads per cycle require the
//! operands to live in separate banks, so the planner places the matrix
//! bases and the accumulator vectors in disjoint banks and pads array
//! starts to 64-bit boundaries.

use crate::machine::Cs2Config;

/// One array placed in PE SRAM.
#[derive(Clone, Debug)]
pub struct Placed {
    /// Human-readable role ("V_re", "y_im", …).
    pub name: String,
    /// Byte offset of the array start.
    pub offset: usize,
    /// Array length in bytes (after 8-byte padding).
    pub bytes: usize,
    /// First bank touched.
    pub first_bank: usize,
    /// Last bank touched.
    pub last_bank: usize,
}

/// A complete SRAM plan for one PE.
#[derive(Clone, Debug, Default)]
pub struct SramPlan {
    /// Arrays in placement order.
    pub arrays: Vec<Placed>,
    /// Total bytes consumed (including padding).
    pub used_bytes: usize,
}

/// Why a plan failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SramError {
    /// The arrays exceed the PE's SRAM capacity.
    Capacity {
        /// Bytes requested.
        requested: usize,
        /// Bytes available.
        available: usize,
    },
    /// The matrix and accumulator could not be placed in disjoint banks.
    BankConflict,
}

impl std::fmt::Display for SramError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SramError::Capacity {
                requested,
                available,
            } => write!(
                f,
                "SRAM capacity exceeded: need {requested} B, have {available} B"
            ),
            SramError::BankConflict => write!(f, "cannot separate fmac operands into banks"),
        }
    }
}

impl std::error::Error for SramError {}

/// Pad to the 64-bit port width.
fn pad8(bytes: usize) -> usize {
    bytes.div_ceil(8) * 8
}

/// SRAM planner for one PE.
pub struct SramPlanner<'a> {
    cfg: &'a Cs2Config,
    cursor: usize,
    plan: SramPlan,
}

impl<'a> SramPlanner<'a> {
    /// Start a plan that may use all SRAM minus the runtime reservation.
    pub fn new(cfg: &'a Cs2Config) -> Self {
        Self {
            cfg,
            cursor: 0,
            plan: SramPlan::default(),
        }
    }

    /// Bytes still available.
    pub fn remaining(&self) -> usize {
        self.cfg
            .sram_bytes
            .saturating_sub(self.cfg.runtime_reserved_bytes)
            .saturating_sub(self.cursor)
    }

    /// Place one array; fails if capacity is exhausted.
    pub fn place(&mut self, name: &str, bytes: usize) -> Result<(), SramError> {
        let padded = pad8(bytes);
        if padded > self.remaining() {
            return Err(SramError::Capacity {
                requested: self.cursor + padded,
                available: self.cfg.sram_bytes - self.cfg.runtime_reserved_bytes,
            });
        }
        let bank = self.cfg.bank_bytes();
        let placed = Placed {
            name: name.to_string(),
            offset: self.cursor,
            bytes: padded,
            first_bank: self.cursor / bank,
            last_bank: if padded == 0 {
                self.cursor / bank
            } else {
                (self.cursor + padded - 1) / bank
            },
        };
        self.cursor += padded;
        self.plan.used_bytes = self.cursor;
        self.plan.arrays.push(placed);
        Ok(())
    }

    /// Finish and return the plan.
    pub fn finish(self) -> SramPlan {
        self.plan
    }
}

impl SramPlan {
    /// `true` when the named arrays share no bank — the condition for the
    /// dual-read fmac to sustain 1 fmac/cycle.
    pub fn banks_disjoint(&self, a: &str, b: &str) -> bool {
        let fa = self.arrays.iter().find(|p| p.name == a);
        let fb = self.arrays.iter().find(|p| p.name == b);
        match (fa, fb) {
            (Some(pa), Some(pb)) => pa.last_bank < pb.first_bank || pb.last_bank < pa.first_bank,
            _ => false,
        }
    }
}

/// Plan the SRAM of one strategy-1 PE: the four real base matrices
/// (`V_re/V_im/U_re/U_im`) are placed against the bases budget; the split
/// input/intermediate/output vectors, their double buffers, and code live
/// in the runtime reservation (which is why the budget is ~25.8 kB of the
/// 48 kB — see [`Cs2Config::runtime_reserved_bytes`]).
pub fn plan_strategy1_pe(
    cfg: &Cs2Config,
    nb: usize,
    cl: usize,
    w: usize,
) -> Result<SramPlan, SramError> {
    let mut p = SramPlanner::new(cfg);
    p.place("V_re", 4 * cl * w)?;
    p.place("V_im", 4 * cl * w)?;
    p.place("U_re", 4 * nb * w)?;
    p.place("U_im", 4 * nb * w)?;
    Ok(p.finish())
}

/// Bytes of the per-PE working vectors (outside the bases budget).
pub fn strategy1_vector_bytes(nb: usize, cl: usize, w: usize) -> usize {
    // x_re/x_im, yv_re/yv_im, y_re/y_im (double-buffered y).
    2 * 4 * cl + 2 * 4 * w + 2 * 2 * 4 * nb
}

/// Bytes of one strategy-1 chunk's full SRAM image: the four real bases
/// [`plan_strategy1_pe`] places plus the split `x`, `yv` and `y` vectors
/// (`cl`, `w` and `nb` elements), each array padded to the port width.
/// The static verifier bounds it against the whole PE SRAM (WV05).
pub fn strategy1_image_bytes(nb: usize, cl: usize, w: usize) -> usize {
    2 * [cl * w, nb * w, cl, w, nb]
        .into_iter()
        .map(|elems| pad8(4 * elems))
        .sum::<usize>()
}

/// Plan the SRAM of one strategy-2 PE: a single real base matrix plus its
/// vectors (the eight MVMs of a chunk are scattered over eight such PEs).
pub fn plan_strategy2_pe(cfg: &Cs2Config, m: usize, n: usize) -> Result<SramPlan, SramError> {
    let mut p = SramPlanner::new(cfg);
    p.place("A", 4 * m * n)?;
    p.place("x", 4 * n)?;
    p.place("y", 4 * m)?;
    Ok(p.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_stack_widths_fit_strategy1() {
        let cfg = Cs2Config::default();
        for (nb, w) in [(25usize, 64usize), (50, 32), (70, 23)] {
            let plan = plan_strategy1_pe(&cfg, nb, nb, w).unwrap();
            assert!(
                plan.used_bytes <= cfg.bases_budget_bytes(),
                "nb={nb} w={w}: {} B",
                plan.used_bytes
            );
            // The working vectors must fit the runtime reservation with
            // ample slack for code.
            assert!(strategy1_vector_bytes(nb, nb, w) + 8 * 1024 <= cfg.runtime_reserved_bytes);
        }
    }

    #[test]
    fn oversized_stack_width_rejected() {
        let cfg = Cs2Config::default();
        // One step beyond the paper's stack width must exceed the budget.
        assert!(plan_strategy1_pe(&cfg, 70, 70, 24).is_err());
        assert!(plan_strategy1_pe(&cfg, 70, 70, 40).is_err());
        assert!(plan_strategy1_pe(&cfg, 25, 25, 200).is_err());
    }

    #[test]
    fn chunk_images_at_the_table2_shapes_are_pinned() {
        let cfg = Cs2Config::default();
        for (nb, w, bytes) in [
            (25usize, 64usize, 26_528usize),
            (50, 32, 26_656),
            (70, 23, 27_072),
            (50, 18, 15_344),
            (70, 14, 16_912),
        ] {
            let image = strategy1_image_bytes(nb, nb, w);
            assert_eq!(image, bytes, "nb={nb} w={w}");
            assert!(image <= cfg.sram_bytes, "nb={nb} w={w}: {image} B");
        }
    }

    #[test]
    fn placement_is_contiguous_and_padded() {
        let cfg = Cs2Config::default();
        let mut p = SramPlanner::new(&cfg);
        p.place("a", 10).unwrap(); // pads to 16
        p.place("b", 8).unwrap();
        let plan = p.finish();
        assert_eq!(plan.arrays[0].bytes, 16);
        assert_eq!(plan.arrays[1].offset, 16);
        assert_eq!(plan.used_bytes, 24);
    }

    #[test]
    fn bank_disjointness_detected() {
        let cfg = Cs2Config::default();
        let mut p = SramPlanner::new(&cfg);
        p.place("m", 6 * 1024).unwrap(); // fills bank 0
        p.place("y", 128).unwrap(); // starts in bank 1
        let plan = p.finish();
        assert!(plan.banks_disjoint("m", "y"));
        assert!(!plan.banks_disjoint("m", "missing"));
    }

    #[test]
    fn strategy2_footprint_is_smaller() {
        let cfg = Cs2Config::default();
        let s1 = plan_strategy1_pe(&cfg, 50, 50, 32).unwrap();
        let s2 = plan_strategy2_pe(&cfg, 50, 32).unwrap();
        assert!(s2.used_bytes * 4 < s1.used_bytes * 2);
    }
}
