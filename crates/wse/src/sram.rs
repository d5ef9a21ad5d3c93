//! Per-PE SRAM footprints of a chunk, in bytes, each array padded to the
//! 64-bit port width.
//!
//! A strategy-1 PE holds its chunk's four real base matrices in the bases
//! budget and its split working vectors, their double buffers and code in
//! the runtime reservation ([`Cs2Config::runtime_reserved_bytes`]); a
//! strategy-2 PE holds one real base matrix and its vectors. The §6.5 rule
//! that an fmac's two operands sit in disjoint banks is not planned here:
//! [`crate::cycles`]' one-fmac-per-cycle rate assumes it.
//!
//! [`Cs2Config::runtime_reserved_bytes`]: crate::machine::Cs2Config::runtime_reserved_bytes

/// Pad to the 64-bit port width.
fn pad8(bytes: usize) -> usize {
    bytes.div_ceil(8) * 8
}

/// Bytes of one strategy-1 PE's bases: `V_re`, `V_im` (`cl × w` each)
/// and `U_re`, `U_im` (`nb × w` each), against the bases budget.
pub fn strategy1_bases_bytes(nb: usize, cl: usize, w: usize) -> usize {
    2 * pad8(4 * cl * w) + 2 * pad8(4 * nb * w)
}

/// Bytes of one strategy-1 PE's working vectors (in the runtime
/// reservation).
pub fn strategy1_vector_bytes(nb: usize, cl: usize, w: usize) -> usize {
    // x_re/x_im, yv_re/yv_im, y_re/y_im (double-buffered y).
    2 * 4 * cl + 2 * 4 * w + 2 * 2 * 4 * nb
}

/// Bytes of one strategy-2 PE: a single real `m × n` base matrix plus
/// its `x` and `y` (the eight MVMs of a chunk are scattered over eight
/// such PEs), against the bases budget.
pub fn strategy2_pe_bytes(m: usize, n: usize) -> usize {
    pad8(4 * m * n) + pad8(4 * n) + pad8(4 * m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Cs2Config;

    #[test]
    fn paper_stack_widths_fit_strategy1() {
        let cfg = Cs2Config::default();
        for (nb, w) in [(25usize, 64usize), (50, 32), (70, 23)] {
            let bytes = strategy1_bases_bytes(nb, nb, w);
            assert!(
                bytes <= cfg.bases_budget_bytes(),
                "nb={nb} w={w}: {bytes} B"
            );
            // The working vectors must fit the runtime reservation with
            // ample slack for code.
            assert!(strategy1_vector_bytes(nb, nb, w) + 8 * 1024 <= cfg.runtime_reserved_bytes);
        }
    }

    #[test]
    fn oversized_stack_width_rejected() {
        let budget = Cs2Config::default().bases_budget_bytes();
        // One step beyond the paper's stack width must exceed the budget.
        assert!(strategy1_bases_bytes(70, 70, 24) > budget);
        assert!(strategy1_bases_bytes(70, 70, 40) > budget);
        assert!(strategy1_bases_bytes(25, 25, 200) > budget);
    }

    /// A strategy-1 chunk's bases and working vectors at the five Table 2
    /// shapes, and the whole image inside the PE beside the code.
    #[test]
    fn chunk_images_at_the_table2_shapes_are_pinned() {
        let cfg = Cs2Config::default();
        for (nb, w, bases, vectors) in [
            (25usize, 64usize, 25_600usize, 1_112usize),
            (50, 32, 25_600, 1_456),
            (70, 23, 25_760, 1_864),
            (50, 18, 14_400, 1_344),
            (70, 14, 15_680, 1_792),
        ] {
            let got = (
                strategy1_bases_bytes(nb, nb, w),
                strategy1_vector_bytes(nb, nb, w),
            );
            assert_eq!(got, (bases, vectors), "nb={nb} w={w}");
            assert!(bases + vectors + 8 * 1024 <= cfg.sram_bytes);
        }
    }

    #[test]
    fn placement_is_contiguous_and_padded() {
        // A 1 × 3 matrix: 12 B pads to 16, x (3 elements) to 16, y to 8.
        assert_eq!(strategy2_pe_bytes(1, 3), 40);
        // Two odd `cl · w` arrays pad by 4 B each; the `nb × w` ones not.
        assert_eq!(strategy1_bases_bytes(2, 3, 1), 2 * 16 + 2 * 8);
    }

    #[test]
    fn strategy2_footprint_is_smaller() {
        let s1 = strategy1_bases_bytes(50, 50, 32);
        let s2 = strategy2_pe_bytes(50, 32);
        assert!(s2 * 4 < s1 * 2);
    }
}
