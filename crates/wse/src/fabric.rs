//! The 2D fabric interconnect (§5.2): routers move data between PEs "at
//! the same rate as the SRAM memory although at a higher latency".
//!
//! The communication-avoiding layout needs the fabric only to (a)
//! broadcast each tile column's `x_j` segment to the PEs holding its
//! chunks before the kernel, and (b) drain the partial `y` vectors to the
//! wafer edge afterwards — no PE-to-PE traffic during the kernel. This
//! module counts the bytes each PE injects onto its links in those
//! phases, which the atlas's link grids are built from.

use tlr_mvm::precision::to_u64;

/// Per-chunk-slot link-byte injection under the comm-avoiding layout
/// (and the V/U plumbing shared by both layouts): what one PE *injects*
/// onto each of its four mesh links for one chunk, in bytes. The atlas's
/// link grids are built from these; their totals are the fabric-side
/// face of the §6.6 byte accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkBytes {
    /// North link: split-complex `x_j` segment arriving from the
    /// broadcast spine.
    pub north: u64,
    /// South link: split partial `y` leaving toward the drain edge.
    pub south: u64,
    /// East link: intra-fabric shuffle traffic (three-phase layout
    /// only — the traffic the comm-avoiding layout eliminates).
    pub east: u64,
    /// West link: reserved; always 0 in the current model (kept so the
    /// schema is direction-complete).
    pub west: u64,
}

/// Bytes one **fused** (strategy-1) PE injects per chunk: the split
/// `x_j` segment in from the north (`2·4·cl`), the split partial `y`
/// out to the south (`2·4·nb`). No east/west traffic — the
/// comm-avoiding kernel needs none (§6.5).
pub fn strategy1_link_bytes(nb: usize, cl: usize) -> LinkBytes {
    LinkBytes {
        north: 8 * to_u64(cl),
        south: 8 * to_u64(nb),
        east: 0,
        west: 0,
    }
}

/// Bytes one **scattered** (strategy-2) V-side PE injects per chunk:
/// each of the four V PEs receives the split `x_j` (a quarter of the
/// strategy-1 share on this accounting) and sends nothing south — its
/// `yv` hand-off to the U side is the chunk-internal shuffle, priced by
/// [`shuffle_chunk_bytes`] under the three-phase layout.
pub fn strategy2_v_link_bytes(cl: usize) -> LinkBytes {
    LinkBytes {
        north: 2 * to_u64(cl),
        south: 0,
        east: 0,
        west: 0,
    }
}

/// Bytes one **scattered** (strategy-2) U-side PE injects per chunk:
/// a quarter of the split partial `y` out to the south.
pub fn strategy2_u_link_bytes(nb: usize) -> LinkBytes {
    LinkBytes {
        north: 0,
        south: 2 * to_u64(nb),
        east: 0,
        west: 0,
    }
}

/// Shuffle-phase bytes one chunk of width `w` moves between the V and U
/// batches under the **three-phase** layout: the `yv` intermediate,
/// split-complex FP32 both read and written through the fabric —
/// `16·w` bytes, which summed over all chunks equals the §6.6
/// three-phase shuffle term `16·Σ rank` exactly (the reconciliation
/// the atlas tests assert). The comm-avoiding layout keeps `yv` in PE
/// SRAM, so this term is identically zero there.
pub fn shuffle_chunk_bytes(w: usize) -> u64 {
    16 * to_u64(w)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_byte_conventions() {
        // Fused PE: full split x in, full split y out, nothing lateral.
        let s1 = strategy1_link_bytes(70, 50);
        assert_eq!((s1.north, s1.south, s1.east, s1.west), (400, 560, 0, 0));
        // Scattered chunk: the 4 V + 4 U slots together move the same
        // north/south bytes as one fused PE.
        let v = strategy2_v_link_bytes(50);
        let u = strategy2_u_link_bytes(70);
        assert_eq!(4 * v.north + 4 * u.north, s1.north);
        assert_eq!(4 * v.south + 4 * u.south, s1.south);
        // Shuffle: split-complex yv through the fabric, 16 B per rank
        // column — the three-phase term the comm-avoiding layout drops.
        assert_eq!(shuffle_chunk_bytes(23), 16 * 23);
        assert_eq!(shuffle_chunk_bytes(0), 0);
    }
}
