//! Distance-aware station reorderings and locality metrics.

use crate::curves::{gilbert_order, hilbert_xy2d, morton_encode, order_for};
use crate::grid::StationGrid;

/// Station ordering strategy for the rows/columns of frequency matrices.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ordering {
    /// Acquisition (inline-fastest) order — the paper's poorly-compressing
    /// baseline.
    Natural,
    /// Hilbert space-filling curve — the paper's best-compressing choice.
    Hilbert,
    /// Morton (Z-order) curve — the weaker space-filling baseline.
    Morton,
    /// Deterministic pseudo-random shuffle — the locality *anti*-baseline
    /// (what TLR compression looks like with no spatial coherence at all).
    Random,
    /// Generalized Hilbert curve on the exact rectangle (no power-of-two
    /// embedding) — Hilbert-grade locality on grids like 217 × 120.
    GilbertRect,
}

impl Ordering {
    /// All orderings, for sweeps.
    pub const ALL: [Ordering; 5] = [
        Ordering::Natural,
        Ordering::Hilbert,
        Ordering::Morton,
        Ordering::Random,
        Ordering::GilbertRect,
    ];
}

/// SplitMix64 for the deterministic shuffle (no RNG dependency).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Permutation mapping new index → original (natural) station index.
///
/// Applying it to a frequency matrix means
/// `K_reordered[i, j] = K[perm_rows[i], perm_cols[j]]`.
#[derive(Clone, Debug, PartialEq)]
pub struct Permutation {
    /// `forward[new] = old`.
    pub forward: Vec<usize>,
    /// `inverse[old] = new`.
    pub inverse: Vec<usize>,
}

impl Permutation {
    /// Identity permutation of length `n`.
    pub fn identity(n: usize) -> Self {
        let forward: Vec<usize> = (0..n).collect();
        Self {
            inverse: forward.clone(),
            forward,
        }
    }

    /// Build from a forward map (`forward[new] = old`); panics if it is not
    /// a bijection.
    pub fn from_forward(forward: Vec<usize>) -> Self {
        let n = forward.len();
        let mut inverse = vec![usize::MAX; n];
        for (new, &old) in forward.iter().enumerate() {
            assert!(old < n && inverse[old] == usize::MAX, "not a permutation");
            inverse[old] = new;
        }
        Self { forward, inverse }
    }

    /// Length of the permuted index set.
    pub fn len(&self) -> usize {
        self.forward.len()
    }

    /// `true` for the empty permutation.
    pub fn is_empty(&self) -> bool {
        self.forward.is_empty()
    }

    /// Apply to a data vector: `out[new] = data[forward[new]]`.
    pub fn apply<T: Copy>(&self, data: &[T]) -> Vec<T> {
        assert_eq!(data.len(), self.len());
        self.forward.iter().map(|&old| data[old]).collect()
    }

    /// Undo: `out[old] = data[inverse[old]]`.
    pub fn unapply<T: Copy>(&self, data: &[T]) -> Vec<T> {
        assert_eq!(data.len(), self.len());
        self.inverse.iter().map(|&new| data[new]).collect()
    }
}

/// Compute the station permutation for an ordering strategy.
pub fn station_permutation(grid: &StationGrid, ordering: Ordering) -> Permutation {
    let n = grid.len();
    match ordering {
        Ordering::Natural => Permutation::identity(n),
        Ordering::Hilbert => {
            let order = order_for(grid.nx, grid.ny);
            let mut keyed: Vec<(u64, usize)> = (0..n)
                .map(|k| {
                    let (ix, iy) = grid.indices(k);
                    (hilbert_xy2d(order, ix as u64, iy as u64), k)
                })
                .collect();
            keyed.sort_unstable();
            Permutation::from_forward(keyed.into_iter().map(|(_, k)| k).collect())
        }
        Ordering::Morton => {
            let mut keyed: Vec<(u64, usize)> = (0..n)
                .map(|k| {
                    let (ix, iy) = grid.indices(k);
                    (morton_encode(ix as u64, iy as u64), k)
                })
                .collect();
            keyed.sort_unstable();
            Permutation::from_forward(keyed.into_iter().map(|(_, k)| k).collect())
        }
        Ordering::GilbertRect => {
            let seq = gilbert_order(grid.nx, grid.ny);
            let forward: Vec<usize> = seq
                .into_iter()
                .map(|(ix, iy)| iy as usize * grid.nx + ix as usize)
                .collect();
            Permutation::from_forward(forward)
        }
        Ordering::Random => {
            // Fisher-Yates with a SplitMix64 stream, fixed seed for
            // reproducibility.
            let mut forward: Vec<usize> = (0..n).collect();
            let mut state = 0x5eed_0000_dead_beefu64 ^ n as u64;
            for i in (1..n).rev() {
                state = splitmix64(state);
                let j = (state % (i as u64 + 1)) as usize;
                forward.swap(i, j);
            }
            Permutation::from_forward(forward)
        }
    }
}

/// Mean spatial diameter of consecutive index blocks of size `block` —
/// the locality statistic that predicts tile ranks: smaller block diameter
/// ⇒ tighter station clusters per tile ⇒ lower rank.
pub fn mean_block_diameter(grid: &StationGrid, perm: &Permutation, block: usize) -> f64 {
    let n = grid.len();
    assert!(block > 0);
    let positions: Vec<_> = perm.forward.iter().map(|&k| grid.position(k)).collect();
    let mut total = 0.0;
    let mut blocks = 0usize;
    let mut start = 0;
    while start < n {
        let end = (start + block).min(n);
        let mut diam = 0.0f64;
        for i in start..end {
            for j in i + 1..end {
                diam = diam.max(positions[i].hdist(&positions[j]));
            }
        }
        total += diam;
        blocks += 1;
        start = end;
    }
    if blocks == 0 {
        0.0
    } else {
        total / blocks as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(nx: usize, ny: usize) -> StationGrid {
        StationGrid {
            nx,
            ny,
            dx: 20.0,
            dy: 20.0,
            x0: 0.0,
            y0: 0.0,
            depth: 0.0,
        }
    }

    #[test]
    fn permutation_roundtrip() {
        let p = Permutation::from_forward(vec![3, 1, 0, 2]);
        let data = vec![10, 11, 12, 13];
        let fwd = p.apply(&data);
        assert_eq!(fwd, vec![13, 11, 10, 12]);
        assert_eq!(p.unapply(&fwd), data);
    }

    #[test]
    #[should_panic]
    fn non_bijection_rejected() {
        let _ = Permutation::from_forward(vec![0, 0, 1]);
    }

    #[test]
    fn all_orderings_are_permutations() {
        let g = grid(13, 9); // deliberately not powers of two
        for ord in Ordering::ALL {
            let p = station_permutation(&g, ord);
            assert_eq!(p.len(), g.len());
            let mut sorted = p.forward.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..g.len()).collect::<Vec<_>>());
        }
    }

    #[test]
    fn gilbert_locality_comparable_to_hilbert() {
        // On the paper-like rectangle, the rectangle-exact curve should
        // match or beat the square-embedded Hilbert sort.
        let g = grid(54, 30); // 217x120 / 4
        let hil = station_permutation(&g, Ordering::Hilbert);
        let gil = station_permutation(&g, Ordering::GilbertRect);
        let block = 70;
        let d_hil = mean_block_diameter(&g, &hil, block);
        let d_gil = mean_block_diameter(&g, &gil, block);
        assert!(
            d_gil <= d_hil * 1.15,
            "gilbert {d_gil} should be within 15% of hilbert {d_hil}"
        );
    }

    #[test]
    fn random_has_worst_locality() {
        let g = grid(32, 32);
        let hil = station_permutation(&g, Ordering::Hilbert);
        let rnd = station_permutation(&g, Ordering::Random);
        let block = 64;
        let d_hil = mean_block_diameter(&g, &hil, block);
        let d_rnd = mean_block_diameter(&g, &rnd, block);
        assert!(d_rnd > 2.0 * d_hil, "random {d_rnd} vs hilbert {d_hil}");
        // Deterministic.
        let rnd2 = station_permutation(&g, Ordering::Random);
        assert_eq!(rnd, rnd2);
    }

    #[test]
    fn hilbert_beats_natural_locality() {
        let g = grid(32, 32);
        let nat = station_permutation(&g, Ordering::Natural);
        let hil = station_permutation(&g, Ordering::Hilbert);
        let block = 64;
        let d_nat = mean_block_diameter(&g, &nat, block);
        let d_hil = mean_block_diameter(&g, &hil, block);
        // 64 consecutive natural stations form a 64x1 strip (~1260 m);
        // 64 consecutive Hilbert stations form an 8x8 patch (~200 m).
        assert!(
            d_hil < 0.5 * d_nat,
            "hilbert {d_hil} should beat natural {d_nat}"
        );
    }

    #[test]
    fn hilbert_beats_or_ties_morton() {
        let g = grid(64, 64);
        let hil = station_permutation(&g, Ordering::Hilbert);
        let mor = station_permutation(&g, Ordering::Morton);
        let block = 70; // the paper's nb
        let d_hil = mean_block_diameter(&g, &hil, block);
        let d_mor = mean_block_diameter(&g, &mor, block);
        assert!(d_hil <= d_mor * 1.05, "hilbert {d_hil} vs morton {d_mor}");
    }

    #[test]
    fn rectangular_grid_hilbert_covers_all() {
        let g = grid(21, 7);
        let p = station_permutation(&g, Ordering::Hilbert);
        assert_eq!(p.len(), 147);
        // inverse consistency
        for new in 0..p.len() {
            assert_eq!(p.inverse[p.forward[new]], new);
        }
    }

    #[test]
    fn block_diameter_identity_blocks() {
        let g = grid(4, 1);
        let p = Permutation::identity(4);
        // blocks of 2: diameters 20, 20 -> mean 20
        assert!((mean_block_diameter(&g, &p, 2) - 20.0).abs() < 1e-12);
        // block of 4: diameter 60
        assert!((mean_block_diameter(&g, &p, 4) - 60.0).abs() < 1e-12);
    }
}
