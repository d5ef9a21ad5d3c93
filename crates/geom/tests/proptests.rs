//! Property-based tests for grids, curves, and reorderings.

use proptest::prelude::*;
use seismic_geom::{
    gilbert_order, hilbert_d2xy, hilbert_xy2d, mean_block_diameter, morton_decode, morton_encode,
    station_permutation, Ordering, StationGrid,
};

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

fn check_gilbert_hamiltonian_path(nx: usize, ny: usize) -> Result<(), TestCaseError> {
    let order = gilbert_order(nx, ny);
    prop_assert_eq!(order.len(), nx * ny);
    let mut seen = vec![false; nx * ny];
    for &(x, y) in &order {
        let idx = y as usize * nx + x as usize;
        prop_assert!((x as usize) < nx && (y as usize) < ny);
        prop_assert!(!seen[idx]);
        seen[idx] = true;
    }
    // Unit king-moves throughout; the construction allows at most a
    // couple of diagonal steps on odd-dimension rectangles.
    let mut diagonals = 0usize;
    for w in order.windows(2) {
        let dx = (w[0].0 as i64 - w[1].0 as i64).abs();
        let dy = (w[0].1 as i64 - w[1].1 as i64).abs();
        prop_assert!(dx.max(dy) == 1, "jump from {:?} to {:?}", w[0], w[1]);
        if dx + dy == 2 {
            diagonals += 1;
        }
    }
    prop_assert!(diagonals <= 2, "{diagonals} diagonal steps");
    Ok(())
}

fn check_orderings_are_bijections(nx: usize, ny: usize) -> Result<(), TestCaseError> {
    let g = grid(nx, ny);
    let data: Vec<u32> = (0..g.len() as u32).collect();
    for ord in Ordering::ALL {
        let p = station_permutation(&g, ord);
        let mut sorted = p.forward.clone();
        sorted.sort_unstable();
        prop_assert_eq!(&sorted, &(0..g.len()).collect::<Vec<_>>());
        let round = p.unapply(&p.apply(&data));
        prop_assert_eq!(&round, &data);
    }
    Ok(())
}

/// A failure proptest once shrank to this grid; the seeded cases draw it
/// about one run in seven, so it is held here.
#[test]
fn the_6_by_13_grid_that_once_failed_still_passes() {
    check_gilbert_hamiltonian_path(6, 13).expect("gilbert at 6 x 13");
    check_orderings_are_bijections(6, 13).expect("orderings at 6 x 13");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Hilbert d→xy→d round trip at arbitrary orders.
    #[test]
    fn hilbert_roundtrip(order in 1u32..8, d_frac in 0.0f64..1.0) {
        let n = 1u64 << order;
        let d = (d_frac * (n * n - 1) as f64) as u64;
        let (x, y) = hilbert_d2xy(order, d);
        prop_assert!(x < n && y < n);
        prop_assert_eq!(hilbert_xy2d(order, x, y), d);
    }

    /// Morton encode/decode round trip over the full u32 coordinate range.
    #[test]
    fn morton_roundtrip(x in 0u64..u32::MAX as u64, y in 0u64..u32::MAX as u64) {
        prop_assert_eq!(morton_decode(morton_encode(x, y)), (x, y));
    }

    /// Gilbert visits every cell of arbitrary rectangles exactly once,
    /// with unit steps.
    #[test]
    fn gilbert_hamiltonian_path(nx in 1usize..40, ny in 1usize..40) {
        check_gilbert_hamiltonian_path(nx, ny)?;
    }

    /// Every ordering yields a valid permutation on arbitrary grids, and
    /// apply/unapply round-trip.
    #[test]
    fn orderings_are_bijections(nx in 1usize..30, ny in 1usize..30) {
        check_orderings_are_bijections(nx, ny)?;
    }

    /// Space-filling curves never have worse block locality than the
    /// random shuffle on square-ish grids.
    #[test]
    fn curves_beat_random_locality(side in 8usize..24) {
        let g = grid(side, side);
        let block = (side * side / 8).max(4);
        let d_rand = mean_block_diameter(&g, &station_permutation(&g, Ordering::Random), block);
        for ord in [Ordering::Hilbert, Ordering::Morton, Ordering::GilbertRect] {
            let d = mean_block_diameter(&g, &station_permutation(&g, ord), block);
            prop_assert!(d <= d_rand * 1.05, "{ord:?}: {d} vs random {d_rand}");
        }
    }
}
