//! Property-based tests for the WSE simulator: census conservation,
//! stack-width selection, placement monotonicity, and `place` refusing
//! what it cannot place without panicking.

use proptest::prelude::*;
use wse_sim::{
    assign_shards, choose_stack_width, place, Cluster, Cs2Config, RankModel,
    Strategy as WseStrategy, Workload,
};

/// Small synthetic workloads with arbitrary rank patterns.
fn arb_workload() -> impl Strategy<Value = Workload> {
    (2usize..30, 1usize..12, 4usize..32, 0u64..1000).prop_map(|(cols, freqs, nb, seed)| {
        let col_widths: Vec<usize> = (0..cols)
            .map(|j| {
                if j == cols - 1 {
                    1 + (seed as usize + j) % nb
                } else {
                    nb
                }
            })
            .collect();
        let col_ranks: Vec<u64> = (0..cols * freqs)
            .map(|i| (seed ^ (i as u64).wrapping_mul(0x9e37_79b9)) % 50)
            .collect();
        Workload {
            nb,
            n_freqs: freqs,
            cols_per_freq: cols,
            col_widths,
            col_ranks,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The chunk census conserves total rank and chunk count for every
    /// stack width.
    #[test]
    fn census_conserves(w in arb_workload(), sw in 1usize..64) {
        let census = w.chunk_census(sw);
        let count: u64 = census.values().sum();
        prop_assert_eq!(count, w.chunk_count(sw));
        let rank: u64 = census.iter().map(|(&(_, wd), &c)| wd as u64 * c).sum();
        prop_assert_eq!(rank, w.total_rank());
        // No chunk exceeds the stack width.
        for &(_, wd) in census.keys() {
            prop_assert!(wd >= 1 && wd <= sw);
        }
    }

    /// Chunk count is non-increasing in the stack width.
    #[test]
    fn chunk_count_monotone(w in arb_workload(), sw in 1usize..40) {
        prop_assert!(w.chunk_count(sw + 1) <= w.chunk_count(sw));
    }

    /// choose_stack_width returns a feasible width whenever one exists,
    /// and the next-smaller width is infeasible (tightest fit).
    #[test]
    fn stack_width_choice_tight(w in arb_workload(), pes in 1u64..20_000, wmax in 2usize..64) {
        let chosen = choose_stack_width(&w, pes, wmax);
        prop_assert!(chosen >= 1 && chosen <= wmax);
        if w.chunk_count(wmax) <= pes {
            prop_assert!(w.chunk_count(chosen) <= pes);
            if chosen > 1 {
                prop_assert!(w.chunk_count(chosen - 1) > pes);
            }
        } else {
            prop_assert_eq!(chosen, wmax);
        }
    }

    /// Placement metrics are internally consistent and scale correctly
    /// from strategy 1 to strategy 2.
    #[test]
    fn placement_consistency(w in arb_workload(), sw in 1usize..24) {
        let cluster = Cluster::new(2);
        let cfg = Cs2Config::default();
        let sw = sw.min(cfg.max_stack_width(w.nb));
        if let Ok(r1) = place(&w, sw, WseStrategy::FusedSinglePe, &cluster) {
            prop_assert_eq!(r1.pes_used, w.chunk_count(sw));
            prop_assert!(r1.occupancy <= 1.0);
            prop_assert!((r1.relative_bw - r1.relative_bytes as f64 / r1.time_s).abs()
                <= 1e-6 * r1.relative_bw.max(1.0));
            if let Ok(r2) = place(&w, sw, WseStrategy::ScatterEightPes, &cluster) {
                prop_assert_eq!(r2.pes_used, 8 * r1.pes_used);
                // Same total flops either way.
                prop_assert_eq!(r2.flops, r1.flops);
                // Strategy 2 is never slower per PE.
                prop_assert!(r2.worst_cycles <= r1.worst_cycles);
            }
        }
    }

    /// Shard assignment conserves totals and balances PEs.
    #[test]
    fn shard_conservation(w in arb_workload(), sw in 1usize..24, systems in 1usize..8) {
        let cluster = Cluster::new(systems);
        let assign = assign_shards(&w, sw, WseStrategy::FusedSinglePe, &cluster);
        let total: u64 = assign.shards.iter().map(|s| s.pes_used).sum();
        prop_assert_eq!(total, w.chunk_count(sw));
        if total > 0 {
            // Round-robin balance: shards differ by at most the number of
            // distinct chunk shapes.
            let census = w.chunk_census(sw);
            let max = assign.shards.iter().map(|s| s.pes_used).max().unwrap();
            let min = assign.shards.iter().map(|s| s.pes_used).min().unwrap();
            prop_assert!(max - min <= census.len() as u64);
        }
    }

    /// `place` is the plan check: on any workload, stack width (0
    /// included) and cluster size (none included) it returns a report
    /// with finite rates or a typed error, and never panics.
    #[test]
    fn place_never_panics(
        w in arb_workload(),
        sw in 0usize..96,
        systems in 0usize..8,
        scatter in proptest::bool::ANY,
    ) {
        let cluster = Cluster::new(systems);
        let strategy = if scatter {
            WseStrategy::ScatterEightPes
        } else {
            WseStrategy::FusedSinglePe
        };
        if let Ok(r) = place(&w, sw, strategy, &cluster) {
            prop_assert!(r.pes_used >= 1 && r.pes_used <= r.pes_available);
            for rate in [r.occupancy, r.time_s, r.relative_bw, r.absolute_bw, r.flops_per_s] {
                prop_assert!(rate.is_finite() && rate > 0.0, "{:?}", r);
            }
        }
    }

    /// The paper-scale rank model hits its calibration target for every
    /// known configuration.
    #[test]
    fn rank_model_calibration(idx in 0usize..5) {
        let configs = [(25usize, 1e-4f32), (50, 1e-4), (70, 1e-4), (50, 3e-4), (70, 3e-4)];
        let (nb, acc) = configs[idx];
        let model = RankModel::paper(nb, acc).unwrap();
        let w = model.generate();
        let rel = (w.total_rank() as f64 - model.total_rank_target as f64).abs()
            / model.total_rank_target as f64;
        prop_assert!(rel < 0.01);
    }
}
