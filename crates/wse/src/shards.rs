//! Explicit shard assignment: distribute rank chunks over CS-2 systems
//! with load balancing, and report per-shard statistics — the §6.5 "six
//! shards … evenly distributed workloads as much as possible".

use seismic_la::scalar::exactly_zero_f64;
use tlr_mvm::cast::{to_u64, to_usize, u64_to_f64, usize_to_f64};

use crate::cycles::{pe_cost, strategy1_tasks};
use crate::machine::Cluster;
use crate::placement::Strategy;
use crate::workload::Workload;

/// Statistics of one shard (one CS-2 system).
#[derive(Clone, Copy, Debug, Default)]
pub struct ShardStats {
    /// PEs occupied on this system.
    pub pes_used: u64,
    /// Worst per-PE cycle count on this system.
    pub worst_cycles: u64,
    /// Total flops assigned to this system.
    pub flops: u64,
    /// Total relative bytes assigned.
    pub relative_bytes: u64,
}

/// A full shard assignment.
#[derive(Clone, Debug)]
pub struct ShardAssignment {
    /// Per-shard statistics.
    pub shards: Vec<ShardStats>,
    /// Stack width used.
    pub stack_width: usize,
    /// Strategy used.
    pub strategy: Strategy,
}

impl ShardAssignment {
    /// Worst cycle count across all shards (the paper's timing metric).
    pub fn worst_cycles(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.worst_cycles)
            .max()
            .unwrap_or(0)
    }

    /// Flop imbalance: `max_shard_flops / mean_shard_flops` (1.0 = perfect).
    pub fn flop_imbalance(&self) -> f64 {
        let max = u64_to_f64(self.shards.iter().map(|s| s.flops).max().unwrap_or(0));
        let total: u64 = self.shards.iter().map(|s| s.flops).sum();
        let mean = u64_to_f64(total) / usize_to_f64(self.shards.len().max(1));
        if exactly_zero_f64(mean) {
            1.0
        } else {
            max / mean
        }
    }

    /// PE-count imbalance across shards.
    pub fn pe_imbalance(&self) -> f64 {
        let max = u64_to_f64(self.shards.iter().map(|s| s.pes_used).max().unwrap_or(0));
        let total: u64 = self.shards.iter().map(|s| s.pes_used).sum();
        let mean = u64_to_f64(total) / usize_to_f64(self.shards.len().max(1));
        if exactly_zero_f64(mean) {
            1.0
        } else {
            max / mean
        }
    }
}

/// Number of chunks (out of `count` interchangeable ones) that shard
/// `idx` of `n` receives under the even base-plus-remainder split used
/// by [`assign_shards`]: `⌊count/n⌋` each, with the first `count mod n`
/// shards taking one extra.
fn shard_share(count: u64, idx: usize, n: usize) -> u64 {
    let n64 = to_u64(n.max(1));
    let base = count / n64;
    let rem = to_usize(count % n64);
    base + u64::from(idx < rem)
}

/// Assign chunks to shards round-robin over the chunk-shape census
/// (chunks of the same shape are interchangeable, so the census is
/// assigned proportionally — the same result as the paper's even split of
/// the stacked bases, without materializing millions of chunk objects).
pub fn assign_shards(
    workload: &Workload,
    stack_width: usize,
    strategy: Strategy,
    cluster: &Cluster,
) -> ShardAssignment {
    let n = cluster.systems.max(1);
    let mut shards = vec![ShardStats::default(); n];
    let cfg = &cluster.cs2;
    let nb = workload.nb;
    let pes_per_chunk: u64 = match strategy {
        Strategy::FusedSinglePe => 1,
        Strategy::ScatterEightPes => 8,
    };

    for (&(cl, w), &count) in &workload.chunk_census(stack_width) {
        let tasks = strategy1_tasks(nb, cl, w);
        let full_cost = pe_cost(&tasks, cfg, true);
        let per_pe_cycles = match strategy {
            Strategy::FusedSinglePe => full_cost.cycles,
            Strategy::ScatterEightPes => {
                tasks.iter().map(|t| t.cycles(cfg, true)).max().unwrap_or(0)
            }
        };
        // Spread `count` chunks of this shape evenly: base + remainder.
        for (idx, shard) in shards.iter_mut().enumerate() {
            let c = shard_share(count, idx, n);
            if c == 0 {
                continue;
            }
            shard.pes_used += c * pes_per_chunk;
            shard.worst_cycles = shard.worst_cycles.max(per_pe_cycles);
            shard.flops += c * full_cost.flops;
            shard.relative_bytes += c * full_cost.relative_bytes;
        }
    }

    ShardAssignment {
        shards,
        stack_width,
        strategy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Cs2Config;
    use crate::placement::place;
    use crate::workload::{choose_stack_width, RankModel};

    #[test]
    fn shard_totals_match_global_placement() {
        let w = RankModel::paper(70, 1e-4).unwrap().generate();
        let cluster = Cluster::new(6);
        let cfg = Cs2Config::default();
        let sw = choose_stack_width(&w, cluster.total_pes() as u64, cfg.max_stack_width(70));
        let global = place(&w, sw, Strategy::FusedSinglePe, &cluster).unwrap();
        let assign = assign_shards(&w, sw, Strategy::FusedSinglePe, &cluster);
        let total_pes: u64 = assign.shards.iter().map(|s| s.pes_used).sum();
        assert_eq!(total_pes, global.pes_used);
        let total_flops: u64 = assign.shards.iter().map(|s| s.flops).sum();
        assert_eq!(total_flops, global.flops);
        assert_eq!(assign.worst_cycles(), global.worst_cycles);
    }

    #[test]
    fn balanced_within_a_fraction_of_a_percent() {
        let w = RankModel::paper(25, 1e-4).unwrap().generate();
        let cluster = Cluster::new(6);
        let assign = assign_shards(&w, 64, Strategy::FusedSinglePe, &cluster);
        assert!(
            assign.flop_imbalance() < 1.001,
            "{}",
            assign.flop_imbalance()
        );
        assert!(assign.pe_imbalance() < 1.001);
        // No shard exceeds its wafer.
        for s in &assign.shards {
            assert!(s.pes_used <= cluster.cs2.usable_pes() as u64);
        }
    }

    #[test]
    fn shard_share_conserves_and_balances() {
        for (count, n) in [(0u64, 6usize), (5, 6), (6, 6), (1_000_003, 48), (7, 1)] {
            let total: u64 = (0..n).map(|i| shard_share(count, i, n)).sum();
            assert_eq!(total, count, "count={count} n={n}");
            let shares: Vec<u64> = (0..n).map(|i| shard_share(count, i, n)).collect();
            let (min, max) = (shares.iter().min().unwrap(), shares.iter().max().unwrap());
            assert!(max - min <= 1, "shares differ by >1: {shares:?}");
        }
    }

    #[test]
    fn strategy2_uses_8x_pes_per_shard() {
        let w = RankModel::paper(50, 3e-4).unwrap().generate();
        let cluster = Cluster::new(48);
        let s1 = assign_shards(&w, 18, Strategy::FusedSinglePe, &cluster);
        let s2 = assign_shards(&w, 18, Strategy::ScatterEightPes, &cluster);
        let p1: u64 = s1.shards.iter().map(|s| s.pes_used).sum();
        let p2: u64 = s2.shards.iter().map(|s| s.pes_used).sum();
        assert_eq!(p2, 8 * p1);
    }
}
