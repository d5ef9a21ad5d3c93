//! Shard placement and aggregate bandwidth metrics.
//!
//! Workloads are embarrassingly parallel (§6.5): no communication between
//! PEs or systems, so aggregate sustained bandwidth is total bytes divided
//! by the worst per-PE time — exactly the paper's §7.3 metric.

use tlr_mvm::cast::{to_u64, u64_to_f64, usize_to_f64};
use tlr_mvm::json::Json;
use tlr_mvm::json_fields;

use crate::cycles::{pe_cost, strategy1_tasks, MvmTask};
use crate::machine::Cluster;
use crate::sram::{plan_strategy1_pe, plan_strategy2_pe};
use crate::workload::Workload;

/// The paper's two strong-scaling strategies (§6.7).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// Strategy 1: all eight real MVMs of a chunk on one PE.
    FusedSinglePe,
    /// Strategy 2: the eight MVMs scattered over eight PEs (replicated
    /// bases: 8× PE count, each PE holds one real base matrix).
    ScatterEightPes,
}

/// Placement failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlaceError {
    /// More work units than PEs across the cluster.
    NotEnoughPes {
        /// PEs required.
        required: u64,
        /// PEs available.
        available: u64,
    },
    /// A chunk does not fit in PE SRAM.
    SramOverflow(String),
}

impl std::fmt::Display for PlaceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlaceError::NotEnoughPes {
                required,
                available,
            } => write!(f, "placement needs {required} PEs, cluster has {available}"),
            PlaceError::SramOverflow(msg) => write!(f, "SRAM overflow: {msg}"),
        }
    }
}

impl std::error::Error for PlaceError {}

/// Aggregate metrics of a placed TLR-MVM workload.
#[derive(Clone, Copy, Debug)]
pub struct PlacementReport {
    /// Strategy used.
    pub strategy: Strategy,
    /// Number of CS-2 systems (shards).
    pub shards: usize,
    /// Stack width used for chunking.
    pub stack_width: usize,
    /// PEs carrying work.
    pub pes_used: u64,
    /// PEs available across the cluster.
    pub pes_available: u64,
    /// `pes_used / pes_available`.
    pub occupancy: f64,
    /// Worst per-PE cycle count (the paper's timing metric).
    pub worst_cycles: u64,
    /// Worst-PE time in seconds.
    pub time_s: f64,
    /// Total relative (cache-model) bytes.
    pub relative_bytes: u64,
    /// Total absolute (flat-SRAM) bytes.
    pub absolute_bytes: u64,
    /// Total real FP32 flops.
    pub flops: u64,
    /// Aggregate relative bandwidth (B/s).
    pub relative_bw: f64,
    /// Aggregate absolute bandwidth (B/s).
    pub absolute_bw: f64,
    /// Sustained flop rate (flop/s).
    pub flops_per_s: f64,
}

impl PlacementReport {
    /// The report as a [`Json`] object, one key per field.
    pub fn to_json(&self) -> Json {
        json_fields!(self;
            strategy => format!("{:?}", self.strategy).into(), shards, stack_width, pes_used,
            pes_available, occupancy, worst_cycles, time_s, relative_bytes, absolute_bytes, flops,
            relative_bw, absolute_bw, flops_per_s
        )
    }

    /// Relative bandwidth in PB/s.
    pub fn relative_pbs(&self) -> f64 {
        self.relative_bw / 1e15
    }

    /// Absolute bandwidth in PB/s.
    pub fn absolute_pbs(&self) -> f64 {
        self.absolute_bw / 1e15
    }

    /// Sustained PFlop/s.
    pub fn pflops(&self) -> f64 {
        self.flops_per_s / 1e15
    }
}

/// Per-PE resource quota for **one slot** of a chunk's placement: what a
/// single physical PE is charged when a chunk of some `(cl, w)` shape is
/// placed. [`place`] sums quotas into its aggregates.
#[derive(Clone, Copy)]
struct PeQuota {
    /// Modeled cycle count of this PE's program.
    cycles: u64,
    /// Real FP32 flops this PE executes.
    flops: u64,
    /// Relative (cache-model) bytes this PE moves.
    relative_bytes: u64,
    /// Absolute (flat-SRAM) bytes this PE moves.
    absolute_bytes: u64,
}

/// The per-PE quotas one chunk of shape `(cl, w)` occupies under a
/// strategy: one fused PE ([`Strategy::FusedSinglePe`]), or eight
/// scattered PEs — four V-side (`w × cl` dot-form) then four U-side
/// (`nb × w` axpy-form) — for [`Strategy::ScatterEightPes`]. SRAM
/// feasibility is checked with the per-PE SRAM planners.
fn shape_pe_quotas(
    nb: usize,
    cl: usize,
    w: usize,
    strategy: Strategy,
    cfg: &crate::machine::Cs2Config,
) -> Result<Vec<PeQuota>, PlaceError> {
    match strategy {
        Strategy::FusedSinglePe => {
            plan_strategy1_pe(cfg, nb, cl, w)
                .map_err(|e| PlaceError::SramOverflow(format!("cl={cl} w={w}: {e}")))?;
            let cost = pe_cost(&strategy1_tasks(nb, cl, w), cfg, true);
            Ok(vec![PeQuota {
                cycles: cost.cycles,
                flops: cost.flops,
                relative_bytes: cost.relative_bytes,
                absolute_bytes: cost.absolute_bytes,
            }])
        }
        Strategy::ScatterEightPes => {
            // Four PEs run the V-side MVM (w × cl, dot form), four the
            // U-side (nb × w, axpy form); each holds one real base
            // matrix.
            plan_strategy2_pe(cfg, w, cl)
                .map_err(|e| PlaceError::SramOverflow(format!("V cl={cl} w={w}: {e}")))?;
            plan_strategy2_pe(cfg, nb, w)
                .map_err(|e| PlaceError::SramOverflow(format!("U nb={nb} w={w}: {e}")))?;
            let vc = pe_cost(&[MvmTask::dot_form(w, cl)], cfg, true);
            let uc = pe_cost(&[MvmTask::axpy_form(nb, w)], cfg, true);
            let vq = PeQuota {
                cycles: vc.cycles,
                flops: vc.flops,
                relative_bytes: vc.relative_bytes,
                absolute_bytes: vc.absolute_bytes,
            };
            let uq = PeQuota {
                cycles: uc.cycles,
                flops: uc.flops,
                relative_bytes: uc.relative_bytes,
                absolute_bytes: uc.absolute_bytes,
            };
            Ok(vec![vq, vq, vq, vq, uq, uq, uq, uq])
        }
    }
}

/// Place a workload on a cluster at a given stack width and compute the
/// paper's metrics. SRAM feasibility is checked per chunk shape.
pub fn place(
    workload: &Workload,
    stack_width: usize,
    strategy: Strategy,
    cluster: &Cluster,
) -> Result<PlacementReport, PlaceError> {
    let cfg = &cluster.cs2;
    let nb = workload.nb;
    let census = workload.chunk_census(stack_width);

    let mut pes_used: u64 = 0;
    let mut worst_cycles: u64 = 0;
    let mut relative_bytes: u64 = 0;
    let mut absolute_bytes: u64 = 0;
    let mut flops: u64 = 0;

    for (&(cl, w), &count) in &census {
        let quotas = shape_pe_quotas(nb, cl, w, strategy, cfg)?;
        pes_used += to_u64(quotas.len()) * count;
        for q in &quotas {
            worst_cycles = worst_cycles.max(q.cycles);
            relative_bytes += q.relative_bytes * count;
            absolute_bytes += q.absolute_bytes * count;
            flops += q.flops * count;
        }
    }

    let pes_available = to_u64(cluster.total_pes());
    if pes_used > pes_available {
        return Err(PlaceError::NotEnoughPes {
            required: pes_used,
            available: pes_available,
        });
    }

    let time_s = cfg.cycles_to_seconds(worst_cycles);
    Ok(PlacementReport {
        strategy,
        shards: cluster.systems,
        stack_width,
        pes_used,
        pes_available,
        occupancy: u64_to_f64(pes_used) / u64_to_f64(pes_available),
        worst_cycles,
        time_s,
        relative_bytes,
        absolute_bytes,
        flops,
        relative_bw: u64_to_f64(relative_bytes) / time_s,
        absolute_bw: u64_to_f64(absolute_bytes) / time_s,
        flops_per_s: u64_to_f64(flops) / time_s,
    })
}

/// The constant-size batched MVM microbenchmark of Fig. 14: every usable
/// PE of one CS-2 runs an `n × n` real FP32 MVM; returns
/// `(relative_bw, absolute_bw)` in B/s for the realistic (overhead) model
/// when `ideal == false`, or the ideal performance-model bound when
/// `ideal == true`.
pub fn constant_size_bandwidth(n: usize, cluster: &Cluster, ideal: bool) -> (f64, f64) {
    let cfg = &cluster.cs2;
    let task = MvmTask::axpy_form(n, n);
    let cycles = if ideal {
        task.cycles_ideal()
    } else {
        task.cycles(cfg, true)
    };
    let secs = cfg.cycles_to_seconds(cycles.max(1));
    let pes = usize_to_f64(cluster.total_pes());
    (
        u64_to_f64(task.relative_bytes()) / secs * pes,
        u64_to_f64(task.absolute_bytes()) / secs * pes,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Cs2Config;
    use crate::workload::{choose_stack_width, RankModel};

    fn paper_workload(nb: usize, acc: f32) -> Workload {
        RankModel::paper(nb, acc).unwrap().generate()
    }

    #[test]
    fn table1_occupancy_reproduced() {
        // Table 1: all five validated configs land at 95–99 % occupancy
        // on six CS-2s with the auto-chosen stack width.
        let cluster = Cluster::new(6);
        let cfg = Cs2Config::default();
        for (nb, acc, paper_pes) in [
            (25usize, 1e-4f32, 4_417_690u64),
            (50, 1e-4, 4_330_150),
            (70, 1e-4, 4_416_383),
            (50, 3e-4, 4_445_947),
            (70, 3e-4, 4_252_877),
        ] {
            let w = paper_workload(nb, acc);
            let sw = choose_stack_width(&w, cluster.total_pes() as u64, cfg.max_stack_width(nb));
            let rep = place(&w, sw, Strategy::FusedSinglePe, &cluster).unwrap();
            assert!(
                rep.occupancy > 0.90 && rep.occupancy <= 1.0,
                "nb={nb} acc={acc}: occupancy {}",
                rep.occupancy
            );
            let rel = (rep.pes_used as f64 - paper_pes as f64).abs() / paper_pes as f64;
            assert!(
                rel < 0.06,
                "nb={nb} acc={acc}: PEs {} vs paper {paper_pes}",
                rep.pes_used
            );
        }
    }

    #[test]
    fn table3_bandwidth_shape() {
        // Table 3: six-shard relative bandwidth 11–13 PB/s, absolute
        // 26–32 PB/s, 3.5–5 PFlop/s across the five configs.
        let cluster = Cluster::new(6);
        let cfg = Cs2Config::default();
        for (nb, acc) in [
            (25usize, 1e-4f32),
            (50, 1e-4),
            (70, 1e-4),
            (50, 3e-4),
            (70, 3e-4),
        ] {
            let w = paper_workload(nb, acc);
            let sw = choose_stack_width(&w, cluster.total_pes() as u64, cfg.max_stack_width(nb));
            let rep = place(&w, sw, Strategy::FusedSinglePe, &cluster).unwrap();
            assert!(
                rep.relative_pbs() > 7.0 && rep.relative_pbs() < 16.0,
                "nb={nb} acc={acc}: rel {} PB/s",
                rep.relative_pbs()
            );
            assert!(
                rep.absolute_pbs() > 20.0 && rep.absolute_pbs() < 40.0,
                "nb={nb} acc={acc}: abs {} PB/s",
                rep.absolute_pbs()
            );
            assert!(rep.pflops() > 2.5 && rep.pflops() < 6.0);
        }
    }

    #[test]
    fn strategy2_beats_strategy1_latency() {
        let cluster48 = Cluster::new(48);
        let w = paper_workload(70, 1e-4);
        let s1 = place(&w, 23, Strategy::FusedSinglePe, &cluster48).unwrap();
        let s2 = place(&w, 23, Strategy::ScatterEightPes, &cluster48).unwrap();
        // Scattering the 8 MVMs cuts the worst-PE time by roughly 8×.
        assert!(s2.worst_cycles * 5 < s1.worst_cycles);
        assert!(s2.pes_used == 8 * s1.pes_used);
        assert!(s2.relative_bw > 4.0 * s1.relative_bw);
    }

    #[test]
    fn table5_48shard_bandwidth_shape() {
        // Table 5: nb=70 acc=1e-4 on 48 shards, strategy 2 → 92.58 PB/s
        // relative. The model must land in the right decade and ordering.
        let cluster = Cluster::new(48);
        let mut rels = Vec::new();
        for (nb, sw) in [(25usize, 64usize), (50, 32), (70, 23)] {
            let w = paper_workload(nb, 1e-4);
            let rep = place(&w, sw, Strategy::ScatterEightPes, &cluster).unwrap();
            rels.push((nb, rep.relative_pbs()));
            assert!(
                rep.relative_pbs() > 50.0 && rep.relative_pbs() < 150.0,
                "nb={nb}: {} PB/s",
                rep.relative_pbs()
            );
        }
        // Paper ordering: nb=70 (92.58) > nb=50 (91.15) > nb=25 (87.73).
        assert!(rels[2].1 > rels[0].1, "nb=70 should beat nb=25: {rels:?}");
    }

    #[test]
    fn shape_quotas_sum_to_legacy_accumulation() {
        // The quota decomposition must reproduce the exact aggregate
        // arithmetic place() historically used, slot by slot.
        let cfg = Cs2Config::default();
        let (nb, cl, w) = (50usize, 50usize, 32usize);
        let fused = shape_pe_quotas(nb, cl, w, Strategy::FusedSinglePe, &cfg).unwrap();
        assert_eq!(fused.len(), 1);
        let cost = pe_cost(&strategy1_tasks(nb, cl, w), &cfg, true);
        assert_eq!(fused[0].cycles, cost.cycles);
        assert_eq!(fused[0].flops, cost.flops);
        assert_eq!(fused[0].relative_bytes, cost.relative_bytes);
        assert_eq!(fused[0].absolute_bytes, cost.absolute_bytes);

        let scatter = shape_pe_quotas(nb, cl, w, Strategy::ScatterEightPes, &cfg).unwrap();
        assert_eq!(scatter.len(), 8);
        let vc = pe_cost(&[MvmTask::dot_form(w, cl)], &cfg, true);
        let uc = pe_cost(&[MvmTask::axpy_form(nb, w)], &cfg, true);
        let rel: u64 = scatter.iter().map(|q| q.relative_bytes).sum();
        let fl: u64 = scatter.iter().map(|q| q.flops).sum();
        assert_eq!(rel, 4 * (vc.relative_bytes + uc.relative_bytes));
        assert_eq!(fl, 4 * (vc.flops + uc.flops));
        let worst = scatter.iter().map(|q| q.cycles).max().unwrap();
        assert_eq!(worst, vc.cycles.max(uc.cycles));
    }

    #[test]
    fn not_enough_pes_detected() {
        let cluster = Cluster::new(1);
        let w = paper_workload(25, 1e-4);
        // 283 M ranks at width 64 -> 4.4 M chunks >> 745 500 PEs.
        let err = place(&w, 64, Strategy::FusedSinglePe, &cluster).unwrap_err();
        assert!(matches!(err, PlaceError::NotEnoughPes { .. }));
    }

    #[test]
    fn sram_overflow_detected() {
        let cluster = Cluster::new(48);
        let w = paper_workload(70, 1e-4);
        let err = place(&w, 60, Strategy::FusedSinglePe, &cluster).unwrap_err();
        assert!(matches!(err, PlaceError::SramOverflow(_)));
    }

    #[test]
    fn fig14_bandwidth_saturation() {
        let cluster = Cluster::new(1);
        let (rel_small, _) = constant_size_bandwidth(8, &cluster, false);
        let (rel_big, abs_big) = constant_size_bandwidth(128, &cluster, false);
        // Bandwidth grows with N and saturates around 2 PB/s relative.
        assert!(rel_big > rel_small);
        assert!(rel_big > 1.6e15 && rel_big < 2.6e15, "rel {rel_big:.3e}");
        // Absolute ≈ 3× relative at large N (Fig. 14).
        let ratio = abs_big / rel_big;
        assert!((ratio - 3.0).abs() < 0.3, "ratio {ratio}");
        // Ideal model exceeds the overhead model.
        let (rel_ideal, _) = constant_size_bandwidth(128, &cluster, true);
        assert!(rel_ideal > rel_big);
    }
}
