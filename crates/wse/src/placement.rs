//! Shard placement and aggregate bandwidth metrics.
//!
//! Workloads are embarrassingly parallel (§6.5): no communication between
//! PEs or systems, so aggregate sustained bandwidth is total bytes divided
//! by the worst per-PE time — exactly the paper's §7.3 metric.
//!
//! [`place`] is the simulator's one plan check: every machine bound a plan
//! must meet is a [`PlaceError`] it returns, never a panic.

use tlr_mvm::cast::{to_u64, u64_to_f64, usize_to_f64};
use tlr_mvm::json::Json;
use tlr_mvm::json_fields;

use crate::cycles::{ChunkCost, MvmTask};
use crate::machine::{Cluster, Cs2Config};
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

/// Why a plan does not place.
#[derive(Clone, Debug, PartialEq)]
pub enum PlaceError {
    /// More work units than PEs across the cluster.
    NotEnoughPes {
        /// PEs required.
        required: u64,
        /// PEs available.
        available: u64,
    },
    /// A chunk's bases do not fit a PE's bases budget.
    SramOverflow {
        /// The chunk's column width.
        cl: usize,
        /// The chunk's width.
        w: usize,
        /// Bytes its fullest PE holds.
        required: usize,
        /// The bases budget.
        available: usize,
    },
    /// A chunk's working vectors and code do not fit the runtime
    /// reservation.
    ReservationOverflow {
        /// The chunk's column width.
        cl: usize,
        /// The chunk's width.
        w: usize,
        /// Bytes one of its PEs keeps in the reservation.
        required: usize,
        /// The runtime reservation.
        reserved: usize,
    },
    /// The stack width is zero.
    ZeroStackWidth,
    /// The workload's tile size `nb` is zero.
    ZeroTileSize,
    /// The workload's arrays disagree on its shape.
    WorkloadShape(String),
    /// The clock is not a finite positive frequency (Hz).
    BadClock(f64),
    /// The workload stores no rank: nothing runs, so no rate exists.
    NoRank,
}

impl std::fmt::Display for PlaceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlaceError::NotEnoughPes {
                required,
                available,
            } => write!(f, "placement needs {required} PEs, cluster has {available}"),
            PlaceError::SramOverflow {
                cl,
                w,
                required,
                available,
            } => write!(
                f,
                "SRAM overflow: chunk cl={cl} w={w} needs {required} B of bases, \
                 the budget is {available} B"
            ),
            PlaceError::ReservationOverflow {
                cl,
                w,
                required,
                reserved,
            } => write!(
                f,
                "chunk cl={cl} w={w} keeps {required} B of vectors and code in a {reserved} B \
                 runtime reservation"
            ),
            PlaceError::ZeroStackWidth => write!(f, "stack width must be at least 1"),
            PlaceError::ZeroTileSize => write!(f, "tile size nb is zero"),
            PlaceError::WorkloadShape(msg) => write!(f, "workload shape: {msg}"),
            PlaceError::BadClock(hz) => {
                write!(f, "clock must be finite and positive, got {hz} Hz")
            }
            PlaceError::NoRank => write!(f, "the workload stores no rank"),
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

/// The bounds a plan must meet before its chunks are costed: a finite
/// positive clock, a positive tile size and stack width, and a workload
/// whose arrays agree on its shape with every column width in `1..=nb`.
fn check_inputs(
    workload: &Workload,
    stack_width: usize,
    cfg: &Cs2Config,
) -> Result<(), PlaceError> {
    if !(cfg.clock_hz.is_finite() && cfg.clock_hz > 0.0) {
        return Err(PlaceError::BadClock(cfg.clock_hz));
    }
    let (nb, cols) = (workload.nb, workload.cols_per_freq);
    if nb == 0 {
        return Err(PlaceError::ZeroTileSize);
    }
    if stack_width == 0 {
        return Err(PlaceError::ZeroStackWidth);
    }
    let shape = |msg: String| Err(PlaceError::WorkloadShape(msg));
    if workload.col_widths.len() != cols {
        let n = workload.col_widths.len();
        return shape(format!(
            "col_widths has {n} entries for {cols} tile columns"
        ));
    }
    if Some(workload.col_ranks.len()) != workload.n_freqs.checked_mul(cols) {
        let (n, freqs) = (workload.col_ranks.len(), workload.n_freqs);
        return shape(format!(
            "col_ranks has {n} entries for {freqs} frequencies x {cols} columns"
        ));
    }
    if let Some((j, cl)) =
        (workload.col_widths.iter().enumerate()).find(|&(_, &cl)| cl == 0 || cl > nb)
    {
        return shape(format!("col_widths[{j}] = {cl} is outside 1..={nb}"));
    }
    Ok(())
}

/// Place a workload on a cluster at a given stack width and compute the
/// paper's metrics.
///
/// This is the plan check: a plan that places meets every bound below,
/// and one that does not is refused with the bound it breaks.
///
/// * the clock, the tile size, the stack width and the workload's shape
///   ([`PlaceError::BadClock`], [`ZeroTileSize`](PlaceError::ZeroTileSize),
///   [`ZeroStackWidth`](PlaceError::ZeroStackWidth),
///   [`WorkloadShape`](PlaceError::WorkloadShape));
/// * per chunk shape of the census, its bases against the bases budget
///   ([`SramOverflow`](PlaceError::SramOverflow)) and, strategy 1, its
///   working vectors plus the 8 KiB code estimate against the runtime
///   reservation, strategy 2, the code alone
///   ([`ReservationOverflow`](PlaceError::ReservationOverflow)). Together
///   the two bound a chunk's whole SRAM image: padding adds at most 24 B
///   to the vectors, well inside the code estimate's slack;
/// * the PEs the census needs against the cluster's
///   ([`NotEnoughPes`](PlaceError::NotEnoughPes)), which also refuses a
///   cluster of no system or no usable PE;
/// * some rank to place ([`NoRank`](PlaceError::NoRank)), so every rate
///   in the report is finite.
///
/// ```
/// use wse_sim::{choose_stack_width, place, Cluster, PlaceError, RankModel, Strategy};
///
/// // The paper's nb=50, acc=1e-4 dataset on a 6-system cluster.
/// let workload = RankModel::paper(50, 1e-4).expect("validated (nb, acc)").generate();
/// let cluster = Cluster::new(6);
/// let w_max = cluster.cs2.max_stack_width(50);
/// let sw = choose_stack_width(&workload, cluster.total_pes() as u64, w_max);
/// assert!(place(&workload, sw, Strategy::FusedSinglePe, &cluster).is_ok());
///
/// // An absurd stack width overflows a PE's SRAM.
/// let bad = place(&workload, 10_000, Strategy::FusedSinglePe, &cluster);
/// assert!(matches!(bad, Err(PlaceError::SramOverflow { .. })));
/// ```
pub fn place(
    workload: &Workload,
    stack_width: usize,
    strategy: Strategy,
    cluster: &Cluster,
) -> Result<PlacementReport, PlaceError> {
    let cfg = &cluster.cs2;
    check_inputs(workload, stack_width, cfg)?;
    let nb = workload.nb;
    let census = workload.chunk_census(stack_width);

    let (mut pes_used, mut worst_cycles, mut flops) = (0u64, 0u64, 0u64);
    let (mut relative_bytes, mut absolute_bytes) = (0u64, 0u64);

    for (&(cl, w), &count) in &census {
        let cost = ChunkCost::new(nb, cl, w, strategy, cfg);
        if cost.bases_bytes > cfg.bases_budget_bytes() {
            return Err(PlaceError::SramOverflow {
                cl,
                w,
                required: cost.bases_bytes,
                available: cfg.bases_budget_bytes(),
            });
        }
        if cost.reserved_bytes > cfg.runtime_reserved_bytes {
            return Err(PlaceError::ReservationOverflow {
                cl,
                w,
                required: cost.reserved_bytes,
                reserved: cfg.runtime_reserved_bytes,
            });
        }
        let total = cost.total();
        pes_used += cost.pes * count;
        worst_cycles = worst_cycles.max(cost.pe_cycles);
        relative_bytes += total.relative_bytes * count;
        absolute_bytes += total.absolute_bytes * count;
        flops += total.flops * count;
    }

    let pes_available = to_u64(cluster.total_pes());
    if pes_used > pes_available {
        return Err(PlaceError::NotEnoughPes {
            required: pes_used,
            available: pes_available,
        });
    }
    if pes_used == 0 {
        return Err(PlaceError::NoRank);
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
        task.cycles(cfg)
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

    /// `place`'s aggregates are the census summed over [`ChunkCost`],
    /// and a chunk's cost is its eight MVMs: one fused PE, or four V-side
    /// and four U-side PEs scattered.
    #[test]
    fn shape_quotas_sum_to_legacy_accumulation() {
        let cluster = Cluster::new(48);
        let cfg = cluster.cs2;
        let w = paper_workload(50, 1e-4);
        let (vt, ut) = (MvmTask::dot_form(32, 50), MvmTask::axpy_form(50, 32));
        let fused = ChunkCost::new(50, 50, 32, Strategy::FusedSinglePe, &cfg);
        let scatter = ChunkCost::new(50, 50, 32, Strategy::ScatterEightPes, &cfg);
        assert_eq!(scatter.pe_cycles, vt.cycles(&cfg).max(ut.cycles(&cfg)));
        assert_eq!((scatter.pes, scatter.total()), (8, fused.total()));
        for strategy in [Strategy::FusedSinglePe, Strategy::ScatterEightPes] {
            let rep = place(&w, 32, strategy, &cluster).unwrap();
            let (mut pes, mut worst, mut rel, mut abs, mut flops) = (0, 0, 0, 0, 0);
            for (&(cl, sw), &count) in &w.chunk_census(32) {
                let c = ChunkCost::new(50, cl, sw, strategy, &cfg);
                pes += c.pes * count;
                worst = c.pe_cycles.max(worst);
                rel += c.total().relative_bytes * count;
                abs += c.total().absolute_bytes * count;
                flops += c.total().flops * count;
            }
            assert_eq!(
                (rep.pes_used, rep.worst_cycles, rep.flops),
                (pes, worst, flops)
            );
            assert_eq!((rep.relative_bytes, rep.absolute_bytes), (rel, abs));
        }
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
        assert!(matches!(err, PlaceError::SramOverflow { .. }), "{err}");
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
