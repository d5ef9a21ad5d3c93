//! Fabric atlas: per-PE-group heatmaps of the placed TLR-MVM workload —
//! occupancy, busy cycles, flops, §6.6 bytes, SRAM bank pressure, link
//! traffic, and energy — with **exact cross-layer reconciliation**.
//!
//! The paper's headline results are spatial (per-PE occupancy and
//! sustained bandwidth over the 750×994 usable fabric), but the
//! simulator's reports are whole-fabric aggregates. This module scatters
//! the *same per-PE quotas the placement sums*
//! ([`crate::placement::shape_pe_quotas`]) into 2-D grids over PE
//! groups, so every grid total equals the corresponding
//! [`crate::placement::PlacementReport`] aggregate **exactly** — the
//! identical multiset of `u64` additions, not a parallel float model.
//! Heatmaps that cannot be trusted are worse than none.
//!
//! ## Reconciliation invariants (asserted in `tests/atlas.rs`)
//!
//! * `pes.total() == placement.pes_used`,
//!   `pe_capacity.total() == placement.pes_available`
//! * `flops/relative_bytes/absolute_bytes` grid totals equal the same
//!   [`PlacementReport`] fields
//! * `energy_pj.total() == total_energy_pj
//!   == `[`crate::energy::energy_total_pj`]` (placement)` — the integer
//!   picojoule path `repro recon` also reports
//! * under [`AtlasLayout::ThreePhase`], `shuffle_link.total()
//!   == 16 · Σ rank` — the §6.6 three-phase shuffle byte term; under
//!   [`AtlasLayout::CommAvoiding`] it is identically **zero** (the
//!   traffic the comm-avoiding layout eliminates)
//! * the `wse.atlas.*` trace counters are fed *from the grid totals
//!   themselves*, so `tlr_mvm::trace` reconciles by construction
//!
//! `sram_peak_bank` is the one max-combined grid (fullest 6 kB bank per
//! group); a peak does not sum, so it reconciles against
//! [`crate::sram::peak_bank_bytes`] per shape instead of a total.
//!
//! ## Spatial model
//!
//! Chunks are laid out the way [`crate::shards::assign_shards`] splits
//! the census ([`crate::shards::shard_share`] — same function), each
//! shard filling its wafer column-major from PE (0, 0). All shards
//! overlay one wafer-shaped grid (accumulated), so grid totals are
//! cluster-wide aggregates; `pe_capacity` scales by the shard count to
//! keep occupancy ratios honest.
//!
//! Collection is allocation-free inside the `wse.atlas.collect` trace
//! span (lint rule HP01): every grid and per-shape slot table is
//! pre-sized from the placement before the span opens.

use tlr_mvm::precision::{checked_cast, to_u64};
use tlr_mvm::trace;

use crate::energy::energy_total_pj;
use crate::fabric::{
    shuffle_chunk_bytes, strategy1_link_bytes, strategy2_u_link_bytes, strategy2_v_link_bytes,
    LinkBytes,
};
use crate::machine::{Cluster, Cs2Config};
use crate::placement::{place, shape_pe_quotas, PlaceError, PlacementReport, Strategy};
use crate::shards::shard_share;
use crate::sram::{peak_bank_bytes, plan_strategy1_pe, plan_strategy2_pe};
use crate::workload::Workload;

/// A row-major 2-D field of `u64` accumulators over PE groups.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Grid {
    /// Grid height (PE-group rows).
    pub rows: usize,
    /// Grid width (PE-group columns).
    pub cols: usize,
    /// Row-major cells, length `rows · cols`.
    pub cells: Vec<u64>,
}

impl Grid {
    /// A zeroed `rows × cols` grid.
    pub fn new(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            cells: vec![0; rows * cols],
        }
    }

    #[inline]
    fn idx(&self, r: usize, c: usize) -> usize {
        debug_assert!(r < self.rows && c < self.cols);
        r * self.cols + c
    }

    /// Saturating add into cell `(r, c)`.
    #[inline]
    pub fn add(&mut self, r: usize, c: usize, v: u64) {
        let i = self.idx(r, c);
        self.cells[i] = self.cells[i].saturating_add(v);
    }

    /// Raise cell `(r, c)` to at least `v` (for peak-style grids).
    #[inline]
    pub fn accumulate_max(&mut self, r: usize, c: usize, v: u64) {
        let i = self.idx(r, c);
        self.cells[i] = self.cells[i].max(v);
    }

    /// Read cell `(r, c)`.
    #[inline]
    pub fn at(&self, r: usize, c: usize) -> u64 {
        self.cells[self.idx(r, c)]
    }

    /// Saturating sum of every cell — the reconciliation aggregate.
    pub fn total(&self) -> u64 {
        self.cells.iter().fold(0u64, |a, &c| a.saturating_add(c))
    }

    /// Largest cell value.
    pub fn max(&self) -> u64 {
        self.cells.iter().copied().max().unwrap_or(0)
    }

    /// Marginal row profile: saturating sum of each row.
    pub fn row_profile(&self) -> Vec<u64> {
        (0..self.rows)
            .map(|r| (0..self.cols).fold(0u64, |a, c| a.saturating_add(self.at(r, c))))
            .collect()
    }

    /// Marginal column profile: saturating sum of each column.
    pub fn col_profile(&self) -> Vec<u64> {
        (0..self.cols)
            .map(|c| (0..self.rows).fold(0u64, |a, r| a.saturating_add(self.at(r, c))))
            .collect()
    }

    /// Sum-pool into a coarser `target_rows × target_cols` grid (for the
    /// terminal ASCII map). Totals are preserved: every source cell lands
    /// in exactly one target cell.
    pub fn downsample(&self, target_rows: usize, target_cols: usize) -> Grid {
        let tr = target_rows.min(self.rows).max(1);
        let tc = target_cols.min(self.cols).max(1);
        let mut g = Grid::new(tr, tc);
        for r in 0..self.rows {
            for c in 0..self.cols {
                g.add(r * tr / self.rows, c * tc / self.cols, self.at(r, c));
            }
        }
        g
    }
}

/// Grouping of the usable fabric into atlas cells.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AtlasConfig {
    /// PE rows per group (the last group row may be ragged).
    pub group_rows: usize,
    /// PE columns per group (the last group column may be ragged).
    pub group_cols: usize,
}

impl Default for AtlasConfig {
    /// 25×25-PE groups: a 30×40 grid over the default 750×994 usable
    /// fabric (the last group column is 19 PEs wide).
    fn default() -> Self {
        Self {
            group_rows: 25,
            group_cols: 25,
        }
    }
}

impl AtlasConfig {
    /// Grid height over a machine's usable fabric.
    pub fn grid_rows(&self, cfg: &Cs2Config) -> usize {
        cfg.usable_rows.div_ceil(self.group_rows.max(1))
    }

    /// Grid width over a machine's usable fabric.
    pub fn grid_cols(&self, cfg: &Cs2Config) -> usize {
        cfg.usable_cols.div_ceil(self.group_cols.max(1))
    }
}

/// Which data-movement layout the atlas prices the fabric under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AtlasLayout {
    /// The classical V-batch / shuffle / U-batch organization: the `yv`
    /// intermediate crosses the fabric between phases (`16·w` bytes per
    /// chunk, east link).
    ThreePhase,
    /// The paper's communication-avoiding layout: `yv` stays in PE
    /// SRAM; shuffle-phase inter-PE traffic is identically zero.
    CommAvoiding,
}

impl AtlasLayout {
    /// Stable lowercase token for file names and JSON.
    pub fn token(&self) -> &'static str {
        match self {
            AtlasLayout::ThreePhase => "three_phase",
            AtlasLayout::CommAvoiding => "comm_avoiding",
        }
    }
}

/// One frame of the atlas: every grid plus the placement it reconciles
/// against.
#[derive(Clone, Debug)]
pub struct AtlasFrame {
    /// Tile size.
    pub nb: usize,
    /// Stack width the workload was chunked at.
    pub stack_width: usize,
    /// Placement strategy.
    pub strategy: Strategy,
    /// Fabric layout priced (three-phase vs comm-avoiding).
    pub layout: AtlasLayout,
    /// CS-2 systems overlaid into the grids.
    pub shards: usize,
    /// PE rows per grid cell.
    pub group_rows: usize,
    /// PE columns per grid cell.
    pub group_cols: usize,
    /// The aggregate placement every sum-grid reconciles against.
    pub placement: PlacementReport,
    /// Integer-picojoule energy total ([`energy_total_pj`]) that
    /// `energy_pj` distributes exactly.
    pub total_energy_pj: u64,
    /// Busy PEs per group (the occupancy numerator).
    pub pes: Grid,
    /// Physical PEs per group × shards (the occupancy denominator).
    pub pe_capacity: Grid,
    /// Modeled busy cycles per group.
    pub busy_cycles: Grid,
    /// Real FP32 flops per group.
    pub flops: Grid,
    /// Relative (cache-model) bytes per group.
    pub relative_bytes: Grid,
    /// Absolute (flat-SRAM) bytes per group.
    pub absolute_bytes: Grid,
    /// Resident SRAM bytes per group.
    pub sram_bytes: Grid,
    /// Peak single-bank occupancy (bytes) of any PE in the group —
    /// max-combined, **not** sum-reconciled.
    pub sram_peak_bank: Grid,
    /// Bytes injected on north links per group.
    pub link_north: Grid,
    /// Bytes injected on south links per group.
    pub link_south: Grid,
    /// Bytes injected on east links per group (shuffle traffic).
    pub link_east: Grid,
    /// Bytes injected on west links per group (reserved, always 0).
    pub link_west: Grid,
    /// Shuffle-phase bytes per group (mirrors `link_east` in the current
    /// model; kept separate so the three-phase-vs-comm-avoiding
    /// comparison survives future link remodeling).
    pub shuffle_link: Grid,
    /// Energy attribution per group, integer picojoules.
    pub energy_pj: Grid,
}

impl AtlasFrame {
    /// Fraction of the group's physical PEs that carry work.
    pub fn occupancy_at(&self, r: usize, c: usize) -> f64 {
        let cap = self.pe_capacity.at(r, c);
        if cap == 0 {
            0.0
        } else {
            self.pes.at(r, c) as f64 / cap as f64
        }
    }
}

/// Everything one PE slot of a chunk shape is charged, fixed before the
/// hot loop so collection allocates nothing inside the span.
#[derive(Clone, Copy, Debug, Default)]
struct SlotPlan {
    cycles: u64,
    flops: u64,
    relative_bytes: u64,
    absolute_bytes: u64,
    sram_bytes: u64,
    peak_bank: u64,
    link: LinkBytes,
    shuffle: u64,
}

/// One census shape's chunk count plus its slot range in the flat slot
/// table.
#[derive(Clone, Copy, Debug)]
struct ShapePlan {
    count: u64,
    slot_lo: usize,
    slot_hi: usize,
}

/// Collect a full atlas frame for a placed workload. Validates the
/// placement first ([`place`]) so a frame always has an exact aggregate
/// to reconcile against.
pub fn collect_atlas(
    workload: &Workload,
    stack_width: usize,
    strategy: Strategy,
    layout: AtlasLayout,
    cluster: &Cluster,
    acfg: &AtlasConfig,
) -> Result<AtlasFrame, PlaceError> {
    let placement = place(workload, stack_width, strategy, cluster)?;
    let cfg = &cluster.cs2;
    let nb = workload.nb;
    let shards = cluster.systems.max(1);
    let (grid_rows, grid_cols) = (acfg.grid_rows(cfg), acfg.grid_cols(cfg));
    let group_rows = acfg.group_rows.max(1);
    let group_cols = acfg.group_cols.max(1);
    let usable_rows = cfg.usable_rows.max(1);
    let usable_pes = cfg.usable_pes().max(1);

    // --- Pre-span: per-shape slot tables and pre-sized grids. ---
    let census = workload.chunk_census(stack_width);
    let mut slots: Vec<SlotPlan> = Vec::new();
    let mut shapes: Vec<ShapePlan> = Vec::with_capacity(census.len());
    for (&(cl, w), &count) in &census {
        let quotas = shape_pe_quotas(nb, cl, w, strategy, cfg)?;
        let slot_lo = slots.len();
        match strategy {
            Strategy::FusedSinglePe => {
                let plan = plan_strategy1_pe(cfg, nb, cl, w)
                    .map_err(|e| PlaceError::SramOverflow(format!("cl={cl} w={w}: {e}")))?;
                let shuffle = match layout {
                    AtlasLayout::ThreePhase => shuffle_chunk_bytes(w),
                    AtlasLayout::CommAvoiding => 0,
                };
                let mut link = strategy1_link_bytes(nb, cl);
                link.east = shuffle;
                slots.push(SlotPlan {
                    cycles: quotas[0].cycles,
                    flops: quotas[0].flops,
                    relative_bytes: quotas[0].relative_bytes,
                    absolute_bytes: quotas[0].absolute_bytes,
                    sram_bytes: quotas[0].sram_bytes,
                    peak_bank: to_u64(peak_bank_bytes(&plan, cfg)),
                    link,
                    shuffle,
                });
            }
            Strategy::ScatterEightPes => {
                let v_plan = plan_strategy2_pe(cfg, w, cl)
                    .map_err(|e| PlaceError::SramOverflow(format!("V cl={cl} w={w}: {e}")))?;
                let u_plan = plan_strategy2_pe(cfg, nb, w)
                    .map_err(|e| PlaceError::SramOverflow(format!("U nb={nb} w={w}: {e}")))?;
                let v_peak = to_u64(peak_bank_bytes(&v_plan, cfg));
                let u_peak = to_u64(peak_bank_bytes(&u_plan, cfg));
                // 16·w per chunk splits exactly over the 4 V slots.
                let v_shuffle = match layout {
                    AtlasLayout::ThreePhase => shuffle_chunk_bytes(w) / 4,
                    AtlasLayout::CommAvoiding => 0,
                };
                for (si, q) in quotas.iter().enumerate() {
                    let v_side = si < 4;
                    let mut link = if v_side {
                        strategy2_v_link_bytes(cl)
                    } else {
                        strategy2_u_link_bytes(nb)
                    };
                    let shuffle = if v_side { v_shuffle } else { 0 };
                    link.east = shuffle;
                    slots.push(SlotPlan {
                        cycles: q.cycles,
                        flops: q.flops,
                        relative_bytes: q.relative_bytes,
                        absolute_bytes: q.absolute_bytes,
                        sram_bytes: q.sram_bytes,
                        peak_bank: if v_side { v_peak } else { u_peak },
                        link,
                        shuffle,
                    });
                }
            }
        }
        shapes.push(ShapePlan {
            count,
            slot_lo,
            slot_hi: slots.len(),
        });
    }

    let mut pes = Grid::new(grid_rows, grid_cols);
    let mut busy_cycles = Grid::new(grid_rows, grid_cols);
    let mut flops = Grid::new(grid_rows, grid_cols);
    let mut relative_bytes = Grid::new(grid_rows, grid_cols);
    let mut absolute_bytes = Grid::new(grid_rows, grid_cols);
    let mut sram_bytes = Grid::new(grid_rows, grid_cols);
    let mut sram_peak_bank = Grid::new(grid_rows, grid_cols);
    let mut link_north = Grid::new(grid_rows, grid_cols);
    let mut link_south = Grid::new(grid_rows, grid_cols);
    let mut link_east = Grid::new(grid_rows, grid_cols);
    let link_west = Grid::new(grid_rows, grid_cols);
    let mut shuffle_link = Grid::new(grid_rows, grid_cols);
    let mut energy_pj = Grid::new(grid_rows, grid_cols);

    // --- Hot loop: pure indexed integer accumulation (HP01-clean). ---
    {
        let _span = trace::span("wse.atlas.collect");
        for shard in 0..shards {
            // Each shard fills its own wafer column-major from (0, 0);
            // shards overlay into the shared grids. The modulo wrap is a
            // safety net for adversarial (proptest) workloads whose
            // remainder concentration overflows one wafer — totals stay
            // conserved either way.
            let mut cursor: usize = 0;
            for sp in &shapes {
                let share = shard_share(sp.count, shard, shards);
                for _ in 0..share {
                    for s in &slots[sp.slot_lo..sp.slot_hi] {
                        let idx = cursor % usable_pes;
                        cursor += 1;
                        let gr = (idx % usable_rows) / group_rows;
                        let gc = (idx / usable_rows) / group_cols;
                        pes.add(gr, gc, 1);
                        busy_cycles.add(gr, gc, s.cycles);
                        flops.add(gr, gc, s.flops);
                        relative_bytes.add(gr, gc, s.relative_bytes);
                        absolute_bytes.add(gr, gc, s.absolute_bytes);
                        sram_bytes.add(gr, gc, s.sram_bytes);
                        sram_peak_bank.accumulate_max(gr, gc, s.peak_bank);
                        link_north.add(gr, gc, s.link.north);
                        link_south.add(gr, gc, s.link.south);
                        link_east.add(gr, gc, s.link.east);
                        shuffle_link.add(gr, gc, s.shuffle);
                    }
                }
            }
        }
    }

    // --- Capacity grid: physical group sizes (ragged-aware) × shards,
    // so `pe_capacity.total() == placement.pes_available`. ---
    let mut pe_capacity = Grid::new(grid_rows, grid_cols);
    for gr in 0..grid_rows {
        let rows_in = (cfg.usable_rows - gr * group_rows).min(group_rows);
        for gc in 0..grid_cols {
            let cols_in = (cfg.usable_cols - gc * group_cols).min(group_cols);
            pe_capacity.add(gr, gc, to_u64(rows_in * cols_in * shards));
        }
    }

    // --- Energy: distribute the integer-pJ total over busy PEs, exact
    // by construction (floor shares + remainder round-robin). ---
    let total_energy_pj = energy_total_pj(&placement, cluster);
    let busy_total = pes.total();
    if total_energy_pj > 0 {
        if busy_total == 0 {
            // No busy PE to attribute to (idle-power-only frame): park
            // the whole total in the origin cell so the grid still
            // reconciles.
            energy_pj.add(0, 0, total_energy_pj);
        } else {
            let mut assigned: u64 = 0;
            for i in 0..energy_pj.cells.len() {
                let share: u128 =
                    u128::from(total_energy_pj) * u128::from(pes.cells[i]) / u128::from(busy_total);
                // share ≤ total_energy_pj, so the cast cannot fail.
                let share: u64 = checked_cast(share);
                energy_pj.cells[i] = share;
                assigned += share;
            }
            let mut remainder = total_energy_pj - assigned;
            let mut i = 0usize;
            while remainder > 0 {
                if pes.cells[i] > 0 {
                    energy_pj.cells[i] += 1;
                    remainder -= 1;
                }
                i = (i + 1) % energy_pj.cells.len();
            }
        }
    }

    // --- Mirror the grid totals into the trace counters (same
    // arithmetic path: the counter IS the grid total). ---
    if trace::is_enabled() {
        trace::add_cost(
            "wse.atlas",
            flops.total(),
            relative_bytes.total(),
            absolute_bytes.total(),
        );
        trace::add_cycles("wse.atlas", busy_cycles.total());
        trace::add_sram_bytes("wse.atlas", sram_bytes.total());
        trace::add_iterations("wse.atlas", pes.total());
        trace::add_bytes(
            "wse.atlas.shuffle",
            shuffle_link.total(),
            shuffle_link.total(),
        );
        trace::add_bytes(
            "wse.atlas.link_north",
            link_north.total(),
            link_north.total(),
        );
        trace::add_bytes(
            "wse.atlas.link_south",
            link_south.total(),
            link_south.total(),
        );
        trace::add_grid("wse.atlas.pes", grid_rows, grid_cols, &pes.cells);
        trace::add_grid(
            "wse.atlas.busy_cycles",
            grid_rows,
            grid_cols,
            &busy_cycles.cells,
        );
        trace::add_grid("wse.atlas.flops", grid_rows, grid_cols, &flops.cells);
        trace::add_grid(
            "wse.atlas.relative_bytes",
            grid_rows,
            grid_cols,
            &relative_bytes.cells,
        );
        trace::add_grid(
            "wse.atlas.shuffle_link",
            grid_rows,
            grid_cols,
            &shuffle_link.cells,
        );
        trace::add_grid(
            "wse.atlas.energy_pj",
            grid_rows,
            grid_cols,
            &energy_pj.cells,
        );
    }

    Ok(AtlasFrame {
        nb,
        stack_width,
        strategy,
        layout,
        shards,
        group_rows,
        group_cols,
        placement,
        total_energy_pj,
        pes,
        pe_capacity,
        busy_cycles,
        flops,
        relative_bytes,
        absolute_bytes,
        sram_bytes,
        sram_peak_bank,
        link_north,
        link_south,
        link_east,
        link_west,
        shuffle_link,
        energy_pj,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::RankModel;

    fn small_workload() -> Workload {
        Workload {
            nb: 10,
            n_freqs: 3,
            cols_per_freq: 4,
            col_widths: vec![10; 12],
            col_ranks: vec![7, 0, 13, 5, 9, 2, 11, 4, 6, 8, 3, 1],
        }
    }

    #[test]
    fn grid_profiles_and_downsample_preserve_totals() {
        let mut g = Grid::new(4, 6);
        g.add(0, 0, 5);
        g.add(3, 5, 7);
        g.add(2, 2, 11);
        assert_eq!(g.total(), 23);
        assert_eq!(g.row_profile().iter().sum::<u64>(), 23);
        assert_eq!(g.col_profile().iter().sum::<u64>(), 23);
        let d = g.downsample(2, 2);
        assert_eq!(d.total(), 23);
        assert_eq!(g.max(), 11);
    }

    #[test]
    fn frame_reconciles_with_placement_exactly() {
        let w = small_workload();
        let cluster = Cluster::new(2);
        for layout in [AtlasLayout::ThreePhase, AtlasLayout::CommAvoiding] {
            let f = collect_atlas(
                &w,
                3,
                Strategy::FusedSinglePe,
                layout,
                &cluster,
                &AtlasConfig::default(),
            )
            .unwrap();
            assert_eq!(f.pes.total(), f.placement.pes_used);
            assert_eq!(f.pe_capacity.total(), f.placement.pes_available);
            assert_eq!(f.flops.total(), f.placement.flops);
            assert_eq!(f.relative_bytes.total(), f.placement.relative_bytes);
            assert_eq!(f.absolute_bytes.total(), f.placement.absolute_bytes);
            assert_eq!(f.energy_pj.total(), f.total_energy_pj);
            assert_eq!(f.total_energy_pj, energy_total_pj(&f.placement, &cluster));
        }
    }

    #[test]
    fn shuffle_traffic_three_phase_vs_comm_avoiding() {
        let w = small_workload();
        let cluster = Cluster::new(2);
        for strategy in [Strategy::FusedSinglePe, Strategy::ScatterEightPes] {
            let tp = collect_atlas(
                &w,
                4,
                strategy,
                AtlasLayout::ThreePhase,
                &cluster,
                &AtlasConfig::default(),
            )
            .unwrap();
            let ca = collect_atlas(
                &w,
                4,
                strategy,
                AtlasLayout::CommAvoiding,
                &cluster,
                &AtlasConfig::default(),
            )
            .unwrap();
            // Three-phase: exactly the §6.6 shuffle byte term.
            assert_eq!(tp.shuffle_link.total(), 16 * w.total_rank());
            assert_eq!(tp.link_east.total(), tp.shuffle_link.total());
            // Comm-avoiding: identically zero.
            assert_eq!(ca.shuffle_link.total(), 0);
            assert_eq!(ca.link_east.total(), 0);
            // West is reserved in both.
            assert_eq!(tp.link_west.total(), 0);
        }
    }

    #[test]
    fn scatter_strategy_occupies_eight_slots_per_chunk() {
        let w = small_workload();
        let cluster = Cluster::new(2);
        let fused = collect_atlas(
            &w,
            4,
            Strategy::FusedSinglePe,
            AtlasLayout::CommAvoiding,
            &cluster,
            &AtlasConfig::default(),
        )
        .unwrap();
        let scatter = collect_atlas(
            &w,
            4,
            Strategy::ScatterEightPes,
            AtlasLayout::CommAvoiding,
            &cluster,
            &AtlasConfig::default(),
        )
        .unwrap();
        assert_eq!(scatter.pes.total(), 8 * fused.pes.total());
        // North/south totals match between strategies (same data in/out).
        assert_eq!(scatter.link_north.total(), fused.link_north.total());
        assert_eq!(scatter.link_south.total(), fused.link_south.total());
    }

    #[test]
    fn paper_frame_occupancy_shape() {
        // One validated config on six shards: ~95-99 % of PEs busy, and
        // the column profile must show the fill front (first grid column
        // saturated, beyond-capacity nowhere).
        let w = RankModel::paper(50, 1e-4).unwrap().generate();
        let cluster = Cluster::new(6);
        let f = collect_atlas(
            &w,
            32,
            Strategy::FusedSinglePe,
            AtlasLayout::CommAvoiding,
            &cluster,
            &AtlasConfig::default(),
        )
        .unwrap();
        assert_eq!(f.pes.total(), f.placement.pes_used);
        for i in 0..f.pes.cells.len() {
            assert!(
                f.pes.cells[i] <= f.pe_capacity.cells[i],
                "cell {i} overfilled"
            );
        }
        assert!(f.occupancy_at(0, 0) > 0.9);
        assert!(f.sram_peak_bank.max() <= to_u64(cluster.cs2.bank_bytes()));
        assert!(f.sram_peak_bank.max() > 0);
    }
}
