//! Fabric-atlas experiments: the `repro tab2wse --atlas` and
//! `repro atlas-sweep` generators behind `target/trace/<exp>.atlas.json`.
//!
//! A frame set is collected through [`wse_sim::collect_atlas`] for the
//! paper's validated configurations, then serialized with the
//! self-contained [`tlr_mvm::json`] writer (the artifact must be
//! round-trippable by the repo itself, like `BENCH_*.json`). Every
//! frame is re-verified at write time by [`verify_frame`] — the same
//! reconciliation invariants `tests/atlas.rs` asserts — so a drifting
//! grid can never reach disk, and the artifact carries an FNV-1a
//! checksum ([`atlas_checksum`]) over every counter and cell for the
//! CI determinism gate.

use tlr_mvm::json::Json;
use tlr_mvm::json_fields;
use tlr_mvm::precision::{to_u64, to_usize};
use wse_sim::{collect_atlas, AtlasConfig, AtlasFrame, AtlasLayout, Cluster, Grid, Strategy};

use crate::wse_experiments::{paper_six_shard_refs, ExperimentError, VALIDATED_CONFIGS};

/// Schema version stamped into every `*.atlas.json` artifact.
pub const ATLAS_SCHEMA_VERSION: u64 = 1;

/// Everything the atlas generators can fail with: an experiment /
/// placement error, a reconciliation failure caught at write time, or
/// artifact I/O.
#[derive(Debug)]
pub enum AtlasError {
    /// Workload generation or placement failed.
    Experiment(ExperimentError),
    /// A frame's grids no longer reconcile with its placement — the
    /// artifact is refused rather than written wrong.
    Reconciliation(String),
    /// Filesystem failure writing the artifact.
    Io(std::io::Error),
}

impl std::fmt::Display for AtlasError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AtlasError::Experiment(e) => write!(f, "{e}"),
            AtlasError::Reconciliation(m) => write!(f, "atlas reconciliation failed: {m}"),
            AtlasError::Io(e) => write!(f, "atlas artifact I/O: {e}"),
        }
    }
}

impl std::error::Error for AtlasError {}

impl From<ExperimentError> for AtlasError {
    fn from(e: ExperimentError) -> Self {
        AtlasError::Experiment(e)
    }
}

impl From<wse_sim::PlaceError> for AtlasError {
    fn from(e: wse_sim::PlaceError) -> Self {
        AtlasError::Experiment(ExperimentError::Placement(e))
    }
}

impl From<std::io::Error> for AtlasError {
    fn from(e: std::io::Error) -> Self {
        AtlasError::Io(e)
    }
}

/// The paper-scale workload for a validated config (same lookup the
/// table generators use).
fn paper_workload(nb: usize, acc: f32) -> Result<wse_sim::Workload, ExperimentError> {
    wse_sim::RankModel::paper(nb, acc)
        .map(|m| m.generate())
        .ok_or(ExperimentError::UnknownConfig { nb, acc })
}

/// The `tab2wse` frame set: every validated six-shard configuration at
/// its paper stack width, collected under **both** fabric layouts so
/// the artifact itself carries the three-phase vs comm-avoiding
/// link-traffic comparison (10 frames).
pub fn tab2wse_frames() -> Result<Vec<AtlasFrame>, AtlasError> {
    let cluster = Cluster::new(6);
    let acfg = AtlasConfig::default();
    let refs = paper_six_shard_refs();
    let mut frames = Vec::new();
    for (&(nb, acc), paper) in VALIDATED_CONFIGS.iter().zip(refs) {
        let w = paper_workload(nb, acc)?;
        for layout in [AtlasLayout::ThreePhase, AtlasLayout::CommAvoiding] {
            frames.push(collect_atlas(
                &w,
                paper.stack_width,
                Strategy::FusedSinglePe,
                layout,
                &cluster,
                &acfg,
            )?);
        }
    }
    Ok(frames)
}

/// Stack widths a config is swept over: the paper width and three
/// smaller points down to a quarter of it.
fn sweep_widths(paper_width: usize) -> Vec<usize> {
    let mut widths = Vec::new();
    for w in [
        paper_width,
        (3 * paper_width / 4).max(1),
        (paper_width / 2).max(1),
        (paper_width / 4).max(1),
    ] {
        if !widths.contains(&w) {
            widths.push(w);
        }
    }
    widths
}

/// One frame on the smallest cluster that places it: a narrower stack
/// cuts more chunks than the paper's six systems hold, and the failed
/// placement names how many PEs it needs.
fn collect_on_smallest_cluster(
    w: &wse_sim::Workload,
    stack_width: usize,
    layout: AtlasLayout,
    acfg: &AtlasConfig,
) -> Result<AtlasFrame, AtlasError> {
    let mut cluster = Cluster::new(1);
    loop {
        match collect_atlas(
            w,
            stack_width,
            Strategy::FusedSinglePe,
            layout,
            &cluster,
            acfg,
        ) {
            Err(wse_sim::PlaceError::NotEnoughPes { required, .. }) => {
                let per_system = to_u64(cluster.cs2.usable_pes());
                let systems = to_usize(required.div_ceil(per_system)).max(cluster.systems + 1);
                cluster = Cluster::new(systems);
            }
            frame => return Ok(frame?),
        }
    }
}

/// The `atlas-sweep` frame set: every validated config at its paper
/// stack width and at ¾, ½ and ¼ of it, under both layouts, each frame
/// on the smallest cluster that places it ([`AtlasFrame::shards`]
/// systems) — the stack-width axis the §6.7 rule optimizes, made
/// spatial.
pub fn sweep_frames() -> Result<Vec<AtlasFrame>, AtlasError> {
    let acfg = AtlasConfig::default();
    let refs = paper_six_shard_refs();
    let mut frames = Vec::new();
    for (&(nb, acc), paper) in VALIDATED_CONFIGS.iter().zip(refs) {
        let w = paper_workload(nb, acc)?;
        for sw in sweep_widths(paper.stack_width) {
            for layout in [AtlasLayout::ThreePhase, AtlasLayout::CommAvoiding] {
                frames.push(collect_on_smallest_cluster(&w, sw, layout, &acfg)?);
            }
        }
    }
    Ok(frames)
}

/// Every grid of a frame with its schema name, in artifact order.
fn frame_grids(f: &AtlasFrame) -> [(&'static str, &Grid); 14] {
    [
        ("pes", &f.pes),
        ("pe_capacity", &f.pe_capacity),
        ("busy_cycles", &f.busy_cycles),
        ("flops", &f.flops),
        ("relative_bytes", &f.relative_bytes),
        ("absolute_bytes", &f.absolute_bytes),
        ("sram_bytes", &f.sram_bytes),
        ("sram_peak_bank", &f.sram_peak_bank),
        ("link_north", &f.link_north),
        ("link_south", &f.link_south),
        ("link_east", &f.link_east),
        ("link_west", &f.link_west),
        ("shuffle_link", &f.shuffle_link),
        ("energy_pj", &f.energy_pj),
    ]
}

/// Re-assert the reconciliation invariants on a frame before it is
/// written: every sum-grid total must equal its placement aggregate,
/// the energy grid must carry exactly the integer-pJ total, and the
/// shuffle grid must be zero under the comm-avoiding layout and the
/// exact §6.6 term (`link_east`-consistent) under three-phase.
pub fn verify_frame(f: &AtlasFrame) -> Result<(), String> {
    let checks = [
        ("pes vs pes_used", f.pes.total(), f.placement.pes_used),
        (
            "pe_capacity vs pes_available",
            f.pe_capacity.total(),
            f.placement.pes_available,
        ),
        ("flops", f.flops.total(), f.placement.flops),
        (
            "relative_bytes",
            f.relative_bytes.total(),
            f.placement.relative_bytes,
        ),
        (
            "absolute_bytes",
            f.absolute_bytes.total(),
            f.placement.absolute_bytes,
        ),
        ("energy_pj", f.energy_pj.total(), f.total_energy_pj),
    ];
    for (what, grid, aggregate) in checks {
        if grid != aggregate {
            return Err(format!(
                "nb={} sw={} {}: grid total {grid} != aggregate {aggregate}",
                f.nb, f.stack_width, what
            ));
        }
    }
    if f.link_west.total() != 0 {
        return Err(format!("nb={}: west link must stay reserved (0)", f.nb));
    }
    match f.layout {
        AtlasLayout::CommAvoiding => {
            if f.shuffle_link.total() != 0 || f.link_east.total() != 0 {
                return Err(format!(
                    "nb={}: comm-avoiding frame carries shuffle traffic",
                    f.nb
                ));
            }
        }
        AtlasLayout::ThreePhase => {
            if f.shuffle_link.total() != f.link_east.total() {
                return Err(format!(
                    "nb={}: shuffle grid diverges from east links",
                    f.nb
                ));
            }
            if f.placement.pes_used > 0 && f.shuffle_link.total() == 0 {
                return Err(format!(
                    "nb={}: three-phase frame lost its shuffle traffic",
                    f.nb
                ));
            }
        }
    }
    Ok(())
}

/// FNV-1a fold over every deterministic counter and grid cell of a
/// frame set — same construction as `perf::counters_checksum`, so two
/// runs of the same binary must produce bit-identical artifacts.
pub fn atlas_checksum(frames: &[AtlasFrame]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(&ATLAS_SCHEMA_VERSION.to_le_bytes());
    for f in frames {
        eat(format!("{:?}", f.strategy).as_bytes());
        eat(f.layout.token().as_bytes());
        for v in [
            to_u64(f.nb),
            to_u64(f.stack_width),
            to_u64(f.shards),
            to_u64(f.group_rows),
            to_u64(f.group_cols),
            f.total_energy_pj,
            f.placement.pes_used,
            f.placement.pes_available,
            f.placement.worst_cycles,
            f.placement.flops,
            f.placement.relative_bytes,
            f.placement.absolute_bytes,
        ] {
            eat(&v.to_le_bytes());
        }
        for (name, g) in frame_grids(f) {
            eat(name.as_bytes());
            eat(&to_u64(g.rows).to_le_bytes());
            eat(&to_u64(g.cols).to_le_bytes());
            for &c in &g.cells {
                eat(&c.to_le_bytes());
            }
        }
    }
    h
}

fn grid_json(g: &Grid) -> Json {
    let counts = |v: &[u64]| Json::arr(v.iter().map(Json::from));
    json_fields!(g;
        rows, cols, total => g.total().into(), max => g.max().into(),
        row_profile => counts(&g.row_profile()), col_profile => counts(&g.col_profile()),
        cells => counts(&g.cells)
    )
}

fn frame_json(f: &AtlasFrame) -> Json {
    let placement = json_fields!(f.placement;
        pes_used, pes_available, occupancy, worst_cycles, flops, relative_bytes, absolute_bytes,
        time_s
    );
    let grids = Json::obj(frame_grids(f).iter().map(|(name, g)| (*name, grid_json(g))));
    json_fields!(f;
        nb, stack_width, strategy => format!("{:?}", f.strategy).into(),
        layout => f.layout.token().into(), shards, group_rows, group_cols, total_energy_pj,
        placement => placement, grids => grids
    )
}

/// Build the full `*.atlas.json` tree for a frame set, verifying every
/// frame's reconciliation first — a frame that fails never reaches the
/// artifact.
pub fn atlas_json(experiment: &str, frames: &[AtlasFrame]) -> Result<Json, AtlasError> {
    for f in frames {
        verify_frame(f).map_err(AtlasError::Reconciliation)?;
    }
    Ok(Json::obj([
        ("schema_version", ATLAS_SCHEMA_VERSION.into()),
        ("experiment", experiment.into()),
        ("checksum", atlas_checksum(frames).into()),
        ("frames", Json::arr(frames.iter().map(frame_json))),
    ]))
}

/// Write `target/trace/<experiment>.atlas.json` and return its path.
pub fn write_atlas_json(
    experiment: &str,
    frames: &[AtlasFrame],
) -> Result<std::path::PathBuf, AtlasError> {
    let tree = atlas_json(experiment, frames)?;
    let dir = std::path::Path::new("target/trace");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{experiment}.atlas.json"));
    std::fs::write(&path, tree.to_pretty())?;
    Ok(path)
}

/// Character ramp for the terminal occupancy map, sparse → saturated.
const RAMP: &[u8] = b" .:-=+*#%@";

/// A 16×16 sum-pooled ASCII occupancy map of one frame (`pes` over
/// `pe_capacity` per downsampled cell). Row 0 is the fabric's PE row 0.
pub fn ascii_occupancy(f: &AtlasFrame) -> String {
    let pes = f.pes.downsample(16, 16);
    let cap = f.pe_capacity.downsample(16, 16);
    let mut out = String::new();
    for r in 0..pes.rows {
        out.push_str("    ");
        for c in 0..pes.cols {
            let capacity = cap.at(r, c);
            let ratio = if capacity == 0 {
                0.0
            } else {
                (pes.at(r, c) as f64 / capacity as f64).min(1.0)
            };
            let i = (ratio * (RAMP.len() - 1) as f64).round() as usize;
            out.push(char::from(RAMP[i.min(RAMP.len() - 1)]));
        }
        out.push('\n');
    }
    out
}

/// One printable summary row per frame for the `tab2wse` / `atlas-sweep`
/// tables: occupancy plus the per-direction link-byte totals that make
/// the three-phase vs comm-avoiding comparison visible in the terminal.
pub struct AtlasSummaryRow {
    /// Tile size.
    pub nb: usize,
    /// Accuracy (recovered from the validated table; 0 when unknown).
    pub acc: f32,
    /// Stack width of the frame.
    pub stack_width: usize,
    /// Layout token (`three_phase` / `comm_avoiding`).
    pub layout: &'static str,
    /// CS-2 systems the frame was placed on.
    pub systems: usize,
    /// Busy-PE fraction of the whole cluster fabric.
    pub occupancy: f64,
    /// North-link byte total.
    pub north: u64,
    /// South-link byte total.
    pub south: u64,
    /// Shuffle (east-link) byte total.
    pub shuffle: u64,
    /// Peak single-bank SRAM occupancy anywhere on the fabric (bytes).
    pub peak_bank: u64,
    /// Total energy, integer picojoules.
    pub energy_pj: u64,
}

/// Accuracy of the validated config a frame belongs to. `nb` alone is
/// ambiguous (nb = 50 and nb = 70 are each validated at two
/// accuracies), but the paper stack widths — and therefore the
/// `sweep_widths` families derived from them — are disjoint between
/// the two accuracies of the same `nb`, so `(nb, stack_width)`
/// identifies the config for both the `tab2wse` and sweep frame sets.
pub fn config_acc(nb: usize, stack_width: usize) -> f32 {
    let refs = paper_six_shard_refs();
    VALIDATED_CONFIGS
        .iter()
        .zip(refs)
        .find(|((cfg_nb, _), paper)| {
            *cfg_nb == nb && sweep_widths(paper.stack_width).contains(&stack_width)
        })
        .map_or(0.0, |(&(_, acc), _)| acc)
}

/// Summarize frames for table rendering.
pub fn summarize(frames: &[AtlasFrame]) -> Vec<AtlasSummaryRow> {
    frames
        .iter()
        .map(|f| AtlasSummaryRow {
            nb: f.nb,
            acc: config_acc(f.nb, f.stack_width),
            stack_width: f.stack_width,
            layout: f.layout.token(),
            systems: f.shards,
            occupancy: f.placement.occupancy,
            north: f.link_north.total(),
            south: f.link_south.total(),
            shuffle: f.shuffle_link.total(),
            peak_bank: f.sram_peak_bank.max(),
            energy_pj: f.total_energy_pj,
        })
        .collect()
}

/// A quick, laptop-sized frame pair (three-phase + comm-avoiding) on a
/// reduced fabric — the CI smoke path and the unit tests use this so
/// they never pay the paper-scale census.
pub fn smoke_frames() -> Result<Vec<AtlasFrame>, AtlasError> {
    let cluster = Cluster::new(2);
    let acfg = AtlasConfig::default();
    let w = wse_sim::Workload {
        nb: 12,
        n_freqs: 4,
        cols_per_freq: 5,
        col_widths: vec![12; 20],
        col_ranks: vec![
            5, 9, 0, 7, 11, 3, 8, 2, 10, 6, 1, 4, 12, 5, 9, 3, 7, 2, 8, 6,
        ],
    };
    let mut frames = Vec::new();
    for layout in [AtlasLayout::ThreePhase, AtlasLayout::CommAvoiding] {
        frames.push(collect_atlas(
            &w,
            4,
            Strategy::FusedSinglePe,
            layout,
            &cluster,
            &acfg,
        )?);
    }
    Ok(frames)
}

/// Downsampled-occupancy sanity used by the `repro` epilogue: the map of
/// the first frame, or an empty string for an empty set.
pub fn first_frame_map(frames: &[AtlasFrame]) -> String {
    frames.first().map_or_else(String::new, ascii_occupancy)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_frames_verify_and_checksum_deterministically() {
        let _g = crate::test_sync::trace_lock();
        let a = smoke_frames().expect("smoke frames collect");
        let b = smoke_frames().expect("smoke frames collect");
        for f in &a {
            verify_frame(f).expect("frame reconciles");
        }
        assert_eq!(atlas_checksum(&a), atlas_checksum(&b));
        // Three-phase carries shuffle bytes; comm-avoiding none.
        assert!(a[0].shuffle_link.total() > 0);
        assert_eq!(a[1].shuffle_link.total(), 0);
    }

    #[test]
    fn artifact_round_trips_through_json() {
        let _g = crate::test_sync::trace_lock();
        let frames = smoke_frames().expect("smoke frames collect");
        let tree = atlas_json("smoke", &frames).expect("frames verify");
        let text = tree.to_pretty();
        let parsed = Json::parse(&text).expect("artifact parses");
        assert_eq!(
            parsed.get("schema_version").and_then(Json::as_u64),
            Some(ATLAS_SCHEMA_VERSION)
        );
        assert_eq!(
            parsed.get("checksum").and_then(Json::as_u64),
            Some(atlas_checksum(&frames))
        );
        let arr = parsed.get("frames").and_then(Json::as_arr).expect("frames");
        assert_eq!(arr.len(), frames.len());
        // Grid totals survive the round trip bit-for-bit.
        let g0 = arr[0]
            .get("grids")
            .and_then(|g| g.get("pes"))
            .expect("pes grid");
        assert_eq!(
            g0.get("total").and_then(Json::as_u64),
            Some(frames[0].pes.total())
        );
    }

    #[test]
    fn verify_frame_rejects_tampering() {
        let _g = crate::test_sync::trace_lock();
        let mut frames = smoke_frames().expect("smoke frames collect");
        frames[0].flops.cells[0] += 1;
        assert!(verify_frame(&frames[0]).is_err());
        assert!(atlas_json("smoke", &frames).is_err());
    }

    #[test]
    fn ascii_map_shape_and_ramp() {
        let _g = crate::test_sync::trace_lock();
        let frames = smoke_frames().expect("smoke frames collect");
        let map = ascii_occupancy(&frames[0]);
        let lines: Vec<&str> = map.lines().collect();
        assert_eq!(lines.len(), 16);
        for l in &lines {
            assert_eq!(l.chars().count(), 4 + 16);
            // Every glyph comes from the ramp.
            for ch in l.chars().skip(4) {
                assert!(RAMP.contains(&(ch as u8)), "stray glyph {ch:?}");
            }
        }
    }

    #[test]
    fn config_acc_disambiguates_shared_tile_sizes() {
        // nb = 50 is validated at both 1e-4 (paper width 32) and 3e-4
        // (paper width 18); the stack-width family must pick the right
        // accuracy, including at swept (non-paper) widths.
        assert_eq!(config_acc(50, 32), 1e-4);
        assert_eq!(config_acc(50, 16), 1e-4);
        assert_eq!(config_acc(50, 18), 3e-4);
        assert_eq!(config_acc(50, 4), 3e-4);
        assert_eq!(config_acc(70, 23), 1e-4);
        assert_eq!(config_acc(70, 14), 3e-4);
        assert_eq!(config_acc(25, 64), 1e-4);
        assert_eq!(config_acc(12, 4), 0.0, "unknown configs map to 0");
    }

    #[test]
    fn sweep_widths_descend_from_paper_width() {
        assert_eq!(sweep_widths(64), vec![64, 48, 32, 16]);
        assert_eq!(sweep_widths(1), vec![1]);
    }
}
