//! Integration tests for the fabric atlas: the ISSUE's load-bearing
//! reconciliation rule — **every grid sums exactly to the corresponding
//! trace counter / placement aggregate** — plus the three-phase vs
//! comm-avoiding shuffle-traffic acceptance criterion, property-based
//! random-workload reconciliation, and artifact checksum determinism.
//!
//! The trace collector is process-global and instrumented code adds to
//! the `wse.atlas*` counters whenever a window is open, so every test
//! here that reaches instrumented code — not only the one that opens the
//! window — holds `TRACE_LOCK`, like `tests/trace.rs`.

use std::sync::Mutex;

use proptest::prelude::*;
use seismic_bench::atlas_experiments::{
    atlas_checksum, atlas_json, smoke_frames, sweep_frames, verify_frame, ATLAS_SCHEMA_VERSION,
};
use seismic_bench::wse_experiments::VALIDATED_CONFIGS;
use seismic_la::scalar::C32;
use seismic_la::Matrix;
use tlr_mvm::json::Json;
use tlr_mvm::{compress, three_phase_cost, trace, CompressionConfig};
use wse_sim::{
    collect_atlas, energy_total_pj, verify_plan, AtlasConfig, AtlasLayout, Cluster, Cs2Config,
    RankModel, Strategy, Workload,
};

static TRACE_LOCK: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    seismic_la::sync::lock(&TRACE_LOCK)
}

fn test_workload() -> Workload {
    Workload {
        nb: 14,
        n_freqs: 3,
        cols_per_freq: 6,
        col_widths: vec![14; 18],
        col_ranks: vec![9, 0, 17, 4, 12, 7, 3, 15, 6, 10, 1, 8, 13, 2, 11, 5, 16, 4],
    }
}

/// The tentpole invariant, cross-layer: a traced `collect_atlas` run
/// must land its grid totals in the `wse.atlas.*` trace counters AND in
/// the snapshot's grid entries — with `==`, not a tolerance.
#[test]
fn atlas_grids_reconcile_with_trace_counters_exactly() {
    let _g = locked();
    let w = test_workload();
    let cluster = Cluster::new(2);
    trace::reset();
    trace::set_enabled(true);
    let f = collect_atlas(
        &w,
        5,
        Strategy::FusedSinglePe,
        AtlasLayout::ThreePhase,
        &cluster,
        &AtlasConfig::default(),
    )
    .expect("workload places");
    trace::set_enabled(false);
    let report = trace::snapshot();
    trace::reset();

    let atlas = report.phase("wse.atlas").expect("wse.atlas phase recorded");
    assert_eq!(atlas.stats.flops, f.flops.total());
    assert_eq!(atlas.stats.relative_bytes, f.relative_bytes.total());
    assert_eq!(atlas.stats.absolute_bytes, f.absolute_bytes.total());
    assert_eq!(atlas.stats.cycles, f.busy_cycles.total());
    assert_eq!(atlas.stats.sram_bytes, f.sram_bytes.total());
    assert_eq!(atlas.stats.iterations, f.pes.total());
    let shuffle = report
        .phase("wse.atlas.shuffle")
        .expect("shuffle counter recorded");
    assert_eq!(shuffle.stats.relative_bytes, f.shuffle_link.total());

    // Grid-counter entries carry the full per-cell fields, not just
    // totals: cells must match element-wise.
    for (name, grid) in [
        ("wse.atlas.pes", &f.pes),
        ("wse.atlas.busy_cycles", &f.busy_cycles),
        ("wse.atlas.flops", &f.flops),
        ("wse.atlas.relative_bytes", &f.relative_bytes),
        ("wse.atlas.shuffle_link", &f.shuffle_link),
        ("wse.atlas.energy_pj", &f.energy_pj),
    ] {
        let entry = report.grid_for(name).expect(name);
        assert_eq!(entry.total(), grid.total(), "{name} total");
        assert_eq!(entry.cells.len(), grid.cells.len(), "{name} shape");
        assert!(
            entry.cells.iter().zip(&grid.cells).all(|(a, b)| a == b),
            "{name} cells diverge"
        );
    }

    // The hot collection phase recorded its span.
    assert!(report.phase("wse.atlas.collect").is_some());
}

/// The acceptance criterion: comm-avoiding frames show **zero**
/// shuffle-phase inter-PE link traffic, three-phase frames show the
/// exact §6.6 term — verified against a *real compressed matrix*
/// through `three_phase_cost`, not just against the rank model.
#[test]
fn shuffle_traffic_matches_three_phase_cost_model() {
    let _g = locked();
    let nb = 12;
    let (m, n) = (5 * nb + 3, 4 * nb + 5);
    let a = Matrix::from_fn(m, n, |i, j| {
        let x = i as f32 / m as f32;
        let y = j as f32 / n as f32;
        let d = ((x - y) * (x - y) + 0.03).sqrt();
        C32::from_polar(1.0 / (1.0 + 2.0 * d), -7.0 * d)
    });
    let tlr = compress(&a, CompressionConfig::paper_default().with_nb(nb));
    let model = three_phase_cost(&tlr);
    let w = Workload::from_tlr_matrices(std::slice::from_ref(&tlr));
    let cluster = Cluster::new(1);

    let tp = collect_atlas(
        &w,
        4,
        Strategy::FusedSinglePe,
        AtlasLayout::ThreePhase,
        &cluster,
        &AtlasConfig::default(),
    )
    .expect("three-phase frame places");
    let ca = collect_atlas(
        &w,
        4,
        Strategy::FusedSinglePe,
        AtlasLayout::CommAvoiding,
        &cluster,
        &AtlasConfig::default(),
    )
    .expect("comm-avoiding frame places");

    // Three-phase: the atlas's shuffle grid total IS the cost model's
    // shuffle byte term (16 bytes per stacked rank entry).
    assert_eq!(tp.shuffle_link.total(), model.shuffle.relative_bytes);
    assert_eq!(tp.shuffle_link.total(), 16 * w.total_rank());
    assert!(tp.shuffle_link.total() > 0);
    // Comm-avoiding: identically zero — the eliminated traffic.
    assert_eq!(ca.shuffle_link.total(), 0);
    assert_eq!(ca.link_east.total(), 0);
    // Everything else is layout-invariant.
    assert_eq!(tp.pes.total(), ca.pes.total());
    assert_eq!(tp.flops.total(), ca.flops.total());
    assert_eq!(tp.link_north.total(), ca.link_north.total());
    assert_eq!(tp.link_south.total(), ca.link_south.total());
}

/// Artifact determinism, perfbench-style: two collections checksum
/// identically, the JSON round-trips through `tlr_mvm::json`, and the embedded
/// checksum matches a recomputation from the parsed artifact's source
/// frames.
#[test]
fn atlas_artifact_checksum_is_deterministic() {
    let _g = locked();
    let a = smoke_frames().expect("smoke frames collect");
    let b = smoke_frames().expect("smoke frames collect");
    assert_eq!(atlas_checksum(&a), atlas_checksum(&b));
    let tree = atlas_json("determinism", &a).expect("frames verify");
    let parsed = Json::parse(&tree.to_pretty()).expect("artifact parses");
    assert_eq!(
        parsed.get("schema_version").and_then(Json::as_u64),
        Some(ATLAS_SCHEMA_VERSION)
    );
    assert_eq!(
        parsed.get("checksum").and_then(Json::as_u64),
        Some(atlas_checksum(&b)),
        "embedded checksum must match an independent collection"
    );
    // Per-frame grid totals survive the writer/parser loop exactly.
    let frames = parsed.get("frames").and_then(Json::as_arr).expect("frames");
    for (fj, f) in frames.iter().zip(&a) {
        let grids = fj.get("grids").expect("grids object");
        for (name, grid) in [
            ("pes", &f.pes),
            ("energy_pj", &f.energy_pj),
            ("shuffle_link", &f.shuffle_link),
        ] {
            let total = grids
                .get(name)
                .and_then(|g| g.get("total"))
                .and_then(Json::as_u64);
            assert_eq!(total, Some(grid.total()), "{name}");
        }
    }
}

/// `repro atlas-sweep`: every validated config at four stack widths
/// under both layouts, each frame on the smallest cluster that places
/// it (one system fewer cannot hold its PEs), a plan `verify_plan`
/// accepts, and reconciled with its placement. The census overlays
/// about 390 M PEs: 5 s optimised, over a minute without.
#[test]
#[cfg_attr(debug_assertions, ignore = "paper-scale census: run with --release")]
fn atlas_sweep_places_every_width_of_every_config() {
    let _g = locked();
    let frames = sweep_frames().expect("every width places on some cluster");
    assert_eq!(frames.len(), VALIDATED_CONFIGS.len() * 4 * 2);
    let per_system = Cs2Config::default().usable_pes() as u64;
    for (config, &(nb, acc)) in frames.chunks(8).zip(&VALIDATED_CONFIGS) {
        let w = RankModel::paper(nb, acc).expect("validated").generate();
        let mut widths: Vec<usize> = config.iter().map(|f| f.stack_width).collect();
        widths.dedup();
        assert_eq!(widths.len(), 4, "nb={nb} acc={acc}: {widths:?}");
        for pair in config.chunks(2) {
            assert_eq!(pair[0].stack_width, pair[1].stack_width);
            assert_eq!(pair[0].layout, AtlasLayout::ThreePhase);
            assert_eq!(pair[1].layout, AtlasLayout::CommAvoiding);
        }
        for f in config {
            let what = format!("nb={nb} acc={acc} sw={} {:?}", f.stack_width, f.layout);
            assert_eq!(f.nb, nb, "{what}");
            let cluster = Cluster::new(f.shards);
            let plan = verify_plan(&w, f.stack_width, f.strategy, &cluster);
            assert!(plan.is_ok(), "{what}: {:?}", plan.diagnostics);
            assert!(
                f.placement.pes_used > (f.shards as u64 - 1) * per_system,
                "{what}"
            );
            verify_frame(f).unwrap_or_else(|e| panic!("{what}: {e}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random workloads: every sum-grid reconciles exactly with the
    /// placement aggregates under both layouts, and the energy grid
    /// distributes the integer-pJ total without losing a picojoule.
    #[test]
    fn random_workloads_reconcile(
        nb in 4usize..12,
        n_freqs in 1usize..4,
        cols in 1usize..6,
        sw in 1usize..8,
        seed in 0u64..1_000,
        three_phase in proptest::bool::ANY,
    ) {
        let _g = locked();
        let n_cols = n_freqs * cols;
        // Deterministic pseudo-ranks from the seed (splitmix-ish).
        let col_ranks: Vec<u64> = (0..n_cols)
            .map(|i| {
                let mut z = seed
                    .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i as u64 + 1));
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                (z ^ (z >> 27)) % 50
            })
            .collect();
        let w = Workload {
            nb,
            n_freqs,
            cols_per_freq: cols,
            col_widths: vec![nb; n_cols],
            col_ranks,
        };
        let layout = if three_phase {
            AtlasLayout::ThreePhase
        } else {
            AtlasLayout::CommAvoiding
        };
        let cluster = Cluster::new(2);
        let f = collect_atlas(
            &w,
            sw,
            Strategy::FusedSinglePe,
            layout,
            &cluster,
            &AtlasConfig::default(),
        )
        .expect("small workloads always place");
        prop_assert_eq!(f.pes.total(), f.placement.pes_used);
        prop_assert_eq!(f.pe_capacity.total(), f.placement.pes_available);
        prop_assert_eq!(f.flops.total(), f.placement.flops);
        prop_assert_eq!(f.relative_bytes.total(), f.placement.relative_bytes);
        prop_assert_eq!(f.absolute_bytes.total(), f.placement.absolute_bytes);
        prop_assert_eq!(f.energy_pj.total(), f.total_energy_pj);
        prop_assert_eq!(f.total_energy_pj, energy_total_pj(&f.placement, &cluster));
        if three_phase {
            prop_assert_eq!(f.shuffle_link.total(), 16 * w.total_rank());
        } else {
            prop_assert_eq!(f.shuffle_link.total(), 0);
        }
        prop_assert_eq!(f.link_west.total(), 0);
        prop_assert!(verify_frame(&f).is_ok());
    }
}
