//! Regression tests pinning the reproduction's headline numbers — if a
//! refactor drifts the calibrated models away from the paper, these fail.

use seismic_bench::wse_experiments::{
    fig14, paper_six_shard_refs, six_shard_rows, table4, table5, VALIDATED_CONFIGS,
};
use wse_sim::{place, Cluster, Cs2Config, PlaceError, RankModel, Strategy};

#[test]
fn table1_stack_widths_match_paper() {
    let rows = six_shard_rows().expect("paper configs place");
    // Paper: 64 / 32 / 23 / 18 / 14 — we allow ±1 on each.
    let want = [64usize, 32, 23, 18, 14];
    for (row, want) in rows.iter().zip(want) {
        let got = row.report.stack_width;
        assert!(
            (got as i64 - want as i64).abs() <= 1,
            "nb={} stack width {got} vs paper {want}",
            row.nb
        );
    }
}

#[test]
fn table1_occupancies_in_paper_band() {
    for row in six_shard_rows().expect("paper configs place") {
        assert!(
            row.report.occupancy >= 0.93 && row.report.occupancy <= 1.0,
            "nb={} occupancy {}",
            row.nb,
            row.report.occupancy
        );
    }
}

#[test]
fn table2_absolute_accesses_within_3pct() {
    for row in six_shard_rows().expect("paper configs place") {
        let err = (row.report.absolute_bytes as f64 - row.paper.absolute_bytes).abs()
            / row.paper.absolute_bytes;
        assert!(
            err < 0.04,
            "nb={} acc={} abs bytes err {err}",
            row.nb,
            row.acc
        );
    }
}

#[test]
fn table3_absolute_bandwidth_within_10pct() {
    for row in six_shard_rows().expect("paper configs place") {
        let err = (row.report.absolute_pbs() - row.paper.abs_pbs).abs() / row.paper.abs_pbs;
        assert!(err < 0.10, "nb={} abs bw err {err}", row.nb);
    }
}

#[test]
fn table4_scaling_shape() {
    let rows = table4().expect("table4 configs place");
    // Bandwidth increases monotonically with shard count.
    for w in rows.windows(2) {
        assert!(w[1].report.relative_bw > w[0].report.relative_bw);
    }
    // Strategy 2 at 48 shards delivers > 3x the 20-shard strategy-1 rate
    // (paper: 87.73 vs 35.77).
    assert!(rows[4].report.relative_bw > 2.5 * rows[3].report.relative_bw);
}

#[test]
fn table5_headline_numbers() {
    let rows = table5().expect("table5 configs place");
    // Ordering: nb = 70 > nb = 50 > nb = 25 in relative bandwidth.
    assert!(rows[2].report.relative_bw > rows[1].report.relative_bw);
    assert!(rows[1].report.relative_bw > rows[0].report.relative_bw);
    // The headline: within 10 % of 92.58 PB/s relative and 5 % of
    // 245.59 PB/s absolute.
    let headline = &rows[2];
    let rel_err = (headline.report.relative_pbs() - 92.58).abs() / 92.58;
    let abs_err = (headline.report.absolute_pbs() - 245.59).abs() / 245.59;
    assert!(rel_err < 0.10, "relative headline err {rel_err}");
    assert!(abs_err < 0.05, "absolute headline err {abs_err}");
    // Per-PE worst cycles within 3 % of the paper-implied values.
    for (row, implied) in rows.iter().zip([2849u64, 2425, 2388]) {
        let err = (row.report.worst_cycles as f64 - implied as f64).abs() / implied as f64;
        assert!(err < 0.03, "nb={} cycles err {err}", row.nb);
    }
}

#[test]
fn fig14_saturation_and_ratio() {
    let rows = fig14(&[8, 32, 64, 128]);
    let last = rows.last().unwrap();
    // Saturates in the 2-2.5 PB/s band (paper: "saturates to 2 PB/s").
    assert!(last.rel_bw > 1.9e15 && last.rel_bw < 2.6e15);
    // Absolute/relative ratio approaches 3 (paper: "3X speedup").
    let ratio = last.abs_bw / last.rel_bw;
    assert!((ratio - 3.0).abs() < 0.15, "ratio {ratio}");
}

#[test]
fn power_sixteen_kilowatts() {
    let p = seismic_bench::wse_experiments::power().expect("power config places");
    assert!((p.power_per_system_w - 16_000.0).abs() < 1_000.0);
    assert!(p.gflops_per_w > 25.0 && p.gflops_per_w < 55.0);
}

/// Stack widths below the paper's: every validated config at its paper
/// width and at ¾, ½ and ¼ of it (strategy 1). A narrower stack cuts
/// more chunks than the paper's six systems hold; the PE count a failed
/// one-system placement reports sizes the cluster, `place` succeeds on
/// `⌈required / usable_pes⌉` systems, and one system fewer could not hold
/// the PEs used.
#[test]
fn narrower_stacks_place_on_the_fewest_systems_that_hold_them() {
    // Systems at (paper, ¾, ½, ¼) width, per config.
    let want: [[usize; 4]; 5] = [
        [6, 8, 12, 24],
        [6, 8, 12, 24],
        [6, 9, 13, 28],
        [6, 9, 12, 27],
        [6, 8, 12, 27],
    ];
    let per_system = Cs2Config::default().usable_pes() as u64;
    let strategy = Strategy::FusedSinglePe;
    for ((&(nb, acc), paper), want) in VALIDATED_CONFIGS
        .iter()
        .zip(paper_six_shard_refs())
        .zip(want)
    {
        let w = RankModel::paper(nb, acc).expect("validated").generate();
        let pw = paper.stack_width;
        let widths = [pw, 3 * pw / 4, pw / 2, pw / 4];
        for (sw, want) in widths.into_iter().zip(want) {
            let what = format!("nb={nb} acc={acc} sw={sw}");
            let required = match place(&w, sw, strategy, &Cluster::new(1)) {
                Err(PlaceError::NotEnoughPes { required, .. }) => required,
                other => panic!("{what}: one system should not hold it: {other:?}"),
            };
            let systems = required.div_ceil(per_system) as usize;
            assert_eq!(systems, want, "{what}");
            let cluster = Cluster::new(systems);
            let report =
                place(&w, sw, strategy, &cluster).unwrap_or_else(|e| panic!("{what}: {e}"));
            assert_eq!(report.pes_used, required, "{what}");
            assert!(
                report.pes_used > (systems as u64 - 1) * per_system,
                "{what}: fits on {} systems",
                systems - 1
            );
        }
    }
}
