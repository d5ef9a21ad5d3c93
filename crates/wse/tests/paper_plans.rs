//! Table 1's ten plans verify statically: each calibrated `(nb, acc)`
//! point at the stack width chosen for six systems, fused on six systems
//! and scattered over eight PEs per chunk on 48. A regression in the SRAM,
//! cycle or rank model fails here with its `WV..` diagnostic.

use wse_sim::{choose_stack_width, verify_plan, Cluster, RankModel, Strategy};

/// The five validated `(nb, acc)` configurations of Tables 1–3.
const PAPER_CONFIGS: &[(usize, f32)] =
    &[(25, 1e-4), (50, 1e-4), (70, 1e-4), (50, 3e-4), (70, 3e-4)];

#[test]
fn paper_plans_all_verify() {
    let six = Cluster::new(6);
    let mut checked = 0;
    for &(nb, acc) in PAPER_CONFIGS {
        // WV07: each configuration has a calibrated rank model.
        let model = RankModel::paper(nb, acc)
            .unwrap_or_else(|| panic!("no calibrated rank model for nb={nb}, acc={acc}"));
        let workload = model.generate();
        let pes = u64::try_from(six.total_pes()).expect("PE count fits u64");
        let sw = choose_stack_width(&workload, pes, six.cs2.max_stack_width(nb));
        for (strategy, cluster) in [
            (Strategy::FusedSinglePe, six),
            (Strategy::ScatterEightPes, Cluster::new(48)),
        ] {
            checked += 1;
            let report = verify_plan(&workload, sw, strategy, &cluster);
            assert!(
                report.is_ok(),
                "paper(nb={nb}, acc={acc}, {strategy:?}, shards={}):\n{report}",
                cluster.systems
            );
        }
    }
    assert_eq!(checked, 10);
}
