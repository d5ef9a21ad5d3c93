//! Power and energy-efficiency model (paper §7.6).
//!
//! The paper measures a steady 16 kW per CS-2 running the worst-case
//! load-balanced TLR-MVM shard (no fabric traffic thanks to the
//! communication-avoiding layout), versus ~23 kW for fabric-heavy stencil
//! workloads. We model per-system draw as idle + occupancy-scaled active
//! power, calibrated to those two operating points.

use tlr_mvm::cast::{f64_to_u64, usize_to_f64};

use crate::machine::Cluster;
use crate::placement::PlacementReport;

/// Power/energy summary of a placed workload.
#[derive(Clone, Copy, Debug)]
pub struct EnergyReport {
    /// Power per CS-2 system (W).
    pub power_per_system_w: f64,
    /// Total cluster power (W).
    pub total_power_w: f64,
    /// Sustained energy efficiency (GFlop/s per W).
    pub gflops_per_w: f64,
    /// Energy per TLR-MVM invocation (J).
    pub energy_per_mvm_j: f64,
}

/// Evaluate the energy model for a placement.
pub fn energy_report(report: &PlacementReport, cluster: &Cluster) -> EnergyReport {
    let cfg = &cluster.cs2;
    let per_system = cfg.idle_power_w + cfg.active_power_w * report.occupancy;
    let total = per_system * usize_to_f64(cluster.systems);
    EnergyReport {
        power_per_system_w: per_system,
        total_power_w: total,
        gflops_per_w: report.flops_per_s / 1e9 / total,
        energy_per_mvm_j: total * report.time_s,
    }
}

/// Total energy of one TLR-MVM invocation in **integer picojoules**:
/// `round(energy_per_mvm_j · 1e12)`, the `repro recon` energy column.
pub fn energy_total_pj(report: &PlacementReport, cluster: &Cluster) -> u64 {
    f64_to_u64((energy_report(report, cluster).energy_per_mvm_j * 1e12).round())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Cs2Config;
    use crate::placement::{place, Strategy};
    use crate::workload::{choose_stack_width, RankModel};

    #[test]
    fn power_matches_paper_16kw() {
        // §7.6: a busy TLR-MVM shard draws ~16 kW per CS-2.
        let cluster = Cluster::new(6);
        let cfg = Cs2Config::default();
        let w = RankModel::paper(25, 1e-4).unwrap().generate();
        let sw = choose_stack_width(&w, cluster.total_pes() as u64, cfg.max_stack_width(25));
        let rep = place(&w, sw, Strategy::FusedSinglePe, &cluster).unwrap();
        let e = energy_report(&rep, &cluster);
        assert!(
            (e.power_per_system_w - 16_000.0).abs() < 800.0,
            "power {} W",
            e.power_per_system_w
        );
    }

    #[test]
    fn efficiency_in_paper_range() {
        // §7.6: 36.50 GFlop/s/W. The model must land within ~30 %.
        let cluster = Cluster::new(6);
        let cfg = Cs2Config::default();
        let w = RankModel::paper(25, 1e-4).unwrap().generate();
        let sw = choose_stack_width(&w, cluster.total_pes() as u64, cfg.max_stack_width(25));
        let rep = place(&w, sw, Strategy::FusedSinglePe, &cluster).unwrap();
        let e = energy_report(&rep, &cluster);
        assert!(
            e.gflops_per_w > 25.0 && e.gflops_per_w < 50.0,
            "{} GFlop/s/W vs paper 36.50",
            e.gflops_per_w
        );
    }

    #[test]
    fn idle_cluster_draws_idle_power() {
        let cluster = Cluster::new(2);
        let rep = PlacementReport {
            strategy: Strategy::FusedSinglePe,
            shards: 2,
            stack_width: 1,
            pes_used: 0,
            pes_available: cluster.total_pes() as u64,
            occupancy: 0.0,
            worst_cycles: 1,
            time_s: 1.0,
            relative_bytes: 0,
            absolute_bytes: 0,
            flops: 0,
            relative_bw: 0.0,
            absolute_bw: 0.0,
            flops_per_s: 0.0,
        };
        let e = energy_report(&rep, &cluster);
        assert_eq!(e.power_per_system_w, cluster.cs2.idle_power_w);
        assert_eq!(e.gflops_per_w, 0.0);
    }

    #[test]
    fn integer_picojoules_track_the_float_model() {
        let cluster = Cluster::new(6);
        let cfg = Cs2Config::default();
        let w = RankModel::paper(50, 1e-4).unwrap().generate();
        let sw = choose_stack_width(&w, cluster.total_pes() as u64, cfg.max_stack_width(50));
        let rep = place(&w, sw, Strategy::FusedSinglePe, &cluster).unwrap();
        let pj = energy_total_pj(&rep, &cluster);
        let joules = energy_report(&rep, &cluster).energy_per_mvm_j;
        // Within half a picojoule of the float model (it IS the rounding).
        assert!((pj as f64 - joules * 1e12).abs() <= 0.5);
        assert!(pj > 0);
    }
}
