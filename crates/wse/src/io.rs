//! Host ↔ wafer I/O model (§6.6): the paper excludes data transfer from
//! its timings, noting the "slow-bandwidth ethernet interconnect … may be
//! mitigated with a double buffering mechanism or … CXL". This module
//! quantifies that remark: given a link bandwidth, how does per-MVM
//! transfer time compare to compute, and does double buffering hide it?

use crate::machine::Cs2Config;
use crate::placement::PlacementReport;

/// Host link options.
#[derive(Clone, Copy, Debug)]
pub struct HostLink {
    /// Sustained link bandwidth per CS-2 system (B/s).
    pub bandwidth: f64,
    /// Per-transfer latency (s).
    pub latency: f64,
}

impl HostLink {
    /// The CS-2's 1.2 Tb/s aggregate ethernet ingress (≈ 150 GB/s).
    pub fn ethernet() -> Self {
        Self {
            bandwidth: 150.0e9,
            latency: 10.0e-6,
        }
    }

    /// A CXL-class coherent link (the paper's suggested mitigation).
    pub fn cxl() -> Self {
        Self {
            bandwidth: 1.0e12,
            latency: 1.0e-6,
        }
    }
}

/// Transfer/compute balance of a placed TLR-MVM.
#[derive(Clone, Copy, Debug)]
pub struct IoReport {
    /// Bytes in per MVM invocation per system (the x vectors).
    pub bytes_in_per_system: f64,
    /// Bytes out per MVM per system (partial y vectors for host reduction).
    pub bytes_out_per_system: f64,
    /// Transfer time per MVM (s).
    pub transfer_s: f64,
    /// Compute time per MVM (s) — the worst-PE time.
    pub compute_s: f64,
    /// transfer/compute ratio; ≤ 1 means double buffering fully hides it.
    pub transfer_over_compute: f64,
    /// Effective throughput ratio with double buffering
    /// (`compute / max(compute, transfer)`).
    pub double_buffer_efficiency: f64,
}

/// Evaluate the I/O balance for a placement.
///
/// Input traffic: each chunk needs its `x_j` segment (`cl` complex values)
/// — broadcast per tile column, counted once per column per frequency.
/// Output traffic: each chunk returns its partial `y` (`nb` complex
/// values) for the host reduction.
pub fn io_report(
    report: &PlacementReport,
    workload: &crate::workload::Workload,
    link: &HostLink,
    cfg: &Cs2Config,
) -> IoReport {
    let systems = report.shards.max(1) as f64;
    // Inputs: per frequency, the full x vector (Σ cl) once per system
    // (on-wafer fan-out handles per-column distribution).
    let x_len: usize = workload.col_widths.iter().sum();
    let bytes_in = workload.n_freqs as f64 * x_len as f64 * 8.0;
    // Outputs: one nb-long partial per chunk.
    let chunks = report.pes_used as f64
        / match report.strategy {
            crate::placement::Strategy::FusedSinglePe => 1.0,
            crate::placement::Strategy::ScatterEightPes => 8.0,
        };
    let bytes_out = chunks * workload.nb as f64 * 8.0;
    let bytes_in_per_system = bytes_in / systems;
    let bytes_out_per_system = bytes_out / systems;
    let transfer_s = (bytes_in_per_system + bytes_out_per_system) / link.bandwidth + link.latency;
    let compute_s = cfg.cycles_to_seconds(report.worst_cycles);
    let ratio = transfer_s / compute_s.max(1e-30);
    IoReport {
        bytes_in_per_system,
        bytes_out_per_system,
        transfer_s,
        compute_s,
        transfer_over_compute: ratio,
        double_buffer_efficiency: compute_s / compute_s.max(transfer_s),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Cluster;
    use crate::placement::{place, Strategy};
    use crate::workload::RankModel;

    #[test]
    fn ethernet_is_transfer_bound_cxl_improves() {
        // §6.6's observation, quantified: over ethernet the transfers
        // dominate the ~20 µs kernel; CXL shrinks the gap substantially.
        let w = RankModel::paper(70, 1e-4).unwrap().generate();
        let cluster = Cluster::new(6);
        let rep = place(&w, 23, Strategy::FusedSinglePe, &cluster).unwrap();
        let cfg = Cs2Config::default();
        let eth = io_report(&rep, &w, &HostLink::ethernet(), &cfg);
        let cxl = io_report(&rep, &w, &HostLink::cxl(), &cfg);
        assert!(
            eth.transfer_over_compute > 1.0,
            "ethernet should not hide behind a {} s kernel (ratio {})",
            eth.compute_s,
            eth.transfer_over_compute
        );
        assert!(cxl.transfer_over_compute < eth.transfer_over_compute / 3.0);
        assert!(cxl.double_buffer_efficiency > eth.double_buffer_efficiency);
    }

    #[test]
    fn traffic_accounting_scales_with_systems() {
        let w = RankModel::paper(50, 3e-4).unwrap().generate();
        let cfg = Cs2Config::default();
        let r6 = place(&w, 18, Strategy::FusedSinglePe, &Cluster::new(6)).unwrap();
        let r12 = place(&w, 18, Strategy::FusedSinglePe, &Cluster::new(12)).unwrap();
        let io6 = io_report(&r6, &w, &HostLink::ethernet(), &cfg);
        let io12 = io_report(&r12, &w, &HostLink::ethernet(), &cfg);
        // Same total traffic, twice the links.
        let ratio = io6.bytes_in_per_system / io12.bytes_in_per_system;
        assert!((ratio - 2.0).abs() < 1e-9);
    }
}
