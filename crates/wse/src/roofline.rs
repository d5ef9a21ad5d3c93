//! Roofline machine descriptors and attainable-performance math for the
//! paper's Figs. 15 and 16.
//!
//! Peak numbers are taken from the paper's own roofline plots (memory and
//! compute ceilings as drawn); the TLR-MVM measured points come from our
//! placement model.

/// One machine (or cluster) on a roofline plot.
#[derive(Clone, Debug)]
pub struct MachineDescriptor {
    /// Display name.
    pub name: String,
    /// Peak memory bandwidth (B/s).
    pub peak_bw: f64,
    /// Peak FP32 compute (flop/s).
    pub peak_flops: f64,
}

impl MachineDescriptor {
    fn new(name: &str, peak_bw: f64, peak_flops: f64) -> Self {
        Self {
            name: name.to_string(),
            peak_bw,
            peak_flops,
        }
    }

    /// Attainable flop rate at a given arithmetic intensity (flop/byte):
    /// `min(peak_flops, intensity × peak_bw)`.
    pub fn attainable(&self, intensity: f64) -> f64 {
        (intensity * self.peak_bw).min(self.peak_flops)
    }

    /// Intensity at which the machine turns compute-bound.
    pub fn ridge_intensity(&self) -> f64 {
        self.peak_flops / self.peak_bw
    }
}

/// Fig. 15: the minimum configurations able to host the compressed
/// dataset in (fast) memory, as the paper lists them.
pub fn fig15_machines() -> Vec<MachineDescriptor> {
    vec![
        // Six CS-2 systems: ceilings as drawn in Fig. 15 (120 PB/s
        // memory, 10.2 PFlop/s FP32).
        MachineDescriptor::new("Six Cerebras CS-2", 120.0e15, 10.2e15),
        // One AMD MI250X: 3.2 TB/s HBM, ~47.9 TFlop/s FP32.
        MachineDescriptor::new("One AMD MI250X", 3.2e12, 47.9e12),
        // Two NVIDIA A100 80GB: 2 × 2.0 TB/s, 2 × 19.5 TFlop/s.
        MachineDescriptor::new("Two NVIDIA A100", 4.0e12, 39.0e12),
        // Four Fujitsu A64FX: 4 × 1.024 TB/s, 4 × 6.8 TFlop/s FP32.
        MachineDescriptor::new("Four Fujitsu A64FX", 4.1e12, 27.2e12),
        // Three NEC SX-Aurora TSUBASA: 3 × 1.53 TB/s, 3 × 4.9 TFlop/s.
        MachineDescriptor::new("Three NEC SX-Aurora TSUBASA", 4.6e12, 14.7e12),
        // One AMD EPYC Rome node: ~0.41 TB/s, ~4.6 TFlop/s.
        MachineDescriptor::new("One AMD EPYC Rome", 0.41e12, 4.6e12),
        // One Intel Ice Lake node: ~0.41 TB/s, ~5.3 TFlop/s.
        MachineDescriptor::new("One Intel Ice Lake", 0.41e12, 5.3e12),
    ]
}

/// Fig. 16: 48 CS-2 systems vs the June '23 Top-5.
pub fn fig16_machines() -> Vec<MachineDescriptor> {
    vec![
        // Condor Galaxy ceilings as drawn: 960 PB/s, 81.6 PFlop/s.
        MachineDescriptor::new("Condor Galaxy (48 Cerebras CS-2)", 960.0e15, 81.6e15),
        // Fugaku: 158 976 A64FX × 1.024 TB/s ≈ 163 PB/s.
        MachineDescriptor::new("Fugaku (158976 Fujitsu A64FX)", 163.0e15, 1080.0e15),
        // Frontier: 37 888 MI250X × 3.2 TB/s ≈ 121 PB/s.
        MachineDescriptor::new("Frontier (37888 AMD MI250X)", 121.0e15, 1815.0e15),
        // LUMI: 10 240 MI250X ≈ 33 PB/s.
        MachineDescriptor::new("LUMI (10240 AMD MI250X)", 32.8e15, 490.0e15),
        // Leonardo: 13 824 A100 × 2 TB/s ≈ 27.6 PB/s.
        MachineDescriptor::new("Leonardo (13824 NVIDIA A100)", 27.6e15, 270.0e15),
        // Summit: 27 648 V100 × 0.9 TB/s ≈ 24.9 PB/s.
        MachineDescriptor::new("Summit (27648 NVIDIA V100)", 24.9e15, 432.0e15),
    ]
}

/// The paper's constant-rank TLR-MVM upper-bound estimates for Fugaku and
/// Frontier (§7.5): sustained bandwidth in B/s.
pub fn constant_rank_estimates() -> Vec<(String, f64)> {
    vec![
        ("TLR-MVM w/ constant ranks on Fugaku".to_string(), 95.38e15),
        (
            "TLR-MVM w/ constant ranks on Frontier".to_string(),
            69.01e15,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attainable_is_min_of_ceilings() {
        let m = MachineDescriptor::new("test", 100.0, 1000.0);
        assert_eq!(m.attainable(1.0), 100.0); // memory bound
        assert_eq!(m.attainable(100.0), 1000.0); // compute bound
        assert!((m.ridge_intensity() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn cs2_dominates_fig15_on_bandwidth() {
        let machines = fig15_machines();
        let cs2 = &machines[0];
        for other in &machines[1..] {
            // >3 orders of magnitude over the MI250X (paper §7.5).
            assert!(cs2.peak_bw > 20.0 * other.peak_bw);
        }
        assert!(cs2.peak_bw / machines[1].peak_bw > 1e3);
    }

    #[test]
    fn fig16_relative_point_beats_frontier_bandwidth() {
        // §7.5: 92.58 PB/s relative > Frontier's constant-rank 69.01,
        // comparable to Fugaku's 95.38.
        let est = constant_rank_estimates();
        let fugaku = est[0].1;
        let frontier = est[1].1;
        let ours = 92.58e15;
        assert!(ours > frontier);
        assert!(ours < fugaku);
        assert!((fugaku - ours) / fugaku < 0.05);
    }

    #[test]
    fn tlr_mvm_bound_regimes_match_paper() {
        // §7.6: on CS-2 the TLR-MVM "behaves as a compute-bound kernel"
        // (absolute intensity ≈ 1/6 flop/byte exceeds the CS-2 ridge of
        // ~0.085), while on every conventional machine it stays firmly
        // memory-bound (ridges of 10–15 flop/byte).
        let machines = fig15_machines();
        let abs_intensity = 1.0 / 6.0;
        assert!(
            abs_intensity > machines[0].ridge_intensity(),
            "CS-2 compute-bound"
        );
        let rel_intensity = 0.5;
        for m in &machines[1..] {
            assert!(
                rel_intensity < m.ridge_intensity(),
                "{} ridge {}",
                m.name,
                m.ridge_intensity()
            );
        }
    }
}
