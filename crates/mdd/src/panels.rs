//! Trace-panel output: turn MDD results into the receiver×time gathers
//! the paper displays (Fig. 11 / Fig. 13), as CSV files.

use std::io::Write;
use std::path::Path;

use seis_wave::SyntheticDataset;
use seismic_la::scalar::C32;

use crate::driver::MddRun;
use crate::mdc::freq_vectors_to_time_traces;

/// Which field of an [`MddRun`] to panel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PanelField {
    /// Cross-correlation (adjoint) image — Fig. 11a.
    Adjoint,
    /// LSQR inversion — Fig. 11b/c.
    Inverted,
    /// Ground truth — Fig. 11d.
    Truth,
}

/// Extract the receiver×time gather of one MDD run: every receiver's
/// trace for the chosen field, time-domain.
pub fn gather_panel(run: &MddRun, ds: &SyntheticDataset, field: PanelField) -> Vec<Vec<f64>> {
    let data: &[C32] = match field {
        PanelField::Adjoint => &run.adjoint,
        PanelField::Inverted => &run.inverted,
        PanelField::Truth => &run.x_true,
    };
    let n_rec = ds.acq.n_receivers();
    let bins: Vec<usize> = ds.slices.iter().map(|s| s.bin).collect();
    freq_vectors_to_time_traces(data, &bins, n_rec, ds.config.nt)
}

/// Write a panel as CSV: one row per trace, one column per time sample.
pub fn write_panel_csv(path: &Path, traces: &[Vec<f64>], dt: f64) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    // Header: time axis.
    if let Some(first) = traces.first() {
        let header: Vec<String> = (0..first.len())
            .map(|i| format!("{:.4}", i as f64 * dt))
            .collect();
        writeln!(f, "trace,{}", header.join(","))?;
    }
    for (i, tr) in traces.iter().enumerate() {
        let row: Vec<String> = tr.iter().map(|v| format!("{v:.6e}")).collect();
        writeln!(f, "{i},{}", row.join(","))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_roundtrip_structure() {
        let dir = std::env::temp_dir().join("tlrmvm_panel_test");
        let path = dir.join("panel.csv");
        let traces = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
        write_panel_csv(&path, &traces, 0.004).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("trace,0.0000,0.0040"));
        assert!(lines[1].starts_with("0,1.0"));
        assert!(lines[2].starts_with("1,3.0"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
