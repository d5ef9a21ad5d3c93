//! Quickstart: compress a seismic-style frequency matrix with TLR, run
//! the matrix-vector product through every execution layout, and verify
//! they agree with the dense reference.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use seismic_la::blas::gemv;
use seismic_la::scalar::C32;
use seismic_la::Matrix;
use tlr_mvm::{
    compress, CommAvoiding, CompressionConfig, CompressionMethod, ThreePhase, ToleranceMode,
};

fn main() {
    // 1. A smooth oscillatory kernel — the structure seismic frequency
    //    matrices exhibit after Hilbert reordering.
    let (m, n) = (520, 410);
    let a = Matrix::from_fn(m, n, |i, j| {
        let x = i as f32 / m as f32;
        let y = j as f32 / n as f32;
        let d = ((x - y) * (x - y) + 0.02).sqrt();
        C32::from_polar(1.0 / (1.0 + 4.0 * d), -25.0 * d)
    });

    // 2. Compress at the paper's headline setting: nb = 70, acc = 1e-4.
    let cfg = CompressionConfig {
        nb: 70,
        acc: 1e-4,
        method: CompressionMethod::Svd,
        mode: ToleranceMode::RelativeTile,
    };
    let tlr = compress(&a, cfg);
    println!(
        "compressed {}x{} matrix: total rank {}, max tile rank {}, {:.2}x smaller \
         ({} -> {} bytes), {} of {} tiles stored dense",
        m,
        n,
        tlr.total_rank(),
        tlr.max_rank(),
        tlr.compression_ratio(),
        tlr.dense_bytes(),
        tlr.compressed_bytes(),
        tlr.dense_tiles(),
        tlr.tiling().tile_count()
    );

    // 3. Apply through each layout.
    let x: Vec<C32> = (0..n)
        .map(|i| C32::new((i as f32 * 0.05).sin(), (i as f32 * 0.03).cos()))
        .collect();
    let mut dense_y = vec![C32::new(0.0, 0.0); m];
    gemv(&a, &x, &mut dense_y);

    let tile_y = tlr.apply(&x);
    let tp_y = ThreePhase::new(&tlr).apply(&x);
    let ca = CommAvoiding::new(&tlr);
    let ca_y = ca.apply(&x);
    let chunked_y = ca.apply_chunked(&x, 23); // the paper's nb=70 stack width

    let err = |y: &[C32]| -> f32 {
        let num: f32 = y
            .iter()
            .zip(&dense_y)
            .map(|(a, b)| (*a - *b).norm_sqr())
            .sum::<f32>()
            .sqrt();
        let den: f32 = dense_y.iter().map(|v| v.norm_sqr()).sum::<f32>().sqrt();
        num / den
    };
    println!("relative error vs dense MVM:");
    println!("  per-tile apply            : {:.3e}", err(&tile_y));
    println!("  three-phase (V/shuffle/U) : {:.3e}", err(&tp_y));
    println!("  communication-avoiding    : {:.3e}", err(&ca_y));
    println!("  chunked (stack width 23)  : {:.3e}", err(&chunked_y));

    // 4. Cost accounting (the paper's §6.6 byte formulas).
    let cost = tlr_mvm::tlr_mvm_cost(&tlr);
    // The dense complex MVM is four real m × n MVMs.
    let dense_bytes = 4 * tlr_mvm::relative_bytes(m, n);
    println!(
        "TLR-MVM: {} flops, {} relative bytes ({}x fewer than dense)",
        cost.flops,
        cost.relative_bytes,
        dense_bytes / cost.relative_bytes.max(1)
    );
}
