//! `compress-stack`: the write side of the operator. One operation
//! compresses the whole frequency stack at both `(nb, acc)` points with
//! the default method; the MVM does nothing here.

use std::time::Instant;

use rand::Rng;
use seis_wave::SyntheticDataset;
use seismic_geom::Ordering;
use seismic_la::rsvd::rsvd_compress_adaptive;
use seismic_la::svd::svd_compress;
use seismic_la::{Matrix, C32};
use seismic_mdd::{compression_stats, CompressionStats};
use tlr_mvm::{CompressionConfig, TlrMatrix};

use super::{compress_stack, dataset, rng, Ctx, Scope, ACC_BOUND_SLACK, MIB};
use crate::json;
use crate::stats::median;

struct Params {
    scale: usize,
    freq_stride: usize,
    /// The two `(nb, acc)` points, compressed back to back in one
    /// operation so that every timed sample does the same work.
    points: [(usize, f32); 2],
    min_ops: usize,
    /// Tiles the traced run times `svd_compress` /
    /// `rsvd_compress_adaptive` on.
    sampled_tiles: usize,
    /// Set-up here is dataset synthesis alone, 0.1 s a pass.
    setup_reps: usize,
}

/// 405×242 × 12 frequencies (every third bin of the scale-8 dataset,
/// 9 MiB dense): one operation takes 0.95 s on the reference box, so a
/// 10 s run times ten; all 36 bins would allow three.
const FULL: Params = Params {
    scale: 8,
    freq_stride: 3,
    points: [(32, 1e-4), (16, 1e-3)],
    min_ops: 4,
    sampled_tiles: 48,
    setup_reps: 7,
};

const SMOKE: Params = Params {
    scale: 20,
    freq_stride: 2,
    points: [(8, 5e-2), (4, 1e-1)],
    min_ops: 2,
    sampled_tiles: 4,
    setup_reps: 1,
};

fn config(point: (usize, f32)) -> CompressionConfig {
    CompressionConfig::paper_default()
        .with_nb(point.0)
        .with_acc(point.1)
}

fn compress_both(ds: &SyntheticDataset, p: &Params, sc: Scope<'_>) -> [Vec<TlrMatrix>; 2] {
    p.points.map(|point| compress_stack(ds, config(point), sc))
}

pub fn run(ctx: &mut Ctx) {
    let p = if ctx.smoke() { &SMOKE } else { &FULL };
    let size = ctx.opts.size;
    let ds = ctx.setup(p.setup_reps, |sc| dataset(size, p.scale, p.freq_stride, sc));

    // The reference result every timed run must reproduce (never traced,
    // so the span totals below belong to the timed operations alone).
    let untraced = Scope {
        on: false,
        ..ctx.scope()
    };
    let reference = compress_both(&ds, p, untraced);
    let stats: [CompressionStats; 2] = [
        compression_stats(&reference[0]),
        compression_stats(&reference[1]),
    ];
    let dense_mb = (stats[0].dense_bytes + stats[1].dense_bytes) as f64 / MIB;
    ctx.set(
        "operator_mb",
        (stats[0].compressed_bytes + stats[1].compressed_bytes) as f64 / MIB,
    );
    ctx.note("dense_mb_per_op", json::num(dense_mb));

    ctx.run_ops(p.min_ops, 1, |_, sc| {
        let stacks = compress_both(&ds, p, sc);
        for (k, stack) in stacks.iter().enumerate() {
            let s = compression_stats(stack);
            if s.compressed_bytes != stats[k].compressed_bytes
                || s.total_rank != stats[k].total_rank
            {
                return Err(format!(
                    "point {k}: {} bytes / rank {}, first run gave {} / {}",
                    s.compressed_bytes,
                    s.total_rank,
                    stats[k].compressed_bytes,
                    stats[k].total_rank
                ));
            }
        }
        Ok(())
    });

    // Reconstruction error against the dense kernels, both points, on a
    // low and a high frequency.
    let sc = ctx.scope();
    let checks = sc.span("checks");
    let mut rel_error = 0.0f64;
    let mut within = true;
    for (k, stack) in reference.iter().enumerate() {
        for f in super::sampled_freqs(stack.len()) {
            let dense = ds.reordered_kernel(f, Ordering::Hilbert);
            let err = f64::from(stack[f].reconstruct().sub(&dense).fro_norm())
                / f64::from(dense.fro_norm());
            rel_error = rel_error.max(err);
            within &= err <= ACC_BOUND_SLACK * f64::from(p.points[k].1);
        }
    }
    drop(checks);
    ctx.check(
        &format!("reconstruction error {rel_error} is outside the acc bound"),
        within,
    );
    ctx.set("rel_error", rel_error);

    if ctx.opts.trace {
        let (svd_us, rsvd_us) = tile_probes(&ds, p, ctx.opts.seed, ctx.scope());
        let s = ctx.tracer.summary();
        let traced = ctx.traced_ops().max(1) as f64;
        // Both are summed over frequencies and both points, per operation;
        // with more than one thread they exceed the operation's wall time.
        ctx.set("geom.reorder_s", s.total_s("geom.reorder") / traced);
        ctx.set("core.compress_s", s.total_s("core.compress") / traced);
        ctx.set("wave.generate_s", ctx.per_setup(&s, "wave.generate"));
        ctx.set("la.svd_us_per_tile", svd_us);
        ctx.set("la.rsvd_us_per_tile", rsvd_us);
        let op_s = s.total_s("op") / traced;
        ctx.set("core.compress_mbps", dense_mb / op_s);
        ctx.set("core.compress_ratio", stats[0].ratio);
        ctx.set_stack_counters(reference.iter().flatten());
    }
}

/// Median microseconds of `svd_compress` and `rsvd_compress_adaptive` on
/// seeded `nb × nb` tiles of the first point's reordered kernels, at the
/// tile-relative tolerance `compress` would use.
fn tile_probes(ds: &SyntheticDataset, p: &Params, seed: u64, sc: Scope<'_>) -> (f64, f64) {
    let _g = sc.span("la.tile_probes");
    let (nb, acc) = p.points[0];
    let mut r = rng(seed, 5);
    let kernels: Vec<Matrix<C32>> = super::sampled_freqs(ds.n_freqs())
        .iter()
        .map(|&f| ds.reordered_kernel(f, Ordering::Hilbert))
        .collect();
    let (m, n) = ds.kernel_shape();
    let (mut svd_us, mut rsvd_us) = (Vec::new(), Vec::new());
    for t in 0..p.sampled_tiles {
        let k = &kernels[t % kernels.len()];
        let i = r.gen_range(0..(m / nb).max(1));
        let j = r.gen_range(0..(n / nb).max(1));
        let tile = k.block(i * nb, j * nb, nb.min(m), nb.min(n));
        let tol = acc * tile.fro_norm();
        let t0 = Instant::now();
        std::hint::black_box(svd_compress(&tile, tol));
        svd_us.push(t0.elapsed().as_secs_f64() * 1e6);
        let t0 = Instant::now();
        std::hint::black_box(rsvd_compress_adaptive(&tile, tol, &mut r));
        rsvd_us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    (median(&svd_us), median(&rsvd_us))
}
