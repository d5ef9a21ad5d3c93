//! `solve-large` and `solve-small`: the MDD solve, end to end.
//!
//! One operation is `run_mdd_with_operators` (ground truth, observed
//! data, adjoint image, 30 LSQR iterations, NMSE) followed by the inverse
//! FFT to time traces — the paper's time-to-solution unit. The two
//! workloads share this file and differ only in [`Params`].

use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};

use rand::Rng;
use seis_wave::SyntheticDataset;
use seismic_fft::{forward_traces, traces_to_frequency_slices};
use seismic_geom::Ordering;
use seismic_la::blas::nrm2;
use seismic_la::C32;
use seismic_mdd::{
    compression_stats, freq_vectors_to_time_traces, lsqr, nmse, run_mdd_with_operators,
    LsqrOptions, MdcOperator, MddConfig,
};
use tlr_mvm::{CompressionConfig, LinearOperator, TlrMatrix};

use super::{
    adjoint_mismatch, all_finite, below, bit_equal, compress_stack, dataset, rng, Ctx, Scope,
    ADJOINT_TOL, MIB, NMSE_GATE,
};
use crate::json;

struct Params {
    scale: usize,
    freq_stride: usize,
    nb: usize,
    acc: f32,
    /// Fixed virtual sources, evenly spaced over the receivers, solved
    /// first (in seeded order). `rel_error` is their mean NMSE, so it does
    /// not move with the seed; every run completes them.
    panel: usize,
    /// Seeded virtual sources cycled after the panel.
    extra: usize,
    setup_reps: usize,
}

/// 1032×630 × 12 frequencies at `nb` 32: a 51.5 MiB compressed stack,
/// thirteen times the 4 MiB of L2 the two reference cores have (the rule
/// is at least eight times). Every third frequency bin is kept because
/// the SVD compression of all 36 takes 19 s of set-up on that box; 12
/// take 5 s. One solve streams the stack 62 times and takes 0.27–0.35 s,
/// so a 10 s run times about thirty.
const LARGE: Params = Params {
    scale: 5,
    freq_stride: 3,
    nb: 32,
    acc: 1e-4,
    panel: 4,
    extra: 12,
    setup_reps: 1,
};

/// 180×98 × 36 frequencies at `nb` 16 — the size every committed
/// `BENCH_*.json` number uses; 9 MiB, cache-resident.
const SMALL: Params = Params {
    scale: 12,
    freq_stride: 1,
    nb: 16,
    acc: 1e-4,
    panel: 16,
    extra: 16,
    setup_reps: 5,
};

const SMOKE: Params = Params {
    scale: 40,
    freq_stride: 2,
    nb: 4,
    acc: 1e-4,
    panel: 2,
    extra: 2,
    setup_reps: 1,
};

pub fn run_large(ctx: &mut Ctx) {
    run(ctx, &LARGE);
}

pub fn run_small(ctx: &mut Ctx) {
    run(ctx, &SMALL);
}

struct State {
    ds: SyntheticDataset,
    tlr: Vec<TlrMatrix>,
    cfg: MddConfig,
    bins: Vec<usize>,
}

struct Solved {
    inverted: Vec<C32>,
    nmse_inverse: f64,
    nmse_adjoint: f64,
    iterations: usize,
    traces: Vec<Vec<f64>>,
}

/// What only the traced solve can say.
#[derive(Default)]
struct TracedFacts {
    operator_calls: u64,
    final_rel_residual: f64,
}

/// Operator wrapper that records a span per `apply` / `apply_adjoint`.
struct Timed<'a, O> {
    op: O,
    sc: Scope<'a>,
    calls: AtomicU64,
}

impl<O: LinearOperator> LinearOperator for Timed<'_, O> {
    fn nrows(&self) -> usize {
        self.op.nrows()
    }
    fn ncols(&self) -> usize {
        self.op.ncols()
    }
    fn apply(&self, x: &[C32]) -> Vec<C32> {
        self.calls.fetch_add(1, AtomicOrdering::Relaxed);
        self.sc.time("core.apply", || self.op.apply(x))
    }
    fn apply_adjoint(&self, y: &[C32]) -> Vec<C32> {
        self.calls.fetch_add(1, AtomicOrdering::Relaxed);
        self.sc.time("core.adjoint", || self.op.apply_adjoint(y))
    }
}

fn solve_plain(st: &State, vs: usize) -> Solved {
    let run = run_mdd_with_operators(&st.ds, &st.tlr, vs, &st.cfg);
    let traces = freq_vectors_to_time_traces(
        &run.inverted,
        &st.bins,
        st.ds.acq.n_receivers(),
        st.ds.config.nt,
    );
    Solved {
        inverted: run.inverted,
        nmse_inverse: run.nmse_inverse,
        nmse_adjoint: run.nmse_adjoint,
        iterations: run.iterations,
        traces,
    }
}

/// The library's private `scaled_to_match`: least-squares scaling of the
/// adjoint image onto the truth.
fn scaled_to_match(a: &[C32], t: &[C32]) -> Vec<C32> {
    let mut num = C32::new(0.0, 0.0);
    let mut den = 0.0f32;
    for (ai, ti) in a.iter().zip(t) {
        num += ai.conj() * *ti;
        den += ai.norm_sqr();
    }
    if den == 0.0 {
        return a.to_vec();
    }
    let alpha = num.scale(1.0 / den);
    a.iter().map(|ai| *ai * alpha).collect()
}

/// `run_mdd_with_operators` + inverse FFT rebuilt step by step from
/// public functions, with a span around each call into a layer. The
/// result must equal the library's bit for bit; `run` checks that.
fn solve_traced(st: &State, vs: usize, sc: Scope<'_>) -> (Solved, TracedFacts) {
    let ds = &st.ds;
    let (rows, cols) = sc.time("geom.permutation", || ds.permutations(st.cfg.ordering));
    let n_rec = ds.acq.n_receivers();
    let nf = ds.n_freqs();

    let (x_true_blocks, y_blocks) = sc.time("wave.observed_data", || {
        (ds.true_reflectivity(vs), ds.observed_data(vs))
    });
    let y_perm: Vec<C32> = sc.time("geom.perm_apply", || {
        y_blocks.iter().flat_map(|yf| rows.apply(yf)).collect()
    });

    let op = Timed {
        op: MdcOperator::new(st.tlr.iter().collect::<Vec<&TlrMatrix>>()),
        sc,
        calls: AtomicU64::new(0),
    };
    let adj_perm = op.apply_adjoint(&y_perm);
    let lsqr_span = sc.span("mdd.lsqr");
    let op = Timed {
        sc: sc.under(&lsqr_span),
        ..op
    };
    let sol = lsqr(&op, &y_perm, st.cfg.lsqr);
    drop(lsqr_span);

    let unpermute = |data: &[C32]| -> Vec<C32> {
        (0..nf)
            .flat_map(|f| cols.unapply(&data[f * n_rec..(f + 1) * n_rec]))
            .collect()
    };
    let x_true: Vec<C32> = x_true_blocks.concat();
    let (adjoint_nat, inverted) = sc.time("geom.perm_apply", || {
        (unpermute(&adj_perm), unpermute(&sol.x))
    });
    let adjoint = scaled_to_match(&adjoint_nat, &x_true);
    let (nmse_adjoint, nmse_inverse) = (nmse(&adjoint, &x_true), nmse(&inverted, &x_true));
    std::hint::black_box(compression_stats(&st.tlr));

    let traces = sc.time("fft.inverse", || {
        freq_vectors_to_time_traces(&inverted, &st.bins, n_rec, ds.config.nt)
    });
    let b_norm = f64::from(nrm2(&y_perm)).max(f64::MIN_POSITIVE);
    let facts = TracedFacts {
        operator_calls: op.calls.load(AtomicOrdering::Relaxed),
        final_rel_residual: sol
            .residual_history
            .last()
            .map_or(0.0, |r| f64::from(*r) / b_norm),
    };
    let solved = Solved {
        inverted,
        nmse_inverse,
        nmse_adjoint,
        iterations: sol.iterations,
        traces,
    };
    (solved, facts)
}

fn verify(s: &Solved, want_iters: usize) -> Result<(), String> {
    if !all_finite(&s.inverted) || !s.traces.iter().flatten().all(|v| v.is_finite()) {
        return Err("solve produced non-finite values".into());
    }
    if s.iterations != want_iters {
        return Err(format!(
            "LSQR ran {} iterations, not {want_iters}",
            s.iterations
        ));
    }
    if !below(s.nmse_inverse, s.nmse_adjoint) {
        return Err(format!(
            "inversion NMSE {} is not below the adjoint's {}",
            s.nmse_inverse, s.nmse_adjoint
        ));
    }
    if !below(s.nmse_inverse, NMSE_GATE) {
        return Err(format!(
            "inversion NMSE {} over the {NMSE_GATE} gate",
            s.nmse_inverse
        ));
    }
    Ok(())
}

/// Forward FFT of the time traces back to frequency slices: must return
/// the inverted vector on the retained bins. Relative 2-norm error.
fn forward_roundtrip_error(st: &State, s: &Solved) -> f64 {
    let nt = st.ds.config.nt;
    let n_rec = st.ds.acq.n_receivers();
    let flat: Vec<f64> = s.traces.concat();
    let spectra = forward_traces(&flat, nt, n_rec);
    let slices = traces_to_frequency_slices(&spectra, nt / 2 + 1, n_rec);
    let (mut num, mut den) = (0.0f64, 0.0f64);
    for (f, &bin) in st.bins.iter().enumerate() {
        for (r, z) in slices[bin].iter().enumerate() {
            let want = s.inverted[f * n_rec + r];
            num += (z.re - f64::from(want.re)).powi(2) + (z.im - f64::from(want.im)).powi(2);
            den += f64::from(want.norm_sqr());
        }
    }
    (num / den.max(f64::MIN_POSITIVE)).sqrt()
}

fn run(ctx: &mut Ctx, full: &Params) {
    let p = if ctx.smoke() { &SMOKE } else { full };
    let size = ctx.opts.size;
    let compression = CompressionConfig::paper_default()
        .with_nb(p.nb)
        .with_acc(p.acc);

    let st = ctx.setup(p.setup_reps, |sc| {
        let ds = dataset(size, p.scale, p.freq_stride, sc);
        let tlr = compress_stack(&ds, compression, sc);
        let bins = ds.slices.iter().map(|s| s.bin).collect();
        State {
            ds,
            tlr,
            cfg: MddConfig {
                compression,
                ordering: Ordering::Hilbert,
                lsqr: LsqrOptions::default(),
            },
            bins,
        }
    });
    let n_rec = st.ds.acq.n_receivers();
    let stats = compression_stats(&st.tlr);
    ctx.set("operator_mb", stats.compressed_bytes as f64 / MIB);
    ctx.note("dense_mb", json::num(stats.dense_bytes as f64 / MIB));
    ctx.note(
        "shape",
        json::string(format!(
            "{}x{} x {} freqs, nb {}",
            st.ds.acq.n_sources(),
            n_rec,
            st.ds.n_freqs(),
            p.nb
        )),
    );

    // Panel first (seeded order), then the seeded extras; cycled.
    let mut r = rng(ctx.opts.seed, 1);
    let mut sources: Vec<usize> = (0..p.panel)
        .map(|k| (2 * k + 1) * n_rec / (2 * p.panel))
        .collect();
    for i in (1..sources.len()).rev() {
        sources.swap(i, r.gen_range(0..i + 1));
    }
    sources.extend((0..p.extra).map(|_| r.gen_range(0..n_rec)));

    let want_iters = st.cfg.lsqr.max_iters;
    let mut panel_nmse = vec![f64::NAN; p.panel];
    let mut facts = TracedFacts::default();
    // The first traced solve, kept to compare with the library's answer
    // and to time the forward FFT, both outside the timed operations.
    let mut first_traced: Option<(usize, Solved)> = None;
    ctx.run_ops(p.panel, 1, |i, sc| {
        let vs = sources[i % sources.len()];
        let solved = if sc.on {
            let (s, f) = solve_traced(&st, vs, sc);
            facts = f;
            s
        } else {
            solve_plain(&st, vs)
        };
        if i < p.panel {
            panel_nmse[i] = solved.nmse_inverse;
        }
        let verdict = verify(&solved, want_iters);
        if sc.on && first_traced.is_none() {
            first_traced = Some((vs, solved));
        }
        verdict
    });

    ctx.set("rel_error", panel_nmse.iter().sum::<f64>() / p.panel as f64);
    ctx.note(
        "panel_nmse",
        json::Value::Arr(panel_nmse.iter().map(|v| json::num(*v)).collect()),
    );

    let sc = ctx.scope();
    let checks = sc.span("checks");
    let under = sc.under(&checks);
    let op = MdcOperator::new(st.tlr.iter().collect::<Vec<&TlrMatrix>>());
    let mismatch = under.time("check.adjoint_dot", || adjoint_mismatch(&op));
    let traced_check = first_traced.map(|(vs, solved)| {
        let reference = under.time("check.library_solve", || solve_plain(&st, vs));
        let same = bit_equal(&reference.inverted, &solved.inverted)
            && reference.nmse_inverse.to_bits() == solved.nmse_inverse.to_bits();
        let t = std::time::Instant::now();
        let roundtrip = under.time("fft.forward", || forward_roundtrip_error(&st, &solved));
        (same, roundtrip, t.elapsed().as_secs_f64())
    });
    drop(checks);
    ctx.check(
        &format!("adjoint dot-product test off by {mismatch}"),
        below(mismatch, ADJOINT_TOL),
    );
    if let Some((same, roundtrip, forward_s)) = traced_check {
        ctx.check("traced solve differs from run_mdd_with_operators", same);
        ctx.check(
            &format!("forward FFT round trip off by {roundtrip}"),
            below(roundtrip, 1e-4),
        );
        ctx.set("fft.forward_s", forward_s);
    }

    if ctx.opts.trace {
        let s = ctx.tracer.summary();
        for (metric, span) in [
            // Per solve; set-up's own `permutations` calls sit inside
            // `reordered_kernel` and are part of geom.reorder_s.
            ("geom.permutation_s", "geom.permutation"),
            ("wave.observed_data_s", "wave.observed_data"),
            ("geom.perm_apply_s", "geom.perm_apply"),
            ("core.apply_s", "core.apply"),
            ("core.adjoint_s", "core.adjoint"),
            ("fft.inverse_s", "fft.inverse"),
        ] {
            ctx.set(metric, ctx.per_traced_op(&s, span));
        }
        ctx.set(
            "mdd.lsqr_self_s",
            s.self_s("mdd.lsqr") / ctx.traced_ops().max(1) as f64,
        );
        ctx.set("mdd.lsqr_iters", want_iters as f64);
        ctx.set("mdd.final_rel_residual", facts.final_rel_residual);
        ctx.set("core.apply_calls", facts.operator_calls as f64);
        ctx.set_setup_layers(&s);
        ctx.set_stack_counters(st.tlr.iter());
        ctx.set("core.compress_ratio", stats.ratio);
    }
}
