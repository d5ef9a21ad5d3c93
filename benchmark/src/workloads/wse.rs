//! `wse-map`: the simulator third of the repository. One operation maps
//! a compressed stack onto the modelled wafer (workload census, stack
//! width, placement and shard assignment on 1 and 6 systems) and then
//! executes every frequency's rank chunks functionally.
//!
//! Simulated statistics (cycles, PEs, bytes, fmacs) are what the modelled
//! hardware would do and must repeat exactly; host time is what the
//! simulator takes and is the only thing here that may improve.

use seis_wave::SyntheticDataset;
use seismic_geom::Ordering;
use seismic_la::C32;
use tlr_mvm::{CommAvoiding, CompressionConfig, TlrMatrix};
use wse_sim::{
    assign_shards, choose_stack_width, execute_chunks, place, Cluster, Cs2Config, PlacementReport,
    ShardAssignment, Strategy, Workload,
};

use super::{
    all_finite, below, compress_stack, dataset, dense_error, diff_norm, norm, probe_vector,
    random_vector, rng, sampled_freqs, Ctx, Scope, MIB,
};
use crate::json;

struct Params {
    scale: usize,
    freq_stride: usize,
    nb: usize,
    acc: f32,
    /// Usable PE rows × columns of one modelled system. The real wafer
    /// (750 × 994) would hold this small stack at stack width 1; a wafer
    /// scaled down with the dataset makes the width rule work for its
    /// answer.
    wafer: (usize, usize),
    inputs: usize,
    min_ops: usize,
    block: usize,
    setup_reps: usize,
}

/// The `compress-stack` dataset (405×242 × 12 frequencies) at its first
/// point, `nb` 32 / `acc` 1e-4.
const FULL: Params = Params {
    scale: 8,
    freq_stride: 3,
    nb: 32,
    acc: 1e-4,
    wafer: (40, 50),
    inputs: 2,
    min_ops: 20,
    block: 5,
    setup_reps: 3,
};

const SMOKE: Params = Params {
    scale: 20,
    freq_stride: 2,
    nb: 8,
    acc: 5e-2,
    wafer: (6, 8),
    inputs: 2,
    min_ops: 4,
    block: 1,
    setup_reps: 1,
};

/// `execute_chunks` against `TlrMatrix::apply`, relative 2-norm.
const EXEC_TOL: f64 = 1e-4;

struct State {
    ds: SyntheticDataset,
    tlr: Vec<TlrMatrix>,
    layouts: Vec<CommAvoiding>,
    /// Seeded inputs (frequency-major) and `TlrMatrix::apply` of each.
    inputs: Vec<Vec<C32>>,
    references: Vec<Vec<Vec<C32>>>,
}

/// Everything simulated that one mapping pass yields.
#[derive(Clone, Debug, PartialEq)]
struct Simulated {
    stack_width: usize,
    one: PlacementStats,
    six: PlacementStats,
    flop_imbalance_bits: u64,
    shard_worst_cycles: [u64; 2],
    exec_cycles: u64,
    exec_pes: u64,
    exec_fmacs: u64,
}

#[derive(Clone, Debug, PartialEq)]
struct PlacementStats {
    pes_used: u64,
    worst_cycles: u64,
    relative_bytes: u64,
    absolute_bytes: u64,
    flops: u64,
}

impl From<&PlacementReport> for PlacementStats {
    fn from(r: &PlacementReport) -> Self {
        Self {
            pes_used: r.pes_used,
            worst_cycles: r.worst_cycles,
            relative_bytes: r.relative_bytes,
            absolute_bytes: r.absolute_bytes,
            flops: r.flops,
        }
    }
}

struct Mapped {
    sim: Simulated,
    report: PlacementReport,
    shards: ShardAssignment,
    chunks: u64,
}

fn map_and_execute(st: &State, p: &Params, input: usize, sc: Scope<'_>) -> Result<Mapped, String> {
    let cfg = Cs2Config {
        usable_rows: p.wafer.0,
        usable_cols: p.wafer.1,
        ..Cs2Config::default()
    };
    let cluster = |systems| Cluster { cs2: cfg, systems };
    let strategy = Strategy::FusedSinglePe;

    let workload = sc.time("wse.workload_build", || {
        Workload::from_tlr_matrices(&st.tlr)
    });
    let placed = sc.time("wse.place", || {
        let one = cluster(1);
        let width =
            choose_stack_width(&workload, one.total_pes() as u64, cfg.max_stack_width(p.nb));
        let reports = [one, cluster(6)].map(|c| {
            place(&workload, width, strategy, &c)
                .map(|r| (r, assign_shards(&workload, width, strategy, &c)))
        });
        (width, reports)
    });
    let (width, [one, six]) = placed;
    let (one, _) = one.map_err(|e| format!("place on 1 system: {e}"))?;
    let (six, shards) = six.map_err(|e| format!("place on 6 systems: {e}"))?;

    let (m, n) = st.tlr[0].shape();
    let x = &st.inputs[input];
    let (mut cycles, mut pes, mut fmacs, mut chunk_count) = (0u64, 0u64, 0u64, 0u64);
    let exec = sc.span("wse.exec");
    for (f, layout) in st.layouts.iter().enumerate() {
        let chunks = layout.chunks(width);
        let r = execute_chunks(&chunks, &x[f * n..(f + 1) * n], m, p.nb, strategy, &cfg);
        let want = &st.references[input][f];
        let err = diff_norm(&r.y, want) / norm(want).max(f64::MIN_POSITIVE);
        if !all_finite(&r.y) || !below(err, EXEC_TOL) {
            return Err(format!(
                "frequency {f}: execute_chunks off TlrMatrix::apply by {err}"
            ));
        }
        cycles += r.worst_cycles;
        pes += r.pes_used;
        fmacs += r.fmacs;
        chunk_count += chunks.len() as u64;
    }
    drop(exec);

    Ok(Mapped {
        sim: Simulated {
            stack_width: width,
            one: (&one).into(),
            six: (&six).into(),
            flop_imbalance_bits: shards.flop_imbalance().to_bits(),
            shard_worst_cycles: [one.worst_cycles, shards.worst_cycles()],
            exec_cycles: cycles,
            exec_pes: pes,
            exec_fmacs: fmacs,
        },
        report: one,
        shards,
        chunks: chunk_count,
    })
}

pub fn run(ctx: &mut Ctx) {
    let p = if ctx.smoke() { &SMOKE } else { &FULL };
    let size = ctx.opts.size;
    let seed = ctx.opts.seed;
    let compression = CompressionConfig::paper_default()
        .with_nb(p.nb)
        .with_acc(p.acc);

    let st = ctx.setup(p.setup_reps, |sc| {
        let ds = dataset(size, p.scale, p.freq_stride, sc);
        let tlr = compress_stack(&ds, compression, sc);
        let layouts = sc.time("core.ca_build", || {
            tlr.iter().map(CommAvoiding::new).collect()
        });
        let n = tlr[0].shape().1;
        let mut r = rng(seed, 6);
        let inputs: Vec<Vec<C32>> = (0..p.inputs)
            .map(|_| random_vector(&mut r, n * tlr.len()))
            .collect();
        let references = inputs
            .iter()
            .map(|x| {
                tlr.iter()
                    .enumerate()
                    .map(|(f, t)| t.apply(&x[f * n..(f + 1) * n]))
                    .collect()
            })
            .collect();
        State {
            ds,
            tlr,
            layouts,
            inputs,
            references,
        }
    });
    let compressed: usize = st.tlr.iter().map(TlrMatrix::compressed_bytes).sum();
    ctx.set("operator_mb", compressed as f64 / MIB);

    let mut first: Option<Mapped> = None;
    ctx.run_ops(p.min_ops, p.block, |i, sc| {
        let mapped = map_and_execute(&st, p, i % p.inputs, sc)?;
        match &first {
            None => first = Some(mapped),
            Some(f) if f.sim != mapped.sim => {
                return Err(format!(
                    "simulated statistics changed between operations: {:?}",
                    mapped.sim
                ));
            }
            Some(_) => {}
        }
        Ok(())
    });

    let Some(first) = first else {
        ctx.check("no mapping pass succeeded", false);
        return;
    };
    // Accuracy of the simulated output against the dense kernels on the
    // fixed probe (compression error dominates, so the figure does not
    // move with summation order). The cycle model itself is unvalidated:
    // the repository holds no measured CS-2 run to compare it with.
    let (m, n) = st.tlr[0].shape();
    let width = first.sim.stack_width;
    let probe = probe_vector(n);
    let mut rel_error = 0.0f64;
    let mut within = true;
    for f in sampled_freqs(st.tlr.len()) {
        let r = execute_chunks(
            &st.layouts[f].chunks(width),
            &probe,
            m,
            p.nb,
            Strategy::FusedSinglePe,
            &Cs2Config::default(),
        );
        let kernel = st.ds.reordered_kernel(f, Ordering::Hilbert);
        let (err, ok) = dense_error(&kernel, &probe, &r.y, p.acc);
        rel_error = rel_error.max(err);
        within &= ok;
    }
    ctx.check(
        &format!("simulated output is outside the acc bound of the dense kernel (rel. error {rel_error})"),
        within,
    );
    ctx.set("rel_error", rel_error);
    ctx.note("stack_width", json::num(width as f64));
    ctx.note("sim_cycles", json::num(first.sim.exec_cycles as f64));
    ctx.note("sim_fmacs", json::num(first.sim.exec_fmacs as f64));

    if ctx.opts.trace {
        let s = ctx.tracer.summary();
        ctx.set_setup_layers(&s);
        ctx.set_stack_counters(st.tlr.iter());
        ctx.set("core.ca_build_s", ctx.per_setup(&s, "core.ca_build"));
        ctx.set(
            "wse.workload_build_s",
            ctx.per_traced_op(&s, "wse.workload_build"),
        );
        ctx.set("wse.place_s", ctx.per_traced_op(&s, "wse.place"));
        let exec = ctx.per_traced_op(&s, "wse.exec");
        ctx.set("wse.exec_s", exec);
        ctx.set(
            "wse.host_ns_per_chunk",
            exec * 1e9 / first.chunks.max(1) as f64,
        );
        ctx.set(
            "wse.host_mfmacs_per_s",
            first.sim.exec_fmacs as f64 / exec / 1e6,
        );
        ctx.set("wse.cycles", first.sim.exec_cycles as f64);
        ctx.set("wse.stack_width", width as f64);
        ctx.set("wse.pes_used", first.report.pes_used as f64);
        ctx.set("wse.occupancy", first.report.occupancy);
        ctx.set("wse.fmacs", first.sim.exec_fmacs as f64);
        ctx.set("wse.rel_bytes", first.report.relative_bytes as f64);
        ctx.set("wse.abs_bytes", first.report.absolute_bytes as f64);
        ctx.set("wse.rel_pbs", first.report.relative_pbs());
        ctx.set("wse.abs_pbs", first.report.absolute_pbs());
        ctx.set("wse.pflops", first.report.pflops());
        ctx.set("wse.flop_imbalance", first.shards.flop_imbalance());
    }
}
