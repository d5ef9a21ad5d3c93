//! `serve-mix`: the engine under a closed loop. One submitter thread
//! keeps `2·T` jobs in flight against `T` workers; it looks the operator
//! up in the cache (building it on a miss), submits, and when the window
//! is full blocks in `wait()` on the oldest job.
//!
//! One operation is one **block** of jobs of fixed composition, timed from
//! the return of the previous block's last `wait()` to the return of its
//! own, so the operations partition the loop's wall time and every one of
//! them does the same kinds of work. A job's own time, from the cache
//! lookup to the return of `wait()`, is a per-layer figure.

use std::collections::VecDeque;
use std::time::Instant;

use rand::Rng;
use seismic_la::C32;
use seismic_mdd::{
    lsqr, Engine, EngineConfig, FrequencyOperators, JobHandle, JobSpec, LsqrOptions, OperatorCache,
    OperatorKey,
};
use tlr_mvm::{CompressionConfig, TlrMatrix};

use super::{
    checksum, compress_stack, dataset, probe_vector, random_vector, rng, sweep_dense_error, Ctx,
    MIB,
};
use crate::json;
use crate::spans::SpanId;
use crate::stats::{mean, percentile};

struct Params {
    scale: usize,
    /// `(nb, acc)` of the three operator keys, most popular first.
    keys: [(usize, f32); 3],
    /// Popularity of the keys, in tenths.
    popularity: [u32; 3],
    /// Share of MDD jobs, in tenths; the rest are MVM jobs.
    mdd_tenths: u32,
    mdd_iters: usize,
    /// Seeded input vectors per job kind.
    inputs: usize,
    /// Jobs every run completes; the cache counters are read when the
    /// last of them has been looked up, so they are exact for a seed.
    fixed_jobs: usize,
    /// Jobs per block of fixed composition — one timed operation; traced
    /// and untraced blocks alternate in the traced run.
    block: usize,
    setup_reps: usize,
}

/// Three scale-12 stacks (180×98 × 36 frequencies, 5–9 MiB each): small
/// enough that scheduling, queueing and cache cost show beside the sweep.
/// 60/30/10 % popularity with room for two stacks makes the least popular
/// key miss and evict on most of its requests while the other two mostly
/// hit.
const FULL: Params = Params {
    scale: 12,
    keys: [(16, 1e-4), (16, 1e-3), (8, 1e-3)],
    popularity: [6, 3, 1],
    mdd_tenths: 1,
    mdd_iters: 8,
    inputs: 4,
    fixed_jobs: 2000,
    block: 20,
    setup_reps: 3,
};

/// 60×32 at loose accuracies, so that tiles truncate and the accuracy
/// figure is not exactly 0.
const SMOKE: Params = Params {
    scale: 20,
    keys: [(8, 5e-2), (8, 1e-1), (4, 1e-1)],
    popularity: [6, 3, 1],
    mdd_tenths: 1,
    mdd_iters: 3,
    inputs: 2,
    fixed_jobs: 40,
    block: 10,
    setup_reps: 1,
};

#[derive(Clone, Copy)]
struct Job {
    key: usize,
    mdd: bool,
    input: usize,
}

struct State {
    ds: seis_wave::SyntheticDataset,
    stacks: Vec<Vec<TlrMatrix>>,
    keys: Vec<OperatorKey>,
    resident: Vec<usize>,
    /// `[key][input]`, frequency-major.
    mvm_inputs: Vec<Vec<C32>>,
    mdd_inputs: Vec<Vec<C32>>,
    /// Checksums of the directly computed outputs, `[key][kind][input]`.
    expected: Vec<[Vec<u64>; 2]>,
}

struct InFlight {
    handle: JobHandle,
    job: Job,
    started: Instant,
    index: usize,
    /// Tracer clock at the cache lookup and at the submit, when traced.
    traced: Option<(u64, u64)>,
}

/// The next `p.block` jobs. Every block has the same composition —
/// `popularity[k]` tenths of key `k`, `mdd_tenths` tenths MDD — in seeded
/// order with seeded inputs, so the seed moves the sequence (and with it
/// the cache's hits and evictions) but not the mix, and a traced block
/// and an untraced one do the same kinds of work.
fn next_block(r: &mut rand_chacha::ChaCha8Rng, p: &Params) -> Vec<Job> {
    let mut shuffle = |v: &mut Vec<usize>| {
        for i in (1..v.len()).rev() {
            v.swap(i, r.gen_range(0..i + 1));
        }
    };
    let mut keys: Vec<usize> = (0..3)
        .flat_map(|k| std::iter::repeat_n(k, p.block * p.popularity[k] as usize / 10))
        .collect();
    keys.resize(p.block, 0);
    shuffle(&mut keys);
    let mut order: Vec<usize> = (0..p.block).collect();
    shuffle(&mut order);
    let mdd = &order[..p.block * p.mdd_tenths as usize / 10];
    keys.iter()
        .enumerate()
        .map(|(i, &key)| Job {
            key,
            mdd: mdd.contains(&i),
            input: r.gen_range(0..p.inputs),
        })
        .collect()
}

pub fn run(ctx: &mut Ctx) {
    let p = if ctx.smoke() { &SMOKE } else { &FULL };
    let size = ctx.opts.size;
    let seed = ctx.opts.seed;
    let threads = ctx.opts.threads;
    let opts = LsqrOptions {
        max_iters: p.mdd_iters,
        rel_tol: 0.0,
        damp: 0.0,
    };

    let st = ctx.setup(p.setup_reps, |sc| {
        let ds = dataset(size, p.scale, 1, sc);
        let stacks: Vec<Vec<TlrMatrix>> = p
            .keys
            .iter()
            .map(|&(nb, acc)| {
                let cfg = CompressionConfig::paper_default().with_nb(nb).with_acc(acc);
                compress_stack(&ds, cfg, sc)
            })
            .collect();
        let keys = p
            .keys
            .iter()
            .map(|&(nb, acc)| OperatorKey::new("overthrust-serve", nb, acc))
            .collect();
        // Inputs and the reference output of every (key, kind, input),
        // computed directly on operators built outside the cache.
        let mut r = rng(seed, 3);
        let direct: Vec<FrequencyOperators> = stacks
            .iter()
            .map(|s| FrequencyOperators::build(s))
            .collect();
        let (ncols, nrows) = (direct[0].ncols_total(), direct[0].nrows_total());
        let mvm_inputs: Vec<Vec<C32>> = (0..p.inputs)
            .map(|_| random_vector(&mut r, ncols))
            .collect();
        let mdd_inputs: Vec<Vec<C32>> = (0..p.inputs)
            .map(|_| random_vector(&mut r, nrows))
            .collect();
        let expected = sc.time("serve.references", || {
            direct
                .iter()
                .map(|ops| {
                    [
                        mvm_inputs
                            .iter()
                            .map(|x| checksum(&ops.apply_all_frequencies(x)))
                            .collect(),
                        mdd_inputs
                            .iter()
                            .map(|y| checksum(&lsqr(ops, y, opts).x))
                            .collect(),
                    ]
                })
                .collect()
        });
        State {
            resident: direct
                .iter()
                .map(FrequencyOperators::resident_bytes)
                .collect(),
            ds,
            stacks,
            keys,
            mvm_inputs,
            mdd_inputs,
            expected,
        }
    });

    // Room for any two stacks, never for all three.
    let mut sorted = st.resident.clone();
    sorted.sort_unstable();
    let budget = sorted[1] + sorted[2];
    ctx.set(
        "operator_mb",
        st.resident.iter().sum::<usize>() as f64 / MIB,
    );
    ctx.note("cache_budget_mb", json::num(budget as f64 / MIB));

    let cache = OperatorCache::new(budget);
    let engine = Engine::start(EngineConfig {
        workers: threads,
        queue_depth: 64,
        recorder: None,
    });
    let window = 2 * threads;
    let seconds = ctx.opts.seconds;
    let mut jobs_rng = rng(seed, 4);
    let mut pending: Vec<Job> = Vec::new();
    let mut in_flight: VecDeque<InFlight> = VecDeque::with_capacity(window);
    let (mut job_ms, mut queue_ms, mut exec_ms, mut build_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut fixed_cache = None;
    let engine_before = engine.stats();
    let open_block = |ctx: &Ctx, first_job: usize| {
        ctx.traced_op(first_job, p.block)
            .then(|| ctx.tracer.begin("op", SpanId::ROOT))
    };

    let start = Instant::now();
    let mut block_start = start;
    let mut block_span = open_block(ctx, 0);
    let mut submitted = 0usize;
    loop {
        // Whole blocks only: the last one is completed past the deadline.
        let more = submitted < p.fixed_jobs
            || !submitted.is_multiple_of(p.block)
            || start.elapsed().as_secs_f64() < seconds;
        if in_flight.len() == window || (!more && !in_flight.is_empty()) {
            let f = in_flight.pop_front().expect("window is not empty");
            let result = f.handle.wait();
            job_ms.push(f.started.elapsed().as_secs_f64() * 1e3);
            let kind = usize::from(f.job.mdd);
            let ok = checksum(&result.output) == st.expected[f.job.key][kind][f.job.input];
            queue_ms.push(result.queue_ns as f64 * 1e-6);
            exec_ms.push(result.exec_ns as f64 * 1e-6);
            if let (Some((lookup_ns, submit_ns)), Some(block)) = (f.traced, block_span) {
                // The engine reports how long the job queued and ran;
                // the rest of the job is the cache lookup before and,
                // after, the finished job waiting for the submitter to
                // reach it (jobs are collected in submission order).
                let end_ns = ctx.tracer.now_ns();
                let id = ctx.tracer.record("engine.job", block, lookup_ns, end_ns);
                let dequeued = submit_ns + result.queue_ns;
                ctx.tracer
                    .record("engine.cache_lookup", id, lookup_ns, submit_ns);
                ctx.tracer.record("engine.queue", id, submit_ns, dequeued);
                let done = dequeued + result.exec_ns;
                ctx.tracer.record("engine.exec", id, dequeued, done);
                ctx.tracer
                    .record("engine.done_wait", id, done, end_ns.max(done));
            }
            ctx.check_with(ok, || {
                format!("job {} output differs from the direct computation", f.index)
            });
            if (f.index + 1).is_multiple_of(p.block) {
                let traced = block_span.take().map(|id| ctx.tracer.end(id)).is_some();
                let ms = block_start.elapsed().as_secs_f64() * 1e3;
                ctx.record_op(ms, traced, Ok(()));
                block_start = Instant::now();
                block_span = open_block(ctx, f.index + 1);
            }
            continue;
        }
        if !more {
            break;
        }
        if pending.is_empty() {
            pending = next_block(&mut jobs_rng, p);
        }
        let job = pending.pop().expect("a block has jobs");
        let traced = ctx.traced_op(submitted, p.block);
        let started = Instant::now();
        let lookup_ns = traced.then(|| ctx.tracer.now_ns());
        let ops = cache.get_or_build(&st.keys[job.key], || {
            let t = Instant::now();
            let built = FrequencyOperators::build(&st.stacks[job.key]);
            build_ms.push(t.elapsed().as_secs_f64() * 1e3);
            built
        });
        let spec = if job.mdd {
            JobSpec::Mdd {
                ops,
                y: st.mdd_inputs[job.input].clone(),
                opts,
            }
        } else {
            JobSpec::Mvm {
                ops,
                x: st.mvm_inputs[job.input].clone(),
            }
        };
        let traced = lookup_ns.map(|t| (t, ctx.tracer.now_ns()));
        in_flight.push_back(InFlight {
            handle: engine.submit(spec),
            job,
            started,
            index: submitted,
            traced,
        });
        submitted += 1;
        if submitted == p.fixed_jobs {
            fixed_cache = Some(cache.stats());
        }
    }
    ctx.set_timed_wall(start.elapsed().as_secs_f64());
    let engine_stats = engine.stats().delta(&engine_before);
    drop(engine);

    ctx.check(
        &format!(
            "engine completed {} of {} submitted jobs",
            engine_stats.completed, engine_stats.submitted
        ),
        engine_stats.completed == engine_stats.submitted
            && engine_stats.submitted == submitted as u64,
    );
    ctx.check(
        &format!("engine rejected {} submissions", engine_stats.rejected),
        engine_stats.rejected == 0,
    );

    // Accuracy of what the jobs compute: the most popular key's sweep
    // against the dense kernels, on the fixed probe.
    let ops = FrequencyOperators::build(&st.stacks[0]);
    let probe = probe_vector(ops.ncols_total());
    let y = ops.apply_all_frequencies(&probe);
    let (rel_error, within) = sweep_dense_error(&st.ds, &ops, &probe, &y, p.keys[0].1);
    ctx.check(
        &format!(
            "MVM job output is outside the acc bound of the dense kernel (rel. error {rel_error})"
        ),
        within,
    );
    ctx.set("rel_error", rel_error);

    if ctx.opts.trace {
        let c = fixed_cache.unwrap_or_else(|| cache.stats());
        ctx.set("engine.job_ms_p50", percentile(&job_ms, 50.0));
        ctx.set("engine.job_ms_p90", percentile(&job_ms, 90.0));
        ctx.set("engine.queue_ms_p50", percentile(&queue_ms, 50.0));
        ctx.set("engine.queue_ms_p90", percentile(&queue_ms, 90.0));
        ctx.set("engine.exec_ms_p50", percentile(&exec_ms, 50.0));
        ctx.set("engine.exec_ms_p90", percentile(&exec_ms, 90.0));
        ctx.set("engine.submitted", engine_stats.submitted as f64);
        ctx.set("engine.completed", engine_stats.completed as f64);
        ctx.set("engine.rejected", engine_stats.rejected as f64);
        ctx.set("engine.stolen", engine_stats.stolen as f64);
        ctx.set(
            "engine.steal_share",
            engine_stats.stolen as f64 / engine_stats.completed.max(1) as f64,
        );
        ctx.set("engine.cache_hits", c.hits as f64);
        ctx.set("engine.cache_misses", c.misses as f64);
        ctx.set("engine.cache_evictions", c.evictions as f64);
        ctx.set(
            "engine.cache_hit_ratio",
            c.hits as f64 / (c.hits + c.misses).max(1) as f64,
        );
        ctx.set("engine.cache_build_ms", mean(&build_ms));
        let s = ctx.tracer.summary();
        ctx.set_setup_layers(&s);
        ctx.set_stack_counters(st.stacks.iter().flatten());
    }
}
