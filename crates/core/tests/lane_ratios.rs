//! The two timed quotients the lane kernels are held to, on 192 × 160
//! cache-resident operands in an optimised build (a debug build
//! vectorises nothing, so its quotients say nothing):
//!
//! * `gemv.vbatch.fast / gemv.ubatch.fast ≤ 2.0` — the V batch's
//!   conjugated dot is vectorised; it reads 2.65–3.41 when LLVM leaves it
//!   scalar (DESIGN.md §12);
//! * `gemv.vbatch.fast / gemv.vbatch.ref ≤ 0.9` — the blocked V-batch
//!   kernel beats the plain `seismic_la::blas` one.
//!
//! The V batch is the kernel every `TlrMatrix` adjoint runs on its dense
//! runs: `gemv_conj_transpose_stacked` over one block, with the swapped
//! copy of `x` made inside the timed call as `apply_adjoint_into` makes
//! it.
//!
//! Both sides of a quotient run on the same operands in the same process,
//! their samples interleaved so that a slow spell of the host hits all
//! three kernels: the quotient needs no baseline and no quiet machine.
//! This is the test binary's only test, and cargo runs test binaries one
//! after another, so nothing runs beside it. `-- --nocapture` prints the
//! medians and the quotients:
//!
//! ```text
//! cargo test --release -p tlr-mvm --test lane_ratios -- --nocapture
//! ```

use std::hint::black_box;
use std::time::Instant;

use seismic_la::blas::{gemv_conj_transpose, gemv_conj_transpose_stacked};
use seismic_la::scalar::C32;
use seismic_la::{Matrix, Scalar};
use tlr_mvm::{gemv_acc_fast, swap_re_im};

/// Untimed rounds before the samples.
const WARMUPS: usize = 2;

/// Timed samples per kernel; a kernel's figure is their median.
const SAMPLES: usize = 15;

fn vector(n: usize) -> Vec<C32> {
    (0..n)
        .map(|i| C32::new((i as f32 * 0.17).sin(), (i as f32 * 0.31).cos()))
        .collect()
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "timed quotients mean something in an optimised build only: run with --release"
)]
fn v_batch_kernel_stays_under_its_two_ceilings() {
    let (m, n) = (192, 160);
    let a = Matrix::from_fn(m, n, |i, j| {
        let d = (i as f32 / m as f32 - j as f32 / n as f32).abs() + 0.03;
        C32::from_polar(1.0 / (1.0 + 4.0 * d), -7.0 * d)
    });
    let (x_m, x_n) = (vector(m), vector(n));
    let (mut y_fast, mut y_ref, mut y_m) =
        (vec![C32::ZERO; n], vec![C32::ZERO; n], vec![C32::ZERO; m]);
    let mut xs = vec![C32::ZERO; m];
    let mut vbatch_fast = || {
        swap_re_im(&x_m, &mut xs);
        gemv_conj_transpose_stacked([(&a, x_m.as_slice(), xs.as_slice())], &mut y_fast);
        black_box(y_fast[0]);
    };
    let mut ubatch_fast = || {
        gemv_acc_fast(&a, &x_n, &mut y_m);
        black_box(y_m[0]);
    };
    let mut vbatch_ref = || {
        gemv_conj_transpose(&a, &x_m, &mut y_ref);
        black_box(y_ref[0]);
    };
    let mut kernels: [(&str, &mut dyn FnMut()); 3] = [
        ("gemv.vbatch.fast", &mut vbatch_fast),
        ("gemv.ubatch.fast", &mut ubatch_fast),
        ("gemv.vbatch.ref", &mut vbatch_ref),
    ];

    let mut samples = [[0u64; SAMPLES]; 3];
    for round in 0..WARMUPS + SAMPLES {
        for (k, (_, op)) in kernels.iter_mut().enumerate() {
            let t = Instant::now();
            op();
            let ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
            if let Some(s) = round.checked_sub(WARMUPS) {
                samples[k][s] = ns;
            }
        }
    }
    let medians = samples.map(|mut s| {
        s.sort_unstable();
        s[SAMPLES / 2].max(1) as f64
    });
    for ((name, _), median) in kernels.iter().zip(medians) {
        println!("{name}: median {median} ns of {SAMPLES}");
    }

    let vectorised = medians[0] / medians[1];
    let blocked = medians[0] / medians[2];
    println!("gemv.vbatch.fast/gemv.ubatch.fast {vectorised:.3}");
    println!("gemv.vbatch.fast/gemv.vbatch.ref {blocked:.3}");
    assert!(
        vectorised <= 2.0,
        "gemv.vbatch.fast/gemv.ubatch.fast = {vectorised:.2} is over its 2.0 ceiling: \
         the conjugated dot no longer vectorises"
    );
    assert!(
        blocked <= 0.9,
        "gemv.vbatch.fast/gemv.vbatch.ref = {blocked:.2} is over its 0.9 ceiling: \
         the blocked V-batch kernel no longer beats the plain one"
    );
}
