//! Property-based physical invariants of the synthetic wavefields.

use proptest::prelude::*;
use seis_wave::modeling::{downgoing_value, reflectivity_value, ModelingConfig};
use seis_wave::VelocityModel;
use seismic_geom::Point3;

fn model() -> VelocityModel {
    VelocityModel::overthrust()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Source-receiver reciprocity of the reflectivity kernel.
    #[test]
    fn reflectivity_reciprocity(
        ax in 0.0f64..4000.0, ay in 0.0f64..2000.0,
        bx in 0.0f64..4000.0, by in 0.0f64..2000.0,
        f in 1.0f64..45.0,
    ) {
        let m = model();
        let a = Point3::new(ax, ay, 300.0);
        let b = Point3::new(bx, by, 300.0);
        let omega = 2.0 * std::f64::consts::PI * f;
        let ab = reflectivity_value(omega, &a, &b, &m);
        let ba = reflectivity_value(omega, &b, &a, &m);
        prop_assert!((ab - ba).abs() < 1e-12 * (1.0 + ab.abs()));
    }

    /// The downgoing amplitude decays (weakly) monotonically with offset
    /// at zero frequency, where no interference can occur.
    #[test]
    fn zero_frequency_amplitude_decays(
        x1 in 100.0f64..1500.0,
        scale in 1.5f64..4.0,
    ) {
        let m = model();
        let cfg = ModelingConfig { n_water_multiples: 0, seafloor_coefficient: 0.35 };
        let src = Point3::new(0.0, 0.0, 10.0);
        let near = Point3::new(x1, 0.0, 300.0);
        let far = Point3::new(x1 * scale, 0.0, 300.0);
        let vn = downgoing_value(0.0, &src, &near, &m, &cfg);
        let vf = downgoing_value(0.0, &src, &far, &m, &cfg);
        // At ω = 0 both terms are real with |direct| > |ghost| suppressed;
        // the magnitude must decrease with distance.
        prop_assert!(vn.abs() >= vf.abs());
    }

    /// Downgoing phase: the dominant (direct) term's phase advances with
    /// frequency at rate d/c — check the group delay numerically.
    #[test]
    fn group_delay_matches_distance(
        h in 0.0f64..2000.0,
        f in 5.0f64..40.0,
    ) {
        let m = model();
        let cfg = ModelingConfig { n_water_multiples: 0, seafloor_coefficient: 0.35 };
        let src = Point3::new(0.0, 0.0, 10.0);
        let rec = Point3::new(h, 0.0, 300.0);
        // Isolate the direct term by comparing against the explicit
        // two-term sum: the total is direct + ghost; their phase slopes
        // straddle d_direct/c and d_ghost/c.
        let domega = 0.01;
        let w0 = 2.0 * std::f64::consts::PI * f;
        let v0 = downgoing_value(w0, &src, &rec, &m, &cfg);
        let v1 = downgoing_value(w0 + domega, &src, &rec, &m, &cfg);
        prop_assume!(v0.abs() > 1e-9 && v1.abs() > 1e-9);
        let mut dphi = v1.arg() - v0.arg();
        while dphi > std::f64::consts::PI { dphi -= 2.0 * std::f64::consts::PI; }
        while dphi < -std::f64::consts::PI { dphi += 2.0 * std::f64::consts::PI; }
        let delay = -dphi / domega;
        let d_direct = src.dist(&rec);
        let ghost = Point3::new(0.0, 0.0, -10.0);
        let d_ghost = ghost.dist(&rec);
        let t_lo = d_direct / m.water_velocity;
        let t_hi = d_ghost / m.water_velocity;
        // Interference can push the instantaneous delay outside the
        // bracket near amplitude nulls; allow generous slack.
        let span = (t_hi - t_lo).max(0.02);
        prop_assert!(
            delay > t_lo - 10.0 * span && delay < t_hi + 10.0 * span,
            "delay {delay} vs [{t_lo}, {t_hi}]"
        );
    }

    /// Reflection travel time satisfies the triangle-like monotonicity:
    /// moving the receiver farther (same azimuth) never shortens it.
    #[test]
    fn reflection_time_monotone_in_offset(
        x in 0.0f64..1000.0,
        extra in 1.0f64..2000.0,
        refl_idx in 0usize..3,
    ) {
        let m = model();
        let a = Point3::new(0.0, 500.0, 300.0);
        let b1 = Point3::new(x, 500.0, 300.0);
        let b2 = Point3::new(x + extra, 500.0, 300.0);
        let t1 = m.reflection_travel_time(&a, &b1, refl_idx);
        let t2 = m.reflection_travel_time(&a, &b2, refl_idx);
        // Allow tiny violations from the midpoint-depth approximation on
        // dipping reflectors.
        prop_assert!(t2 >= t1 - 0.01, "t1={t1} t2={t2}");
    }
}

/// `(start, gaps)` → strictly ascending bins, cut at 600.
fn ascending_bins(start: usize, gaps: &[usize]) -> Vec<usize> {
    let mut bins = vec![start];
    for &g in gaps {
        let next = bins[bins.len() - 1] + g;
        if next > 600 {
            break;
        }
        bins.push(next);
    }
    bins
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The phasor recurrence of `downgoing_stack` against the
    /// one-frequency form over random geometry, reverberation order and
    /// ascending bins up to 600: every entry within one `f32` ulp (of its
    /// modulus — a component that cancels to nothing has no ulp of its
    /// own). The recurrence's `f64` error is `≲ bins·2⁻⁵²`, far below
    /// `2⁻²⁴`, so the two can only disagree on which neighbour a value on
    /// a rounding boundary narrows to. If 600 bins ever breaks this,
    /// re-anchor the phasors with an exact `cis` every 64 steps; do not
    /// loosen the test.
    #[test]
    fn stack_matches_the_one_frequency_form_to_one_ulp(
        (snx, sny, rnx, rny) in (2usize..6, 2usize..5, 2usize..5, 2usize..4),
        (spacing, src_depth, x0) in (10.0f64..90.0, 2.0f64..40.0, -300.0f64..300.0),
        n_water_multiples in 0usize..=3,
        df in 0.05f64..2.0,
        start in 0usize..80,
        (g1, g2, g3, g4, g5) in (1usize..200, 1usize..200, 1usize..200, 1usize..200, 1usize..200),
    ) {
        use seis_wave::modeling::{downgoing_matrix, downgoing_stack};
        use seismic_geom::{Acquisition, StationGrid};
        let grid = |nx, ny, x0, depth| StationGrid { nx, ny, dx: spacing, dy: spacing, x0, y0: 0.0, depth };
        let acq = Acquisition {
            sources: grid(snx, sny, x0, src_depth),
            receivers: grid(rnx, rny, 0.0, 300.0),
        };
        let m = model();
        let cfg = ModelingConfig { n_water_multiples, seafloor_coefficient: 0.35 };
        let bins = ascending_bins(start, &[g1, g2, g3, g4, g5]);
        let amps: Vec<f64> = bins.iter().map(|&b| 1.0 / (1.0 + b as f64 * df)).collect();
        let stack = downgoing_stack(&bins, df, &amps, &acq, &m, &cfg);
        prop_assert_eq!(stack.n_bins(), bins.len());
        for (f, (&bin, &amp)) in bins.iter().zip(&amps).enumerate() {
            let got = stack.matrix(f);
            let want = downgoing_matrix(bin as f64 * df, amp, &acq, &m, &cfg);
            for (g, w) in got.as_slice().iter().zip(want.as_slice()) {
                let ulp = w.abs() * f32::EPSILON;
                prop_assert!(
                    (g.re - w.re).abs() <= ulp && (g.im - w.im).abs() <= ulp,
                    "bin {} of {:?}: {:?} vs {:?}", bin, bins, g, w
                );
            }
        }
    }

    /// The permuted and gemv gathers of `downgoing_stack` against the
    /// dense forms of its own matrix, bit for bit, over random geometry,
    /// orders (rotations of the station lists) and vectors, some of whose
    /// entries are `+0` or `−0`.
    #[test]
    fn gathers_are_the_dense_forms_of_the_stack_bit_for_bit(
        (snx, sny, rnx, rny) in (1usize..6, 1usize..5, 1usize..5, 1usize..4),
        (spacing, src_depth, x0) in (10.0f64..90.0, 2.0f64..40.0, -300.0f64..300.0),
        (row_shift, col_shift) in (0usize..40, 0usize..40),
        (zero_every, x_re, x_im) in (1usize..5, -2.0f32..2.0, -2.0f32..2.0),
    ) {
        use seis_wave::modeling::downgoing_stack;
        use seismic_geom::{Acquisition, StationGrid};
        use seismic_la::{blas::gemv, C32};
        let grid = |nx, ny, x0, depth| StationGrid { nx, ny, dx: spacing, dy: spacing, x0, y0: 0.0, depth };
        let acq = Acquisition {
            sources: grid(snx, sny, x0, src_depth),
            receivers: grid(rnx, rny, 0.0, 300.0),
        };
        let bins = [2, 5, 6];
        let stack = downgoing_stack(&bins, 0.5, &[1.0, 0.7, 0.4], &acq, &model(), &ModelingConfig::default());
        let (ns, nr) = (acq.n_sources(), acq.n_receivers());
        let rows: Vec<usize> = (0..ns).map(|i| (i + row_shift) % ns).collect();
        let cols: Vec<usize> = (0..nr).map(|j| (j + col_shift) % nr).collect();
        let x: Vec<C32> = (0..nr)
            .map(|j| match j % (zero_every + 1) {
                0 => C32::new(0.0, 0.0),
                1 => C32::new(-0.0, -0.0),
                _ => C32::new(x_re + j as f32, x_im - j as f32),
            })
            .collect();
        let bits = |v: &[C32]| v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect::<Vec<_>>();
        for f in 0..bins.len() {
            let dense = stack.matrix(f);
            let got = stack.permuted(f, &rows, &cols);
            prop_assert!(bits(got.as_slice()) == bits(dense.permute(&rows, &cols).as_slice()), "bin {}", f);
            let (mut got, mut want) = (vec![C32::new(0.0, 0.0); ns], vec![C32::new(0.0, 0.0); ns]);
            stack.gemv(f, &x, &mut got);
            gemv(&dense, &x, &mut want);
            prop_assert!(bits(&got) == bits(&want), "bin {}", f);
        }
    }
}
