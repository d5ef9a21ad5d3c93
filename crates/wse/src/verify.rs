//! Plan-check tests: the plans the paper runs place, and each bound a plan
//! must meet, broken once, is refused by [`place`](crate::placement::place)
//! with its typed [`PlaceError`](crate::placement::PlaceError), never a
//! panic or a NaN rate.

mod tests {
    use tlr_mvm::cast::to_u64;

    use crate::machine::{Cluster, Cs2Config};
    use crate::placement::{place, PlaceError, Strategy};
    use crate::workload::{choose_stack_width, RankModel, Workload};

    const FUSED: Strategy = Strategy::FusedSinglePe;
    const SCATTER: Strategy = Strategy::ScatterEightPes;

    fn paper_workload(nb: usize, acc: f32) -> Workload {
        RankModel::paper(nb, acc).unwrap().generate()
    }

    /// Two frequencies of the nb=25 model, where every chunk fits, after `f`.
    fn small(f: fn(&mut Workload)) -> Workload {
        let mut w = paper_workload(25, 1e-4);
        w.n_freqs = 2;
        w.col_ranks.truncate(2 * w.cols_per_freq);
        f(&mut w);
        w
    }

    /// Six systems whose CS-2 is changed by `f`.
    fn six(f: fn(&mut Cs2Config)) -> Cluster {
        let mut c = Cluster::new(6);
        f(&mut c.cs2);
        c
    }

    fn refused(w: &Workload, sw: usize, s: Strategy, c: &Cluster) -> PlaceError {
        match place(w, sw, s, c) {
            Err(e) => e,
            Ok(r) => panic!("placed {r:?}"),
        }
    }

    #[test]
    fn paper_configs_verify_clean() {
        let cluster = Cluster::new(6);
        for (nb, acc) in [(25, 1e-4), (50, 1e-4), (70, 1e-4), (50, 3e-4), (70, 3e-4)] {
            let w = paper_workload(nb, acc);
            let w_max = cluster.cs2.max_stack_width(nb);
            let sw = choose_stack_width(&w, to_u64(cluster.total_pes()), w_max);
            let rep = place(&w, sw, FUSED, &cluster).unwrap();
            assert!(rep.pes_used <= rep.pes_available, "nb={nb} acc={acc}");
        }
    }

    #[test]
    fn not_enough_pes_rejected_statically() {
        let one = Cluster::new(1);
        let e = refused(&paper_workload(25, 1e-4), 64, FUSED, &one);
        let available = to_u64(one.total_pes());
        assert!(
            matches!(e, PlaceError::NotEnoughPes { required, available: a }
                if required > a && a == available),
            "{e}"
        );
    }

    #[test]
    fn sram_overflow_rejected_statically() {
        // Width 60 is far above the nb=70 cap (23); width 80 overflows the
        // 25,800 B budget at nb=25; a full reservation leaves no budget.
        let full = six(|c| c.runtime_reserved_bytes = c.sram_bytes);
        for (w, sw, s, c) in [
            (paper_workload(70, 1e-4), 60, FUSED, Cluster::new(48)),
            (small(|_| {}), 80, FUSED, Cluster::new(6)),
            (small(|_| {}), 1, SCATTER, full),
        ] {
            let e = refused(&w, sw, s, &c);
            let budget = c.cs2.bases_budget_bytes();
            assert!(
                matches!(e, PlaceError::SramOverflow { required, available, .. }
                    if required > available && available == budget),
                "{e}"
            );
        }
    }

    #[test]
    fn zero_stack_width_rejected() {
        for s in [FUSED, SCATTER] {
            let e = refused(&small(|_| {}), 0, s, &Cluster::new(1));
            assert_eq!(e, PlaceError::ZeroStackWidth);
        }
        let e = refused(&small(|w| w.nb = 0), 8, FUSED, &Cluster::new(6));
        assert_eq!(e, PlaceError::ZeroTileSize);
    }

    #[test]
    fn malformed_machine_rejected() {
        let good = small(|_| {});
        for hz in [0.0, -850.0e6, f64::NAN, f64::INFINITY] {
            let mut c = Cluster::new(6);
            c.cs2.clock_hz = hz;
            let e = refused(&good, 8, FUSED, &c);
            assert!(matches!(e, PlaceError::BadClock(_)), "{hz}: {e}");
        }
        // A cluster with no PE holds nothing.
        for c in [Cluster::new(0), six(|c| c.usable_rows = 0)] {
            let e = refused(&good, 8, FUSED, &c);
            assert!(
                matches!(e, PlaceError::NotEnoughPes { available: 0, .. }),
                "{e}"
            );
        }
    }

    #[test]
    fn reservation_overflow_rejected() {
        // A (25, 8) chunk keeps 8·25 + 8·8 + 16·25 = 664 B of vectors
        // beside the 8 KiB of code. Strategy 1 needs both, strategy 2 the
        // code alone.
        let good = small(|_| {});
        let fits = six(|c| c.runtime_reserved_bytes = 8 * 1024 + 664);
        assert!(place(&good, 8, FUSED, &fits).is_ok());
        let short = six(|c| c.runtime_reserved_bytes = 8 * 1024 + 600);
        let e = refused(&good, 8, FUSED, &short);
        assert!(
            matches!(e, PlaceError::ReservationOverflow { required, reserved, .. }
                if required > reserved && reserved == 8 * 1024 + 600),
            "{e}"
        );
        assert!(place(&good, 8, SCATTER, &short).is_ok());
        let no_code = six(|c| c.runtime_reserved_bytes = 8_000);
        let want = PlaceError::ReservationOverflow {
            cl: 5,
            w: 8,
            required: 8_192,
            reserved: 8_000,
        };
        assert_eq!(refused(&good, 8, SCATTER, &no_code), want);
    }

    #[test]
    fn malformed_workload_rejected() {
        let mut popped = paper_workload(25, 1e-4);
        popped.col_ranks.pop();
        for broken in [
            popped,
            small(|w| w.col_widths.truncate(1)),
            small(|w| w.col_ranks.truncate(1)),
            small(|w| w.n_freqs = usize::MAX),
            small(|w| w.col_widths[3] = 0),
            small(|w| w.col_widths[0] = 26),
        ] {
            let e = refused(&broken, 8, FUSED, &Cluster::new(6));
            assert!(matches!(e, PlaceError::WorkloadShape(_)), "{e}");
        }
        let e = refused(&small(|w| w.col_ranks.fill(0)), 8, FUSED, &Cluster::new(6));
        assert_eq!(e, PlaceError::NoRank);
    }

    #[test]
    fn scatter_strategy_verifies_on_48_shards() {
        let cluster = Cluster::new(48);
        for (nb, sw) in [(25, 64), (50, 32), (70, 23)] {
            let rep = place(&paper_workload(nb, 1e-4), sw, SCATTER, &cluster).unwrap();
            // Eight PEs per chunk, all inside the cluster.
            assert_eq!(rep.pes_used % 8, 0, "nb={nb}");
            assert!(rep.pes_used <= rep.pes_available, "nb={nb}");
        }
    }
}
