//! loom model of the engine's work-stealing handoff: jobs land on
//! per-worker deques under one scheduler mutex, an idle worker pops its
//! own front or steals a peer's back, and a condvar parks idle workers —
//! asserts no job is lost or executed twice across the explored
//! interleavings. Runs only under
//! `RUSTFLAGS="--cfg loom"` (the CI loom job); a plain `cargo test`
//! compiles this file to nothing.
#![cfg(loom)]

use std::collections::VecDeque;

use loom::sync::atomic::{AtomicU64, Ordering};
use loom::sync::{Arc, Condvar, Mutex};
use loom::thread;

const JOBS: usize = 2;

struct State {
    deques: Vec<VecDeque<usize>>,
    shutdown: bool,
}

struct Sched {
    state: Mutex<State>,
    work: Condvar,
}

/// Own deque first (front), then steal the peer's back — the same
/// discipline as `engine::take_job`.
fn take(st: &mut State, id: usize) -> Option<usize> {
    if let Some(j) = st.deques[id].pop_front() {
        return Some(j);
    }
    st.deques[1 - id].pop_back()
}

fn worker(id: usize, sched: &Sched, runs: &[AtomicU64; JOBS]) {
    let mut st = sched.state.lock().unwrap();
    loop {
        if let Some(j) = take(&mut st, id) {
            drop(st);
            runs[j].fetch_add(1, Ordering::Relaxed);
            st = sched.state.lock().unwrap();
            continue;
        }
        if st.shutdown {
            return;
        }
        st = sched.work.wait(st).unwrap();
    }
}

#[test]
fn work_stealing_executes_every_job_exactly_once() {
    loom::model(|| {
        let sched = Arc::new(Sched {
            state: Mutex::new(State {
                deques: vec![VecDeque::new(), VecDeque::new()],
                shutdown: false,
            }),
            work: Condvar::new(),
        });
        let runs = Arc::new([AtomicU64::new(0), AtomicU64::new(0)]);

        let handles: Vec<_> = (0..2)
            .map(|id| {
                let s = Arc::clone(&sched);
                let r = Arc::clone(&runs);
                thread::spawn(move || worker(id, &s, &r))
            })
            .collect();

        // Both jobs on worker 0's deque: worker 1 only makes progress
        // by stealing, so the model exercises the steal path.
        {
            let mut st = sched.state.lock().unwrap();
            st.deques[0].push_back(0);
            st.deques[0].push_back(1);
        }
        sched.work.notify_all();
        {
            let mut st = sched.state.lock().unwrap();
            st.shutdown = true;
        }
        sched.work.notify_all();
        for h in handles {
            h.join().unwrap();
        }
        for (j, r) in runs.iter().enumerate() {
            assert_eq!(
                r.load(Ordering::Relaxed),
                1,
                "job {j} lost or double-executed"
            );
        }
    });
}
