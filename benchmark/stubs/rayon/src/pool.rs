//! The thread pool: a shared list of open jobs, `threads - 1` workers and
//! the calling thread, which always takes part in its own job.

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;

/// Spin iterations (one `spin_loop` hint each, roughly 100 µs in total) an
/// idle worker polls for a new job before it blocks on the condvar. The
/// solver issues a parallel call every few tens of microseconds; a
/// condvar wake costs more than that.
const SPIN_ITERS: u32 = 2000;

/// Chunks per thread a job's index space is cut into, so that uneven
/// items (tile ranks differ) still balance.
const CHUNKS_PER_THREAD: usize = 4;

type Body<'a> = &'a (dyn Fn(usize) + Sync);

struct Job {
    /// The caller's closure with its lifetime erased. Dereferenced only
    /// for a claimed index `< len`, and `run` does not return before every
    /// claimed index is counted in `done`.
    body: Body<'static>,
    len: usize,
    chunk: usize,
    next: AtomicUsize,
    done: AtomicUsize,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Job {
    fn has_work(&self) -> bool {
        self.next.load(Ordering::Relaxed) < self.len
    }

    fn work(&self) {
        loop {
            let start = self.next.fetch_add(self.chunk, Ordering::Relaxed);
            if start >= self.len {
                return;
            }
            let end = (start + self.chunk).min(self.len);
            let body = self.body;
            if let Err(p) = catch_unwind(AssertUnwindSafe(|| (start..end).for_each(body))) {
                *lock(&self.panic) = Some(p);
            }
            self.done.fetch_add(end - start, Ordering::Release);
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

struct Registry {
    threads: usize,
    jobs: Mutex<Vec<Arc<Job>>>,
    wake: Condvar,
    /// Jobs currently listed; lets idle workers poll without the lock.
    open: AtomicUsize,
    sleepers: AtomicUsize,
    shutdown: AtomicBool,
}

thread_local! {
    /// Registry parallel calls on this thread go to: the worker's own, or
    /// the pool of an enclosing `ThreadPool::install`; null = global.
    static CURRENT: Cell<*const Registry> = const { Cell::new(std::ptr::null()) };
}

static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();

fn default_threads() -> usize {
    std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, usize::from))
}

fn with_registry<R>(f: impl FnOnce(&Registry) -> R) -> R {
    let cur = CURRENT.with(Cell::get);
    if cur.is_null() {
        f(&GLOBAL
            .get_or_init(|| ThreadPool::spawn(default_threads()))
            .registry)
    } else {
        // SAFETY: set only by a worker (which holds an `Arc` of its
        // registry for its whole life) or by `install` (which borrows the
        // pool for the duration of the call and restores the old value).
        f(unsafe { &*cur })
    }
}

impl Registry {
    fn find_work(&self) -> Option<Arc<Job>> {
        lock(&self.jobs).iter().find(|j| j.has_work()).cloned()
    }

    fn worker_loop(self: Arc<Self>) {
        CURRENT.with(|c| c.set(Arc::as_ptr(&self)));
        let mut idle = 0u32;
        while !self.shutdown.load(Ordering::Acquire) {
            if self.open.load(Ordering::Acquire) > 0 {
                if let Some(job) = self.find_work() {
                    job.work();
                    idle = 0;
                    continue;
                }
            }
            if idle < SPIN_ITERS {
                idle += 1;
                std::hint::spin_loop();
                continue;
            }
            let mut jobs = lock(&self.jobs);
            while !jobs.iter().any(|j| j.has_work()) && !self.shutdown.load(Ordering::Acquire) {
                self.sleepers.fetch_add(1, Ordering::Relaxed);
                jobs = self
                    .wake
                    .wait(jobs)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                self.sleepers.fetch_sub(1, Ordering::Relaxed);
            }
            idle = 0;
        }
    }

    fn run(&self, len: usize, body: Body<'_>) {
        if self.threads <= 1 || len <= 1 {
            (0..len).for_each(body);
            return;
        }
        // SAFETY: lifetime erasure only; see `Job::body`.
        let body: Body<'static> = unsafe { std::mem::transmute::<Body<'_>, Body<'static>>(body) };
        let job = Arc::new(Job {
            body,
            len,
            chunk: len.div_ceil(self.threads * CHUNKS_PER_THREAD),
            next: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            panic: Mutex::new(None),
        });
        {
            let mut jobs = lock(&self.jobs);
            jobs.push(Arc::clone(&job));
            self.open.fetch_add(1, Ordering::Release);
            if self.sleepers.load(Ordering::Relaxed) > 0 {
                self.wake.notify_all();
            }
        }
        job.work();
        {
            let mut jobs = lock(&self.jobs);
            jobs.retain(|j| !Arc::ptr_eq(j, &job));
            self.open.fetch_sub(1, Ordering::Release);
        }
        // Helpers may still be inside their last chunk.
        let mut spins = 0u32;
        while job.done.load(Ordering::Acquire) < len {
            spins += 1;
            if spins < SPIN_ITERS {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        let panic = lock(&job.panic).take();
        if let Some(p) = panic {
            resume_unwind(p);
        }
    }
}

/// Run `body(i)` for every `i < len` on the current pool.
pub(crate) fn run(len: usize, body: Body<'_>) {
    with_registry(|r| r.run(len, body));
}

/// Threads of the pool parallel calls on this thread go to.
pub fn current_num_threads() -> usize {
    with_registry(|r| r.threads)
}

/// Error of [`ThreadPoolBuilder::build_global`] when a global pool exists.
#[derive(Debug)]
pub struct ThreadPoolBuildError(&'static str);

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.0)
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder with rayon's `num_threads` / `build` / `build_global`.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    threads: usize,
}

impl ThreadPoolBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// `0` keeps the default (`RAYON_NUM_THREADS`, else the CPU count).
    pub fn num_threads(mut self, n: usize) -> Self {
        self.threads = n;
        self
    }

    fn resolved(&self) -> usize {
        if self.threads == 0 {
            default_threads()
        } else {
            self.threads
        }
    }

    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool::spawn(self.resolved()))
    }

    pub fn build_global(self) -> Result<(), ThreadPoolBuildError> {
        let mut fresh = false;
        GLOBAL.get_or_init(|| {
            fresh = true;
            ThreadPool::spawn(self.resolved())
        });
        if fresh {
            Ok(())
        } else {
            Err(ThreadPoolBuildError(
                "the global thread pool has already been initialized",
            ))
        }
    }
}

/// A pool of `threads - 1` workers; the thread that calls into it is the
/// remaining one.
pub struct ThreadPool {
    registry: Arc<Registry>,
    workers: Vec<JoinHandle<()>>,
}

impl ThreadPool {
    fn spawn(threads: usize) -> Self {
        let registry = Arc::new(Registry {
            threads: threads.max(1),
            jobs: Mutex::new(Vec::new()),
            wake: Condvar::new(),
            open: AtomicUsize::new(0),
            sleepers: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
        });
        let workers = (1..registry.threads)
            .map(|i| {
                let reg = Arc::clone(&registry);
                std::thread::Builder::new()
                    .name(format!("rayon-standin-{i}"))
                    .spawn(move || reg.worker_loop())
                    .expect("spawn pool worker")
            })
            .collect();
        Self { registry, workers }
    }

    pub fn current_num_threads(&self) -> usize {
        self.registry.threads
    }

    /// Run `op` on the calling thread with this pool as the target of
    /// every parallel call it makes.
    pub fn install<R>(&self, op: impl FnOnce() -> R) -> R {
        struct Restore(*const Registry);
        impl Drop for Restore {
            fn drop(&mut self) {
                CURRENT.with(|c| c.set(self.0));
            }
        }
        let _restore = Restore(CURRENT.with(|c| c.replace(Arc::as_ptr(&self.registry))));
        op()
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.registry.shutdown.store(true, Ordering::Release);
        drop(lock(&self.registry.jobs));
        self.registry.wake.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;

    #[test]
    fn collect_keeps_order_and_runs_on_several_threads() {
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        let ids = Mutex::new(std::collections::HashSet::new());
        let out: Vec<usize> = pool.install(|| {
            (0..10_000usize)
                .into_par_iter()
                .map(|i| {
                    if i % 64 == 0 {
                        lock(&ids).insert(std::thread::current().id());
                        std::thread::sleep(std::time::Duration::from_micros(20));
                    }
                    i * 2
                })
                .collect()
        });
        assert!(out.iter().enumerate().all(|(i, &v)| v == 2 * i));
        assert!(lock(&ids).len() > 1, "work never left the calling thread");
    }

    #[test]
    fn nested_calls_and_mutable_chunks() {
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let mut data = vec![0u32; 1000];
        pool.install(|| {
            data.par_chunks_mut(100).enumerate().for_each(|(c, chunk)| {
                let inner: Vec<u32> = (0..chunk.len()).into_par_iter().map(|i| i as u32).collect();
                for (d, v) in chunk.iter_mut().zip(inner) {
                    *d = c as u32 * 1000 + v;
                }
            });
        });
        assert_eq!(data[999], 9099);
        assert_eq!(data[100], 1000);
    }

    #[test]
    fn a_panicking_item_propagates_to_the_caller() {
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.install(|| (0..100usize).into_par_iter().for_each(|i| assert!(i != 57)))
        }));
        assert!(r.is_err());
    }
}
