//! Offline stand-in for `rayon`, covering the API slice the seven library
//! crates use: `par_iter`, `par_iter_mut`, `into_par_iter` on ranges and
//! vectors, `par_chunks(_mut)`, the `map` / `enumerate` / `zip` adapters,
//! `for_each` and `collect::<Vec<_>>()`, plus `ThreadPoolBuilder`
//! (`build_global`, `build` + `install`) and `current_num_threads`.
//!
//! It is a real thread pool, not a sequential shim: a parallel call
//! publishes a job (an index space plus a closure), the caller and the
//! pool's workers claim fixed-size chunks of indices from it with an
//! atomic counter, and the caller returns once every index has run.
//! Nested calls publish to the same queue, so an inner loop is shared
//! whenever workers are idle. Outputs are placed by index, so results do
//! not depend on the schedule. See `../README.md` for what this does and
//! does not share with rayon's work-stealing scheduler.

mod iter;
mod pool;

pub use pool::{current_num_threads, ThreadPool, ThreadPoolBuildError, ThreadPoolBuilder};

pub mod prelude {
    pub use crate::iter::{
        FromParallelIterator, IndexedParallelIterator, IntoParallelIterator,
        IntoParallelRefIterator, IntoParallelRefMutIterator, ParallelIterator, ParallelSlice,
        ParallelSliceMut,
    };
}
