//! The workspace's one way to take a `std::sync::Mutex`.

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Lock `m`, recovering the guard if another thread panicked while
/// holding it. Every mutex in the workspace protects plain data that is
/// consistent between operations, so a poisoned lock carries no broken
/// invariant — a panicking job must not take the trace collector, the
/// plan cache or the scheduler down with it.
pub fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}
