//! Offline stand-in for `parking_lot`: the library crates use only
//! `Mutex::new` (in statics) and `Mutex::lock`. A poisoned std mutex is
//! recovered, which is parking_lot's no-poisoning behaviour.

pub use std::sync::MutexGuard;

/// `parking_lot::Mutex` look-alike over `std::sync::Mutex`.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Self(std::sync::Mutex::new(value))
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}
