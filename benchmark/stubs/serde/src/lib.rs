//! Offline stand-in for `serde`. The seven library crates derive
//! `Serialize`/`Deserialize` on their config and report types but never
//! call a serializer, so the traits are empty markers and the derives
//! (re-exported from the `serde_derive` stand-in) expand to nothing.

pub use serde_derive::{Deserialize, Serialize};

/// Marker with the name of `serde::Serialize`.
pub trait Serialize {}

/// Marker with the name of `serde::Deserialize`.
pub trait Deserialize<'de> {}
