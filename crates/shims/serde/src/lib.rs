//! Offline stand-in for `serde`.
//!
//! No workspace type derives these traits any more. The shim stays
//! only because `perfbench/Cargo.lock` records `serde` as a dependency
//! of the crates perfbench builds; it goes when that lockfile is next
//! regenerated. The traits are empty markers and the derives emit
//! empty impls.

/// Marker trait mirroring `serde::Serialize`.
pub trait Serialize {}

/// Marker trait mirroring `serde::Deserialize`.
pub trait Deserialize<'de> {}

pub use serde_derive::{Deserialize, Serialize};
