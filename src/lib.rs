//! Umbrella crate re-exporting the resilient-nt workspace.
pub use rnt_algebra as algebra;
pub use rnt_core as core;
pub use rnt_distributed as distributed;
pub use rnt_locking as locking;
pub use rnt_model as model;
pub use rnt_sim as sim;
pub use rnt_spec as spec;
pub use rnt_timestamp as timestamp;

// Every ```rust block of the README compiles (and, unless `no_run`, runs)
// as a doctest, so the README cannot name an item the crates dropped.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;
