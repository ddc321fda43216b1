//! # rnt-sim
//!
//! Workload generation, random execution, failure injection and auditing
//! for the resilient-nested-transactions reproduction:
//!
//! * [`gen`] — seeded random universes and valid algebra runs (experiments
//!   E1/E3);
//! * [`aat_gen`] — random arbitrary AATs for cross-validating Theorem 9
//!   (experiment E2);
//! * [`engine`] — concurrent workloads against the `rnt-core` engine with
//!   nested/flat/serial shapes, skew, and failure injection (E4–E7);
//! * [`gossip`] — gossip-policy sweeps over the distributed algebra (E8);
//! * [`orphan`] — orphan-view consistency checking (E9), the paper's
//!   stated open problem;
//! * [`reference`](mod@reference) — a naive copy-on-begin nested-transaction interpreter
//!   used as a differential-testing oracle for the engine;
//! * [`interleave`] — deterministic seeded interleaving of logical workers
//!   against the engine (reproducible schedule sweeps, E4b).
//!
//! The experiments themselves are the root package's `experiments` example
//! (`examples/experiments/`).
//!
//! ```
//! use rnt_sim::gen::{random_run, random_universe, UniverseConfig};
//! use rnt_spec::Level2;
//! use std::sync::Arc;
//!
//! let universe = Arc::new(random_universe(7, &UniverseConfig::default()));
//! let level2 = Level2::new(universe.clone());
//! let run = random_run(&level2, 42, 30);
//! assert!(rnt_algebra::is_valid(&level2, run));
//! ```

#![warn(missing_docs)]

pub mod aat_gen;
pub mod engine;
pub mod gen;
pub mod gossip;
pub mod interleave;
pub mod orphan;
pub mod reference;
