//! The repository's measurement harness: five closed-loop workloads timed
//! end to end, and the same workloads traced and probed layer by layer —
//! all through the public API of the crates under `../crates`, none of
//! which this package changes. See `README.md` for every definition.

pub mod bench;
pub mod disk;
pub mod gen;
pub mod hist;
pub mod probes;
pub mod repeat;
pub mod report;
pub mod run;
pub mod trace;
pub mod workload;
