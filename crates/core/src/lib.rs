//! # rnt-core
//!
//! A production-grade nested-transaction engine implementing Moss's
//! locking algorithm — the algorithm whose correctness Lynch's PODS'83
//! paper proves — extended with the read/write lock modes the paper lists
//! as follow-up work:
//!
//! * [`Db`] / [`Txn`] — a sharded in-memory transactional store with
//!   arbitrarily nested subtransactions, lock inheritance on commit, and
//!   version restore on abort (resilience);
//! * [`DeadlockPolicy`] — timeout, wait-die, wait-for-graph detection, or
//!   no-wait conflict handling;
//! * [`AuditLog`] — optional execution recording that reconstructs the
//!   paper's augmented action tree, so live runs can be checked against
//!   the formal correctness condition (`perm(T)` data-serializable).
//!
//! ```
//! use rnt_core::{Db, DbConfig};
//!
//! let db: Db<&'static str, i64> = Db::new();
//! db.insert("balance", 100);
//!
//! let t = db.begin();
//! let c = t.child().unwrap();           // a subtransaction
//! c.rmw(&"balance", |v| v - 30).unwrap();
//! c.commit().unwrap();                  // visible to the parent only
//! assert_eq!(t.read(&"balance").unwrap(), 70);
//! t.commit().unwrap();                  // now visible to everyone
//! assert_eq!(db.committed_value(&"balance"), Some(70));
//! ```

#![warn(missing_docs)]

mod audit;
#[cfg(feature = "chaos-hooks")]
pub mod chaos;
mod commit_pipeline;
mod config;
mod db;
mod deadlock;
mod error;
mod lock;
mod locking;
mod optimistic;
mod recover;
mod registry;
mod stats;
mod view;

pub use audit::{hash_value, AuditLog, AuditRecord};
pub use db::{CcMode, Db, DbConfig, DbConfigBuilder, DeadlockPolicy, Durability, Snapshot, Txn};
pub use deadlock::WaitForGraph;
pub use error::TxnError;
pub use lock::{Conflict, LockEnv, LockState};
pub use registry::{Registry, RegistryError, RegistryView, TxnId, TxnStatus};
pub use stats::{Stats, StatsSnapshot};
pub use view::{EpochBounds, ReadView, SnapshotError};
