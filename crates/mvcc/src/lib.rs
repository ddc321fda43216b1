//! # rnt-mvcc
//!
//! The multi-version object store behind lock-free snapshot reads: the
//! paper's level-3 version maps (Lemma 16–17), promoted from the theory
//! crate into an engine subsystem.
//!
//! The level-3 algebra `A''` materializes concurrency control as
//! per-object **version maps** — for each object, the sequence of versions
//! the lock discipline has stacked up. The engine keeps only the *live*
//! prefix of that structure in its lock table (the uncommitted write
//! stack); this crate keeps the *committed suffix*: for every object, the
//! chain of values successive top-level commits published, each stamped
//! with the **commit epoch** — a monotonically increasing counter
//! advanced once per top-level commit.
//!
//! A snapshot **pins** an epoch and reads, for each object, the latest
//! version whose epoch is ≤ its pin. Because only top-level commits create
//! versions, every version is in `perm(T)` (Lemma 7): a snapshot can never
//! observe a subtransaction's revocable write, and the state it sees is
//! exactly the committed state after its pinned epoch — a prefix-closed,
//! data-serializable view (Theorem 9) obtained without touching the lock
//! manager.
//!
//! Reclamation is epoch-based: a version is reclaimable once it is
//! superseded and no live snapshot pins an epoch below its successor's
//! (the watermark rule — see [`MvccStore`] for the precise statement and
//! why it is race-free against pin creation).
//!
//! The store *is* an **ordered keyspace**: one map from key to chain, in
//! key order, so the publish and recovery-replay paths both keep it
//! consistent by appending. The map holds each key's [`ChainId`], and
//! the chains live in a slab indexed by it, so a caller that kept the id
//! (the engine's lock-table entry) appends with [`MvccStore::append_at`]
//! without touching the map. [`MvccStore::range_at`]
//! walks it to produce key-ordered scans resolved at a pinned epoch,
//! [`MvccStore::max_epoch_in`] judges a scanned interval for optimistic
//! validation, and [`MvccStore::pin_at`] pins *past* epochs (time travel)
//! down to the oldest retained one, with [`PinError`] distinguishing
//! pruned history from the unpublished future.

#![warn(missing_docs)]

mod slab;
mod store;

pub use store::{
    ChainId, MvccCounters, MvccStore, PinError, Publish, PublishGate, Reservation, GENESIS_EPOCH,
};
