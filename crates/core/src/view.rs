//! The unified read API: one abstract view of the keyspace, refined by
//! every concrete read surface.
//!
//! Börger–Schewe–Wang's multi-level specification of nested transactions
//! frames each machine level as a refinement of one abstract view of the
//! object state; this module is that idea applied to reads. [`ReadView`]
//! is the abstract surface — point lookup, key-ordered range scan, and
//! the epoch the view is anchored at — and both concrete surfaces refine
//! it:
//!
//! * [`Snapshot`](crate::Snapshot) — a *frozen* view: the committed state
//!   at a pinned epoch, served lock-free from the MVCC version chains.
//!   Its operations never fail, so the trait's `Result` is always `Ok`.
//! * [`Txn`](crate::Txn) — a *live* view: the transaction's own writes
//!   over the committed state, served through Moss's lock discipline.
//!   Reads acquire locks, so they can die, deadlock, or time out.
//!
//! Code written against `ReadView` (examples, benchmark mixes, chaos
//! oracles) runs unchanged over either surface.

use crate::db::DbInner;
use crate::error::TxnError;
use std::hash::Hash;
use std::ops::RangeBounds;
use std::sync::Arc;

/// A readable view of the keyspace at (or after) one commit epoch.
///
/// Implemented by [`Snapshot`](crate::Snapshot) (frozen, infallible,
/// lock-free) and [`Txn`](crate::Txn) (live, lock-acquiring, fallible).
/// The `Result` return types exist for the transactional surface; the
/// snapshot surface always returns `Ok`.
pub trait ReadView<K, V> {
    /// The commit epoch this view is anchored at: the exact pinned epoch
    /// for a snapshot, the publish watermark observed at call time for a
    /// transaction (its reads are at least that fresh).
    fn epoch(&self) -> u64;

    /// The value of `key` in this view, or `None` if the key is absent.
    ///
    /// Unlike [`Txn::read`](crate::Txn::read), an unknown key is not an
    /// error on either surface — `get` is a total lookup.
    fn get(&self, key: &K) -> Result<Option<V>, TxnError>;

    /// All `(key, value)` pairs of this view with keys in `bounds`, in
    /// ascending key order.
    fn range<R: RangeBounds<K>>(&self, bounds: R) -> Result<Vec<(K, V)>, TxnError>;

    /// Every `(key, value)` pair of this view, in ascending key order.
    fn scan_all(&self) -> Result<Vec<(K, V)>, TxnError> {
        self.range(..)
    }
}

/// The epoch window a database can currently serve, from
/// [`Db::epochs`](crate::Db::epochs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub struct EpochBounds {
    /// The oldest epoch [`Db::snapshot_at`](crate::Db::snapshot_at) can
    /// still pin: reclamation has conceded everything below it.
    pub oldest_retained: u64,
    /// The newest fully published epoch (the watermark). A fresh
    /// [`Db::snapshot`](crate::Db::snapshot) pins exactly this.
    pub watermark: u64,
}

impl EpochBounds {
    /// True iff `epoch` is currently servable by
    /// [`Db::snapshot_at`](crate::Db::snapshot_at).
    pub fn contains(&self, epoch: u64) -> bool {
        (self.oldest_retained..=self.watermark).contains(&epoch)
    }
}

/// Why [`Db::snapshot_at`](crate::Db::snapshot_at) could not open a
/// snapshot at the requested epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum SnapshotError {
    /// The epoch predates the oldest retained one: epoch-based
    /// reclamation (or the [`max_versions_per_key`] chain budget) has
    /// already dropped versions a consistent view at this epoch would
    /// need. Retained history only shrinks, so retrying cannot succeed.
    ///
    /// [`max_versions_per_key`]: crate::DbConfig::max_versions_per_key
    Pruned {
        /// The epoch that was requested.
        requested: u64,
        /// The oldest epoch still consistently resolvable.
        oldest_retained: u64,
    },
    /// The epoch is above the publish watermark: no commit with that
    /// epoch has been published yet. Retrying after more commits land
    /// can succeed.
    Future {
        /// The epoch that was requested.
        requested: u64,
        /// The highest fully published epoch at the time of the call.
        watermark: u64,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Pruned { requested, oldest_retained } => write!(
                f,
                "epoch {requested} already pruned (oldest retained epoch is {oldest_retained})"
            ),
            SnapshotError::Future { requested, watermark } => {
                write!(f, "epoch {requested} not yet published (watermark is {watermark})")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// A lock-free read-only view of the committed state at one commit epoch,
/// opened by [`Db::snapshot`](crate::Db::snapshot). Reads are served from
/// the MVCC version chains and never touch the lock manager. Dropping the
/// snapshot releases its epoch pin, letting GC reclaim the versions it
/// held.
pub struct Snapshot<K, V>
where
    K: Eq + Hash + Ord + Clone + Send + Sync + 'static,
    V: Clone + Hash + Send + Sync + 'static,
{
    pub(crate) inner: Arc<DbInner<K, V>>,
    pub(crate) epoch: u64,
}

impl<K, V> Snapshot<K, V>
where
    K: Eq + Hash + Ord + Clone + Send + Sync + 'static,
    V: Clone + Hash + Send + Sync + 'static,
{
    /// The commit epoch this snapshot is pinned to.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The committed value of `key` as of the pinned epoch (`None` if the
    /// key did not exist yet). Lock-free: reads the version chain under
    /// the version store's shared lock, never the lock manager.
    pub fn read(&self, key: &K) -> Option<V> {
        self.inner.stats.bump(|b| &b.snapshot_reads);
        self.inner.mvcc.read_at(key, self.epoch)
    }

    /// All committed `(key, value)` pairs with keys in `bounds` as of the
    /// pinned epoch, in ascending key order — a consistent scan: every
    /// pair is from the same committed state, no matter what writers
    /// commit while the walk runs. Lock-free like [`Snapshot::read`]:
    /// one in-order walk of the version store under its shared lock,
    /// never blocking (or blocked by) the lock manager or publication.
    pub fn range<R: RangeBounds<K>>(&self, bounds: R) -> Vec<(K, V)> {
        self.inner.stats.bump(|b| &b.range_scans);
        self.inner.mvcc.range_at(bounds, self.epoch)
    }

    /// True iff this snapshot's epoch fell below the retained floor — only
    /// possible when
    /// [`DbConfig::max_versions_per_key`](crate::DbConfig::max_versions_per_key)
    /// force-pruned versions this pin was holding. Reads from an expired
    /// snapshot may see force-pruned keys as absent.
    pub fn is_expired(&self) -> bool {
        self.epoch < self.inner.mvcc.oldest_retained()
    }
}

impl<K, V> std::fmt::Debug for Snapshot<K, V>
where
    K: Eq + Hash + Ord + Clone + Send + Sync + 'static,
    V: Clone + Hash + Send + Sync + 'static,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot")
            .field("epoch", &self.epoch)
            .field("expired", &self.is_expired())
            .finish_non_exhaustive()
    }
}

/// Cloning a snapshot adds a pin to the *same* epoch: the clone sees the
/// identical frozen state, and the versions stay protected until both
/// (all) clones drop. Sound because the original's pin already protects
/// the epoch — the clone can never observe a half-reclaimed state.
impl<K, V> Clone for Snapshot<K, V>
where
    K: Eq + Hash + Ord + Clone + Send + Sync + 'static,
    V: Clone + Hash + Send + Sync + 'static,
{
    fn clone(&self) -> Self {
        self.inner.mvcc.repin(self.epoch);
        Snapshot { inner: self.inner.clone(), epoch: self.epoch }
    }
}

impl<K, V> ReadView<K, V> for Snapshot<K, V>
where
    K: Eq + Hash + Ord + Clone + Send + Sync + 'static,
    V: Clone + Hash + Send + Sync + 'static,
{
    fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Infallible on this surface: always `Ok`.
    fn get(&self, key: &K) -> Result<Option<V>, TxnError> {
        Ok(self.read(key))
    }

    /// Infallible on this surface: always `Ok`.
    fn range<R: RangeBounds<K>>(&self, bounds: R) -> Result<Vec<(K, V)>, TxnError> {
        Ok(Snapshot::range(self, bounds))
    }
}

impl<K, V> Drop for Snapshot<K, V>
where
    K: Eq + Hash + Ord + Clone + Send + Sync + 'static,
    V: Clone + Hash + Send + Sync + 'static,
{
    fn drop(&mut self) {
        self.inner.mvcc.unpin(self.epoch);
    }
}

impl From<rnt_mvcc::PinError> for SnapshotError {
    fn from(e: rnt_mvcc::PinError) -> Self {
        match e {
            rnt_mvcc::PinError::Pruned { requested, oldest_retained } => {
                SnapshotError::Pruned { requested, oldest_retained }
            }
            rnt_mvcc::PinError::Future { requested, watermark } => {
                SnapshotError::Future { requested, watermark }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_bounds_containment() {
        let b = EpochBounds { oldest_retained: 3, watermark: 7 };
        assert!(!b.contains(2));
        assert!(b.contains(3));
        assert!(b.contains(7));
        assert!(!b.contains(8));
    }

    #[test]
    fn snapshot_error_display_and_conversion() {
        let pruned: SnapshotError =
            rnt_mvcc::PinError::Pruned { requested: 1, oldest_retained: 4 }.into();
        assert_eq!(pruned, SnapshotError::Pruned { requested: 1, oldest_retained: 4 });
        assert!(pruned.to_string().contains("pruned"));
        let future: SnapshotError =
            rnt_mvcc::PinError::Future { requested: 9, watermark: 4 }.into();
        assert_eq!(future, SnapshotError::Future { requested: 9, watermark: 4 });
        assert!(future.to_string().contains("not yet published"));
    }
}
