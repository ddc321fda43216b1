//! Engine configuration: [`DbConfig`], its builder, and the three policy
//! enums it selects between.

#[cfg(doc)]
use crate::{Db, TxnError};
use std::time::Duration;

/// How lock conflicts that could deadlock are resolved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeadlockPolicy {
    /// Wait with a bound; give up with [`TxnError::Timeout`].
    Timeout,
    /// Wait-die: older (smaller root id) requesters wait, younger ones get
    /// [`TxnError::Die`] and should abort-and-retry.
    WaitDie,
    /// Maintain a wait-for graph; the requester closing a cycle gets
    /// [`TxnError::Deadlock`].
    Detect,
    /// Never wait: any conflict is returned as [`TxnError::Die`]
    /// immediately (optimistic-style callers that retry).
    NoWait,
}

/// When and how transaction events reach stable storage.
///
/// The paper's resilience model (`perm(T)`, Lemma 7) makes *top-level*
/// commits the only durability points: a subtransaction's commit is
/// revocable until every ancestor commits, so subtransaction events never
/// need to be forced to disk — they only need to be *ordered* in the log
/// so recovery can reconstruct the action tree.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Durability {
    /// In-memory only: no write-ahead log, nothing survives a crash.
    #[default]
    None,
    /// Append every event to the write-ahead log but let the OS schedule
    /// flushes: recovery sees every record the kernel retired, but a
    /// crash may lose a suffix of acked commits.
    Wal,
    /// Like [`Durability::Wal`], plus an fsync before acking each
    /// top-level commit: an acked commit survives any crash.
    WalFsync,
}

/// Which concurrency-control subsystem runs transactions.
///
/// Both modes share the action tree, the audit oracle, the MVCC version
/// chains, the WAL format, and recovery; they differ in *when* conflicts
/// are decided. Locking decides at access time (Moss's discipline: wait,
/// die, or deadlock-detect on the spot); optimistic decides at commit
/// time (run free against a pinned snapshot, validate under the publish
/// gate, first committer wins).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum CcMode {
    /// Moss nested-transaction read/write locking — the paper's
    /// algorithm, pessimistic. The default.
    #[default]
    Locking,
    /// Optimistic first-committer-wins (backward validation over the MVCC
    /// chain heads): a top-level transaction pins a snapshot epoch at
    /// begin, buffers writes privately, reads lock-free at the pinned
    /// epoch, and validates its whole footprint (read set ∪ write set) at
    /// commit under the publish gate. Any footprint key with a committed
    /// version newer than the begin epoch aborts the transaction with the
    /// retryable [`TxnError::Conflict`]. Commit order = serialization
    /// order, so histories stay data-serializable (Theorem 9) without a
    /// single lock-manager acquisition.
    Optimistic,
}

/// Engine configuration. Construct via [`DbConfig::builder`] (or start
/// from [`DbConfig::default`] and adjust fields); the struct is
/// `#[non_exhaustive]` so new knobs can be added without breaking callers.
#[non_exhaustive]
#[derive(Clone, Debug)]
pub struct DbConfig {
    /// Number of lock-table shards (power of two recommended).
    pub shards: usize,
    /// Deadlock handling policy.
    pub policy: DeadlockPolicy,
    /// Overall lock-wait bound for [`DeadlockPolicy::Timeout`].
    pub lock_timeout: Duration,
    /// Fallback re-check bound for a single condvar wait. Notifications
    /// drive progress — a release wakes the waiters of that key, an abort
    /// wakes the parked transactions it orphaned — so this is never a
    /// poll period: it only caps how long a waiter sleeps before
    /// re-running its conflict check (and, under
    /// [`DeadlockPolicy::Timeout`], its deadline check) unprompted.
    pub wait_slice: Duration,
    /// Record an audit log for serializability checking.
    pub audit: bool,
    /// Write-ahead logging mode. Takes effect only when the database is
    /// created with [`Db::open`] or [`Db::recover`] (which supply the log
    /// file); [`Db::new`]/[`Db::with_config`] are always in-memory.
    pub durability: Durability,
    /// Automatically checkpoint (rewrite the log as a snapshot) after
    /// every this many top-level commits; 0 disables auto-checkpointing.
    /// [`Db::checkpoint`] can always be called explicitly.
    pub checkpoint_every: u64,
    /// Route top-level commits through the group-commit sequencer: staged
    /// commits share one WAL append + fsync and one publish-mutex
    /// acquisition per batch (Lemma 7 requires a force *before* a commit
    /// is visible, not one force *per* commit). Durability and recovery
    /// semantics are identical either way; batches are atomic-in-log.
    pub group_commit: bool,
    /// Most commits retired in one batch (≥ 1; meaningful with
    /// [`DbConfig::group_commit`]).
    pub max_batch: usize,
    /// How long a batch leader waits for more commits to arrive before
    /// retiring a partial batch. Zero (the default) retires whatever is
    /// staged immediately — batching then comes purely from commits that
    /// accumulate while the previous batch is fsyncing, which never
    /// delays a solo committer.
    pub max_batch_wait: Duration,
    /// Per-key bound on committed version-chain length; 0 (the default)
    /// means unbounded. With a budget set, a commit that grows a chain
    /// past it force-prunes the oldest versions *even if a live snapshot
    /// pin holds them* — the escape hatch for a stuck (leaked or wedged)
    /// snapshot that would otherwise make chains grow without bound.
    /// Force-pruning expires such a snapshot: the affected keys read as
    /// absent through it, and the retained-epoch floor reported by
    /// [`Db::epochs`] rises past its pin. Snapshots at or above the floor
    /// are never affected.
    pub max_versions_per_key: usize,
    /// Which concurrency-control subsystem runs transactions (see
    /// [`CcMode`]). Mode is a per-database decision: every transaction of
    /// one [`Db`] runs under the same discipline.
    pub cc_mode: CcMode,
}

impl Default for DbConfig {
    fn default() -> Self {
        DbConfig {
            shards: 16,
            policy: DeadlockPolicy::Detect,
            lock_timeout: Duration::from_millis(100),
            wait_slice: Duration::from_millis(2),
            audit: false,
            durability: Durability::None,
            checkpoint_every: 0,
            group_commit: false,
            max_batch: 32,
            max_batch_wait: Duration::ZERO,
            max_versions_per_key: 0,
            cc_mode: CcMode::Locking,
        }
    }
}

impl DbConfig {
    /// Start building a configuration from the defaults.
    ///
    /// ```
    /// use rnt_core::{DbConfig, DeadlockPolicy};
    /// let config = DbConfig::builder()
    ///     .shards(64)
    ///     .policy(DeadlockPolicy::Detect)
    ///     .lock_timeout(std::time::Duration::from_millis(50))
    ///     .audit(true)
    ///     .build();
    /// assert_eq!(config.shards, 64);
    /// ```
    pub fn builder() -> DbConfigBuilder {
        DbConfigBuilder { config: DbConfig::default() }
    }
}

/// Fluent builder for [`DbConfig`], returned by [`DbConfig::builder`].
#[derive(Clone, Debug)]
pub struct DbConfigBuilder {
    config: DbConfig,
}

impl DbConfigBuilder {
    /// Number of lock-table shards.
    pub fn shards(mut self, shards: usize) -> Self {
        self.config.shards = shards;
        self
    }

    /// Deadlock handling policy.
    pub fn policy(mut self, policy: DeadlockPolicy) -> Self {
        self.config.policy = policy;
        self
    }

    /// Overall lock-wait bound for [`DeadlockPolicy::Timeout`].
    pub fn lock_timeout(mut self, timeout: Duration) -> Self {
        self.config.lock_timeout = timeout;
        self
    }

    /// Fallback re-check bound for a single condvar wait.
    pub fn wait_slice(mut self, slice: Duration) -> Self {
        self.config.wait_slice = slice;
        self
    }

    /// Record an audit log for serializability checking.
    pub fn audit(mut self, audit: bool) -> Self {
        self.config.audit = audit;
        self
    }

    /// Write-ahead logging mode (effective with [`Db::open`]/[`Db::recover`]).
    pub fn durability(mut self, durability: Durability) -> Self {
        self.config.durability = durability;
        self
    }

    /// Auto-checkpoint after every `n` top-level commits (0 = never).
    pub fn checkpoint_every(mut self, n: u64) -> Self {
        self.config.checkpoint_every = n;
        self
    }

    /// Route top-level commits through the group-commit sequencer.
    pub fn group_commit(mut self, on: bool) -> Self {
        self.config.group_commit = on;
        self
    }

    /// Most commits retired in one group-commit batch.
    pub fn max_batch(mut self, n: usize) -> Self {
        self.config.max_batch = n.max(1);
        self
    }

    /// How long a batch leader waits for more arrivals before retiring a
    /// partial batch (zero = retire immediately).
    pub fn max_batch_wait(mut self, wait: Duration) -> Self {
        self.config.max_batch_wait = wait;
        self
    }

    /// Per-key bound on committed version-chain length (0 = unbounded).
    /// See [`DbConfig::max_versions_per_key`] for the stuck-snapshot
    /// trade-off this knob buys.
    pub fn max_versions_per_key(mut self, n: usize) -> Self {
        self.config.max_versions_per_key = n;
        self
    }

    /// Which concurrency-control subsystem runs transactions.
    pub fn cc_mode(mut self, mode: CcMode) -> Self {
        self.config.cc_mode = mode;
        self
    }

    /// Finish, yielding the configuration.
    pub fn build(self) -> DbConfig {
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sets_all_knobs() {
        let config = DbConfig::builder()
            .shards(64)
            .policy(DeadlockPolicy::WaitDie)
            .lock_timeout(Duration::from_millis(7))
            .wait_slice(Duration::from_micros(300))
            .audit(true)
            .build();
        assert_eq!(config.shards, 64);
        assert_eq!(config.policy, DeadlockPolicy::WaitDie);
        assert_eq!(config.lock_timeout, Duration::from_millis(7));
        assert_eq!(config.wait_slice, Duration::from_micros(300));
        assert!(config.audit);
    }
}
