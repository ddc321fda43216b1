//! Engine configuration: [`DbConfig`], its builder, and the three policy
//! enums it selects between.

#[cfg(doc)]
use crate::{Db, TxnError};
use std::time::Duration;

/// How lock conflicts that could deadlock are resolved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeadlockPolicy {
    /// Wait at most this long overall; give up with [`TxnError::Timeout`].
    Timeout(Duration),
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

/// When and how committed state reaches stable storage.
///
/// The paper's resilience model (`perm(T)`, Lemma 7) makes *top-level*
/// commits the only durability points: a subtransaction's commit is
/// revocable until every ancestor commits, so subtransaction events never
/// reach the log at all. The log holds seeds and one frame per top-level
/// commit carrying its write set; recovery replays those and nothing
/// else.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Durability {
    /// In-memory only: no write-ahead log, nothing survives a crash.
    #[default]
    None,
    /// Append every seed and commit frame to the write-ahead log but let
    /// the OS schedule flushes: recovery sees every record the kernel
    /// retired, but a crash may lose a suffix of acked commits.
    Wal,
    /// Like [`Durability::Wal`], plus an fsync before acking each
    /// top-level commit: an acked commit survives any crash. Every
    /// commit, in either mode, forces outside the publish gate, after its
    /// frame is appended and before it publishes, so forces overlap and
    /// nothing waits for company.
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
/// `#[non_exhaustive]`.
///
/// Each field is a choice that changes what a caller observes: which
/// conflicts wait, whether an audit log exists, what survives a crash,
/// and when conflicts are decided. How often a parked waiter re-checks
/// unprompted is an engine fact, not a setting: waits are driven by
/// notifications.
#[non_exhaustive]
#[derive(Clone, Debug)]
pub struct DbConfig {
    /// Deadlock handling policy.
    pub policy: DeadlockPolicy,
    /// Record an audit log for serializability checking.
    pub audit: bool,
    /// Write-ahead logging mode. Takes effect only when the database is
    /// created with [`Db::open`] or [`Db::recover`] (which supply the log
    /// file); [`Db::new`]/[`Db::with_config`] are always in-memory.
    pub durability: Durability,
    /// Which concurrency-control subsystem runs transactions (see
    /// [`CcMode`]). Mode is a per-database decision: every transaction of
    /// one [`Db`] runs under the same discipline.
    pub cc_mode: CcMode,
}

impl Default for DbConfig {
    fn default() -> Self {
        DbConfig {
            policy: DeadlockPolicy::Detect,
            audit: false,
            durability: Durability::None,
            cc_mode: CcMode::Locking,
        }
    }
}

impl DbConfig {
    /// Start building a configuration from the defaults.
    ///
    /// ```
    /// use rnt_core::{DbConfig, DeadlockPolicy};
    /// use std::time::Duration;
    /// let config = DbConfig::builder()
    ///     .policy(DeadlockPolicy::Timeout(Duration::from_millis(50)))
    ///     .audit(true)
    ///     .build();
    /// assert_eq!(config.policy, DeadlockPolicy::Timeout(Duration::from_millis(50)));
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
    /// Deadlock handling policy.
    pub fn policy(mut self, policy: DeadlockPolicy) -> Self {
        self.config.policy = policy;
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

    /// Accepted and ignored: no commit is batched, and every top-level
    /// commit frames, forces and publishes on its own. Kept so that
    /// existing callers compile.
    pub fn group_commit(self, _on: bool) -> Self {
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

    /// Every builder method lands in its field, and the destructuring
    /// names every field: adding a knob fails to compile here until this
    /// test is edited to cover it.
    #[test]
    fn builder_sets_every_field() {
        let DbConfig { policy, audit, durability, cc_mode } = DbConfig::builder()
            .policy(DeadlockPolicy::Timeout(Duration::from_millis(7)))
            .audit(true)
            .durability(Durability::WalFsync)
            .cc_mode(CcMode::Optimistic)
            .build();
        assert_eq!(policy, DeadlockPolicy::Timeout(Duration::from_millis(7)));
        assert!(audit);
        assert_eq!(durability, Durability::WalFsync);
        assert_eq!(cc_mode, CcMode::Optimistic);
    }
}
