//! The nested-transaction database: public API.
//!
//! [`Db`] is a sharded in-memory store whose concurrency control is Moss's
//! nested-transaction locking (read/write variant) — the algorithm the
//! paper proves correct, made concurrent. [`Txn`] handles form the action
//! tree: [`Db::begin`] starts a top-level transaction, [`Txn::child`] a
//! subtransaction; a subtransaction's failure aborts only its own subtree
//! (resilience), while its commit publishes its work *to its parent* via
//! lock inheritance.
//!
//! Configuration is built fluently ([`DbConfig::builder`]) and whole
//! transactions run with automatic retry ([`Db::run`]), mirroring
//! [`Txn::run_child`] one level up.
//!
//! # Wakeup protocol
//!
//! The paper's `release-lock`/`lose-lock` events are the engine's hot
//! path. A transaction blocked on a lock parks on a **per-key gate**
//! (condvar + generation counter, created on demand under the shard
//! lock); every state change to a key — commit inheritance, abort
//! restore, top-level publish — bumps that key's generation and notifies
//! only the transactions blocked on *that key*. The generation counter
//! doubles as the spurious/productive wakeup classifier feeding
//! [`Stats`].

use crate::audit::{hash_value, AuditLog, AuditRecord};
#[cfg(feature = "chaos-hooks")]
use crate::chaos;
use crate::commit_pipeline::{CommitPipeline, StagedCommit};
use crate::deadlock::WaitForGraph;
use crate::error::TxnError;
use crate::lock::{Conflict, LockEnv, LockState};
use crate::registry::{Registry, RegistryError, RegistryView, TxnId, TxnStatus};
use crate::stats::{Stats, StatsSnapshot};
use crate::view::{EpochBounds, ReadView, SnapshotError};
use parking_lot::{Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard};
use rnt_model::UpdateFn;
use rnt_mvcc::{MvccStore, PublishBatch, PublishGate, GENESIS_EPOCH};
use rnt_wal::{Record, Wal, WalError, WalForce, INIT_ACTION};
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasher, Hash, RandomState};
use std::ops::{Bound, RangeBounds};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

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

/// A per-key wait gate: the condvar transactions blocked on this key park
/// on, plus a generation counter bumped (under the shard lock) whenever
/// the key's lock state changes. Comparing generations across a sleep
/// classifies the wakeup as productive (state changed) or spurious.
///
/// All fields are mutated only under the owning shard's lock; the atomics
/// exist so the gate can be shared (`Arc`) across that boundary.
#[derive(Default)]
struct KeyGate {
    cv: Condvar,
    generation: AtomicU64,
    waiters: AtomicUsize,
}

/// Everything a shard's mutex protects: the lock table itself plus the
/// wait gates of keys someone is currently blocked on.
struct ShardState<K, V> {
    objects: HashMap<K, LockState<V>>,
    gates: HashMap<K, Arc<KeyGate>>,
}

/// A parked lock waiter, registered so aborts can wake transactions that
/// just became orphans (their awaited key's state never changes, so the
/// per-key gate alone would leave them sleeping a full wait slice).
struct WaitEntry {
    txn: TxnId,
    shard: usize,
    gate: Arc<KeyGate>,
}

struct AuditState<K> {
    log: AuditLog,
    keymap: Mutex<HashMap<K, u32>>,
}

/// A scanned interval, owned: the bounds of one [`ReadView::range`] call.
type KeyRange<K> = (Bound<K>, Bound<K>);

/// Per-transaction optimistic-mode context: the begin snapshot plus the
/// private buffers that replace lock-table state ([`CcMode::Optimistic`]).
///
/// Children get their own context linked to the parent's: reads overlay
/// the nearest ancestor's buffered write over the pinned snapshot, a
/// child commit merges its buffers into the parent (savepoint release),
/// and a child abort discards them — the resilient-nesting semantics of
/// lock inheritance, re-expressed over buffers. First-committer-wins
/// validation runs once, at the top of the tree, over the merged
/// footprint. (Live *sibling* subtransactions are not isolated from the
/// committed state of each other's merges, exactly as with inherited
/// locks; serializability is enforced between top-level trees.)
struct OptCtx<K, V> {
    /// Snapshot epoch pinned by the top-level transaction at begin (the
    /// top owns the pin; children copy the value).
    begin_epoch: u64,
    /// The parent's context (`None` on the top-level transaction).
    parent: Option<Arc<OptCtx<K, V>>>,
    /// Private write buffer, newest value per key. A `BTreeMap` so the
    /// commit publishes (and WAL-logs) in deterministic key order, and so
    /// a scan can overlay the buffered writes inside its bounds.
    writes: Mutex<BTreeMap<K, V>>,
    /// Keys read from the snapshot — the rw-antidependency half of the
    /// validation footprint. Buffered-write hits don't enter: they
    /// depend on this tree, not on the snapshot.
    reads: Mutex<std::collections::HashSet<K>>,
    /// Intervals scanned from the snapshot, validated as intervals: one
    /// entry per [`ReadView::range`] call, however many rows it returned.
    /// An interval stands for every key inside it — a superset of the
    /// keys the scan returned, so it can only add conflicts.
    ranges: Mutex<Vec<KeyRange<K>>>,
    /// Access records buffered until top-level commit. Flushing them to
    /// the audit log under the publish gate makes audit data order equal
    /// commit (= epoch) order — the invariant the Theorem-9 oracle's
    /// reconstruction relies on, which op-time logging would break for
    /// transactions that overlap in wall-clock but not in serial order.
    audit_buf: Mutex<Vec<AuditRecord>>,
}

impl<K: Eq + Hash + Ord + Clone, V: Clone> OptCtx<K, V> {
    /// A fresh context reading at `begin_epoch` under `parent`.
    fn new(begin_epoch: u64, parent: Option<Arc<OptCtx<K, V>>>) -> Self {
        OptCtx {
            begin_epoch,
            parent,
            writes: Mutex::new(BTreeMap::new()),
            reads: Mutex::new(std::collections::HashSet::new()),
            ranges: Mutex::new(Vec::new()),
            audit_buf: Mutex::new(Vec::new()),
        }
    }

    /// The nearest buffered value for `key`: own buffer first, then the
    /// ancestor chain outward.
    fn buffered(&self, key: &K) -> Option<V> {
        if let Some(v) = self.writes.lock().get(key) {
            return Some(v.clone());
        }
        self.parent.as_ref().and_then(|p| p.buffered(key))
    }

    /// Enter `key` into the read set: one hash, first contact or not (a
    /// re-read pays a key clone instead of a second lookup).
    fn track_read(&self, key: &K) {
        self.reads.lock().insert(key.clone());
    }

    /// Lay this tree's buffered writes inside `bounds` over `rows` (the
    /// snapshot's rows in key order): ancestors first, so the nearest
    /// buffer wins, exactly as [`OptCtx::buffered`] resolves one key.
    fn overlay(&self, bounds: &KeyRange<K>, rows: &mut Vec<(K, V)>) {
        if let Some(parent) = &self.parent {
            parent.overlay(bounds, rows);
        }
        for (key, value) in self.writes.lock().range((bounds.0.as_ref(), bounds.1.as_ref())) {
            match rows.binary_search_by(|(k, _)| k.cmp(key)) {
                Ok(i) => rows[i].1 = value.clone(),
                Err(i) => rows.insert(i, (key.clone(), value.clone())),
            }
        }
    }

    /// Buffer a written value, cloning the key only on first write.
    fn track_write(&self, key: &K, value: V) {
        let mut writes = self.writes.lock();
        match writes.get_mut(key) {
            Some(slot) => *slot = value,
            None => {
                writes.insert(key.clone(), value);
            }
        }
    }

    /// Move the merged buffers out for a top-level commit (moves only:
    /// nothing is allocated or cloned).
    fn take_footprint(&self) -> OptFootprint<K, V> {
        OptFootprint {
            begin_epoch: self.begin_epoch,
            writes: std::mem::take(&mut *self.writes.lock()),
            reads: std::mem::take(&mut *self.reads.lock()),
            ranges: std::mem::take(&mut *self.ranges.lock()),
            audit: std::mem::take(&mut *self.audit_buf.lock()),
        }
    }
}

/// Everything an optimistic top-level commit brings to validation and
/// publication: the merged buffers of its whole tree.
struct OptFootprint<K, V> {
    /// The pinned begin snapshot.
    begin_epoch: u64,
    /// The buffered write set (key order, for deterministic logs).
    writes: BTreeMap<K, V>,
    /// The snapshot read set: keys…
    reads: std::collections::HashSet<K>,
    /// …and scanned intervals.
    ranges: Vec<KeyRange<K>>,
    /// The buffered audit Access records.
    audit: Vec<AuditRecord>,
}

/// The mode-specific half of a top-level commit on its way to
/// publication (see [`Participant`]).
enum CommitPayload<K, V> {
    /// Locking mode: the keys whose locks the commit holds.
    Locking(std::collections::HashSet<K>),
    /// Optimistic mode: the whole footprint, so whoever runs the
    /// publication sequence can validate, publish, or abort it.
    Optimistic(OptFootprint<K, V>),
}

impl<K, V> CommitPayload<K, V> {
    /// The footprint of a commit in an optimistic database (a [`Db`]
    /// runs one mode for life, so the other variant never arrives).
    fn optimistic(&mut self) -> &mut OptFootprint<K, V> {
        match self {
            CommitPayload::Optimistic(footprint) => footprint,
            CommitPayload::Locking(_) => unreachable!("locking payload in an optimistic database"),
        }
    }
}

/// One top-level commit on its way through a publication sequence: what
/// the group-commit sequencer queues for its leader, and what the inline
/// path builds on its own stack and passes as a batch of one.
type Participant<K, V> = StagedCommit<CommitPayload<K, V>>;

/// The commit record of one publication, participant `i` at the ticket's
/// `i`-th epoch: a plain `Commit` for a single participant — so a
/// degenerate batch logs byte for byte what an unbatched commit does,
/// and logs only diverge when batching actually coalesced commits — else
/// one `BatchCommit` frame, which replays exactly like the `n` plain
/// records except atomically (the frame is torn wholly or not at all).
fn commit_record<P>(participants: &[StagedCommit<P>], publish: &PublishBatch<'_>) -> Record {
    match participants {
        [only] => Record::Commit { action: only.txn.0, epoch: Some(publish.epoch_of(0)) },
        _ => Record::BatchCommit {
            commits: (0..).zip(participants).map(|(i, p)| (p.txn.0, publish.epoch_of(i))).collect(),
        },
    }
}

/// The attached write-ahead log plus everything needed to feed it.
///
/// The key/value encoders are monomorphic `fn` pointers captured where the
/// `WalCodec` bounds exist ([`Db::open`]/[`Db::recover`]), so the base
/// `Db` impl — and every existing caller — keeps compiling without those
/// bounds.
struct WalState<K, V> {
    /// The append side. Every record goes through this mutex (`Write`
    /// records while a shard guard is held), so nothing slow may run
    /// under it — in particular not the force.
    log: Mutex<Wal>,
    /// The force side of `log`, usable without the mutex: see
    /// [`DbInner::wal_force`].
    force: WalForce,
    /// Fsync before acking top-level commits ([`Durability::WalFsync`]).
    fsync_commits: bool,
    /// Auto-checkpoint cadence in top-level commits (0 = never).
    checkpoint_every: u64,
    commits_since_ckpt: AtomicU64,
    /// First append/fsync failure, if any. Once set the log is
    /// **fail-stop**: no further record is appended or forced (a log with
    /// a record missing from its middle could replay half a transaction,
    /// or not replay at all), and every top-level commit reports
    /// [`TxnError::Wal`] instead of acking durability it does not have.
    /// The file keeps the prefix written before the failure, which
    /// recovers like a crash at that point.
    broken: std::sync::OnceLock<String>,
    enc_key: fn(&K, &mut Vec<u8>),
    enc_val: fn(&V, &mut Vec<u8>),
}

impl<K, V> WalState<K, V> {
    fn mark_broken(&self, e: &WalError) {
        // Only the first failure is kept.
        let _ = self.broken.set(e.to_string());
    }
}

struct DbInner<K, V> {
    registry: Registry,
    /// The lock tables, one mutex per shard (see [`ShardState`]).
    shards: Box<[Mutex<ShardState<K, V>>]>,
    hasher: RandomState,
    stats: Stats,
    wfg: WaitForGraph,
    config: DbConfig,
    audit: Option<AuditState<K>>,
    /// Currently parked lock waiters (see [`WaitEntry`]).
    waiting: Mutex<Vec<WaitEntry>>,
    /// Sequence for [`Db::run`]'s seeded backoff jitter.
    run_seq: AtomicU64,
    /// The attached write-ahead log (set once by [`Db::open`]/[`Db::recover`];
    /// never set for purely in-memory databases).
    wal: std::sync::OnceLock<WalState<K, V>>,
    /// Checkpoint latch: transaction lifecycle transitions (begin, commit,
    /// abort) hold it shared so a checkpoint (exclusive) can never observe —
    /// or worse, rewrite away — a half-logged transition. Lock order:
    /// latch → shard → { registry-read, wal }. The log force
    /// ([`DbInner::wal_force`]) runs under the latch only: it takes the
    /// wal mutex to append the commit record and has released it before
    /// the fsync starts, so the latch (shared) is what keeps a checkpoint's
    /// `replace` from racing the force, and nothing keeps other
    /// transactions from logging through it.
    ckpt: RwLock<()>,
    /// Committed version chains for lock-free snapshot reads. Top-level
    /// commits publish here (under the publish lock, then per-key under
    /// the owning shard guard — so chain order = grant order = log order);
    /// [`Db::snapshot`] pins an epoch and reads without ever touching the
    /// lock tables. Lock order: publish → shard → the store's own locks.
    mvcc: MvccStore<K, V>,
    /// The group-commit sequencer (used iff [`DbConfig::group_commit`]).
    pipeline: CommitPipeline<CommitPayload<K, V>, Result<(), TxnError>>,
    /// The installed fault injector, if any (chaos harness only).
    #[cfg(feature = "chaos-hooks")]
    injector: parking_lot::RwLock<Option<Arc<dyn chaos::Injector>>>,
}

impl LockEnv for Registry {
    fn is_ancestor(&self, a: TxnId, b: TxnId) -> bool {
        Registry::is_ancestor(self, a, b)
    }
    fn is_dead(&self, t: TxnId) -> bool {
        Registry::is_dead(self, t)
    }
}

/// A nested-transaction in-memory database.
pub struct Db<K, V> {
    inner: Arc<DbInner<K, V>>,
}

impl<K, V> Clone for Db<K, V> {
    fn clone(&self) -> Self {
        Db { inner: self.inner.clone() }
    }
}

impl<K, V> std::fmt::Debug for Db<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Db")
            .field("config", &self.inner.config)
            .field("watermark", &self.inner.mvcc.watermark())
            .field("oldest_retained", &self.inner.mvcc.oldest_retained())
            .finish_non_exhaustive()
    }
}

impl<K, V> Db<K, V>
where
    K: Eq + Hash + Ord + Clone + Send + Sync + 'static,
    V: Clone + Hash + Send + Sync + 'static,
{
    /// Create a database with default configuration.
    pub fn new() -> Self {
        Self::with_config(DbConfig::default())
    }

    /// Create a database with the given configuration.
    pub fn with_config(config: DbConfig) -> Self {
        let config_shards = config.shards.max(1);
        let max_versions = config.max_versions_per_key;
        let shards = (0..config_shards)
            .map(|_| Mutex::new(ShardState { objects: HashMap::new(), gates: HashMap::new() }))
            .collect();
        let audit = config
            .audit
            .then(|| AuditState { log: AuditLog::new(), keymap: Mutex::new(HashMap::new()) });
        Db {
            inner: Arc::new(DbInner {
                registry: Registry::new(),
                shards,
                hasher: RandomState::new(),
                stats: Stats::default(),
                wfg: WaitForGraph::new(),
                config,
                audit,
                waiting: Mutex::new(Vec::new()),
                run_seq: AtomicU64::new(0),
                wal: std::sync::OnceLock::new(),
                ckpt: RwLock::new(()),
                mvcc: MvccStore::with_opts(max_versions),
                pipeline: CommitPipeline::new(),
                #[cfg(feature = "chaos-hooks")]
                injector: parking_lot::RwLock::new(None),
            }),
        }
    }

    /// Seed an object with its initial value (non-transactional; mirrors
    /// the paper's `init(x)`). Returns false if the key already exists.
    pub fn insert(&self, key: K, value: V) -> bool {
        let inner = &self.inner;
        let shard = inner.shard_of(&key);
        let mut guard = inner.shards[shard].lock();
        if guard.objects.contains_key(&key) {
            return false;
        }
        if let Some(audit) = &inner.audit {
            let mut keymap = audit.keymap.lock();
            if !keymap.contains_key(&key) {
                let id = keymap.len() as u32;
                keymap.insert(key.clone(), id);
                audit.log.register_object(id, hash_value(&value));
            }
        }
        // Logged under the shard guard, like transactional writes, so the
        // per-key log order is the true lock-table mutation order.
        inner.wal_log_write(INIT_ACTION, &key, &value);
        // Seeds enter the version chain at the genesis epoch: seeding is
        // not a transaction, so the value is visible to every snapshot
        // regardless of when the key was inserted.
        inner.mvcc.append(&key, GENESIS_EPOCH, value.clone());
        guard.objects.insert(key, LockState::new(value));
        true
    }

    /// The committed (top-level) value of a key, outside any transaction.
    pub fn committed_value(&self, key: &K) -> Option<V> {
        let inner = &self.inner;
        let shard = inner.shard_of(key);
        let guard = inner.shards[shard].lock();
        guard.objects.get(key).map(|s| s.base_value().clone())
    }

    /// Open a lock-free read-only snapshot of the committed state.
    ///
    /// The snapshot pins the current commit epoch; every
    /// [`Snapshot::read`] returns the committed value as of that epoch, no
    /// matter what writers commit afterwards. Reads never touch the lock
    /// manager — no lock acquisitions, no conflicts, no waits — because
    /// only top-level commits create versions: everything a snapshot can
    /// see is in `perm(T)` (Lemma 7), a prefix-closed data-serializable
    /// view (Theorem 9). The pinned versions are protected from
    /// reclamation until the snapshot drops.
    pub fn snapshot(&self) -> Snapshot<K, V> {
        Snapshot { epoch: self.inner.mvcc.pin(), inner: self.inner.clone() }
    }

    /// Open a snapshot pinned to a *specific* past epoch (time travel).
    ///
    /// Succeeds for any epoch the store still retains —
    /// [`Db::epochs`]`().contains(epoch)` — and fails with a typed
    /// [`SnapshotError`] otherwise: [`SnapshotError::Pruned`] below the
    /// retained floor (permanent: history only shrinks),
    /// [`SnapshotError::Future`] above the watermark (transient: more
    /// commits may land). The returned snapshot behaves exactly like
    /// [`Db::snapshot`] — lock-free reads and range scans, GC protection
    /// until dropped.
    ///
    /// How far back travel reaches is workload-dependent: versions are
    /// retained as long as some live pin needs them, so the floor is the
    /// oldest live pin (or the watermark when idle). To hold a restore
    /// point open, keep a snapshot alive — retention never reclaims at or
    /// above the oldest live pin unless
    /// [`DbConfig::max_versions_per_key`] forces it to.
    pub fn snapshot_at(&self, epoch: u64) -> Result<Snapshot<K, V>, SnapshotError> {
        let epoch = self.inner.mvcc.pin_at(epoch)?;
        Ok(Snapshot { epoch, inner: self.inner.clone() })
    }

    /// The window of epochs [`Db::snapshot_at`] can currently serve:
    /// oldest retained through the publish watermark.
    pub fn epochs(&self) -> EpochBounds {
        // Read the floor first: it only rises, and it trails the
        // watermark, so a torn read can only understate the window.
        let oldest_retained = self.inner.mvcc.oldest_retained();
        let watermark = self.inner.mvcc.watermark();
        EpochBounds { oldest_retained, watermark: watermark.max(oldest_retained) }
    }

    /// The committed version history of a key, oldest first, as
    /// `(commit_epoch, value)` pairs. Introspection for tests and the
    /// chaos oracle; with no snapshots open every history has length 1.
    pub fn history(&self, key: &K) -> Vec<(u64, V)> {
        self.inner.mvcc.chain(key)
    }

    /// Begin a top-level transaction.
    ///
    /// In [`CcMode::Optimistic`] this also pins the current commit epoch:
    /// the transaction's begin snapshot, released when the transaction
    /// finishes (either way).
    pub fn begin(&self) -> Txn<K, V> {
        let _latch = self.inner.wal_latch();
        let id = self.inner.registry.begin_top();
        self.inner.stats.bump(|b| &b.begun);
        self.inner.audit_record(|reg| AuditRecord::Begin { path: reg.path(id).expect("fresh") });
        self.inner.wal_append(&Record::Begin { action: id.0, parent: None });
        let opt = (self.inner.config.cc_mode == CcMode::Optimistic)
            .then(|| Arc::new(OptCtx::new(self.inner.mvcc.pin(), None)));
        Txn {
            inner: self.inner.clone(),
            id,
            done: false,
            touched: Arc::new(Mutex::new(std::collections::HashSet::new())),
            parent_touched: None,
            opt,
        }
    }

    /// Run `body` in a top-level transaction with automatic retry:
    /// commits on success; on a retryable error the transaction is
    /// aborted and re-run after a short, seeded, capped backoff — the
    /// top-level mirror of [`Txn::run_child`].
    ///
    /// Retryable errors are exactly those where aborting and re-running
    /// can succeed (see [`TxnError::is_retryable`]): [`TxnError::Die`]
    /// (wait-die / no-wait victims), [`TxnError::Deadlock`] (detection
    /// victims), and [`TxnError::Timeout`] (the conflict may clear).
    /// Anything else aborts the transaction and propagates.
    pub fn run<R>(
        &self,
        body: impl FnMut(&Txn<K, V>) -> Result<R, TxnError>,
    ) -> Result<R, TxnError> {
        self.run_with_retries(u32::MAX, body)
    }

    /// [`Db::run`] with an explicit bound on re-runs (0 = try once).
    pub fn run_with_retries<R>(
        &self,
        max_retries: u32,
        mut body: impl FnMut(&Txn<K, V>) -> Result<R, TxnError>,
    ) -> Result<R, TxnError> {
        let mut attempts: u32 = 0;
        loop {
            let txn = self.begin();
            match body(&txn) {
                Ok(out) => match txn.commit() {
                    Ok(()) => return Ok(out),
                    Err(e) if e.is_retryable() && attempts < max_retries => {
                        attempts += 1;
                        self.backoff(attempts);
                    }
                    Err(e) => return Err(e),
                },
                Err(e) if e.is_retryable() && attempts < max_retries => {
                    txn.abort();
                    attempts += 1;
                    self.backoff(attempts);
                }
                Err(e) => {
                    txn.abort();
                    return Err(e);
                }
            }
        }
    }

    /// Capped, seeded backoff between [`Db::run`] attempts: yield for the
    /// first couple of retries, then sleep a jittered duration growing to
    /// at most ~128µs — enough to break retry lockstep without parking
    /// anyone for a meaningful time.
    fn backoff(&self, attempt: u32) {
        if attempt <= 2 {
            std::thread::yield_now();
            return;
        }
        let seq = self.inner.run_seq.fetch_add(1, Ordering::Relaxed);
        // xorshift over a golden-ratio-scrambled sequence: deterministic
        // given arrival order, decorrelated across racing threads.
        let mut x = seq.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let cap = 1u64 << attempt.min(7); // 8..=128 µs
        std::thread::sleep(Duration::from_micros(x % cap));
    }

    /// Engine counters (the atomics in [`Stats`] merged with the MVCC
    /// store's version/pin counters).
    pub fn stats(&self) -> StatsSnapshot {
        let mut snap = self.inner.stats.snapshot();
        let mvcc = self.inner.mvcc.counters();
        snap.versions_created = mvcc.created;
        snap.versions_reclaimed = mvcc.reclaimed;
        snap.snapshot_pins_live = mvcc.pins_live;
        snap
    }

    /// Current status of every transaction this database has seen, in id
    /// order — the raw material of the paper's action summaries.
    pub fn status_summary(&self) -> Vec<(TxnId, TxnStatus)> {
        self.inner.registry.snapshot().into_iter().map(|(id, _, status, _)| (id, status)).collect()
    }

    /// The database's transaction-status knowledge rendered in the
    /// paper's action-summary vocabulary (Section 9.1's `i.T` for the
    /// node this engine embodies): every transaction the registry has
    /// seen, mapped to an [`rnt_model::ActionId`] by `name` (which sees
    /// the id and the registry path and may decline with `None`), with
    /// its current status. This is the summary-extraction hook a
    /// distribution layer gossips and traces with.
    pub fn action_summary(
        &self,
        name: impl Fn(TxnId, &[u32]) -> Option<rnt_model::ActionId>,
    ) -> rnt_model::ActionSummary {
        rnt_model::ActionSummary::from_entries(
            self.inner.registry.snapshot().into_iter().filter_map(|(id, _, status, path)| {
                let action = name(id, &path)?;
                let status = match status {
                    TxnStatus::Active => rnt_model::Status::Active,
                    TxnStatus::Committed => rnt_model::Status::Committed,
                    TxnStatus::Aborted => rnt_model::Status::Aborted,
                };
                Some((action, status))
            }),
        )
    }

    /// The audit log, if auditing is enabled.
    pub fn audit_log(&self) -> Option<&AuditLog> {
        self.inner.audit.as_ref().map(|a| &a.log)
    }

    /// Checkpoint the write-ahead log now: rewrite it as a snapshot of the
    /// committed key space plus re-logged records for in-flight
    /// transactions, truncating all earlier history. A no-op without an
    /// attached log.
    pub fn checkpoint(&self) -> Result<(), TxnError> {
        self.inner.do_checkpoint().map_err(|e| TxnError::Wal { detail: e.to_string() })
    }

    /// Seed a key during replay: no audit registration, no WAL append.
    /// `epoch` is the version-chain epoch of the seeded value — genesis
    /// for init writes, the checkpointed last-commit epoch for
    /// checkpoint-snapshot entries.
    pub(crate) fn raw_insert(&self, key: K, value: V, epoch: u64) -> bool {
        let inner = &self.inner;
        let shard = inner.shard_of(&key);
        let mut guard = inner.shards[shard].lock();
        if guard.objects.contains_key(&key) {
            return false;
        }
        inner.mvcc.append(&key, epoch, value.clone());
        guard.objects.insert(key, LockState::new(value));
        true
    }

    /// Replay-only MVCC hooks: append a recovered committed version /
    /// advance the epoch watermark to what the log proves was published.
    pub(crate) fn raw_mvcc_append(&self, key: &K, epoch: u64, value: V) {
        self.inner.mvcc.append(key, epoch, value);
    }

    pub(crate) fn raw_mvcc_advance(&self, epoch: u64) {
        self.inner.mvcc.advance_watermark(epoch);
    }

    /// Replay-only: concede that epochs below `epoch` are unresolvable. A
    /// checkpoint compacts history beneath its watermark (chains restart
    /// at their per-key last-commit epochs), so post-recovery time travel
    /// must not reach under it.
    pub(crate) fn raw_mvcc_concede(&self, epoch: u64) {
        self.inner.mvcc.concede_retained(epoch);
    }

    pub(crate) fn raw_mvcc_watermark(&self) -> u64 {
        self.inner.mvcc.watermark()
    }

    /// Run `f` on a key's lock state with a registry view (replay only).
    pub(crate) fn raw_with_state<R>(
        &self,
        key: &K,
        f: impl FnOnce(&mut LockState<V>, &RegistryView<'_>) -> R,
    ) -> Option<R> {
        let inner = &self.inner;
        let shard = inner.shard_of(key);
        let mut guard = inner.shards[shard].lock();
        let state = guard.objects.get_mut(key)?;
        let view = inner.registry.read_view();
        Some(f(state, &view))
    }

    pub(crate) fn registry(&self) -> &Registry {
        &self.inner.registry
    }

    pub(crate) fn stats_raw(&self) -> &Stats {
        &self.inner.stats
    }

    /// Register every seeded key with the audit log at its *current* base
    /// value. Recovery calls this after replay (not during) so the audit's
    /// initial object values are the recovered bases, matching what
    /// post-recovery transactions will actually observe.
    pub(crate) fn audit_register_all(&self) {
        let Some(audit) = &self.inner.audit else { return };
        let mut keymap = audit.keymap.lock();
        for shard in self.inner.shards.iter() {
            let guard = shard.lock();
            for (key, state) in guard.objects.iter() {
                // Contains-first keeps registration idempotent (a key
                // already mapped keeps its id and is not re-registered)
                // and clones the key only when it actually enters.
                if !keymap.contains_key(key) {
                    let id = keymap.len() as u32;
                    keymap.insert(key.clone(), id);
                    audit.log.register_object(id, hash_value(state.base_value()));
                }
            }
        }
    }

    /// Attach a write-ahead log (at most once, by [`Db::open`]/[`Db::recover`]).
    pub(crate) fn install_wal(
        &self,
        log: Wal,
        enc_key: fn(&K, &mut Vec<u8>),
        enc_val: fn(&V, &mut Vec<u8>),
    ) -> Result<(), WalError> {
        let config = &self.inner.config;
        let state = WalState {
            force: log.force_handle(),
            log: Mutex::new(log),
            fsync_commits: config.durability == Durability::WalFsync,
            checkpoint_every: config.checkpoint_every,
            commits_since_ckpt: AtomicU64::new(0),
            broken: std::sync::OnceLock::new(),
            enc_key,
            enc_val,
        };
        self.inner.wal.set(state).map_err(|_| WalError::Io {
            op: "install",
            detail: "write-ahead log already attached".to_string(),
        })
    }

    /// Rewrite the attached log now, if any (recovery's post-replay
    /// truncation).
    pub(crate) fn checkpoint_wal(&self) -> Result<(), WalError> {
        self.inner.do_checkpoint()
    }
}

/// Chaos-harness entry points (compiled only with `chaos-hooks`). All of
/// them are additive observers/perturbers: none is needed for, or changes,
/// normal operation.
#[cfg(feature = "chaos-hooks")]
impl<K, V> Db<K, V>
where
    K: Eq + Hash + Ord + Clone + Send + Sync + std::fmt::Debug + 'static,
    V: Clone + Hash + Send + Sync + 'static,
{
    /// Install (or with `None`, remove) the fault injector consulted on
    /// every lock acquisition and child begin.
    pub fn chaos_set_injector(&self, injector: Option<Arc<dyn chaos::Injector>>) {
        *self.inner.injector.write() = injector;
    }

    /// Eagerly perform every pending `lose-lock`: reap locks held by dead
    /// transactions in all shards (normally done lazily at conflict-check
    /// time). Semantically a no-op — it only advances work the engine is
    /// allowed to defer — so the harness may call it at any point.
    pub fn chaos_reap_all(&self) {
        for shard in self.inner.shards.iter() {
            let mut guard = shard.lock();
            let view = self.inner.registry.read_view();
            for state in guard.objects.values_mut() {
                state.reap(&view);
            }
            // Every key's state may have changed: wake all gates.
            for gate in guard.gates.values() {
                gate.generation.fetch_add(1, Ordering::Relaxed);
                gate.cv.notify_all();
            }
        }
    }

    /// Check every per-object lock state against the engine invariants
    /// (see [`LockState::chaos_check`]); additionally, when no transaction
    /// is active, every lock table must be empty (all versions either
    /// published to base or restored). Returns human-readable violations,
    /// sorted; empty means all invariants hold. Call [`Db::chaos_reap_all`]
    /// first so lazily-reapable dead holders are not reported.
    pub fn chaos_lock_violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        let quiescent = self.inner.registry.chaos_active().is_empty();
        for shard in self.inner.shards.iter() {
            let guard = shard.lock();
            let view = self.inner.registry.read_view();
            for (key, state) in guard.objects.iter() {
                if let Err(violation) = state.chaos_check(&view) {
                    out.push(format!("{key:?}: {violation}"));
                }
                if quiescent
                    && (state.write_holders().next().is_some() || !state.read_holders().is_empty())
                {
                    out.push(format!("{key:?}: locks held at quiescence"));
                }
            }
        }
        out.sort();
        out
    }

    /// Snapshot the transaction registry: `(id, parent, status, path)` per
    /// known transaction, ordered by id.
    pub fn chaos_txn_snapshot(&self) -> Vec<(TxnId, Option<TxnId>, TxnStatus, Vec<u32>)> {
        self.inner.registry.snapshot()
    }
}

impl<K, V> Default for Db<K, V>
where
    K: Eq + Hash + Ord + Clone + Send + Sync + 'static,
    V: Clone + Hash + Send + Sync + 'static,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V> DbInner<K, V>
where
    K: Eq + Hash + Ord + Clone + Send + Sync + 'static,
    V: Clone + Hash + Send + Sync + 'static,
{
    fn shard_of(&self, key: &K) -> usize {
        (self.hasher.hash_one(key) as usize) % self.shards.len()
    }

    fn audit_record(&self, f: impl FnOnce(&Registry) -> AuditRecord) {
        if let Some(audit) = &self.audit {
            audit.log.push(f(&self.registry));
        }
    }

    /// The audited object id of a key (auditing enabled and key seeded).
    fn audit_object(&self, key: &K) -> Option<u32> {
        self.audit.as_ref().and_then(|a| a.keymap.lock().get(key).copied())
    }

    /// Hold the checkpoint latch shared for one lifecycle transition
    /// (no-op `None` when no log is attached).
    fn wal_latch(&self) -> Option<RwLockReadGuard<'_, ()>> {
        self.wal.get().is_some().then(|| self.ckpt.read())
    }

    /// Append one record to the attached log, if any. Failures don't
    /// interrupt the in-memory operation; they poison the log (see
    /// [`WalState::broken`]) so the next top-level commit reports
    /// [`TxnError::Wal`] instead of falsely acking durability.
    fn wal_append(&self, record: &Record) {
        if let Some(w) = self.wal.get() {
            // Checked and marked under the log mutex: no record can land
            // behind one the disk refused.
            let mut log = w.log.lock();
            if w.broken.get().is_some() {
                return;
            }
            match log.append(record) {
                Ok(()) => self.stats.bump(|b| &b.wal_appends),
                Err(e) => w.mark_broken(&e),
            }
        }
    }

    /// Log one `Write` record: a granted transactional write by `action`,
    /// or a non-transactional base-value seed (the paper's `init(x)`)
    /// under [`INIT_ACTION`]. Called under the owning shard's guard, so
    /// per-key log order equals lock-grant order — the property that
    /// makes replay conflict-free.
    fn wal_log_write(&self, action: u64, key: &K, value: &V) {
        if let Some(w) = self.wal.get() {
            // Sized for the common fixed-width integer encodings, so the
            // two buffers are one allocation each, no regrow.
            let mut kb = Vec::with_capacity(16);
            (w.enc_key)(key, &mut kb);
            let mut vb = Vec::with_capacity(16);
            (w.enc_val)(value, &mut vb);
            self.wal_append(&Record::Write { action, key: kb, version: vb });
        }
    }

    /// Make top-level commits durable: append their commit record (a
    /// `Commit`, or one `BatchCommit` for a whole batch) and, under
    /// [`Durability::WalFsync`], force the log before the caller acks.
    /// Returns the durability verdict every commit in `record` must
    /// report. The only place the engine fsyncs outside a checkpoint.
    ///
    /// **The force holds no engine lock.** The log mutex is taken for the
    /// append and released before `fsync` starts, so other transactions
    /// keep appending `Begin`/`Write`/`Abort` records — and reach the
    /// commit queue — while the disk works. Why that is safe:
    ///
    /// * the fsync begins after the commit record's append returned, so
    ///   it covers that record and every byte logged before it;
    /// * bytes it covers beyond that belong to actions with no commit
    ///   record on disk — at a crash, replay aborts them deepest-first,
    ///   exactly as if they had not been forced;
    /// * there is one forcer at a time: both publication sequences call
    ///   this holding the MVCC publish mutex (so commit-record log order
    ///   is still epoch order);
    /// * the forcing thread holds the checkpoint latch shared, so no
    ///   checkpoint `replace` can swap the file under the force.
    fn wal_force(&self, record: &Record) -> Result<(), TxnError> {
        let Some(w) = self.wal.get() else { return Ok(()) };
        self.wal_append(record);
        if w.fsync_commits && w.broken.get().is_none() {
            match w.force.fsync() {
                Ok(()) => self.stats.bump(|b| &b.wal_fsyncs),
                Err(e) => w.mark_broken(&e),
            }
        }
        match w.broken.get() {
            Some(detail) => Err(TxnError::Wal { detail: detail.clone() }),
            None => Ok(()),
        }
    }

    /// Queue one finished top-level commit for the group-commit sequencer
    /// and park until a batch containing it has been retired — by this
    /// thread, if it ends up the leader.
    fn stage(&self, txn: TxnId, payload: CommitPayload<K, V>) -> Result<(), TxnError> {
        self.stats.bump(|b| &b.commits_staged);
        self.pipeline.stage(
            txn,
            payload,
            self.config.max_batch,
            self.config.max_batch_wait,
            |batch| self.process_commit_batch(batch),
        )
    }

    /// Retire one group-commit batch under the mode the database runs
    /// in, returning each participant's verdict in staging order. The
    /// sequencer's counters move here and in [`DbInner::stage`] only, so
    /// `commits_staged == commits_batched` (plus, in optimistic mode,
    /// the losers) holds whatever the inline path does.
    fn process_commit_batch(&self, batch: Vec<Participant<K, V>>) -> Vec<Result<(), TxnError>> {
        let (retired, verdicts) = match self.config.cc_mode {
            CcMode::Locking => {
                let durable = self.publish_locking(&batch);
                (batch.len() as u64, vec![durable; batch.len()])
            }
            CcMode::Optimistic => self.process_optimistic_batch(batch),
        };
        self.stats.bump(|b| &b.commit_batches);
        self.stats.add(|b| &b.commits_batched, retired);
        verdicts
    }

    /// The locking publication sequence, for participants whose registry
    /// transition and audit `Commit` are done and whose locks are still
    /// held: take the MVCC publish mutex once and a contiguous epoch run
    /// with it (slice order), append one commit record and force it with
    /// a single fsync, then release every participant's locks — each key
    /// it wrote gaining a chain version at its epoch — and let the
    /// watermark pass the whole run as the ticket drops. Returns the
    /// durability verdict every participant reports.
    ///
    /// The order is the invariant. The commit record lands before any
    /// lock moves: once `finish_locks` runs, other threads can acquire
    /// those locks and log accesses whose prefix-visibility depends on
    /// this commit. Holding the publish mutex across the append makes
    /// commit-record log order equal epoch order; holding it across
    /// `finish_locks` means no snapshot can pin one of these epochs until
    /// every chain append landed. A WAL failure surfaces only after the
    /// locks are cleanly released: in-memory state stays consistent,
    /// durability doesn't.
    ///
    /// Participants' write sets are necessarily disjoint (each still holds
    /// its write locks, and none is an ancestor of another), so chain
    /// appends across the slice never race on a key and per-key epoch
    /// order stays ascending.
    fn publish_locking(&self, participants: &[Participant<K, V>]) -> Result<(), TxnError> {
        let publish = self.mvcc.begin_publish_batch(participants.len());
        let durable = self.wal_force(&commit_record(participants, &publish));
        for (i, p) in participants.iter().enumerate() {
            let CommitPayload::Locking(keys) = &p.payload else {
                unreachable!("optimistic payload in a locking database")
            };
            self.finish_locks(p.txn, keys, true, Some(publish.epoch_of(i)));
        }
        drop(publish);
        durable
    }

    /// Retire one optimistic batch: validate every participant in staging
    /// order under a single publish-gate acquisition, then run the loser
    /// sequence over those that failed and the publication sequence over
    /// the survivors (a contiguous epoch run). Returns the survivor count
    /// and each participant's verdict.
    ///
    /// First committer wins *within* the batch too: a participant's
    /// footprint — keys and scanned intervals — is checked against both
    /// the committed chain heads and the write sets of earlier in-batch
    /// survivors (an ordered overlay, so an interval can be probed) —
    /// exactly what it would have observed had the batch committed one by
    /// one. The leader flips the registry state of every participant
    /// (commit or abort) while its staging thread is parked, so by the
    /// time a verdict is returned the transaction is finished either way.
    fn process_optimistic_batch(
        &self,
        mut batch: Vec<Participant<K, V>>,
    ) -> (u64, Vec<Result<(), TxnError>>) {
        let gate = self.mvcc.begin_publish_gate();
        let base = gate.next_epoch();
        // A survivor's epoch is `base` plus the number of earlier
        // survivors; its write set joins the in-batch overlay later
        // participants must also validate against.
        let mut batch_writes: BTreeMap<K, u64> = BTreeMap::new();
        let mut verdicts = Vec::with_capacity(batch.len());
        let mut survivors: u64 = 0;
        for staged in batch.iter_mut() {
            let footprint = staged.payload.optimistic();
            // Every in-batch epoch is above the watermark, hence above any
            // participant's begin epoch: a hit is a conflict.
            let in_batch_keys = footprint
                .writes
                .keys()
                .chain(footprint.reads.iter())
                .filter_map(|k| batch_writes.get(k).copied());
            let in_batch_spans = footprint.ranges.iter().filter_map(|(lo, hi)| {
                batch_writes.range((lo.as_ref(), hi.as_ref())).map(|(_, &e)| e).max()
            });
            let newest = self
                .opt_conflict(footprint, footprint.begin_epoch)
                .max(in_batch_keys.chain(in_batch_spans).max());
            let verdict = self.opt_verdict(staged.txn, footprint.begin_epoch, newest);
            if verdict.is_ok() {
                let epoch = base + survivors;
                survivors += 1;
                for key in footprint.writes.keys() {
                    match batch_writes.get_mut(key) {
                        Some(slot) => *slot = epoch,
                        None => {
                            batch_writes.insert(key.clone(), epoch);
                        }
                    }
                }
            }
            verdicts.push(verdict);
        }
        self.abort_optimistic(&batch, &verdicts);
        let mut fates = verdicts.iter();
        batch.retain(|_| fates.next().is_some_and(Result::is_ok));
        if !batch.is_empty() {
            if let Err(e) = self.publish_optimistic(gate, &mut batch) {
                for verdict in verdicts.iter_mut().filter(|v| v.is_ok()) {
                    *verdict = Err(e.clone());
                }
            }
        }
        (survivors, verdicts)
    }

    /// Retire one optimistic commit without the sequencer: the same
    /// loser and publication sequences a batch leader runs, over a batch
    /// of one. What differs is the validation, which is two-phase
    /// (Kung-Robinson). Phase 1 runs *before* the gate against a pre-read
    /// watermark: every commit fully published by then is visible to the
    /// scan, so the gate only has to re-check the footprint when the
    /// watermark moved in between — under low contention the expensive
    /// O(footprint) walk happens outside the publish critical section and
    /// the gate hold shrinks to the publish itself. A commit racing phase
    /// 1 either finished first (watermark advanced past `pre_watermark` —
    /// phase 2 catches it via the `> pre_watermark` floor) or is
    /// mid-publish holding the gate (its appends may be visible early,
    /// but it can no longer fail — aborting on it is ordinary
    /// first-committer loss). Losers found in phase 1 never touch the
    /// gate at all.
    fn commit_optimistic_inline(&self, mut commit: Participant<K, V>) -> Result<(), TxnError> {
        let footprint = commit.payload.optimistic();
        let begin_epoch = footprint.begin_epoch;
        let pre_watermark = self.mvcc.watermark();
        let mut newest = self.opt_conflict(footprint, begin_epoch);
        let mut gate = None;
        if newest.is_none() {
            let held = self.mvcc.begin_publish_gate();
            if self.mvcc.watermark() != pre_watermark {
                // Someone published since phase 1; re-validate the span it
                // could not see. `pre_watermark ≥ begin_epoch` (the begin
                // pin is at or below any later watermark read), so the
                // tighter floor loses no conflicts.
                newest = self.opt_conflict(footprint, pre_watermark);
            }
            // A phase-2 conflict drops the gate right here — no epoch is
            // burned on a loser.
            gate = newest.is_none().then_some(held);
        }
        let verdict = self.opt_verdict(commit.txn, begin_epoch, newest);
        match gate {
            Some(gate) if verdict.is_ok() => {
                self.publish_optimistic(gate, std::slice::from_mut(&mut commit))
            }
            gate => {
                drop(gate);
                self.abort_optimistic(
                    std::slice::from_ref(&commit),
                    std::slice::from_ref(&verdict),
                );
                verdict
            }
        }
    }

    /// Settle a validated participant's fate. A committed epoch newer
    /// than its snapshot anywhere in the footprint means the first
    /// committer won already. A clean footprint makes the commit final:
    /// the registry state flips while still under the gate, so no later
    /// observation can see a validated participant still active.
    fn opt_verdict(
        &self,
        txn: TxnId,
        begin_epoch: u64,
        newest: Option<u64>,
    ) -> Result<(), TxnError> {
        match newest {
            Some(committed_epoch) => Err(TxnError::Conflict { begin_epoch, committed_epoch }),
            None => self.registry.commit(txn).map_err(map_reg_err),
        }
    }

    /// The optimistic loser sequence, for every participant whose verdict
    /// is an error: audit `Abort`, WAL `Abort`, registry transition,
    /// counters. Whoever validated runs it — a staged loser's own thread
    /// is parked, so someone must finish it.
    fn abort_optimistic(
        &self,
        participants: &[Participant<K, V>],
        verdicts: &[Result<(), TxnError>],
    ) {
        for (p, verdict) in participants.iter().zip(verdicts) {
            let Err(failure) = verdict else { continue };
            self.abort_action(p.txn);
            if matches!(failure, TxnError::Conflict { .. }) {
                self.stats.bump(|b| &b.occ_conflicts);
            }
            self.stats.bump(|b| &b.aborted);
        }
    }

    /// The optimistic publication sequence, for survivors (in epoch
    /// order) that passed validation under `gate` and are committed in
    /// the registry: flush each one's buffered Access records and its
    /// `Commit` to the audit log — under the gate, so audit data order =
    /// commit (= epoch) order, the Theorem-9 reconstruction invariant —
    /// log every buffered write, append one commit record and force it
    /// with a single fsync, then publish each write set at its epoch. The
    /// gate becomes the publication ticket: the watermark passes the
    /// whole run when it drops, WAL-logged before it moves. Returns the
    /// durability verdict every survivor reports.
    fn publish_optimistic(
        &self,
        gate: PublishGate<'_>,
        survivors: &mut [Participant<K, V>],
    ) -> Result<(), TxnError> {
        for p in survivors.iter_mut() {
            let id = p.txn;
            let footprint = p.payload.optimistic();
            if let Some(audit) = &self.audit {
                for record in footprint.audit.drain(..) {
                    audit.log.push(record);
                }
            }
            self.audit_record(|reg| AuditRecord::Commit { path: reg.path(id).expect("known") });
            for (key, value) in footprint.writes.iter() {
                self.wal_log_write(id.0, key, value);
            }
        }
        let publish = gate.into_batch(survivors.len());
        let durable = self.wal_force(&commit_record(survivors, &publish));
        for (i, p) in survivors.iter_mut().enumerate() {
            self.publish_optimistic_writes(&p.payload.optimistic().writes, publish.epoch_of(i));
        }
        drop(publish);
        durable
    }

    /// The head of every abort: audit `Abort`, WAL `Abort`, then the
    /// registry transition, in that order. The moment the registry marks
    /// a transaction dead, any conflicting thread may lazily reap its
    /// locks, read the restored value, and log its access — which must
    /// sort *after* this abort in both logs. Returns whether the
    /// transition happened (false: the transaction had already finished).
    fn abort_action(&self, id: TxnId) -> bool {
        self.audit_record(|reg| AuditRecord::Abort { path: reg.path(id).expect("known") });
        self.wal_append(&Record::Abort { action: id.0 });
        self.registry.abort(id).is_ok()
    }

    /// Checkpoint after a top-level commit if the configured cadence says
    /// so. Must be called *after* the commit's latch guard is dropped (the
    /// latch is not reentrant).
    fn maybe_auto_checkpoint(&self, top_level: bool) {
        let Some(w) = self.wal.get() else { return };
        if !top_level || w.checkpoint_every == 0 {
            return;
        }
        let n = w.commits_since_ckpt.fetch_add(1, Ordering::Relaxed) + 1;
        if n % w.checkpoint_every == 0 {
            let _ = self.do_checkpoint(); // failure poisons the log
        }
    }

    /// Rewrite the log as `Checkpoint{bases}` followed by re-logged
    /// `Begin`/`Write` records for every still-live active transaction, so
    /// recovery cost is bounded by the snapshot plus post-checkpoint
    /// traffic instead of the whole history.
    ///
    /// Holding the latch exclusively plus every shard guard freezes the
    /// engine in a transition-free state: no half-appended commit can be
    /// rewritten away, and no begin can land twice (once re-logged, once
    /// self-appended). Dead (orphaned) subtrees are reaped, not re-logged —
    /// their versions are doomed and `perm` never sees them; their stray
    /// post-checkpoint `Commit`/`Abort` records are tolerated by replay.
    fn do_checkpoint(&self) -> Result<(), WalError> {
        let Some(w) = self.wal.get() else { return Ok(()) };
        if let Some(detail) = w.broken.get() {
            return Err(WalError::Io { op: "checkpoint", detail: detail.clone() });
        }
        let _latch = self.ckpt.write();
        let mut guards: Vec<MutexGuard<'_, ShardState<K, V>>> =
            self.shards.iter().map(|s| s.lock()).collect();
        {
            let view = self.registry.read_view();
            for guard in guards.iter_mut() {
                for state in guard.objects.values_mut() {
                    state.reap(&view);
                }
            }
        }
        let mut snapshot = Vec::new();
        for guard in guards.iter() {
            for (key, state) in guard.objects.iter() {
                let mut kb = Vec::new();
                (w.enc_key)(key, &mut kb);
                let mut vb = Vec::new();
                (w.enc_val)(state.base_value(), &mut vb);
                // Each entry carries the epoch of the key's newest
                // committed version so recovery rebuilds chains identical
                // to the pre-crash store (not merely value-equal).
                snapshot.push((kb, self.mvcc.last_epoch(key).unwrap_or(GENESIS_EPOCH), vb));
            }
        }
        snapshot.sort();
        let mut records = vec![Record::Checkpoint { epoch: self.mvcc.watermark(), snapshot }];
        // Live active transactions, ascending id: every parent precedes
        // its children (child ids are allocated after the parent exists),
        // and the live-active set is ancestor-closed (an active child
        // keeps its ancestors active; an aborted ancestor makes it dead).
        let reg = self.registry.snapshot();
        let by_id: HashMap<TxnId, (Option<TxnId>, TxnStatus)> =
            reg.iter().map(|&(id, parent, status, _)| (id, (parent, status))).collect();
        let is_dead = |mut id: TxnId| loop {
            match by_id.get(&id) {
                None => return true,
                Some((_, TxnStatus::Aborted)) => return true,
                Some((None, _)) => return false,
                Some((Some(parent), _)) => id = *parent,
            }
        };
        for &(id, parent, status, _) in reg.iter() {
            if status == TxnStatus::Active && !is_dead(id) {
                records.push(Record::Begin { action: id.0, parent: parent.map(|p| p.0) });
            }
        }
        for guard in guards.iter() {
            for (key, state) in guard.objects.iter() {
                for (holder, value) in state.write_entries() {
                    let mut kb = Vec::new();
                    (w.enc_key)(key, &mut kb);
                    let mut vb = Vec::new();
                    (w.enc_val)(value, &mut vb);
                    records.push(Record::Write { action: holder.0, key: kb, version: vb });
                }
            }
        }
        w.log.lock().rewrite(&records).inspect_err(|e| w.mark_broken(e))
    }

    /// Run one lock-acquiring operation with conflict resolution.
    ///
    /// Lock order is always shard → registry-read (→ waiting); a registry
    /// view holds no lock between its queries, so registry writers
    /// (transaction begins) are never blocked by a sleeping waiter. The
    /// shard guard itself is held from the conflict check
    /// through the wait — the condvar releases it atomically — which is
    /// what makes the release path's bump-then-notify under the same
    /// lock free of lost-wakeup windows.
    fn with_locked_state<R>(
        &self,
        t: TxnId,
        top_level: bool,
        key: &K,
        mut op: impl FnMut(
            &mut LockState<V>,
            &RegistryView<'_>,
        ) -> Result<(R, Option<AuditRecord>), Conflict>,
    ) -> Result<R, TxnError> {
        let start = Instant::now();
        let shard_idx = self.shard_of(key);
        let mut guard = self.shards[shard_idx].lock();
        loop {
            let view = self.registry.read_view();
            // The liveness preamble runs only for nested transactions,
            // by [`DbInner::opt_preamble`]'s argument: orphanhood means
            // an ancestor died, which a top-level transaction has none
            // of, and `commit`/`abort` consume the handle, so a
            // top-level id observed here is always Active. The verdict
            // is identical either way (the check is vacuous at top
            // level); skipping it keeps two registry lookups off every
            // locked access of the dominant transaction shape.
            if !top_level {
                match view.status(t) {
                    Some(TxnStatus::Active) => {}
                    _ => return Err(TxnError::NotActive),
                }
                if view.is_dead(t) {
                    return Err(TxnError::Orphaned);
                }
            }
            #[cfg(feature = "chaos-hooks")]
            match self.injector_decision(t, shard_idx) {
                chaos::AccessFault::Proceed => {}
                chaos::AccessFault::Die => {
                    self.stats.bump(|b| &b.dies);
                    return Err(TxnError::Die { blocker: t });
                }
                chaos::AccessFault::Timeout => {
                    self.stats.bump(|b| &b.timeouts);
                    return Err(TxnError::Timeout(self.config.lock_timeout));
                }
            }
            let Some(state) = guard.objects.get_mut(key) else {
                return Err(TxnError::UnknownKey);
            };
            let conflict = match op(state, &view) {
                Ok((out, record)) => {
                    if let (Some(audit), Some(record)) = (&self.audit, record) {
                        // Appended under the shard lock so the log order is
                        // the true per-object acquisition order.
                        audit.log.push(record);
                    }
                    return Ok(out);
                }
                Err(c) => c,
            };
            self.stats.bump(|b| &b.conflicts);
            match self.config.policy {
                DeadlockPolicy::NoWait => {
                    self.stats.bump(|b| &b.dies);
                    return Err(TxnError::Die { blocker: conflict.blockers[0] });
                }
                DeadlockPolicy::Timeout => {
                    let elapsed = start.elapsed();
                    if elapsed >= self.config.lock_timeout {
                        self.stats.bump(|b| &b.timeouts);
                        return Err(TxnError::Timeout(self.config.lock_timeout));
                    }
                    let bound = (self.config.lock_timeout - elapsed).min(self.config.wait_slice);
                    self.wait_for_key_change(&mut guard, shard_idx, key, t, bound)?;
                }
                DeadlockPolicy::WaitDie => {
                    // Wait-die on (root, id): older requesters wait, younger
                    // die. The id tie-break covers sibling subtransactions
                    // of one top-level transaction (equal roots), which
                    // could otherwise deadlock against each other.
                    let my_root = view.root(t).ok_or(TxnError::NotActive)?;
                    let older_blocker = conflict
                        .blockers
                        .iter()
                        .find(|&&b| view.root(b).is_some_and(|r| (r, b) < (my_root, t)));
                    if let Some(&b) = older_blocker {
                        self.stats.bump(|b| &b.dies);
                        return Err(TxnError::Die { blocker: b });
                    }
                    let bound = self.config.wait_slice;
                    self.wait_for_key_change(&mut guard, shard_idx, key, t, bound)?;
                }
                DeadlockPolicy::Detect => {
                    // Waiting on a holder means waiting on its whole active
                    // subtree: a parent's lock releases only after its
                    // children's threads finish. The graph stores the direct
                    // blockers and expands them against the *current*
                    // registry at every cycle check — a blocker's subtree
                    // keeps growing while waiters are parked, and cycles
                    // closed by later-begun children must still be found.
                    if let Some(cycle) =
                        self.wfg.block(t, &conflict.blockers, |b| view.active_subtree(b))
                    {
                        self.stats.bump(|b| &b.deadlocks);
                        return Err(TxnError::Deadlock { cycle });
                    }
                    let bound = self.config.wait_slice;
                    let woke = self.wait_for_key_change(&mut guard, shard_idx, key, t, bound);
                    self.wfg.unblock(t);
                    woke?;
                }
            }
        }
    }

    /// Park `t` until `key`'s lock state may have changed, for at most
    /// `bound`. The caller holds the shard guard; this registers the wait,
    /// re-checks liveness, sleeps on the key's gate, classifies the
    /// wakeup, and deregisters.
    ///
    /// Returns `Err(Orphaned)` if `t` died before sleeping. The liveness
    /// re-check happens *after* registration: an abort first marks the
    /// registry, then scans the wait registry — so either the abort
    /// precedes our check (we see it and bail) or our registration
    /// precedes the scan (the aborter locks this shard, which we hold
    /// until parked, and its notify reaches us). No interleaving leaves
    /// an orphan sleeping un-notified.
    fn wait_for_key_change(
        &self,
        guard: &mut MutexGuard<'_, ShardState<K, V>>,
        shard_idx: usize,
        key: &K,
        t: TxnId,
        bound: Duration,
    ) -> Result<(), TxnError> {
        // Clone the key only when this is the key's first-ever waiter:
        // the gate map is insert-only, so the common conflict re-waits
        // on an existing gate.
        let gate = match guard.gates.get(key) {
            Some(gate) => gate.clone(),
            None => guard.gates.entry(key.clone()).or_default().clone(),
        };
        let gen_before = gate.generation.load(Ordering::Relaxed);
        gate.waiters.fetch_add(1, Ordering::Relaxed);
        self.waiting.lock().push(WaitEntry { txn: t, shard: shard_idx, gate: gate.clone() });
        let died = self.registry.read_view().is_dead(t);
        if !died {
            self.stats.bump(|b| &b.waits);
            let slept = Instant::now();
            gate.cv.wait_for(guard, bound);
            self.stats.add(|b| &b.wait_nanos, slept.elapsed().as_nanos() as u64);
            if gate.generation.load(Ordering::Relaxed) != gen_before {
                self.stats.bump(|b| &b.wakeups_productive);
            } else {
                self.stats.bump(|b| &b.wakeups_spurious);
            }
        }
        {
            let mut waiting = self.waiting.lock();
            if let Some(pos) =
                waiting.iter().position(|e| e.txn == t && Arc::ptr_eq(&e.gate, &gate))
            {
                waiting.swap_remove(pos);
            }
        }
        if gate.waiters.fetch_sub(1, Ordering::Relaxed) == 1 {
            // Last waiter out: drop the gate so the map stays bounded by
            // the number of *currently contended* keys.
            if guard
                .gates
                .get(key)
                .is_some_and(|g| Arc::ptr_eq(g, &gate) && g.waiters.load(Ordering::Relaxed) == 0)
            {
                guard.gates.remove(key);
            }
        }
        if died {
            Err(TxnError::Orphaned)
        } else {
            Ok(())
        }
    }

    /// Wake the waiters of `key` after its lock state changed. Must be
    /// called under the shard lock (so the generation bump is ordered
    /// against every waiter's pre-sleep generation read).
    fn notify_released(&self, state: &ShardState<K, V>, key: &K) {
        if let Some(gate) = state.gates.get(key) {
            gate.generation.fetch_add(1, Ordering::Relaxed);
            self.stats.bump(|b| &b.notifies);
            gate.cv.notify_all();
        }
    }

    /// Consult the installed injector before a lock acquisition.
    #[cfg(feature = "chaos-hooks")]
    fn injector_decision(&self, t: TxnId, shard: usize) -> chaos::AccessFault {
        match &*self.injector.read() {
            Some(injector) => injector.before_access(t, shard),
            None => chaos::AccessFault::Proceed,
        }
    }

    /// Consult the installed injector before a child begin.
    #[cfg(feature = "chaos-hooks")]
    fn injector_fails_child(&self, parent: TxnId) -> bool {
        match &*self.injector.read() {
            Some(injector) => injector.fail_begin_child(parent),
            None => false,
        }
    }

    /// Release/publish `t`'s locks on `keys`. For a committing top-level
    /// transaction, `publish_epoch` carries the commit epoch (the caller
    /// holds the MVCC publish lock): each key `t` wrote gains a version in
    /// its committed chain, appended under the same shard guard that
    /// publishes the base value — so per-key chain order equals lock-grant
    /// order. Nested commits and all aborts pass `None`.
    fn finish_locks(
        &self,
        t: TxnId,
        keys: &std::collections::HashSet<K>,
        commit: bool,
        publish_epoch: Option<u64>,
    ) {
        let parent = self.registry.parent(t);
        for key in keys {
            let mut guard = self.shards[self.shard_of(key)].lock();
            if let Some(state) = guard.objects.get_mut(key) {
                if commit {
                    // Shard → registry-read, the global lock order.
                    let view = self.registry.read_view();
                    // Only keys `t` actually wrote (own writes plus
                    // versions inherited from committed children) change
                    // the committed state; read-locked keys publish no
                    // version.
                    let wrote = publish_epoch.is_some() && state.write_holders().any(|h| h == t);
                    state.commit_to_parent(t, parent, &view);
                    if wrote {
                        let epoch = publish_epoch.expect("checked above");
                        self.mvcc.append(key, epoch, state.base_value().clone());
                    }
                } else {
                    state.abort_discard(t);
                }
            }
            self.notify_released(&guard, key);
        }
    }

    /// Wake parked waiters that became orphans: their awaited key's state
    /// is never going to change on their account, so an abort must nudge
    /// them to re-check liveness. Snapshot under the wait-registry lock,
    /// then notify under each shard lock (never both at once — waiters
    /// acquire shard → waiting).
    fn wake_orphaned_waiters(&self) {
        let doomed: Vec<(usize, Arc<KeyGate>)> = {
            let waiting = self.waiting.lock();
            if waiting.is_empty() {
                return;
            }
            let view = self.registry.read_view();
            waiting
                .iter()
                .filter(|e| view.is_dead(e.txn))
                .map(|e| (e.shard, e.gate.clone()))
                .collect()
        };
        for (shard_idx, gate) in doomed {
            let _guard = self.shards[shard_idx].lock();
            gate.generation.fetch_add(1, Ordering::Relaxed);
            gate.cv.notify_all();
        }
    }

    /// Liveness + fault-injection preamble for one optimistic operation —
    /// the lock-free mirror of [`DbInner::with_locked_state`]'s loop head,
    /// so chaos faults and orphan detection hit both modes identically.
    ///
    /// The registry liveness check runs only for *nested* transactions
    /// (`is_top == false`): orphanhood means an ancestor died, which a
    /// top-level transaction has none of, and `commit`/`abort` consume the
    /// handle so a top-level id observed here is always live. Skipping the
    /// check keeps the global registry lock off the optimistic read path —
    /// snapshot reads resolve against immutable versions and genuinely
    /// need no shared ancestry state, unlike a lock grant. The verdict for
    /// a top-level transaction is identical either way (the check is
    /// vacuous), so locking/optimistic control flow still agrees.
    fn opt_preamble(&self, t: TxnId, shard_idx: usize, is_top: bool) -> Result<(), TxnError> {
        if !is_top {
            let view = self.registry.read_view();
            match view.status(t) {
                Some(TxnStatus::Active) => {}
                _ => return Err(TxnError::NotActive),
            }
            if view.is_dead(t) {
                return Err(TxnError::Orphaned);
            }
        }
        #[cfg(not(feature = "chaos-hooks"))]
        let _ = shard_idx;
        #[cfg(feature = "chaos-hooks")]
        match self.injector_decision(t, shard_idx) {
            chaos::AccessFault::Proceed => {}
            chaos::AccessFault::Die => {
                self.stats.bump(|b| &b.dies);
                return Err(TxnError::Die { blocker: t });
            }
            chaos::AccessFault::Timeout => {
                self.stats.bump(|b| &b.timeouts);
                return Err(TxnError::Timeout(self.config.lock_timeout));
            }
        }
        Ok(())
    }

    /// Classify an absent key under an optimistic read: a racing ancestor
    /// abort may have unpinned our snapshot and let GC compact the chain
    /// mid-read, so a dead transaction reports orphanhood, not absence.
    fn opt_absent_error(&self, t: TxnId) -> TxnError {
        if self.registry.read_view().is_dead(t) {
            TxnError::Orphaned
        } else {
            TxnError::UnknownKey
        }
    }

    /// Buffer one optimistic Access record into the transaction's private
    /// audit buffer. The path is allocated *now* (so leaf indices reflect
    /// op order within the transaction); the record reaches the shared log
    /// only at top-level commit, under the publish gate.
    fn opt_buffer_access(
        &self,
        opt: &OptCtx<K, V>,
        t: TxnId,
        key: &K,
        update: UpdateFn,
        seen: rnt_model::Value,
    ) {
        if self.audit.is_none() {
            return;
        }
        let Some(object) = self.audit_object(key) else { return };
        let view = self.registry.read_view();
        opt.audit_buf.lock().push(AuditRecord::Access {
            path: access_path(&view, t),
            object,
            update,
            seen,
        });
    }

    /// First-committer-wins validation: the newest committed epoch above
    /// `floor` anywhere in the footprint — written keys, read keys and
    /// scanned intervals, each interval judged as a whole — or `None` if
    /// the footprint is clean. Under the publish gate chain heads cannot
    /// move during the check.
    fn opt_conflict(&self, footprint: &OptFootprint<K, V>, floor: u64) -> Option<u64> {
        let OptFootprint { writes, reads, ranges, .. } = footprint;
        let keys = writes.keys().chain(reads.iter()).filter_map(|k| self.mvcc.last_epoch(k));
        let spans =
            ranges.iter().filter_map(|(lo, hi)| self.mvcc.max_epoch_in((lo.as_ref(), hi.as_ref())));
        keys.chain(spans).filter(|&e| e > floor).max()
    }

    /// Publish a validated optimistic write set at `epoch`: per key,
    /// replace the lock-table base and append the chain version under the
    /// owning shard guard (the caller holds the publish lock — the same
    /// publish → shard → store order as the locking commit path).
    fn publish_optimistic_writes(&self, writes: &BTreeMap<K, V>, epoch: u64) {
        for (key, value) in writes {
            let mut guard = self.shards[self.shard_of(key)].lock();
            if let Some(state) = guard.objects.get_mut(key) {
                state.publish_base(value.clone());
            }
            self.mvcc.append(key, epoch, value.clone());
            self.notify_released(&guard, key);
        }
    }
}

/// A handle on one (sub)transaction. Dropping an unfinished handle aborts
/// it — the resilient default.
pub struct Txn<K, V>
where
    K: Eq + Hash + Ord + Clone + Send + Sync + 'static,
    V: Clone + Hash + Send + Sync + 'static,
{
    inner: Arc<DbInner<K, V>>,
    id: TxnId,
    done: bool,
    /// Keys this transaction holds locks on (own acquisitions plus those
    /// inherited from committed children). Unused in optimistic mode.
    touched: Arc<Mutex<std::collections::HashSet<K>>>,
    /// The parent's touched set, receiving our keys on commit.
    parent_touched: Option<Arc<Mutex<std::collections::HashSet<K>>>>,
    /// Optimistic-mode context ([`CcMode::Optimistic`] only).
    opt: Option<Arc<OptCtx<K, V>>>,
}

impl<K, V> Txn<K, V>
where
    K: Eq + Hash + Ord + Clone + Send + Sync + 'static,
    V: Clone + Hash + Send + Sync + 'static,
{
    /// This transaction's id.
    pub fn id(&self) -> TxnId {
        self.id
    }

    /// True iff no ancestor has aborted.
    pub fn is_live(&self) -> bool {
        self.inner.registry.is_live(self.id)
    }

    /// Begin a subtransaction.
    pub fn child(&self) -> Result<Txn<K, V>, TxnError> {
        #[cfg(feature = "chaos-hooks")]
        if self.inner.injector_fails_child(self.id) {
            self.inner.stats.bump(|b| &b.dies);
            return Err(TxnError::Die { blocker: self.id });
        }
        let _latch = self.inner.wal_latch();
        let id = self.inner.registry.begin_child(self.id).map_err(map_reg_err)?;
        self.inner.stats.bump(|b| &b.begun);
        self.inner
            .audit_record(|reg| AuditRecord::Begin { path: reg.path(id).expect("fresh child") });
        self.inner.wal_append(&Record::Begin { action: id.0, parent: Some(self.id.0) });
        let opt = self
            .opt
            .as_ref()
            .map(|parent| Arc::new(OptCtx::new(parent.begin_epoch, Some(parent.clone()))));
        Ok(Txn {
            inner: self.inner.clone(),
            id,
            done: false,
            touched: Arc::new(Mutex::new(std::collections::HashSet::new())),
            parent_touched: Some(self.touched.clone()),
            opt,
        })
    }

    /// Read a key. Locking mode acquires a read lock in Moss's
    /// discipline; optimistic mode reads lock-free — the nearest buffered
    /// write in this transaction tree, else the committed value at the
    /// pinned begin snapshot.
    pub fn read(&self, key: &K) -> Result<V, TxnError> {
        if let Some(opt) = &self.opt {
            let out = self.opt_read(key, opt)?;
            self.inner.stats.bump(|b| &b.reads);
            return Ok(out);
        }
        let inner = &self.inner;
        let top_level = self.parent_touched.is_none();
        let out = inner.with_locked_state(self.id, top_level, key, |state, reg| {
            state.try_read(self.id, reg).map(|v| {
                let value = v.clone();
                let record = inner.audit_object(key).map(|object| AuditRecord::Access {
                    path: access_path(reg, self.id),
                    object,
                    update: UpdateFn::Read,
                    seen: hash_value(&value),
                });
                (value, record)
            })
        })?;
        self.touch(key);
        inner.stats.bump(|b| &b.reads);
        Ok(out)
    }

    /// Record `key` in the touched set, cloning only on first touch.
    fn touch(&self, key: &K) {
        let mut touched = self.touched.lock();
        if !touched.contains(key) {
            touched.insert(key.clone());
        }
    }

    /// Overwrite a key (acquiring a write lock). Returns the value that was
    /// visible before the write.
    pub fn write(&self, key: &K, value: V) -> Result<V, TxnError> {
        self.rmw(key, move |_| value.clone())
    }

    /// Read-modify-write under a single write lock (locking mode) or
    /// into the private write buffer (optimistic mode). Returns the
    /// value seen.
    pub fn rmw(&self, key: &K, f: impl Fn(&V) -> V) -> Result<V, TxnError> {
        if let Some(opt) = &self.opt {
            let out = self.opt_rmw(key, f, opt)?;
            self.inner.stats.bump(|b| &b.writes);
            return Ok(out);
        }
        let inner = &self.inner;
        let top_level = self.parent_touched.is_none();
        let out = inner.with_locked_state(self.id, top_level, key, |state, reg| {
            let mut written: Option<V> = None;
            let seen = state.try_write(self.id, reg, |old| {
                let new = f(old);
                written = Some(new.clone());
                new
            })?;
            let record = inner.audit_object(key).map(|object| AuditRecord::Access {
                path: access_path(reg, self.id),
                object,
                update: UpdateFn::Write(hash_value(written.as_ref().expect("written set"))),
                seen: hash_value(&seen),
            });
            // Still under the shard guard: per-key log order = grant order.
            inner.wal_log_write(self.id.0, key, written.as_ref().expect("written set"));
            Ok((seen, record))
        })?;
        self.touch(key);
        inner.stats.bump(|b| &b.writes);
        Ok(out)
    }

    /// Optimistic read: buffered overlay first, else the pinned snapshot.
    fn opt_read(&self, key: &K, opt: &OptCtx<K, V>) -> Result<V, TxnError> {
        let inner = &self.inner;
        inner.opt_preamble(self.id, inner.shard_of(key), opt.parent.is_none())?;
        if let Some(v) = opt.buffered(key) {
            // Reading a value this tree wrote: no snapshot dependency,
            // but still an audited access (mirroring a locked read of an
            // own-held write version).
            inner.opt_buffer_access(opt, self.id, key, UpdateFn::Read, hash_value(&v));
            return Ok(v);
        }
        match inner.mvcc.read_at(key, opt.begin_epoch) {
            Some(v) => {
                opt.track_read(key);
                inner.opt_buffer_access(opt, self.id, key, UpdateFn::Read, hash_value(&v));
                Ok(v)
            }
            None => Err(inner.opt_absent_error(self.id)),
        }
    }

    /// Optimistic read-modify-write: `f` over the overlaid view, result
    /// into the private write buffer.
    fn opt_rmw(&self, key: &K, f: impl Fn(&V) -> V, opt: &OptCtx<K, V>) -> Result<V, TxnError> {
        let inner = &self.inner;
        inner.opt_preamble(self.id, inner.shard_of(key), opt.parent.is_none())?;
        let seen = match opt.buffered(key) {
            Some(v) => v,
            None => match inner.mvcc.read_at(key, opt.begin_epoch) {
                Some(v) => {
                    // The written value depends on the snapshot value:
                    // the key joins the read set for validation.
                    opt.track_read(key);
                    v
                }
                None => return Err(inner.opt_absent_error(self.id)),
            },
        };
        let new = f(&seen);
        inner.opt_buffer_access(
            opt,
            self.id,
            key,
            UpdateFn::Write(hash_value(&new)),
            hash_value(&seen),
        );
        opt.track_write(key, new);
        Ok(seen)
    }

    /// Optimistic scan: one store walk at the begin snapshot with this
    /// tree's buffered writes laid over it, and one read-set entry — the
    /// *bounds*, validated at commit as an interval — however many rows
    /// come back. With auditing on, each returned row is one audited
    /// read, as if read by key.
    fn opt_range<R: RangeBounds<K>>(
        &self,
        bounds: R,
        opt: &OptCtx<K, V>,
    ) -> Result<Vec<(K, V)>, TxnError> {
        let inner = &self.inner;
        let is_top = opt.parent.is_none();
        // A scan crosses every lock-table shard; the injector is told 0.
        inner.opt_preamble(self.id, 0, is_top)?;
        let mut rows =
            inner.mvcc.range_at((bounds.start_bound(), bounds.end_bound()), opt.begin_epoch);
        let bounds = (bounds.start_bound().cloned(), bounds.end_bound().cloned());
        opt.overlay(&bounds, &mut rows);
        // A racing ancestor abort may have unpinned the snapshot and let
        // GC compact chains mid-walk: a dead transaction reports
        // orphanhood, not a short scan (cf. `opt_absent_error`).
        if !is_top && inner.registry.read_view().is_dead(self.id) {
            return Err(TxnError::Orphaned);
        }
        opt.ranges.lock().push(bounds);
        if inner.audit.is_some() {
            for (key, value) in rows.iter() {
                inner.opt_buffer_access(opt, self.id, key, UpdateFn::Read, hash_value(value));
            }
        }
        inner.stats.add(|b| &b.reads, rows.len() as u64);
        Ok(rows)
    }

    /// Run `body` in a subtransaction with automatic local retry: commits
    /// on success; on a retryable error (deadlock, wait-die, timeout) the
    /// subtransaction is aborted and re-run, leaving committed siblings
    /// untouched — the recovery-block idiom as a one-liner.
    ///
    /// `body` errors that are not retryable abort the subtransaction and
    /// propagate. `max_retries` bounds re-runs (0 = try once).
    pub fn run_child<R>(
        &self,
        max_retries: u32,
        mut body: impl FnMut(&Txn<K, V>) -> Result<R, TxnError>,
    ) -> Result<R, TxnError> {
        let mut attempts = 0;
        loop {
            let child = self.child()?;
            match body(&child) {
                Ok(out) => match child.commit() {
                    Ok(()) => return Ok(out),
                    Err(e) if e.is_retryable() && attempts < max_retries => attempts += 1,
                    Err(e) => return Err(e),
                },
                Err(e) if e.is_retryable() && attempts < max_retries => {
                    child.abort();
                    attempts += 1;
                }
                Err(e) => {
                    child.abort();
                    return Err(e);
                }
            }
        }
    }

    /// Commit this transaction to its parent (top-level: permanently).
    ///
    /// Fails with [`TxnError::ChildrenActive`] if subtransactions are still
    /// running; in that case the transaction stays active. In
    /// [`CcMode::Optimistic`], a top-level commit additionally runs
    /// first-committer-wins validation and can fail with the retryable
    /// [`TxnError::Conflict`] — the transaction is then already aborted.
    pub fn commit(mut self) -> Result<(), TxnError> {
        if self.opt.is_some() {
            return self.commit_optimistic();
        }
        let inner = &self.inner;
        let latch = inner.wal_latch();
        inner.registry.commit(self.id).map_err(map_reg_err)?;
        // The audit Commit record must land before the locks move: once
        // finish_locks runs, other threads can acquire them and log
        // accesses whose prefix-visibility depends on this commit. The
        // WAL Commit record follows the same rule.
        let id = self.id;
        inner.audit_record(|reg| AuditRecord::Commit { path: reg.path(id).expect("known") });
        let keys = std::mem::take(&mut *self.touched.lock());
        let durable = match &self.parent_touched {
            Some(parent) => {
                // A nested commit is revocable until its ancestors commit:
                // logged, never forced, and it reports no durability
                // verdict. Its locks become the parent's responsibility.
                inner.wal_append(&Record::Commit { action: id.0, epoch: None });
                inner.finish_locks(id, &keys, true, None);
                parent.lock().extend(keys);
                Ok(())
            }
            // Top level: the locking publication sequence, run by a batch
            // leader when group commit is on (our locks stay held until it
            // runs `finish_locks` for us) and right here otherwise — the
            // same sequence over a batch of one.
            None if inner.config.group_commit => inner.stage(id, CommitPayload::Locking(keys)),
            None => inner.publish_locking(std::slice::from_ref(&StagedCommit {
                txn: id,
                payload: CommitPayload::Locking(keys),
            })),
        };
        inner.stats.bump(|b| &b.committed);
        let top_level = self.parent_touched.is_none();
        self.done = true;
        drop(latch);
        self.inner.maybe_auto_checkpoint(top_level);
        durable
    }

    /// The optimistic commit path ([`CcMode::Optimistic`]).
    ///
    /// Nested commits are savepoint releases: buffers merge into the
    /// parent, no validation. A top-level commit validates its merged
    /// footprint (write set ∪ read keys ∪ scanned intervals) under the
    /// publish gate — first committer wins: any footprint key, or any key
    /// inside a scanned interval, with a committed epoch newer than the
    /// begin snapshot aborts the transaction with
    /// [`TxnError::Conflict`]; a clean footprint publishes all buffered
    /// writes at one fresh epoch, WAL-logged before the watermark moves.
    fn commit_optimistic(&mut self) -> Result<(), TxnError> {
        let inner = self.inner.clone();
        let opt = self.opt.clone().expect("optimistic commit without context");
        let latch = inner.wal_latch();
        let id = self.id;
        if let Some(parent) = &opt.parent {
            // Nested: merge into the parent's buffers. Judged once, at
            // the top of the tree — resilient nesting over buffers.
            inner.registry.commit(id).map_err(map_reg_err)?;
            inner.audit_record(|reg| AuditRecord::Commit { path: reg.path(id).expect("known") });
            inner.wal_append(&Record::Commit { action: id.0, epoch: None });
            parent.writes.lock().append(&mut opt.writes.lock());
            parent.reads.lock().extend(opt.reads.lock().drain());
            parent.ranges.lock().append(&mut opt.ranges.lock());
            parent.audit_buf.lock().append(&mut opt.audit_buf.lock());
            inner.stats.bump(|b| &b.committed);
            self.done = true;
            return Ok(());
        }
        // Top-level: children must be finished before validation freezes
        // the footprint. Side-effect-free check — the transaction stays
        // active and its buffers intact, like the locking path's registry
        // refusal.
        let kids = inner.registry.active_children(id);
        if kids > 0 {
            return Err(TxnError::ChildrenActive(kids));
        }
        // Whoever validates — a batch leader under one gate acquisition
        // for the whole batch, or this thread — publishes or aborts us
        // and returns the verdict; either way we are finished after it.
        let payload = CommitPayload::Optimistic(opt.take_footprint());
        let verdict = if inner.config.group_commit {
            inner.stage(id, payload)
        } else {
            inner.commit_optimistic_inline(StagedCommit { txn: id, payload })
        };
        // A WAL failure means the commit happened in memory but
        // durability is broken; anything else failing means we lost.
        let committed = matches!(&verdict, Ok(()) | Err(TxnError::Wal { .. }));
        if committed {
            inner.stats.bump(|b| &b.committed);
        }
        inner.mvcc.unpin(opt.begin_epoch);
        self.done = true;
        drop(latch);
        inner.maybe_auto_checkpoint(committed);
        verdict
    }

    /// Abort this transaction: every version it wrote is discarded and the
    /// enclosing versions are restored. Descendants become orphans.
    pub fn abort(mut self) {
        self.do_abort();
    }

    fn do_abort(&mut self) {
        if self.done {
            return;
        }
        let _latch = self.inner.wal_latch();
        if self.inner.abort_action(self.id) {
            if let Some(opt) = &self.opt {
                // Optimistic: the buffers die with this context (nothing
                // ever reached shared state), and nobody is parked on a
                // lock gate. Only the top of the tree holds the pin.
                if opt.parent.is_none() {
                    self.inner.mvcc.unpin(opt.begin_epoch);
                }
            } else {
                let keys = std::mem::take(&mut *self.touched.lock());
                self.inner.finish_locks(self.id, &keys, false, None);
                // Descendants just became orphans; wake any that are parked
                // so they observe their death instead of sleeping out a
                // full wait slice.
                self.inner.wake_orphaned_waiters();
            }
            self.inner.stats.bump(|b| &b.aborted);
        }
        self.done = true;
    }
}

impl<K, V> std::fmt::Debug for Txn<K, V>
where
    K: Eq + Hash + Ord + Clone + Send + Sync + 'static,
    V: Clone + Hash + Send + Sync + 'static,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Txn")
            .field("id", &self.id)
            .field("top_level", &self.parent_touched.is_none())
            .field("done", &self.done)
            .finish_non_exhaustive()
    }
}

impl<K, V> ReadView<K, V> for Txn<K, V>
where
    K: Eq + Hash + Ord + Clone + Send + Sync + 'static,
    V: Clone + Hash + Send + Sync + 'static,
{
    /// Locking mode: the publish watermark observed at call time — this
    /// transaction's reads are at least that fresh (and see its own
    /// writes on top). Optimistic mode: the pinned begin snapshot, which
    /// is exactly what every read resolves against.
    fn epoch(&self) -> u64 {
        match &self.opt {
            Some(opt) => opt.begin_epoch,
            None => self.inner.mvcc.watermark(),
        }
    }

    /// [`Txn::read`] as a total lookup: an unknown key is `Ok(None)`, not
    /// an error. Acquires a read lock like any transactional read, so it
    /// can fail with the usual conflict errors.
    fn get(&self, key: &K) -> Result<Option<V>, TxnError> {
        match self.read(key) {
            Ok(v) => Ok(Some(v)),
            Err(TxnError::UnknownKey) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// A serializable range read of this transaction's view — its own
    /// (and its ancestors') uncommitted writes included.
    ///
    /// Locking mode walks the ordered keyspace and acquires a read lock
    /// on every key in `bounds`, in key order; the locks held afterwards
    /// keep the scanned values stable until the transaction finishes,
    /// making this the locked counterpart of the lock-free
    /// [`Snapshot::range`]. Any single lock acquisition failing (die,
    /// deadlock, timeout) fails the whole scan.
    ///
    /// Optimistic mode reads the begin snapshot in one walk and enters
    /// the *interval* into the read set: at commit, a newer committed
    /// write to any key inside `bounds` — returned by the scan or not —
    /// is a [`TxnError::Conflict`].
    ///
    /// A key seeded by a concurrent [`Db::insert`] mid-walk may or may
    /// not appear (seeding is non-transactional); keys born by replayed
    /// checkpoints are always in the keyspace and always appear.
    fn range<R: RangeBounds<K>>(&self, bounds: R) -> Result<Vec<(K, V)>, TxnError> {
        self.inner.stats.bump(|b| &b.range_scans);
        if let Some(opt) = &self.opt {
            return self.opt_range(bounds, opt);
        }
        let keys = self.inner.mvcc.keys_in(bounds);
        let mut out = Vec::with_capacity(keys.len());
        for key in keys {
            match self.read(&key) {
                Ok(v) => out.push((key, v)),
                // In the keyspace but not yet in the lock table: an
                // in-flight seed. Skip it, matching a by-key read racing
                // the same insert.
                Err(TxnError::UnknownKey) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(out)
    }
}

/// Allocate the action-tree path of a fresh access leaf under `t`.
fn access_path(reg: &RegistryView<'_>, t: TxnId) -> Vec<u32> {
    let mut path = reg.path(t).expect("txn registered");
    path.push(reg.alloc_child_index(t).expect("txn registered"));
    path
}

impl<K, V> Drop for Txn<K, V>
where
    K: Eq + Hash + Ord + Clone + Send + Sync + 'static,
    V: Clone + Hash + Send + Sync + 'static,
{
    fn drop(&mut self) {
        if !self.done {
            self.do_abort();
        }
    }
}

/// A lock-free read-only view of the committed state at one commit epoch,
/// opened by [`Db::snapshot`]. Reads are served from the MVCC version
/// chains and never touch the lock manager. Dropping the snapshot
/// releases its epoch pin, letting GC reclaim the versions it held.
pub struct Snapshot<K, V>
where
    K: Eq + Hash + Ord + Clone + Send + Sync + 'static,
    V: Clone + Hash + Send + Sync + 'static,
{
    inner: Arc<DbInner<K, V>>,
    epoch: u64,
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
    /// possible when [`DbConfig::max_versions_per_key`] force-pruned
    /// versions this pin was holding. Reads from an expired snapshot may
    /// see force-pruned keys as absent.
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

fn map_reg_err(e: RegistryError) -> TxnError {
    match e {
        RegistryError::Unknown(_) | RegistryError::NotActive(_) | RegistryError::Duplicate(_) => {
            TxnError::NotActive
        }
        RegistryError::ChildrenActive(_, n) => TxnError::ChildrenActive(n),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> Db<u64, i64> {
        let db = Db::new();
        for k in 0..8 {
            db.insert(k, 100 + k as i64);
        }
        db
    }

    #[test]
    fn action_summary_reflects_registry() {
        use rnt_model::{act, Status};
        let db = db();
        let t1 = db.begin();
        let c = t1.child().unwrap();
        c.commit().unwrap();
        t1.commit().unwrap();
        let t2 = db.begin();
        t2.abort();
        let t3 = db.begin();
        let statuses = db.status_summary();
        assert_eq!(statuses.len(), 4);
        // Name top-level txns by their id; skip subtransactions.
        let summary = db.action_summary(|id, path| (path.len() == 1).then(|| act![id.0 as u32]));
        assert_eq!(summary.len(), 3);
        assert_eq!(summary.status(&act![t3.id().0 as u32]), Some(Status::Active));
        let committed = summary.entries().filter(|(_, s)| *s == Status::Committed).count();
        let aborted = summary.entries().filter(|(_, s)| *s == Status::Aborted).count();
        assert_eq!((committed, aborted), (1, 1));
        t3.abort();
    }

    #[test]
    fn read_write_commit_roundtrip() {
        let db = db();
        let t = db.begin();
        assert_eq!(t.read(&0).unwrap(), 100);
        t.write(&0, 42).unwrap();
        assert_eq!(t.read(&0).unwrap(), 42);
        // Uncommitted: base unchanged.
        assert_eq!(db.committed_value(&0), Some(100));
        t.commit().unwrap();
        assert_eq!(db.committed_value(&0), Some(42));
    }

    #[test]
    fn abort_restores() {
        let db = db();
        let t = db.begin();
        t.write(&0, 42).unwrap();
        t.abort();
        assert_eq!(db.committed_value(&0), Some(100));
        let t2 = db.begin();
        assert_eq!(t2.read(&0).unwrap(), 100);
    }

    #[test]
    fn drop_aborts() {
        let db = db();
        {
            let t = db.begin();
            t.write(&0, 42).unwrap();
            // dropped without commit
        }
        assert_eq!(db.committed_value(&0), Some(100));
        assert_eq!(db.stats().aborted, 1);
    }

    #[test]
    fn child_commit_publishes_to_parent_only() {
        let db = db();
        let t = db.begin();
        let c = t.child().unwrap();
        c.write(&0, 7).unwrap();
        c.commit().unwrap();
        // Parent sees the child's write...
        assert_eq!(t.read(&0).unwrap(), 7);
        // ...but the world does not yet.
        assert_eq!(db.committed_value(&0), Some(100));
        t.commit().unwrap();
        assert_eq!(db.committed_value(&0), Some(7));
    }

    #[test]
    fn child_abort_is_contained() {
        let db = db();
        let t = db.begin();
        t.write(&0, 1).unwrap();
        let c = t.child().unwrap();
        c.write(&0, 2).unwrap();
        c.abort();
        // Parent's version restored — the whole point of resilient nesting.
        assert_eq!(t.read(&0).unwrap(), 1);
        t.commit().unwrap();
        assert_eq!(db.committed_value(&0), Some(1));
    }

    #[test]
    fn commit_with_active_children_fails() {
        let db = db();
        let t = db.begin();
        let c = t.child().unwrap();
        let err = t.commit().unwrap_err();
        assert_eq!(err, TxnError::ChildrenActive(1));
        drop(c);
    }

    #[test]
    fn orphan_operations_fail() {
        let db = db();
        let t = db.begin();
        let c = t.child().unwrap();
        let g = c.child().unwrap();
        c.abort();
        assert!(!g.is_live());
        assert_eq!(g.read(&0), Err(TxnError::Orphaned));
        assert_eq!(g.write(&0, 1), Err(TxnError::Orphaned));
    }

    #[test]
    fn unknown_key() {
        let db = db();
        let t = db.begin();
        assert_eq!(t.read(&99), Err(TxnError::UnknownKey));
        assert_eq!(t.write(&99, 0), Err(TxnError::UnknownKey));
    }

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

    #[test]
    fn sibling_isolation_nowait() {
        let db: Db<u64, i64> =
            Db::with_config(DbConfig::builder().policy(DeadlockPolicy::NoWait).build());
        db.insert(0, 0);
        let t = db.begin();
        let a = t.child().unwrap();
        let b = t.child().unwrap();
        a.write(&0, 1).unwrap();
        // Sibling b conflicts with a's live write lock.
        assert!(matches!(b.read(&0), Err(TxnError::Die { .. })));
        a.commit().unwrap();
        // Lock now held by t (ancestor of b): b may read.
        assert_eq!(b.read(&0).unwrap(), 1);
        b.commit().unwrap();
        t.commit().unwrap();
        assert_eq!(db.committed_value(&0), Some(1));
    }

    #[test]
    fn rmw_composes() {
        let db = db();
        let t = db.begin();
        let seen = t.rmw(&1, |v| v * 2).unwrap();
        assert_eq!(seen, 101);
        assert_eq!(t.read(&1).unwrap(), 202);
        t.commit().unwrap();
        assert_eq!(db.committed_value(&1), Some(202));
    }

    #[test]
    fn concurrent_disjoint_commits() {
        let db = db();
        let mut handles = Vec::new();
        for k in 0..8u64 {
            let db = db.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..50 {
                    let t = db.begin();
                    t.rmw(&k, |v| v + 1).unwrap();
                    t.commit().unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for k in 0..8u64 {
            assert_eq!(db.committed_value(&k), Some(100 + k as i64 + 50));
        }
    }

    #[test]
    fn concurrent_contended_counter() {
        let db: Db<u64, i64> =
            Db::with_config(DbConfig::builder().policy(DeadlockPolicy::Detect).build());
        db.insert(0, 0);
        let mut handles = Vec::new();
        for _ in 0..4 {
            let db = db.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    db.run(|t| t.rmw(&0, |v| v + 1)).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(db.committed_value(&0), Some(400));
    }

    #[test]
    fn deadlock_detected_and_resolved() {
        let db: Db<u64, i64> =
            Db::with_config(DbConfig::builder().policy(DeadlockPolicy::Detect).build());
        db.insert(0, 0);
        db.insert(1, 0);
        let barrier = Arc::new(std::sync::Barrier::new(2));
        // Not a plain retry loop: the barrier forces the lock acquisitions
        // to overlap so the wait-for cycle actually forms.
        let mk = |first: u64, second: u64, db: Db<u64, i64>, barrier: Arc<std::sync::Barrier>| {
            std::thread::spawn(move || loop {
                let t = db.begin();
                if t.write(&first, 1).is_err() {
                    t.abort();
                    continue;
                }
                barrier.wait();
                match t.write(&second, 1) {
                    Ok(_) => {
                        t.commit().unwrap();
                        return true; // this side won
                    }
                    Err(e) if e.is_retryable() => {
                        t.abort();
                        return false; // this side was the victim
                    }
                    Err(e) => panic!("unexpected {e}"),
                }
            })
        };
        let h1 = mk(0, 1, db.clone(), barrier.clone());
        let h2 = mk(1, 0, db.clone(), barrier.clone());
        let r1 = h1.join().unwrap();
        let r2 = h2.join().unwrap();
        // At least one side must have been the victim or both eventually
        // succeeded after a victim retried; either way, no hang, and the
        // detector fired unless timing avoided the overlap entirely.
        let _ = (r1, r2);
    }

    #[test]
    fn wait_die_never_hangs() {
        let db: Db<u64, i64> =
            Db::with_config(DbConfig::builder().policy(DeadlockPolicy::WaitDie).build());
        db.insert(0, 0);
        db.insert(1, 0);
        let mut handles = Vec::new();
        for i in 0..4u64 {
            let db = db.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..25 {
                    let (a, b) = if i % 2 == 0 { (0, 1) } else { (1, 0) };
                    db.run(|t| {
                        t.rmw(&a, |v| v + 1)?;
                        t.rmw(&b, |v| v + 1)?;
                        Ok(())
                    })
                    .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let total = db.committed_value(&0).unwrap() + db.committed_value(&1).unwrap();
        assert_eq!(total, 200);
    }

    #[test]
    fn audited_run_is_data_serializable() {
        let db: Db<u64, i64> = Db::with_config(DbConfig::builder().audit(true).build());
        for k in 0..4 {
            db.insert(k, 0);
        }
        let mut handles = Vec::new();
        for i in 0..4u64 {
            let db = db.clone();
            handles.push(std::thread::spawn(move || {
                for j in 0..20u64 {
                    let t = db.begin();
                    let k1 = (i + j) % 4;
                    let k2 = (i + j + 1) % 4;
                    let ok = (|| {
                        let c = t.child()?;
                        c.rmw(&k1, |v| v + 1)?;
                        c.commit()?;
                        let c2 = t.child()?;
                        let v = c2.read(&k2)?;
                        c2.write(&k2, v + 10)?;
                        c2.commit()?;
                        Ok::<_, TxnError>(())
                    })();
                    match ok {
                        Ok(()) => {
                            let _ = t.commit();
                        }
                        Err(_) => t.abort(),
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let log = db.audit_log().expect("auditing on");
        let (universe, aat) = log.reconstruct().expect("well-formed log");
        assert!(
            aat.perm().is_rw_data_serializable(&universe),
            "engine execution violated the serializability guarantee"
        );
    }

    #[test]
    fn run_child_commits_on_success() {
        let db = db();
        let t = db.begin();
        let seen = t.run_child(3, |c| c.rmw(&0, |v| v + 1)).unwrap();
        assert_eq!(seen, 100);
        assert_eq!(t.read(&0).unwrap(), 101);
        t.commit().unwrap();
    }

    #[test]
    fn run_child_propagates_fatal_errors() {
        let db = db();
        let t = db.begin();
        let err = t.run_child(3, |c| c.read(&999)).unwrap_err();
        assert_eq!(err, TxnError::UnknownKey);
        // The failed child aborted; the parent is untouched and usable.
        assert_eq!(t.read(&0).unwrap(), 100);
        t.commit().unwrap();
    }

    #[test]
    fn run_child_retries_contention() {
        // A NoWait db: the first attempt conflicts with a holder thread,
        // later ones succeed after the holder finishes.
        let db: Db<u64, i64> =
            Db::with_config(DbConfig::builder().policy(DeadlockPolicy::NoWait).build());
        db.insert(0, 0);
        let holder = db.begin();
        holder.write(&0, 5).unwrap();
        let t = db.begin();
        // While the holder is alive, every attempt dies: max_retries = 2
        // means exactly 3 attempts, then the error surfaces.
        let mut attempts = 0;
        let err = t
            .run_child(2, |c| {
                attempts += 1;
                c.read(&0)
            })
            .unwrap_err();
        assert!(matches!(err, TxnError::Die { .. }));
        assert_eq!(attempts, 3);
        // After the holder commits, a retried child succeeds.
        holder.commit().unwrap();
        let v = t.run_child(10, |c| c.read(&0)).unwrap();
        assert_eq!(v, 5);
        t.commit().unwrap();
    }

    #[test]
    fn db_run_retries_to_success() {
        let db: Db<u64, i64> =
            Db::with_config(DbConfig::builder().policy(DeadlockPolicy::NoWait).build());
        db.insert(0, 0);
        let holder = db.begin();
        holder.write(&0, 5).unwrap();
        // Bounded attempts while the lock is held: the Die surfaces.
        let mut attempts = 0;
        let err = db
            .run_with_retries(2, |t| {
                attempts += 1;
                t.read(&0)
            })
            .unwrap_err();
        assert!(matches!(err, TxnError::Die { .. }));
        assert_eq!(attempts, 3);
        holder.commit().unwrap();
        // Unbounded run succeeds once the holder is gone.
        assert_eq!(db.run(|t| t.read(&0)).unwrap(), 5);
    }

    #[test]
    fn db_run_propagates_fatal_errors() {
        let db = db();
        let mut attempts = 0;
        let err = db
            .run(|t| {
                attempts += 1;
                t.read(&999)
            })
            .unwrap_err();
        assert_eq!(err, TxnError::UnknownKey);
        assert_eq!(attempts, 1, "fatal errors are not retried");
        assert_eq!(db.stats().aborted, 1, "failed attempt aborted");
    }

    #[test]
    fn orphan_view_anomalies_zero_on_clean_run() {
        let db: Db<u64, i64> = Db::with_config(DbConfig::builder().audit(true).build());
        db.insert(0, 1);
        let t = db.begin();
        t.run_child(0, |c| c.rmw(&0, |v| v * 10)).unwrap();
        t.commit().unwrap();
        let t2 = db.begin();
        t2.read(&0).unwrap();
        t2.abort();
        let (performs, orphans, anomalies, live) =
            db.audit_log().unwrap().orphan_view_anomalies().unwrap();
        assert_eq!(performs, 2);
        assert_eq!(orphans, 0);
        assert_eq!(anomalies, 0);
        assert_eq!(live, 0);
    }

    #[test]
    fn stats_track_operations() {
        let db = db();
        let t = db.begin();
        t.read(&0).unwrap();
        t.write(&1, 5).unwrap();
        t.commit().unwrap();
        let s = db.stats();
        assert_eq!(s.begun, 1);
        assert_eq!(s.committed, 1);
        assert_eq!(s.reads, 1);
        assert_eq!(s.writes, 1);
    }

    #[test]
    fn deep_nesting_chain() {
        let db = db();
        let t = db.begin();
        let mut stack = vec![t.child().unwrap()];
        for _ in 0..8 {
            let next = stack.last().unwrap().child().unwrap();
            stack.push(next);
        }
        // Deepest writes; commits cascade upward.
        stack.last().unwrap().write(&0, 999).unwrap();
        while let Some(txn) = stack.pop() {
            txn.commit().unwrap();
        }
        assert_eq!(t.read(&0).unwrap(), 999);
        t.commit().unwrap();
        assert_eq!(db.committed_value(&0), Some(999));
    }

    fn opt_db() -> Db<u64, i64> {
        let db = Db::with_config(DbConfig::builder().cc_mode(CcMode::Optimistic).build());
        for k in 0..8 {
            db.insert(k, 100 + k as i64);
        }
        db
    }

    #[test]
    fn optimistic_roundtrip_publishes_on_commit() {
        let db = opt_db();
        let t = db.begin();
        assert_eq!(t.read(&0).unwrap(), 100);
        t.write(&0, 42).unwrap();
        assert_eq!(t.read(&0).unwrap(), 42, "own buffered write visible");
        assert_eq!(db.committed_value(&0), Some(100), "buffer is private");
        t.commit().unwrap();
        assert_eq!(db.committed_value(&0), Some(42));
        // The chain head is the committed write at epoch 1 (the superseded
        // seed is reclaimable the moment no pin holds it).
        assert_eq!(db.history(&0).last().copied(), Some((1, 42)));
    }

    #[test]
    fn optimistic_first_committer_wins() {
        let db = opt_db();
        let a = db.begin();
        let b = db.begin();
        a.rmw(&0, |v| v + 1).unwrap();
        b.rmw(&0, |v| v + 10).unwrap();
        a.commit().unwrap();
        let err = b.commit().unwrap_err();
        assert!(matches!(err, TxnError::Conflict { .. }), "{err:?}");
        assert!(err.is_retryable());
        assert_eq!(db.committed_value(&0), Some(101), "loser published nothing");
        let s = db.stats();
        assert_eq!(s.occ_conflicts, 1);
        assert_eq!(s.conflicts, 0, "no lock-manager conflicts in optimistic mode");
        assert_eq!(s.aborted, 1);
        assert_eq!(s.snapshot_pins_live, 0, "both begin pins released");
    }

    #[test]
    fn optimistic_read_set_validated_for_serializability() {
        // b only READS key 0, which a overwrites: snapshot isolation alone
        // would let b commit, but first-committer-wins over the full
        // footprint (rw-antidependency) must abort it.
        let db = opt_db();
        let a = db.begin();
        let b = db.begin();
        a.write(&0, 7).unwrap();
        b.read(&0).unwrap();
        b.write(&1, 50).unwrap();
        a.commit().unwrap();
        let err = b.commit().unwrap_err();
        assert!(matches!(err, TxnError::Conflict { .. }), "{err:?}");
        assert_eq!(db.committed_value(&1), Some(101));
    }

    #[test]
    fn optimistic_disjoint_writers_both_commit() {
        let db = opt_db();
        let a = db.begin();
        let b = db.begin();
        a.write(&0, 1).unwrap();
        b.write(&1, 2).unwrap();
        a.commit().unwrap();
        b.commit().unwrap();
        assert_eq!(db.committed_value(&0), Some(1));
        assert_eq!(db.committed_value(&1), Some(2));
        assert_eq!(db.stats().occ_conflicts, 0);
    }

    #[test]
    fn optimistic_reads_stay_at_begin_snapshot() {
        let db = opt_db();
        let t = db.begin();
        assert_eq!(t.read(&0).unwrap(), 100);
        // A later committer moves the committed state...
        let w = db.begin();
        w.write(&0, 999).unwrap();
        w.commit().unwrap();
        // ...but t keeps reading its pinned snapshot.
        assert_eq!(t.read(&0).unwrap(), 100);
        assert_eq!(db.committed_value(&0), Some(999));
        t.abort();
    }

    #[test]
    fn optimistic_child_commit_merges_and_abort_discards() {
        let db = opt_db();
        let t = db.begin();
        let keep = t.child().unwrap();
        keep.write(&0, 11).unwrap();
        keep.commit().unwrap();
        let lose = t.child().unwrap();
        lose.write(&1, 22).unwrap();
        lose.abort();
        assert_eq!(t.read(&0).unwrap(), 11, "committed child's buffer merged");
        assert_eq!(t.read(&1).unwrap(), 101, "aborted child's buffer discarded");
        t.commit().unwrap();
        assert_eq!(db.committed_value(&0), Some(11));
        assert_eq!(db.committed_value(&1), Some(101));
    }

    #[test]
    fn optimistic_commit_with_active_children_refused() {
        let db = opt_db();
        let t = db.begin();
        let c = t.child().unwrap();
        c.write(&0, 5).unwrap();
        let t2 = db.begin();
        // Cannot consume t while c is live: clone semantics don't allow
        // it in this API, so exercise the registry refusal via run().
        drop(t2);
        let err = {
            let kids_err = match t.commit() {
                Err(e) => e,
                Ok(()) => panic!("commit with live child must fail"),
            };
            kids_err
        };
        assert_eq!(err, TxnError::ChildrenActive(1));
        // c is an orphan now (t's handle was consumed and the commit
        // failure aborted it on drop).
        drop(c);
    }

    #[test]
    fn optimistic_run_retries_conflicts_to_success() {
        let db = Arc::new(opt_db());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let db = db.clone();
                std::thread::spawn(move || {
                    for _ in 0..25 {
                        db.run(|t| t.rmw(&0, |v| v + 1).map(|_| ())).unwrap();
                    }
                })
            })
            .collect();
        for th in threads {
            th.join().unwrap();
        }
        assert_eq!(db.committed_value(&0), Some(200), "all 100 increments retained");
        let s = db.stats();
        assert_eq!(s.committed, 100);
        assert_eq!(s.conflicts, 0, "never touched the lock manager");
    }

    #[test]
    fn optimistic_group_commit_batches_and_validates() {
        let db: Db<u64, i64> = Db::with_config(
            DbConfig::builder().cc_mode(CcMode::Optimistic).group_commit(true).max_batch(8).build(),
        );
        for k in 0..64 {
            db.insert(k, 0);
        }
        let threads: Vec<_> = (0..8)
            .map(|i| {
                let db = db.clone();
                std::thread::spawn(move || {
                    for j in 0..50u64 {
                        // Disjoint per-thread keys (0..56) plus a shared
                        // hot key so batches mix survivors and losers.
                        db.run(|t| {
                            t.rmw(&(i * 7 + j % 7), |v| v + 1)?;
                            t.rmw(&63, |v| v + 1).map(|_| ())
                        })
                        .unwrap();
                    }
                })
            })
            .collect();
        for th in threads {
            th.join().unwrap();
        }
        assert_eq!(db.committed_value(&63), Some(400), "hot-key increments all retained");
        let s = db.stats();
        assert_eq!(s.committed, 400);
        assert_eq!(s.commits_staged, s.committed + s.occ_conflicts, "every staging resolved");
        assert_eq!(s.commits_batched, s.committed, "survivors retired through batches");
        assert_eq!(s.snapshot_pins_live, 0);
    }

    #[test]
    fn optimistic_audit_log_is_serializable_under_contention() {
        let db: Db<u64, i64> =
            Db::with_config(DbConfig::builder().cc_mode(CcMode::Optimistic).audit(true).build());
        for k in 0..4 {
            db.insert(k, 0);
        }
        let threads: Vec<_> = (0..4)
            .map(|i| {
                let db = db.clone();
                std::thread::spawn(move || {
                    for _ in 0..20u64 {
                        db.run(|t| {
                            t.read(&(i % 4))?;
                            t.rmw(&((i + 1) % 4), |v| v + 1).map(|_| ())
                        })
                        .unwrap();
                    }
                })
            })
            .collect();
        for th in threads {
            th.join().unwrap();
        }
        let (universe, aat) = db.audit_log().unwrap().reconstruct().unwrap();
        assert!(aat.perm().is_data_serializable(&universe), "Theorem-9 check");
    }

    #[test]
    fn optimistic_conflict_error_carries_the_epochs() {
        let db = opt_db();
        let a = db.begin();
        let begin_watermark = db.epochs().watermark;
        let b = db.begin();
        a.write(&3, 1).unwrap();
        b.write(&3, 2).unwrap();
        a.commit().unwrap();
        match b.commit().unwrap_err() {
            TxnError::Conflict { begin_epoch, committed_epoch } => {
                assert_eq!(begin_epoch, begin_watermark);
                assert_eq!(committed_epoch, begin_watermark + 1);
            }
            other => panic!("expected Conflict, got {other:?}"),
        }
    }
}
