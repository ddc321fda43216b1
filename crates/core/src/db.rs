//! The nested-transaction database: public API and the engine core.
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
//! This module is what both [`CcMode`]s share: the `Db`/`Txn` surface,
//! the registry, WAL and audit plumbing, and the one commit path every
//! top-level commit takes. Each mode sequences its commit under the
//! publish gate — reserve an epoch, append one commit frame — into a
//! `Run`; [`DbInner::publish`] forces the log outside the gate, then
//! publishes the run at its turn, in epoch order. What a mode does
//! differently lives in `locking` and `optimistic`; `recover` replays the
//! log and writes its checkpoints.

use crate::audit::{hash_value, AuditLog, AuditRecord};
#[cfg(feature = "chaos-hooks")]
use crate::chaos;
pub use crate::config::{CcMode, DbConfig, DbConfigBuilder, DeadlockPolicy, Durability};
use crate::deadlock::WaitForGraph;
use crate::error::TxnError;
use crate::lock::LockState;
use crate::locking::{ShardState, WaitEntry};
use crate::optimistic::OptCtx;
use crate::registry::{Registry, RegistryError, RegistryView, Tree, TxnId, TxnStatus};
use crate::stats::{Stats, StatsSnapshot};
pub use crate::view::Snapshot;
use crate::view::{EpochBounds, ReadView, SnapshotError};
use parking_lot::Mutex;
use rnt_model::UpdateFn;
use rnt_mvcc::{MvccStore, Reservation, GENESIS_EPOCH};
use rnt_wal::{CommitEntry, Record, Wal, WalError, WalForce, INIT_ACTION};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::hash::{BuildHasher, Hash, RandomState};
use std::ops::RangeBounds;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

pub(crate) struct AuditState<K> {
    pub(crate) log: AuditLog,
    keymap: Mutex<HashMap<K, u32>>,
}

impl<K: Eq + Hash + Clone> AuditState<K> {
    /// Register `key` as an audited object with `value` as its initial
    /// value. Contains-first keeps registration idempotent (a key already
    /// mapped keeps its id and is not re-registered) and clones the key
    /// only when it actually enters.
    fn register(&self, key: &K, value: &impl Hash) {
        let mut keymap = self.keymap.lock();
        if !keymap.contains_key(key) {
            let id = keymap.len() as u32;
            keymap.insert(key.clone(), id);
            self.log.register_object(id, hash_value(value));
        }
    }
}

/// One commit's write set on its way into a commit frame: the encoded
/// `(key, version)` of every key whose committed value it changes, in key
/// order.
pub(crate) type WriteSet = Vec<(Vec<u8>, Vec<u8>)>;

/// Whether a top-level verdict means the commit happened: a WAL failure
/// leaves it committed in memory with durability broken; any other
/// failure means it lost.
fn is_committed(verdict: &Result<(), TxnError>) -> bool {
    matches!(verdict, Ok(()) | Err(TxnError::Wal { .. }))
}

/// Armed across a log force: dropped during an unwind, it marks the log
/// broken from `epoch` on, so no later run acks durability the unwound
/// force may not have delivered.
struct BreakOnUnwind<'a, K, V> {
    wal: &'a WalState<K, V>,
    epoch: u64,
}

impl<K, V> Drop for BreakOnUnwind<'_, K, V> {
    fn drop(&mut self) {
        self.wal.mark_broken(self.epoch, "the log force unwound");
    }
}

/// The attached write-ahead log plus everything needed to feed it.
///
/// The key/value encoders are monomorphic `fn` pointers captured where the
/// `WalCodec` bounds exist ([`Db::open`]/[`Db::recover`]), so the base
/// `Db` impl — and every existing caller — keeps compiling without those
/// bounds.
pub(crate) struct WalState<K, V> {
    /// The append side. Every record goes through this mutex (a seed
    /// while its shard guard is held, a commit frame under the publish
    /// gate), so nothing slow may run under it — in particular not the
    /// force. The one exception is a checkpoint's rewrite, which holds it
    /// for the read of the records appended since its read-back began and
    /// for the replace (see [`DbInner::do_checkpoint`]). Lock order:
    /// shard → log.
    pub(crate) log: Mutex<Wal>,
    /// Serializes checkpoints with each other, so none rewrites the log
    /// over a newer image than its own or replaces it under another's
    /// read-back. Only [`DbInner::do_checkpoint`] takes it; no seed or
    /// commit does.
    pub(crate) checkpoint: Mutex<()>,
    /// The force side of `log`, usable without the mutex: see
    /// [`DbInner::force_log`] and [`DbInner::do_checkpoint`].
    pub(crate) force: WalForce,
    /// The lowest-epoch append/fsync failure, if any: the first epoch it
    /// loses and its detail. Once set the log is **fail-stop**: no
    /// further record is appended (a log with a record missing from its
    /// middle could replay a commit over a key it never seeded, or not
    /// replay at all), and every run from that epoch on reports
    /// [`TxnError::Wal`] instead of acking durability it does not have.
    /// A run below it logged its frame before the failure; it still
    /// forces and acks (see [`WalState::verdict`]). The file keeps the
    /// prefix written before the failure, which recovers like a crash at
    /// that point.
    broken: Mutex<Option<(u64, String)>>,
    /// `broken`'s epoch, `u64::MAX` while the log is healthy: what every
    /// commit reads, without the mutex.
    broken_at: AtomicU64,
    enc_key: fn(&K, &mut Vec<u8>),
    enc_val: fn(&V, &mut Vec<u8>),
}

impl<K, V> WalState<K, V> {
    /// Record a failure that loses every run whose epochs reach `epoch`:
    /// the failing run's first epoch, or 0 for a failure that belongs to
    /// no run (a seed's append, a checkpoint's rewrite), which loses
    /// every run not yet published. The lowest such failure is kept.
    pub(crate) fn mark_broken(&self, epoch: u64, detail: impl std::fmt::Display) {
        let mut broken = self.broken.lock();
        if broken.as_ref().is_none_or(|&(at, _)| epoch < at) {
            *broken = Some((epoch, detail.to_string()));
            self.broken_at.store(epoch, Ordering::Release);
        }
    }

    /// Whether any failure has been recorded.
    fn is_broken(&self) -> bool {
        self.broken_at.load(Ordering::Acquire) != u64::MAX
    }

    /// Whether a failure loses the run ending at epoch `last`.
    fn loses(&self, last: u64) -> bool {
        self.broken_at.load(Ordering::Acquire) <= last
    }

    /// The recorded failure's detail, if any.
    pub(crate) fn failure(&self) -> Option<String> {
        self.broken.lock().as_ref().map(|(_, detail)| detail.clone())
    }

    /// The durability verdict of the run ending at epoch `last`, taken at
    /// its turn, once every earlier run has published: [`TxnError::Wal`]
    /// iff an append or force failed in this run or an earlier one. A
    /// later run's failure retracts nothing — this run's own force
    /// covered its frame — but an earlier one's fails it: with that frame
    /// lost, recovery stops before this one.
    fn verdict(&self, last: u64) -> Result<(), TxnError> {
        if !self.loses(last) {
            return Ok(());
        }
        Err(TxnError::Wal { detail: self.failure().unwrap_or_default() })
    }

    /// Encode a key and a value for a seed, a commit frame's write set or
    /// a checkpoint entry. Sized for an integer's encoding (at most 8
    /// bytes, fewer for a smaller value) and short strings, so the two
    /// buffers are one allocation each, no regrow.
    pub(crate) fn encode(&self, key: &K, value: &V) -> (Vec<u8>, Vec<u8>) {
        let (mut kb, mut vb) = (Vec::with_capacity(16), Vec::with_capacity(16));
        (self.enc_key)(key, &mut kb);
        (self.enc_val)(value, &mut vb);
        (kb, vb)
    }
}

/// Lock-table shards: a key's shard is its hash modulo this. Fixed, like
/// the registry's shard count, so [`DbInner::shard_of`] is a mask.
const LOCK_SHARDS: usize = 16;

pub(crate) struct DbInner<K, V> {
    pub(crate) registry: Registry,
    /// The lock tables, one mutex per shard (see [`ShardState`]).
    pub(crate) shards: [Mutex<ShardState<K, V>>; LOCK_SHARDS],
    hasher: RandomState,
    pub(crate) stats: Stats,
    pub(crate) wfg: WaitForGraph,
    pub(crate) config: DbConfig,
    pub(crate) audit: Option<AuditState<K>>,
    /// Currently parked lock waiters (see [`WaitEntry`]).
    pub(crate) waiting: Mutex<Vec<WaitEntry>>,
    /// Sequence for [`Db::run`]'s seeded backoff jitter.
    run_seq: AtomicU64,
    /// The attached write-ahead log (set once by [`Db::open`]/[`Db::recover`];
    /// never set for purely in-memory databases).
    pub(crate) wal: std::sync::OnceLock<WalState<K, V>>,
    /// Committed version chains — the one record of what is committed.
    /// Top-level commits publish here under the publish lock (locking
    /// ones per key under the owning shard guard, so chain order = grant
    /// order = log order); [`Db::snapshot`] pins an epoch and reads
    /// without ever touching the lock tables. Lock order: publish →
    /// shard (locking only) → the store's own locks.
    pub(crate) mvcc: MvccStore<K, V>,
    /// The in-flight table (optimistic only): every key written by an
    /// optimistic run that has reserved its epoch but not yet published,
    /// mapped to that epoch. Phase-2 validation probes it by key and by
    /// interval, as it probes the chains. Touched only under the publish
    /// lock — lock order: publish → in-flight.
    pub(crate) in_flight: Mutex<BTreeMap<K, u64>>,
    /// The installed fault injector, if any (chaos harness only).
    #[cfg(feature = "chaos-hooks")]
    injector: parking_lot::RwLock<Option<Arc<dyn chaos::Injector>>>,
}

/// A nested-transaction in-memory database.
pub struct Db<K, V> {
    pub(crate) inner: Arc<DbInner<K, V>>,
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
        let audit = config
            .audit
            .then(|| AuditState { log: AuditLog::new(), keymap: Mutex::new(HashMap::new()) });
        Db {
            inner: Arc::new(DbInner {
                registry: Registry::new(),
                shards: std::array::from_fn(|_| Mutex::new(ShardState::new())),
                hasher: RandomState::new(),
                stats: Stats::default(),
                wfg: WaitForGraph::new(),
                config,
                audit,
                waiting: Mutex::new(Vec::new()),
                run_seq: AtomicU64::new(0),
                wal: std::sync::OnceLock::new(),
                mvcc: MvccStore::new(0),
                in_flight: Mutex::new(BTreeMap::new()),
                #[cfg(feature = "chaos-hooks")]
                injector: parking_lot::RwLock::new(None),
            }),
        }
    }

    /// Seed an object with its initial value (non-transactional; mirrors
    /// the paper's `init(x)`). Returns false if the key already exists.
    pub fn insert(&self, key: K, value: V) -> bool {
        let inner = &self.inner;
        // Seeds enter the version chain at the genesis epoch: seeding is
        // not a transaction, so the value is visible to every snapshot
        // regardless of when the key was inserted.
        inner.seed(key, value, GENESIS_EPOCH, |key, value| {
            if let Some(audit) = &inner.audit {
                audit.register(key, value);
            }
            // Logged under the shard guard, so a seed's record precedes
            // every commit frame that writes the key.
            inner.wal_log_seed(key, value);
        })
    }

    /// The committed (top-level) value of a key, outside any transaction:
    /// its chain head.
    pub fn committed_value(&self, key: &K) -> Option<V> {
        self.inner.mvcc.read_at(key, u64::MAX)
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
    /// above the oldest live pin.
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
        let (id, tree) = self.inner.registry.begin_tree();
        self.inner.stats.bump(|b| &b.begun);
        self.inner.audit_record(|reg| AuditRecord::Begin { path: reg.path(id).expect("fresh") });
        let mode = match self.inner.config.cc_mode {
            CcMode::Locking => TxnMode::Locking { touched: Arc::default(), parent: None },
            CcMode::Optimistic => {
                TxnMode::Optimistic(Arc::new(OptCtx::new(self.inner.mvcc.pin(), None)))
            }
        };
        Txn { inner: self.inner.clone(), id, done: false, mode, tree }
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
        body: impl FnMut(&Txn<K, V>) -> Result<R, TxnError>,
    ) -> Result<R, TxnError> {
        run_retrying(max_retries, || Ok(self.begin()), body, |attempt| self.backoff(attempt))
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
        snap.txns_resident = self.inner.registry.resident();
        snap
    }

    /// The audit log, if auditing is enabled.
    pub fn audit_log(&self) -> Option<&AuditLog> {
        self.inner.audit.as_ref().map(|a| &a.log)
    }

    /// Checkpoint the write-ahead log now: rewrite it as a snapshot of the
    /// committed key space at the watermark, followed by what was logged
    /// above it, truncating all earlier history. Commits and seeds run on
    /// while the image is walked and the file read back; only the rewrite
    /// itself holds off their appends (and so publications). In-flight
    /// transactions lose nothing: their work reaches the log only in
    /// their own commit frames. A no-op without an attached log.
    pub fn checkpoint(&self) -> Result<(), TxnError> {
        self.inner.do_checkpoint(true).map_err(|e| TxnError::Wal { detail: e.to_string() })
    }

    /// Register every seeded key with the audit log at its *current*
    /// committed value (its version at the watermark). Recovery calls
    /// this after replay (not during) so the audit's initial object
    /// values are the recovered ones, matching what post-recovery
    /// transactions will actually observe.
    pub(crate) fn audit_register_all(&self) {
        let Some(audit) = &self.inner.audit else { return };
        let mvcc = &self.inner.mvcc;
        mvcc.for_each_at(mvcc.watermark(), |key, _, value| audit.register(key, value));
    }

    /// Attach a write-ahead log (at most once, by [`Db::open`]/[`Db::recover`]).
    pub(crate) fn install_wal(
        &self,
        log: Wal,
        enc_key: fn(&K, &mut Vec<u8>),
        enc_val: fn(&V, &mut Vec<u8>),
    ) -> Result<(), WalError> {
        let state = WalState {
            force: log.force_handle(),
            log: Mutex::new(log),
            checkpoint: Mutex::new(()),
            broken: Mutex::new(None),
            broken_at: AtomicU64::new(u64::MAX),
            enc_key,
            enc_val,
        };
        self.inner.wal.set(state).map_err(|_| WalError::Io {
            op: "install",
            detail: "write-ahead log already attached".to_string(),
        })
    }
}

/// Chaos-harness entry points (compiled only with `chaos-hooks`; the
/// lock-table ones live in `locking`). All of them are additive
/// observers/perturbers: none is needed for, or changes, normal operation.
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
    pub(crate) fn shard_of(&self, key: &K) -> usize {
        (self.hasher.hash_one(key) as usize) % LOCK_SHARDS
    }

    pub(crate) fn audit_record(&self, f: impl FnOnce(&Registry) -> AuditRecord) {
        if let Some(audit) = &self.audit {
            audit.log.push(f(&self.registry));
        }
    }

    /// The audit `Access` record of `t` touching `key`: `None` unless
    /// auditing is on and the key seeded, and only then is `what` — the
    /// update and the seen value's hash — computed. The leaf's path is
    /// allocated now, so leaf indices follow op order.
    pub(crate) fn access_record(
        &self,
        reg: &RegistryView<'_>,
        t: TxnId,
        key: &K,
        what: impl FnOnce() -> (UpdateFn, rnt_model::Value),
    ) -> Option<AuditRecord> {
        let object = self.audit.as_ref()?.keymap.lock().get(key).copied()?;
        let mut path = reg.path(t).expect("txn registered");
        path.push(reg.alloc_child_index(t).expect("txn registered"));
        let (update, seen) = what();
        Some(AuditRecord::Access { path, object, update, seen })
    }

    /// Append one record to the attached log, if any. Failures don't
    /// interrupt the in-memory operation; they poison the log from
    /// `epoch` on (see [`WalState::mark_broken`]) so the runs it loses
    /// report [`TxnError::Wal`] instead of falsely acking durability.
    fn wal_append(&self, record: &Record, epoch: u64) {
        if let Some(w) = self.wal.get() {
            // Checked and marked under the log mutex: no record can land
            // behind one the disk refused.
            let mut log = w.log.lock();
            if w.is_broken() {
                return;
            }
            match log.append(record) {
                Ok(()) => self.stats.bump(|b| &b.wal_appends),
                Err(e) => w.mark_broken(epoch, &e),
            }
        }
    }

    /// Log a non-transactional base-value seed (the paper's `init(x)`): a
    /// `Write` record under [`INIT_ACTION`].
    fn wal_log_seed(&self, key: &K, value: &V) {
        if let Some(w) = self.wal.get() {
            let (key, version) = w.encode(key, value);
            self.wal_append(&Record::Write { action: INIT_ACTION, key, version }, 0);
        }
    }

    /// Enter `key` into its version chain at `epoch` unless it has one —
    /// and, in a locking database, into the lock table as an idle entry —
    /// running `log` first, under the shard guard (which serializes seeds
    /// of one key). Replay's `log` is a no-op: no log is attached yet, and
    /// the audit registers the recovered values once replay is done.
    pub(crate) fn seed(&self, key: K, value: V, epoch: u64, log: impl FnOnce(&K, &V)) -> bool {
        let mut guard = self.shards[self.shard_of(&key)].lock();
        if self.mvcc.last_epoch(&key).is_some() {
            return false;
        }
        log(&key, &value);
        if self.config.cc_mode == CcMode::Locking {
            guard.objects.insert(key.clone(), LockState::new(value.clone()));
        }
        self.mvcc.append(&key, epoch, value);
        true
    }

    /// The serialized half of making a top-level commit durable: append
    /// ONE `Commit` frame in which `txn` commits at `epoch` with its write
    /// set. The caller holds the publish gate from the epoch's
    /// reservation through this call, so commit-frame log order is epoch
    /// order.
    pub(crate) fn log_commit_frame(&self, epoch: u64, txn: TxnId, writes: WriteSet) {
        let commits = vec![CommitEntry { action: txn.0, epoch, writes }];
        self.wal_append(&Record::Commit { commits }, epoch);
    }

    /// The concurrent half: under [`Durability::WalFsync`], force the log
    /// for the run at `epoch` before it publishes — unless a failure
    /// already lost the run (see [`WalState::verdict`], which then fails
    /// it anyway). The only place the engine fsyncs outside a checkpoint,
    /// and a no-op without a log or without `WalFsync`.
    ///
    /// **The force takes no engine lock**, in either mode: transactions
    /// keep running and beginning, seeds keep logging, other runs are
    /// sequenced and forced, and a checkpoint may rewrite the file
    /// (keeping this run's frame, see [`DbInner::do_checkpoint`]) while
    /// the disk works. Why forcing outside the gate is safe:
    ///
    /// * the fsync begins after the run's frame was appended, so it
    ///   covers that frame and every byte logged before it;
    /// * bytes it covers beyond that are seeds and later runs' frames,
    ///   none of which is acked on the strength of this force.
    ///
    /// Should the force unwind (a panicking [`rnt_wal::Vfs`]), the log is
    /// marked broken from this run on before the panic leaves.
    pub(crate) fn force_log(&self, epoch: u64) {
        let Some(w) = self.wal.get().filter(|_| self.must_force(epoch)) else { return };
        let unwinding = BreakOnUnwind { wal: w, epoch };
        match w.force.fsync() {
            Ok(()) => self.stats.bump(|b| &b.wal_fsyncs),
            Err(e) => w.mark_broken(epoch, &e),
        }
        std::mem::forget(unwinding);
    }

    /// Whether the run at `epoch` is forced before it publishes: under
    /// [`Durability::WalFsync`], unless a failure already lost it. Once
    /// false for a run it stays false (failures only accumulate).
    pub(crate) fn must_force(&self, epoch: u64) -> bool {
        self.config.durability == Durability::WalFsync
            && self.wal.get().is_some_and(|w| !w.loses(epoch))
    }

    /// The durability verdict of the run at `epoch` (always `Ok` without
    /// a log): see [`WalState::verdict`].
    pub(crate) fn wal_verdict(&self, epoch: u64) -> Result<(), TxnError> {
        self.wal.get().map_or(Ok(()), |w| w.verdict(epoch))
    }

    /// The concurrent half of every top-level commit, in both modes, for
    /// a run its mode has sequenced: force the log (holding no lock),
    /// then — at the run's turn, once every earlier run published — the
    /// mode's publication, and the watermark passes the run as its ticket
    /// drops. Returns the commit's durability verdict.
    ///
    /// The order is the invariant. Nothing of the run becomes visible
    /// before the force returned (Lemma 7): no lock moves, no version
    /// lands. Publication is in epoch order, not force-completion order:
    /// a chain head is overwritten in place when no pin is below the new
    /// epoch, so a run publishing ahead of an earlier one could hide a
    /// version a pin on the earlier run's base still needs. Holding the
    /// ticket across the mode's publication means no snapshot can pin
    /// the run's epoch until every chain append landed. A WAL failure
    /// surfaces only after the run is published: in-memory state stays
    /// consistent, durability doesn't.
    pub(crate) fn publish(&self, mut run: Run<'_, K, V>) -> Result<(), TxnError> {
        let epoch = run.epoch();
        self.force_log(epoch);
        run.publish_in_turn();
        self.wal_verdict(epoch)
    }

    /// The head of every abort: audit `Abort`, then the registry
    /// transition. The moment the registry marks a transaction dead, any
    /// conflicting thread may lazily reap its locks, read the restored
    /// value, and log its access — which must sort *after* this abort in
    /// the audit log. Returns whether the transition happened (false: the
    /// transaction had already finished).
    pub(crate) fn abort_action(&self, id: TxnId) -> bool {
        self.audit_record(|reg| AuditRecord::Abort { path: reg.path(id).expect("known") });
        self.registry.abort(id).is_ok()
    }

    /// The preamble of every access in both modes — liveness, then the
    /// chaos fault — so faults and orphan detection hit both modes
    /// identically. `shard_idx` is what the injector is told.
    ///
    /// Liveness is checked only for *nested* transactions: orphanhood
    /// means an ancestor died, which a top-level transaction has none of,
    /// and `commit`/`abort` consume the handle, so a top-level id observed
    /// here is always Active. The verdict is identical either way (the
    /// check is vacuous at top level); skipping it keeps registry lookups
    /// off every access of the dominant transaction shape, and off the
    /// optimistic read path, whose snapshot reads resolve against
    /// immutable versions and need no shared ancestry state.
    pub(crate) fn access_preamble(
        &self,
        t: TxnId,
        top_level: bool,
        shard_idx: usize,
    ) -> Result<(), TxnError> {
        if !top_level {
            let view = self.registry.read_view();
            if view.status(t) != Some(TxnStatus::Active) {
                return Err(TxnError::NotActive);
            }
            if view.is_dead(t) {
                return Err(TxnError::Orphaned);
            }
        }
        #[cfg(not(feature = "chaos-hooks"))]
        let _ = shard_idx;
        #[cfg(feature = "chaos-hooks")]
        let fault = self.injector.read().as_ref().map(|i| i.before_access(t, shard_idx));
        #[cfg(feature = "chaos-hooks")]
        match fault.unwrap_or_default() {
            chaos::AccessFault::Proceed => {}
            chaos::AccessFault::Die => {
                self.stats.bump(|b| &b.dies);
                return Err(TxnError::Die { blocker: t });
            }
            chaos::AccessFault::Timeout => {
                self.stats.bump(|b| &b.timeouts);
                // The policy's bound, as a real timeout would report it.
                let bound = match self.config.policy {
                    DeadlockPolicy::Timeout(bound) => bound,
                    _ => Duration::ZERO,
                };
                return Err(TxnError::Timeout(bound));
            }
        }
        Ok(())
    }
}

/// What a sequenced top-level commit changes at its turn, by mode.
pub(crate) enum Effects<K, V> {
    /// Locking: the keys whose locks the committer holds. At its turn
    /// they are released, each key it wrote gaining a chain version.
    Locks(HashSet<K>),
    /// Optimistic: the buffered write set, appended to the chains at its
    /// turn; whether its keys entered the in-flight table (they leave it
    /// then); and the begin pin, released once the run is published.
    Writes { writes: BTreeMap<K, V>, in_flight: bool, pin: u64 },
}

/// A top-level commit between the two halves of its publication: its
/// mode sequenced it (`sequence_locking`, `sequence_optimistic`),
/// reserving its epoch and logging its frame under the publish gate, and
/// [`DbInner::publish`] forces and publishes it.
///
/// Dropped unpublished — a panic between the halves, say in the force or
/// a key encoder — it marks the log broken from its epoch on and still
/// publishes the run in turn: locks released or versions appended at its
/// epoch, the begin pin released, the watermark advanced. Nothing stays
/// locked or pinned, and no later run waits forever at its turn.
pub(crate) struct Run<'a, K, V>
where
    K: Eq + Hash + Ord + Clone + Send + Sync + 'static,
    V: Clone + Hash + Send + Sync + 'static,
{
    pub(crate) inner: &'a DbInner<K, V>,
    pub(crate) txn: TxnId,
    /// Taken once published.
    pub(crate) effects: Option<Effects<K, V>>,
    /// `None` until reserved (a locking run reads its write set first).
    pub(crate) reservation: Option<Reservation<'a>>,
}

impl<K, V> Run<'_, K, V>
where
    K: Eq + Hash + Ord + Clone + Send + Sync + 'static,
    V: Clone + Hash + Send + Sync + 'static,
{
    fn epoch(&self) -> u64 {
        self.reservation.as_ref().expect("a sequenced run").epoch()
    }

    /// Wait for the run's turn and publish its effects (once).
    fn publish_in_turn(&mut self) {
        let Some(effects) = self.effects.take() else { return };
        let inner = self.inner;
        let publish = self.reservation.take().expect("a sequenced run").publish();
        let epoch = publish.epoch();
        match effects {
            Effects::Locks(keys) => inner.finish_locks(self.txn, &keys, true, Some(epoch)),
            Effects::Writes { writes, in_flight, pin } => {
                if in_flight {
                    let mut table = inner.in_flight.lock();
                    for key in writes.keys() {
                        table.remove(key);
                    }
                }
                // The chain is the only home of an optimistic commit:
                // there is no lock table to update and no waiter to wake.
                for (key, value) in writes {
                    inner.mvcc.append(&key, epoch, value);
                }
                // Unpinning may sweep, which takes the publish lock.
                drop(publish);
                inner.mvcc.unpin(pin);
            }
        }
    }
}

impl<K, V> Drop for Run<'_, K, V>
where
    K: Eq + Hash + Ord + Clone + Send + Sync + 'static,
    V: Clone + Hash + Send + Sync + 'static,
{
    fn drop(&mut self) {
        if self.effects.is_none() {
            return;
        }
        let inner = self.inner;
        let epoch = self.reservation.get_or_insert_with(|| inner.mvcc.reserve()).epoch();
        if let Some(w) = inner.wal.get() {
            w.mark_broken(epoch, "a commit's publication unwound");
        }
        self.publish_in_turn();
    }
}

/// A transaction's concurrency-control state, by the mode its database
/// runs in (a [`Db`] runs one mode for life).
enum TxnMode<K, V> {
    /// [`CcMode::Locking`]: the keys this transaction holds locks on (own
    /// acquisitions plus those inherited from committed children), and
    /// the parent's set, which receives them on commit (`None` at top
    /// level).
    Locking { touched: Arc<Mutex<HashSet<K>>>, parent: Option<Arc<Mutex<HashSet<K>>>> },
    /// [`CcMode::Optimistic`]: the pinned snapshot and private buffers,
    /// linked to the parent's.
    Optimistic(Arc<OptCtx<K, V>>),
}

impl<K, V> TxnMode<K, V> {
    fn is_top_level(&self) -> bool {
        match self {
            TxnMode::Locking { parent, .. } => parent.is_none(),
            TxnMode::Optimistic(opt) => opt.parent.is_none(),
        }
    }
}

/// A handle on one (sub)transaction. Dropping an unfinished handle aborts
/// it — the resilient default — and the last handle on a tree to drop
/// retires the tree from the registry.
pub struct Txn<K, V>
where
    K: Eq + Hash + Ord + Clone + Send + Sync + 'static,
    V: Clone + Hash + Send + Sync + 'static,
{
    pub(crate) inner: Arc<DbInner<K, V>>,
    pub(crate) id: TxnId,
    done: bool,
    mode: TxnMode<K, V>,
    tree: Tree,
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
        if self.inner.injector.read().as_ref().is_some_and(|i| i.fail_begin_child(self.id)) {
            self.inner.stats.bump(|b| &b.dies);
            return Err(TxnError::Die { blocker: self.id });
        }
        let id = self.inner.registry.begin_child(self.id).map_err(map_reg_err)?;
        self.inner.stats.bump(|b| &b.begun);
        self.inner
            .audit_record(|reg| AuditRecord::Begin { path: reg.path(id).expect("fresh child") });
        let mode = match &self.mode {
            TxnMode::Locking { touched, .. } => {
                TxnMode::Locking { touched: Arc::default(), parent: Some(touched.clone()) }
            }
            TxnMode::Optimistic(opt) => {
                TxnMode::Optimistic(Arc::new(OptCtx::new(opt.begin_epoch, Some(opt.clone()))))
            }
        };
        Ok(Txn { inner: self.inner.clone(), id, done: false, mode, tree: self.tree.share() })
    }

    /// Read a key. Locking mode acquires a read lock in Moss's
    /// discipline; optimistic mode reads lock-free — the nearest buffered
    /// write in this transaction tree, else the committed value at the
    /// pinned begin snapshot.
    pub fn read(&self, key: &K) -> Result<V, TxnError> {
        let out = match &self.mode {
            TxnMode::Locking { touched, parent } => {
                self.locked_read(key, touched, parent.is_none())
            }
            TxnMode::Optimistic(opt) => self.opt_read(key, opt),
        }?;
        self.inner.stats.bump(|b| &b.reads);
        Ok(out)
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
        let out = match &self.mode {
            TxnMode::Locking { touched, parent } => {
                self.locked_rmw(key, f, touched, parent.is_none())
            }
            TxnMode::Optimistic(opt) => self.opt_rmw(key, f, opt),
        }?;
        self.inner.stats.bump(|b| &b.writes);
        Ok(out)
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
        body: impl FnMut(&Txn<K, V>) -> Result<R, TxnError>,
    ) -> Result<R, TxnError> {
        run_retrying(max_retries, || self.child(), body, |_| {})
    }

    /// Commit this transaction to its parent (top-level: permanently).
    ///
    /// Fails with [`TxnError::ChildrenActive`] if subtransactions are still
    /// running; in that case the transaction stays active. In
    /// [`CcMode::Optimistic`], a top-level commit additionally runs
    /// first-committer-wins validation and can fail with the retryable
    /// [`TxnError::Conflict`] — the transaction is then already aborted.
    /// A commit that lost to one still being forced returns once the
    /// winner is published, so a retry begins on a snapshot holding it.
    pub fn commit(mut self) -> Result<(), TxnError> {
        let inner = &self.inner;
        let id = self.id;
        let top_level = self.mode.is_top_level();
        if top_level && matches!(self.mode, TxnMode::Optimistic(_)) {
            // Validation flips this commit's registry state, and freezes
            // the footprint: children must be finished first. A
            // side-effect-free check, like the registry's own refusal —
            // the transaction stays active, its buffers intact.
            let kids = inner.registry.active_children(id);
            if kids > 0 {
                return Err(TxnError::ChildrenActive(kids));
            }
        } else {
            inner.registry.commit(id).map_err(map_reg_err)?;
            // The audit Commit record must land before the footprint
            // moves: once locks pass on, other threads can acquire them
            // and log accesses whose prefix-visibility depends on this
            // commit.
            inner.audit_record(|reg| AuditRecord::Commit { path: reg.path(id).expect("known") });
        }
        self.done = true;
        if !top_level {
            // Revocable until every ancestor commits: not logged, and no
            // durability verdict to report. The footprint becomes the
            // parent's: locks by inheritance, their keys joining its set;
            // buffers by merge, judged once at the top.
            match &self.mode {
                TxnMode::Locking { touched, parent } => {
                    let keys = std::mem::take(&mut *touched.lock());
                    inner.finish_locks(id, &keys, true, None);
                    if let Some(parent) = parent {
                        parent.lock().extend(keys);
                    }
                }
                TxnMode::Optimistic(opt) => {
                    if let Some(parent) = &opt.parent {
                        parent.absorb(opt.take_footprint());
                    }
                }
            }
            inner.stats.bump(|b| &b.committed);
            return Ok(());
        }
        // The mode sequences the commit into a run (an optimistic one
        // validates first, and may lose instead), and the one publish
        // path forces and publishes it. An optimistic run releases the
        // begin pin once published; a loser, once aborted.
        let verdict = match &self.mode {
            TxnMode::Locking { touched, .. } => {
                let keys = std::mem::take(&mut *touched.lock());
                inner.publish(inner.sequence_locking(id, keys))
            }
            TxnMode::Optimistic(opt) => inner.commit_optimistic(id, opt.take_footprint()),
        };
        if is_committed(&verdict) {
            inner.stats.bump(|b| &b.committed);
        }
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
        if self.inner.abort_action(self.id) {
            match &self.mode {
                TxnMode::Locking { touched, .. } => {
                    let keys = std::mem::take(&mut *touched.lock());
                    self.inner.finish_locks(self.id, &keys, false, None);
                    // Descendants just became orphans; wake any that are
                    // parked so they observe their death instead of
                    // sleeping out a full wait slice.
                    self.inner.wake_orphaned_waiters();
                }
                // The buffers die with this context (nothing ever reached
                // shared state), and nobody is parked on a lock gate.
                // Only the top of the tree holds the pin.
                TxnMode::Optimistic(opt) => {
                    if opt.parent.is_none() {
                        self.inner.mvcc.unpin(opt.begin_epoch);
                    }
                }
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
            .field("top_level", &self.mode.is_top_level())
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
        match &self.mode {
            TxnMode::Optimistic(opt) => opt.begin_epoch,
            TxnMode::Locking { .. } => self.inner.mvcc.watermark(),
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
        if let TxnMode::Optimistic(opt) = &self.mode {
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

impl<K, V> Drop for Txn<K, V>
where
    K: Eq + Hash + Ord + Clone + Send + Sync + 'static,
    V: Clone + Hash + Send + Sync + 'static,
{
    fn drop(&mut self) {
        if !self.done {
            self.do_abort();
        }
        self.inner.registry.close(&self.tree);
    }
}

/// The retry loop of [`Db::run`] and [`Txn::run_child`]: begin, run
/// `body`, commit on success; a retryable failure of either aborts the
/// transaction (if the body failed) and, while retries remain, goes round
/// again after `backoff(attempt)`. Anything else is returned as is.
fn run_retrying<K, V, R>(
    max_retries: u32,
    mut begin: impl FnMut() -> Result<Txn<K, V>, TxnError>,
    mut body: impl FnMut(&Txn<K, V>) -> Result<R, TxnError>,
    mut backoff: impl FnMut(u32),
) -> Result<R, TxnError>
where
    K: Eq + Hash + Ord + Clone + Send + Sync + 'static,
    V: Clone + Hash + Send + Sync + 'static,
{
    let mut attempts = 0;
    loop {
        let txn = begin()?;
        let outcome = match body(&txn) {
            Ok(out) => txn.commit().map(|()| out),
            Err(e) => {
                txn.abort();
                Err(e)
            }
        };
        match outcome {
            Err(e) if e.is_retryable() && attempts < max_retries => {
                attempts += 1;
                backoff(attempts);
            }
            outcome => return outcome,
        }
    }
}

pub(crate) fn map_reg_err(e: RegistryError) -> TxnError {
    match e {
        RegistryError::Unknown(_) | RegistryError::NotActive(_) => TxnError::NotActive,
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

    /// Slot storage tracks the ids issued since the oldest open tree, not
    /// history: 200k transactions from two threads (250k ids) leave room
    /// for under a quarter of the ids they drew.
    #[test]
    fn registry_slots_stay_bounded() {
        let db = db();
        std::thread::scope(|s| {
            for k in 0..2u64 {
                let db = &db;
                s.spawn(move || {
                    for i in 0..100_000 {
                        db.run(|t| match i % 4 {
                            0 => t.run_child(0, |c| c.rmw(&k, |v| v + 1)),
                            _ => t.rmw(&k, |v| v + 1),
                        })
                        .unwrap();
                    }
                });
            }
        });
        assert_eq!(db.stats().txns_resident, 0);
        let slots = db.inner.registry.slot_capacity();
        assert!(slots * 4 < 250_000, "{slots} slots kept for 250k ids");
    }

    /// Lock-table entries across every shard.
    fn lock_entries(db: &Db<u64, i64>) -> usize {
        db.inner.shards.iter().map(|s| s.lock().objects.len()).sum()
    }

    /// An optimistic `Db` keeps no lock table: not after seeding, commits
    /// with nested children, a checkpoint, or a replay of its log.
    #[test]
    fn optimistic_db_keeps_no_lock_table() {
        let config =
            || DbConfig::builder().cc_mode(CcMode::Optimistic).durability(Durability::Wal).build();
        let vfs = Arc::new(rnt_wal::MemVfs::new());
        let db: Db<u64, i64> = Db::open_with_vfs(vfs.clone(), "db.wal", config()).unwrap();
        for k in 0..8 {
            db.insert(k, k as i64);
        }
        assert_eq!(lock_entries(&db), 0, "seeding");
        for k in 0..4u64 {
            db.run(|t| {
                t.run_child(0, |c| c.rmw(&k, |v| v + 10))?;
                t.rmw(&(k + 4), |v| v + 1)
            })
            .unwrap();
        }
        assert_eq!(lock_entries(&db), 0, "commits with nested children");
        db.checkpoint().unwrap();
        assert_eq!(lock_entries(&db), 0, "checkpoint");
        // After the checkpoint, so replay also applies a commit frame.
        db.run(|t| t.rmw(&0, |v| v * 2)).unwrap();
        let crashed = Arc::new(rnt_wal::MemVfs::new());
        crashed.install("db.wal", vfs.snapshot("db.wal"));
        let recovered: Db<u64, i64> = Db::recover_with_vfs(crashed, "db.wal", config()).unwrap();
        assert_eq!(lock_entries(&recovered), 0, "replay");
        assert_eq!(recovered.committed_value(&0), Some(20));
        assert_eq!(recovered.committed_value(&4), Some(5));
    }

    /// `committed_value` and a duplicate `insert` answer from the chain
    /// heads, alike in both modes.
    #[test]
    fn committed_value_and_duplicate_insert_in_both_modes() {
        for mode in [CcMode::Locking, CcMode::Optimistic] {
            let db: Db<u64, i64> = Db::with_config(DbConfig::builder().cc_mode(mode).build());
            assert!(db.insert(0, 1));
            assert!(!db.insert(0, 2), "{mode:?}: duplicate refused");
            assert_eq!(db.committed_value(&0), Some(1), "{mode:?}: the first seed stands");
            assert_eq!(db.committed_value(&9), None, "{mode:?}: unknown key");
            let t = db.begin();
            t.write(&0, 5).unwrap();
            assert_eq!(db.committed_value(&0), Some(1), "{mode:?}: uncommitted write");
            t.commit().unwrap();
            assert_eq!(db.committed_value(&0), Some(5), "{mode:?}: committed write");
            assert!(!db.insert(0, 7), "{mode:?}: duplicate of a written key refused");
            assert_eq!(db.committed_value(&0), Some(5), "{mode:?}");
        }
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
}
