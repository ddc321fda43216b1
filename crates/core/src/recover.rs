//! Crash recovery: replay a write-ahead log into a fresh [`Db`] — and the
//! checkpoint writer whose `Checkpoint` record replay starts from.
//!
//! Replay reconstructs the action tree (registry), the per-key version
//! stacks (lock states — made on demand and dropped at the end in an
//! optimistic database), and the committed chains so that `perm(T)` — the
//! set of effects the paper's Lemma 7 calls permanent — is identical
//! before and after the crash:
//!
//! * records replay **in log order**, which the engine guarantees is a
//!   legal grant order (writes are logged under their shard guard, commit
//!   and abort records are ordered before any acquisition they enable);
//! * actions still active at end-of-log are the crash's in-flight
//!   casualties: they are aborted deepest-first, exactly as if every
//!   outstanding handle had been dropped — `perm` never contained them;
//! * each active action holds a count on its tree, as its handle did, so
//!   the record that finishes a tree's last active member retires the
//!   tree, and a recovered registry starts empty;
//! * recovery ends with a checkpoint rewrite, so the implicit aborts
//!   become physical and a recovered log never replays a stale suffix.
//!
//! Torn tails (see [`rnt_wal::scan`]) are the expected crash artifact and
//! are silently discarded; corruption anywhere earlier is a typed
//! [`WalError`] — a recovered database is never built on a log whose
//! middle is unreadable.

use crate::db::{CcMode, Db, DbConfig, DbInner, Durability};
use crate::lock::LockState;
use crate::locking::ShardState;
use crate::registry::{Registry, Tree, TxnId, TxnStatus};
use parking_lot::MutexGuard;
use rnt_mvcc::GENESIS_EPOCH;
use rnt_wal::{scan, Record, StdVfs, Vfs, Wal, WalCodec, WalError, INIT_ACTION};
use std::collections::{HashMap, HashSet};
use std::hash::Hash;
use std::sync::atomic::Ordering;
use std::sync::Arc;

fn encode_of<T: WalCodec>(value: &T, out: &mut Vec<u8>) {
    value.encode(out);
}

fn replay_err(detail: impl Into<String>) -> WalError {
    WalError::Replay { detail: detail.into() }
}

impl<K, V> DbInner<K, V>
where
    K: Eq + Hash + Ord + Clone + Send + Sync + 'static,
    V: Clone + Hash + Send + Sync + 'static,
{
    /// Checkpoint after a top-level commit if the configured cadence says
    /// so. Must be called *after* the commit's latch guard is dropped (the
    /// latch is not reentrant).
    pub(crate) fn maybe_auto_checkpoint(&self, top_level: bool) {
        let Some(w) = self.wal.get() else { return };
        let every = self.config.checkpoint_every;
        if !top_level || every == 0 {
            return;
        }
        let n = w.commits_since_ckpt.fetch_add(1, Ordering::Relaxed) + 1;
        if n % every == 0 {
            let _ = self.do_checkpoint(); // failure poisons the log
        }
    }

    /// Rewrite the log as `Checkpoint{chain heads}` followed by re-logged
    /// `Begin`/`Write` records for every still-live active transaction, so
    /// recovery cost is bounded by the snapshot plus post-checkpoint
    /// traffic instead of the whole history.
    ///
    /// Holding the latch exclusively plus every shard guard freezes the
    /// engine in a transition-free state: no half-appended commit can be
    /// rewritten away, no begin can land twice (once re-logged, once
    /// self-appended), and no seed lands mid-walk. Dead (orphaned)
    /// subtrees are reaped, not re-logged — their versions are doomed and
    /// `perm` never sees them; their stray post-checkpoint `Commit`/`Abort`
    /// records are tolerated by replay.
    pub(crate) fn do_checkpoint(&self) -> Result<(), WalError> {
        let Some(w) = self.wal.get() else { return Ok(()) };
        if let Some(detail) = w.broken.get() {
            return Err(WalError::Io { op: "checkpoint", detail: detail.clone() });
        }
        let _latch = self.ckpt.write();
        let mut guards: Vec<MutexGuard<'_, ShardState<K, V>>> =
            self.shards.iter().map(|s| s.lock()).collect();
        let view = self.registry.read_view();
        for guard in guards.iter_mut() {
            for state in guard.objects.values_mut() {
                state.reap(&view);
            }
        }
        // The committed state is the chain heads. Each entry carries its
        // head's epoch so recovery rebuilds chains identical to the
        // pre-crash store (not merely value-equal).
        let mut snapshot = Vec::new();
        self.mvcc.for_each_head(|key, epoch, value| {
            let (kb, vb) = w.encode(key, value);
            snapshot.push((kb, epoch, vb));
        });
        snapshot.sort();
        let mut records = vec![Record::Checkpoint { epoch: self.mvcc.watermark(), snapshot }];
        // Live active transactions, ascending id: every parent precedes
        // its children (child ids are allocated after the parent exists),
        // and the live-active set is ancestor-closed (an active child
        // keeps its ancestors active; an aborted ancestor makes it dead).
        // The live view agrees with the snapshot: every registry
        // transition runs under the latch held shared, and we hold it
        // exclusively. A retirement may still run, but only finished
        // trees retire, and they have nothing to re-log.
        for (id, parent, status, _) in self.registry.snapshot() {
            if status == TxnStatus::Active && !view.is_dead(id) {
                records.push(Record::Begin { action: id.0, parent: parent.map(|p| p.0) });
            }
        }
        for guard in guards.iter() {
            for (key, state) in guard.objects.iter() {
                for (holder, value) in state.write_entries() {
                    let (key, version) = w.encode(key, value);
                    records.push(Record::Write { action: holder.0, key, version });
                }
            }
        }
        w.log.lock().rewrite(&records).inspect_err(|e| w.mark_broken(e))
    }
}

impl<K, V> Db<K, V>
where
    K: Eq + Hash + Ord + Clone + Send + Sync + WalCodec + 'static,
    V: Clone + Hash + Send + Sync + WalCodec + 'static,
{
    /// Create a fresh database writing a **new** write-ahead log at
    /// `path` (any existing file there is truncated — use
    /// [`Db::recover`] to resume from one). With
    /// [`Durability::None`] the path is ignored and the database is
    /// purely in-memory.
    pub fn open(path: &str, config: DbConfig) -> Result<Self, WalError> {
        Self::open_with_vfs(Arc::new(StdVfs::new()), path, config)
    }

    /// [`Db::open`] through an explicit [`Vfs`] (fault-injection harnesses
    /// use [`rnt_wal::MemVfs`]).
    pub fn open_with_vfs(
        vfs: Arc<dyn Vfs>,
        path: &str,
        config: DbConfig,
    ) -> Result<Self, WalError> {
        let db = Db::with_config(config.clone());
        if config.durability != Durability::None {
            if vfs.exists(path) {
                vfs.replace(path, rnt_wal::MAGIC)?;
            }
            let log = Wal::open(vfs, path)?;
            db.install_wal(log, encode_of::<K>, encode_of::<V>)?;
        }
        Ok(db)
    }

    /// Recover a database from the write-ahead log at `path`: replay every
    /// intact record, abort the crash's in-flight transactions, checkpoint
    /// the log, and continue appending to it. A missing file is an empty
    /// database (first boot).
    pub fn recover(path: &str, config: DbConfig) -> Result<Self, WalError> {
        Self::recover_with_vfs(Arc::new(StdVfs::new()), path, config)
    }

    /// [`Db::recover`] through an explicit [`Vfs`].
    pub fn recover_with_vfs(
        vfs: Arc<dyn Vfs>,
        path: &str,
        config: DbConfig,
    ) -> Result<Self, WalError> {
        let db = Db::with_config(config.clone());
        let bytes = if vfs.exists(path) { vfs.read(path)? } else { Vec::new() };
        let (records, _tail) = scan(&bytes)?;
        let recovered = replay(&db.inner, &records)?;
        db.inner.stats.add(|b| &b.recovered_actions, recovered);
        db.audit_register_all();
        if config.durability != Durability::None {
            let log = Wal::open(vfs, path)?;
            db.install_wal(log, encode_of::<K>, encode_of::<V>)?;
            // Make the implicit in-flight aborts physical and drop any
            // torn tail from the file: the recovered log is born clean.
            db.inner.do_checkpoint()?;
        }
        Ok(db)
    }
}

/// Apply one logged commit (record index `i`, for error labels) to the
/// replaying `db`: registry transition, lock inheritance/publication, and
/// — for top-level commits — the version-chain appends at the logged
/// epoch; then `id` closes its count on its tree.
///
/// Top-level epochs must land strictly above the current watermark. The
/// engine allocates epochs as `watermark + 1` under the publish mutex and
/// logs the commit record while holding it, so any log claiming an epoch
/// at or below the watermark carries an epoch that was never durably
/// allocated — trusting it would replay a commit the pre-crash store
/// never published (or publish two commits at one epoch).
fn apply_commit<K, V>(
    db: &DbInner<K, V>,
    touched: &mut HashMap<TxnId, HashSet<K>>,
    trees: &mut HashMap<TxnId, Tree>,
    i: usize,
    id: TxnId,
    epoch: Option<u64>,
) -> Result<(), WalError>
where
    K: Eq + Hash + Ord + Clone + Send + Sync + WalCodec + 'static,
    V: Clone + Hash + Send + Sync + WalCodec + 'static,
{
    let registry = &db.registry;
    registry.commit(id).map_err(|e| replay_err(format!("record {i}: {e}")))?;
    let parent = registry.parent(id);
    if parent.is_none() && epoch.is_none() {
        return Err(replay_err(format!(
            "record {i}: top-level commit of {id:?} without a commit epoch"
        )));
    }
    let publish_epoch = if parent.is_none() { epoch } else { None };
    if let Some(e) = publish_epoch {
        let watermark = db.mvcc.watermark();
        if e <= watermark {
            return Err(replay_err(format!(
                "record {i}: commit epoch {e} of {id:?} not above watermark {watermark} — \
                 epoch never durably allocated"
            )));
        }
    }
    // The live engine's own release: a top-level commit appends a chain
    // version for exactly the keys the committer holds a write lock on.
    let keys = touched.remove(&id).unwrap_or_default();
    db.finish_locks(id, &keys, true, publish_epoch);
    if let Some(e) = publish_epoch {
        db.mvcc.advance_watermark(e);
    }
    if let Some(p) = parent {
        touched.entry(p).or_default().extend(keys);
    }
    close(registry, trees, id);
    Ok(())
}

/// Replay's counterpart of a finished action's handle dropping: `id` gives
/// its count on its tree back, and the last one out retires the tree.
fn close(registry: &Registry, trees: &mut HashMap<TxnId, Tree>, id: TxnId) {
    if let Some(tree) = trees.remove(&id) {
        registry.close(&tree);
    }
}

/// Replay `records` into the (fresh, log-less) `db`. Returns the number of
/// actions reconstructed (`Begin` records processed).
fn replay<K, V>(db: &DbInner<K, V>, records: &[Record]) -> Result<u64, WalError>
where
    K: Eq + Hash + Ord + Clone + Send + Sync + WalCodec + 'static,
    V: Clone + Hash + Send + Sync + WalCodec + 'static,
{
    let registry = &db.registry;
    // Keys each action holds write versions on, for commit inheritance
    // and abort restore (the engine's `touched` sets, rebuilt).
    let mut touched: HashMap<TxnId, HashSet<K>> = HashMap::new();
    // Each active action's count on its tree, as its handle held one.
    let mut trees: HashMap<TxnId, Tree> = HashMap::new();
    let mut seen_checkpoint = false;
    let mut recovered = 0u64;
    for (i, record) in records.iter().enumerate() {
        match record {
            Record::Checkpoint { epoch, snapshot } => {
                if i != 0 {
                    return Err(replay_err(format!("checkpoint at record {i}, not at log start")));
                }
                seen_checkpoint = true;
                for (kb, e, vb) in snapshot {
                    let key =
                        K::decode(kb).ok_or_else(|| replay_err("undecodable checkpoint key"))?;
                    let value =
                        V::decode(vb).ok_or_else(|| replay_err("undecodable checkpoint value"))?;
                    // Seed the chain at the key's checkpointed last-commit
                    // epoch, so recovered chains match pre-crash ones.
                    if !db.seed(key, value, *e, |_, _| {}) {
                        return Err(replay_err("duplicate key in checkpoint snapshot"));
                    }
                }
                // Epoch numbering resumes at the checkpointed watermark,
                // not at the max per-key epoch: keys whose latest commits
                // were reclaimed must not see their epochs reissued.
                db.mvcc.advance_watermark(*epoch);
                // And time travel must not reach beneath the checkpoint:
                // recovered chains start at their per-key epochs, not at
                // the versions that existed pre-compaction, so a snapshot
                // pinned below the checkpointed watermark would see keys
                // flicker out of existence.
                db.mvcc.concede_retained(*epoch);
            }
            Record::Write { action, key, version } if *action == INIT_ACTION => {
                let key = K::decode(key).ok_or_else(|| replay_err("undecodable init key"))?;
                let value =
                    V::decode(version).ok_or_else(|| replay_err("undecodable init value"))?;
                if !db.seed(key, value, GENESIS_EPOCH, |_, _| {}) {
                    return Err(replay_err("duplicate init for an existing key"));
                }
            }
            Record::Begin { action, parent } => {
                if *action == INIT_ACTION {
                    return Err(replay_err("begin record with the reserved init action id"));
                }
                let id = TxnId(*action);
                let tree = match parent.map(TxnId) {
                    None => registry.replay_top(id),
                    // Replayed, the parent is active, so it holds a count.
                    Some(p) => registry.replay_child(id, p).map(|()| trees[&p].share()),
                }
                .map_err(|e| replay_err(format!("record {i}: {e}")))?;
                trees.insert(id, tree);
                touched.insert(id, HashSet::new());
                recovered += 1;
            }
            Record::Write { action, key, version } => {
                let id = TxnId(*action);
                if registry.status(id).is_none() {
                    return Err(replay_err(format!("record {i}: write by unknown action {id:?}")));
                }
                let key = K::decode(key).ok_or_else(|| replay_err("undecodable key"))?;
                let value = V::decode(version).ok_or_else(|| replay_err("undecodable version"))?;
                let mut guard = db.shards[db.shard_of(&key)].lock();
                if !guard.objects.contains_key(&key) {
                    // An optimistic database keeps no lock table: the
                    // entry is made on demand, from the chain head.
                    let head = db.mvcc.read_at(&key, u64::MAX);
                    let head =
                        head.ok_or_else(|| replay_err(format!("record {i}: unseeded key")))?;
                    guard.objects.insert(key.clone(), LockState::new(head));
                }
                let state = guard.objects.get_mut(&key).expect("entered above");
                if state.try_write(id, &registry.read_view(), |_| value).is_err() {
                    // Log order is grant order; a conflict here means the
                    // log is not one the engine produced.
                    return Err(replay_err(format!(
                        "record {i}: write by {id:?} conflicts at replay"
                    )));
                }
                touched.entry(id).or_default().insert(key);
            }
            Record::Commit { action, epoch } => {
                let id = TxnId(*action);
                if registry.status(id).is_none() {
                    if seen_checkpoint {
                        // A checkpoint prunes dead (orphaned) subtrees; a
                        // pruned orphan's handle may still have logged its
                        // no-effect commit afterwards. Harmless.
                        continue;
                    }
                    return Err(replay_err(format!("record {i}: commit of unknown action {id:?}")));
                }
                apply_commit(db, &mut touched, &mut trees, i, id, *epoch)?;
            }
            Record::BatchCommit { commits } => {
                // A group-commit batch: semantically the listed top-level
                // commits in epoch order, durably atomic because they
                // share this one frame. Participants are always known —
                // they were alive and top-level when staged, and the
                // committing threads hold the checkpoint latch from
                // registry transition through batch retirement, so no
                // checkpoint can prune a batch participant's Begin.
                if commits.is_empty() {
                    return Err(replay_err(format!("record {i}: empty commit batch")));
                }
                for &(action, epoch) in commits {
                    let id = TxnId(action);
                    if registry.status(id).is_none() {
                        return Err(replay_err(format!(
                            "record {i}: batched commit of unknown action {id:?}"
                        )));
                    }
                    if registry.parent(id).is_some() {
                        return Err(replay_err(format!(
                            "record {i}: batched commit of nested action {id:?}"
                        )));
                    }
                    apply_commit(db, &mut touched, &mut trees, i, id, Some(epoch))?;
                }
            }
            Record::Abort { action } => {
                let id = TxnId(*action);
                if registry.status(id).is_none() {
                    if seen_checkpoint {
                        continue; // pruned orphan's abort — see Commit arm
                    }
                    return Err(replay_err(format!("record {i}: abort of unknown action {id:?}")));
                }
                registry.abort(id).map_err(|e| replay_err(format!("record {i}: {e}")))?;
                db.finish_locks(id, &touched.remove(&id).unwrap_or_default(), false, None);
                close(registry, &mut trees, id);
            }
        }
    }
    // End of log: everything still active was in flight at the crash.
    // Abort deepest-first so children discard their versions before their
    // parents do (restoring each enclosing version in turn).
    let mut in_flight: Vec<(TxnId, usize)> = registry
        .snapshot()
        .into_iter()
        .filter(|(_, _, status, _)| *status == TxnStatus::Active)
        .map(|(id, _, _, path)| (id, path.len()))
        .collect();
    in_flight.sort_by(|a, b| b.1.cmp(&a.1).then(b.0.cmp(&a.0)));
    for (id, _) in in_flight {
        registry.abort(id).map_err(|e| replay_err(format!("in-flight abort: {e}")))?;
        db.finish_locks(id, &touched.remove(&id).unwrap_or_default(), false, None);
        close(registry, &mut trees, id);
    }
    // Every entry is idle now; an optimistic database keeps none.
    if db.config.cc_mode == CcMode::Optimistic {
        for shard in db.shards.iter() {
            shard.lock().objects = HashMap::new();
        }
    }
    Ok(recovered)
}
