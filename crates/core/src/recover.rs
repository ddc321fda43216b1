//! Crash recovery: replay a write-ahead log into a fresh [`Db`] — and the
//! checkpoint writer whose `Checkpoint` record replay starts from.
//!
//! The log is redo-at-commit (see [`rnt_wal`]), so replay applies commits
//! and nothing else. It rebuilds the committed chains and, in a locking
//! database, the lock table's bases, so that `perm(T)` — the set of
//! effects the paper's Lemma 7 calls permanent — is identical before and
//! after the crash:
//!
//! * the checkpoint and the `INIT_ACTION` writes seed keys;
//! * each commit entry, **in log order** (which the engine makes epoch
//!   order), appends its write set at its epoch and advances the
//!   watermark; an epoch at or below the watermark, or a write to an
//!   unseeded key, is an error;
//! * there is no registry to rebuild and nothing to abort: a tree that
//!   aborted, or was in flight at the crash, left no bytes in the log —
//!   that absence *is* its abort — and a recovered registry starts empty;
//! * recovery ends with a checkpoint rewrite, so a recovered log never
//!   replays a stale suffix.
//!
//! Torn tails (see [`rnt_wal::scan`]) are the expected crash artifact and
//! are silently discarded; corruption anywhere earlier is a typed
//! [`WalError`] — a recovered database is never built on a log whose
//! middle is unreadable.

use crate::db::{Db, DbConfig, DbInner, Durability};
use crate::lock::LockState;
use rnt_mvcc::GENESIS_EPOCH;
use rnt_wal::{scan, CommitEntry, Record, StdVfs, Vfs, Wal, WalCodec, WalError, INIT_ACTION};
use std::hash::Hash;
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
    /// Rewrite the log as one `Checkpoint { chain heads }`, so recovery
    /// cost is bounded by the snapshot plus post-checkpoint traffic
    /// instead of the whole history.
    ///
    /// The exclusive latch alone orders the checkpoint against everything
    /// that appends: a seed, and a top-level commit from before its frame
    /// is logged until its versions are in the chains, hold it shared. So
    /// the heads read here include every logged effect, and no record the
    /// rewrite drops is missing from them. No shard is frozen and nothing
    /// is reaped or re-logged: a transaction in flight has no bytes in
    /// the log to keep, and its commit frame, when it comes, is
    /// self-contained.
    pub(crate) fn do_checkpoint(&self) -> Result<(), WalError> {
        let Some(w) = self.wal.get() else { return Ok(()) };
        if let Some(detail) = w.failure() {
            return Err(WalError::Io { op: "checkpoint", detail });
        }
        let _latch = self.ckpt.write();
        // The committed state is the chain heads. Each entry carries its
        // head's epoch so recovery rebuilds chains identical to the
        // pre-crash store (not merely value-equal).
        let mut snapshot = Vec::new();
        self.mvcc.for_each_head(|key, epoch, value| {
            let (kb, vb) = w.encode(key, value);
            snapshot.push((kb, epoch, vb));
        });
        snapshot.sort();
        let checkpoint = Record::Checkpoint { epoch: self.mvcc.watermark(), snapshot };
        w.log.lock().rewrite(&[checkpoint]).inspect_err(|e| w.mark_broken(0, e))
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
    /// intact record, checkpoint the log, and continue appending to it.
    /// Transactions in flight at the crash are simply absent. A missing
    /// file is an empty database (first boot).
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
        db.inner.stats.add(|b| &b.recovered_commits, recovered);
        db.audit_register_all();
        if config.durability != Durability::None {
            let log = Wal::open(vfs, path)?;
            db.install_wal(log, encode_of::<K>, encode_of::<V>)?;
            // Drop the replayed history and any torn tail from the file:
            // the recovered log is born as one checkpoint.
            db.inner.do_checkpoint()?;
        }
        Ok(db)
    }
}

/// Redo one commit entry of record `i` on the replaying `db`: append each
/// written version to its key's chain at the entry's epoch — and, in a
/// locking database, make it the lock entry's base — then advance the
/// watermark.
///
/// The epoch must land strictly above the current watermark. The engine
/// allocates epochs as `watermark + 1` under the publish mutex and logs
/// the commit frame while holding it, so any log claiming an epoch at or
/// below the watermark carries an epoch that was never durably allocated
/// — trusting it would replay a commit the pre-crash store never
/// published (or publish two commits at one epoch).
fn redo<K, V>(db: &DbInner<K, V>, i: usize, commit: &CommitEntry) -> Result<(), WalError>
where
    K: Eq + Hash + Ord + Clone + Send + Sync + WalCodec + 'static,
    V: Clone + Hash + Send + Sync + WalCodec + 'static,
{
    let (action, epoch) = (commit.action, commit.epoch);
    let watermark = db.mvcc.watermark();
    if epoch <= watermark {
        return Err(replay_err(format!(
            "record {i}: commit epoch {epoch} of action {action} not above watermark \
             {watermark} — epoch never durably allocated"
        )));
    }
    for (kb, vb) in &commit.writes {
        let key = K::decode(kb).ok_or_else(|| replay_err("undecodable key"))?;
        let value = V::decode(vb).ok_or_else(|| replay_err("undecodable version"))?;
        let mut guard = db.shards[db.shard_of(&key)].lock();
        if db.mvcc.last_epoch(&key).is_none() {
            return Err(replay_err(format!("record {i}: action {action} writes an unseeded key")));
        }
        if let Some(state) = guard.objects.get_mut(&key) {
            *state = LockState::new(value.clone());
        }
        db.mvcc.append(&key, epoch, value);
    }
    db.mvcc.advance_watermark(epoch);
    Ok(())
}

/// Replay `records` into the (fresh, log-less) `db`. Returns the number of
/// commit entries replayed.
fn replay<K, V>(db: &DbInner<K, V>, records: &[Record]) -> Result<u64, WalError>
where
    K: Eq + Hash + Ord + Clone + Send + Sync + WalCodec + 'static,
    V: Clone + Hash + Send + Sync + WalCodec + 'static,
{
    let mut recovered = 0u64;
    for (i, record) in records.iter().enumerate() {
        match record {
            Record::Checkpoint { epoch, snapshot } => {
                if i != 0 {
                    return Err(replay_err(format!("checkpoint at record {i}, not at log start")));
                }
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
            Record::Write { action, key, version } => {
                if *action != INIT_ACTION {
                    return Err(replay_err(format!(
                        "record {i}: write by action {action} outside a commit frame"
                    )));
                }
                let key = K::decode(key).ok_or_else(|| replay_err("undecodable init key"))?;
                let value =
                    V::decode(version).ok_or_else(|| replay_err("undecodable init value"))?;
                if !db.seed(key, value, GENESIS_EPOCH, |_, _| {}) {
                    return Err(replay_err("duplicate init for an existing key"));
                }
            }
            Record::Commit { commits } => {
                for commit in commits {
                    redo(db, i, commit)?;
                    recovered += 1;
                }
            }
        }
    }
    Ok(recovered)
}
