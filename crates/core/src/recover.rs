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
//! * each commit frame, **in log order** (which the engine makes epoch
//!   order), appends its write set at its epoch and advances the
//!   watermark; an epoch at or below the watermark, or a write to an
//!   unseeded key, is an error;
//! * there is no registry to rebuild and nothing to abort: a tree that
//!   aborted, or was in flight at the crash, left no bytes in the log —
//!   that absence *is* its abort — and a recovered registry starts empty;
//! * recovery ends with a checkpoint rewrite, so a recovered log never
//!   replays a stale suffix.
//!
//! A checkpoint of a live log takes no lock that a seed or commit takes,
//! save the log mutex for its rewrite: its image is the committed state
//! at a pinned watermark, walked with no lock held, and the rewrite keeps
//! every logged record the image lacks. Appends — and the publications
//! that append under the publish gate — wait for that rewrite, whose
//! length grows with the image and the records kept, not with the file.
//!
//! Torn tails (see [`rnt_wal::scan`]) are the expected crash artifact and
//! are silently discarded; corruption anywhere earlier is a typed
//! [`WalError`] — a recovered database is never built on a log whose
//! middle is unreadable.

use crate::db::{Db, DbConfig, DbInner, Durability, WriteSet};
use crate::lock::LockState;
use rnt_mvcc::GENESIS_EPOCH;
use rnt_wal::{scan, Record, StdVfs, Vfs, Wal, WalCodec, WalError, INIT_ACTION};
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
    /// Rewrite the log as `Checkpoint { W, image }` followed by the
    /// records the image does not cover, so recovery cost is bounded by
    /// the image plus the traffic after it instead of the whole history.
    /// With `read_back` the kept records come from the file itself
    /// ([`Db::checkpoint`]); without, there are none (recovery, whose
    /// replay applied every intact record).
    ///
    /// W is a pinned watermark, and the image is each key's newest version
    /// at or below it, walked with no engine lock held: every commit with
    /// an epoch ≤ W is published, and versions at or below a pin are
    /// immutable. The file is read back in two parts: what it holds now,
    /// with no lock held — appends only extend it, and only a checkpoint
    /// replaces it — and, under the log mutex every append takes, what
    /// was appended since, which must parse to the end (a healthy log
    /// has no torn tail). The previous image, which this one replaces, is
    /// CRC-checked but not decoded. Under that mutex, in log order, every commit
    /// frame above W is kept — runs are reserved and published whole, so
    /// no frame straddles W — and every seed of a key the walk did not
    /// see, and the file is rewritten. Appends, and so publications, wait
    /// for that rewrite. A force in flight covers a frame that is durable
    /// in the old file (the replace is atomic) or copied into the new one,
    /// which `rewrite` fsyncs before it returns. Checkpoints serialize on
    /// their own mutex (`WalState::checkpoint`), so none rewrites over a
    /// newer image than its own, or replaces the file under another's
    /// read-back.
    pub(crate) fn do_checkpoint(&self, read_back: bool) -> Result<(), WalError> {
        let Some(w) = self.wal.get() else { return Ok(()) };
        let _serial = w.checkpoint.lock();
        let watermark = self.mvcc.pin();
        // Each entry carries its version's epoch, so recovery rebuilds
        // chains identical to the pre-crash store (not merely value-equal).
        let mut image = Vec::new();
        self.mvcc.for_each_at(watermark, |key, epoch, value| {
            let (kb, vb) = w.encode(key, value);
            image.push((kb, epoch, vb));
        });
        self.mvcc.unpin(watermark);
        image.sort();
        let (mut records, mut log) =
            if read_back { w.force.read_back(|| w.log.lock())? } else { (vec![], w.log.lock()) };
        if let Some(detail) = w.failure() {
            return Err(WalError::Io { op: "checkpoint", detail });
        }
        records.retain(|record| match record {
            Record::Commit { epoch, .. } => *epoch > watermark,
            Record::Write { key, .. } => image.binary_search_by(|(kb, ..)| kb.cmp(key)).is_err(),
            Record::Checkpoint { .. } => false,
        });
        records.insert(0, Record::Checkpoint { epoch: watermark, snapshot: image });
        log.rewrite(&records).inspect_err(|e| w.mark_broken(0, e))
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
            db.inner.do_checkpoint(false)?;
        }
        Ok(db)
    }
}

/// Redo the commit of record `i` on the replaying `db`: append each
/// written version to its key's chain at the commit's epoch — and, in a
/// locking database, make it the lock entry's base — then advance the
/// watermark.
///
/// The epoch must land strictly above the current watermark. The engine
/// allocates epochs as `watermark + 1` under the publish mutex and logs
/// the commit frame while holding it, so any log claiming an epoch at or
/// below the watermark carries an epoch that was never durably allocated
/// — trusting it would replay a commit the pre-crash store never
/// published (or publish two commits at one epoch).
fn redo<K, V>(
    db: &DbInner<K, V>,
    i: usize,
    action: u64,
    epoch: u64,
    writes: &WriteSet,
) -> Result<(), WalError>
where
    K: Eq + Hash + Ord + Clone + Send + Sync + WalCodec + 'static,
    V: Clone + Hash + Send + Sync + WalCodec + 'static,
{
    let watermark = db.mvcc.watermark();
    if epoch <= watermark {
        return Err(replay_err(format!(
            "record {i}: commit epoch {epoch} of action {action} not above watermark \
             {watermark} — epoch never durably allocated"
        )));
    }
    for (kb, vb) in writes {
        let key = K::decode(kb).ok_or_else(|| replay_err("undecodable key"))?;
        let value = V::decode(vb).ok_or_else(|| replay_err("undecodable version"))?;
        let mut guard = db.shards[db.shard_of(&key)].lock();
        // A locking database's entry keeps the chain's id; an optimistic
        // one has no entry and finds the chain in one descent.
        let chain = match guard.objects.get_mut(&key) {
            Some(state) => {
                let chain = state.chain().expect("a seeded entry is on its chain");
                *state = LockState::on_chain(value.clone(), chain);
                Some(chain)
            }
            None => db.mvcc.locate(&key),
        };
        let Some(chain) = chain else {
            return Err(replay_err(format!("record {i}: action {action} writes an unseeded key")));
        };
        db.mvcc.append_at(chain, epoch, value);
    }
    db.mvcc.advance_watermark(epoch);
    Ok(())
}

/// Replay `records` into the (fresh, log-less) `db`. Returns the number of
/// commits replayed.
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
            Record::Commit { action, epoch, writes } => {
                redo(db, i, *action, *epoch, writes)?;
                recovered += 1;
            }
        }
    }
    Ok(recovered)
}
