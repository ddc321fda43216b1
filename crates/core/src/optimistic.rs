//! Optimistic first-committer-wins concurrency control
//! ([`CcMode::Optimistic`]): per-transaction snapshots and private
//! buffers, lock-free reads and scans, commit-time validation, and the
//! optimistic publication and loser sequences.
//!
//! [`CcMode::Optimistic`]: crate::CcMode::Optimistic

use crate::audit::{hash_value, AuditRecord};
use crate::commit_pipeline::StagedCommit;
use crate::db::{map_reg_err, DbInner, Txn, WriteSet};
use crate::error::TxnError;
use crate::registry::TxnId;
use parking_lot::Mutex;
use rnt_model::UpdateFn;
use rnt_mvcc::PublishGate;
use std::collections::{BTreeMap, HashSet};
use std::hash::Hash;
use std::ops::{Bound, RangeBounds};
use std::sync::Arc;

/// A scanned interval, owned: the bounds of one
/// [`ReadView::range`](crate::ReadView::range) call.
type KeyRange<K> = (Bound<K>, Bound<K>);

/// One top-level commit on its way through the publication sequence:
/// what the group-commit sequencer queues for its leader, and what an
/// unstaged commit retires itself as, in a batch of one.
type Participant<K, V> = StagedCommit<OptFootprint<K, V>>;

/// Per-transaction optimistic-mode context: the begin snapshot plus the
/// private buffers that replace lock-table state.
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
pub(crate) struct OptCtx<K, V> {
    /// Snapshot epoch pinned by the top-level transaction at begin (the
    /// top owns the pin; children copy the value).
    pub(crate) begin_epoch: u64,
    /// The parent's context (`None` on the top-level transaction).
    pub(crate) parent: Option<Arc<OptCtx<K, V>>>,
    /// Private write buffer, newest value per key. A `BTreeMap` so the
    /// commit publishes (and logs) in deterministic key order, and so
    /// a scan can overlay the buffered writes inside its bounds.
    writes: Mutex<BTreeMap<K, V>>,
    /// Keys read from the snapshot — the rw-antidependency half of the
    /// validation footprint. Buffered-write hits don't enter: they
    /// depend on this tree, not on the snapshot.
    reads: Mutex<HashSet<K>>,
    /// Intervals scanned from the snapshot, validated as intervals: one
    /// entry per range call, however many rows it returned. An interval
    /// stands for every key inside it — a superset of the keys the scan
    /// returned, so it can only add conflicts.
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
    pub(crate) fn new(begin_epoch: u64, parent: Option<Arc<OptCtx<K, V>>>) -> Self {
        OptCtx {
            begin_epoch,
            parent,
            writes: Mutex::new(BTreeMap::new()),
            reads: Mutex::new(HashSet::new()),
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

    /// Move the buffers out — a top-level commit's footprint, or a nested
    /// one's on its way to the parent (moves only: nothing is allocated or
    /// cloned).
    pub(crate) fn take_footprint(&self) -> OptFootprint<K, V> {
        OptFootprint {
            begin_epoch: self.begin_epoch,
            writes: std::mem::take(&mut *self.writes.lock()),
            reads: std::mem::take(&mut *self.reads.lock()),
            ranges: std::mem::take(&mut *self.ranges.lock()),
            audit: std::mem::take(&mut *self.audit_buf.lock()),
        }
    }

    /// Merge a committed child's footprint into this context's buffers
    /// (the child's writes are newer, so they win).
    pub(crate) fn absorb(&self, mut child: OptFootprint<K, V>) {
        self.writes.lock().append(&mut child.writes);
        self.reads.lock().extend(child.reads);
        self.ranges.lock().append(&mut child.ranges);
        self.audit_buf.lock().append(&mut child.audit);
    }
}

/// Everything an optimistic top-level commit brings to validation and
/// publication: the merged buffers of its whole tree.
pub(crate) struct OptFootprint<K, V> {
    /// The pinned begin snapshot.
    begin_epoch: u64,
    /// The buffered write set (key order, for deterministic logs).
    writes: BTreeMap<K, V>,
    /// The snapshot read set: keys…
    reads: HashSet<K>,
    /// …and scanned intervals.
    ranges: Vec<KeyRange<K>>,
    /// The buffered audit Access records.
    audit: Vec<AuditRecord>,
}

impl<K, V> OptFootprint<K, V> {
    /// The newest epoch anywhere in the footprint — written keys, read keys
    /// and scanned intervals, each interval judged as a whole — by a
    /// key's epoch and an interval's newest.
    fn newest(
        &self,
        key: impl Fn(&K) -> Option<u64>,
        span: impl Fn((Bound<&K>, Bound<&K>)) -> Option<u64>,
    ) -> Option<u64> {
        let keys = self.writes.keys().chain(&self.reads).filter_map(key);
        keys.chain(self.ranges.iter().filter_map(|(lo, hi)| span((lo.as_ref(), hi.as_ref())))).max()
    }
}

impl<K, V> DbInner<K, V>
where
    K: Eq + Hash + Ord + Clone + Send + Sync + 'static,
    V: Clone + Hash + Send + Sync + 'static,
{
    /// Retire optimistic commits — a group-commit leader's drained batch,
    /// or an unstaged commit as a batch of one — returning each
    /// participant's verdict in batch order.
    ///
    /// Validation is two-phase (Kung–Robinson). Phase 1 runs *before* the
    /// gate, against a pre-read watermark: every commit fully published by
    /// then is visible to it, so the O(footprint) walk happens outside the
    /// publish critical section, and the losers it finds never touch the
    /// gate. The gate is taken only if some participant survived. Under
    /// it, phase 2 re-checks each survivor from `pre_watermark` — only if
    /// the watermark moved in between — and against the write sets of
    /// earlier in-batch survivors (an ordered overlay, so an interval can
    /// be probed): exactly what it would have observed had the batch
    /// committed one by one. A commit racing phase 1 either finished first
    /// (phase 2 catches it via the `> pre_watermark` floor) or is
    /// mid-publish holding the gate (its appends may be visible early, but
    /// it can no longer fail — aborting on it is ordinary first-committer
    /// loss).
    ///
    /// Losers then run the loser sequence and survivors the publication
    /// sequence (a contiguous epoch run; no epoch is burned on a loser).
    /// Every participant's registry state flips here, while a staged
    /// participant's own thread is parked, so by the time a verdict is
    /// returned the transaction is finished either way.
    pub(crate) fn process_optimistic_batch(
        &self,
        mut batch: Vec<Participant<K, V>>,
    ) -> Vec<Result<(), TxnError>> {
        let pre_watermark = self.mvcc.watermark();
        let phase1: Vec<Option<u64>> =
            batch.iter().map(|p| self.opt_conflict(&p.payload, p.payload.begin_epoch)).collect();
        let gate = phase1.contains(&None).then(|| self.mvcc.begin_publish_gate());
        // `pre_watermark ≥ begin_epoch` (a begin pin is at or below any
        // later watermark read), so the tighter floor loses no conflicts.
        let moved = gate.is_some() && self.mvcc.watermark() != pre_watermark;
        // A survivor's epoch is the gate's next one plus the number of
        // earlier survivors; its write set joins the in-batch overlay
        // later participants must also validate against.
        let mut epoch = gate.as_ref().map_or(0, PublishGate::next_epoch);
        let mut batch_writes: BTreeMap<K, u64> = BTreeMap::new();
        let n = batch.len();
        let mut verdicts = Vec::with_capacity(n);
        for (i, (staged, mut newest)) in batch.iter().zip(phase1).enumerate() {
            let footprint = &staged.payload;
            if newest.is_none() {
                if moved {
                    newest = self.opt_conflict(footprint, pre_watermark);
                }
                // Every in-batch epoch is above the watermark, hence above
                // any participant's begin epoch: a hit is a conflict.
                newest = newest.max(footprint.newest(
                    |k| batch_writes.get(k).copied(),
                    |span| batch_writes.range(span).map(|(_, &e)| e).max(),
                ));
            }
            // A clean footprint makes the commit final: the registry state
            // flips under the gate, so no later observation can see a
            // validated participant still active.
            let verdict = match newest {
                Some(committed_epoch) => {
                    Err(TxnError::Conflict { begin_epoch: footprint.begin_epoch, committed_epoch })
                }
                None => self.registry.commit(staged.txn).map_err(map_reg_err),
            };
            if verdict.is_ok() {
                // The last participant's writes have nobody left to
                // validate against them.
                for key in footprint.writes.keys().filter(|_| i + 1 < n) {
                    batch_writes.insert(key.clone(), epoch);
                }
                epoch += 1;
            }
            verdicts.push(verdict);
        }
        self.abort_optimistic(&batch, &verdicts);
        let mut fates = verdicts.iter();
        batch.retain(|_| fates.next().is_some_and(Result::is_ok));
        if let Some(gate) = gate.filter(|_| !batch.is_empty()) {
            if let Err(e) = self.publish_optimistic(gate, &mut batch) {
                for verdict in verdicts.iter_mut().filter(|v| v.is_ok()) {
                    *verdict = Err(e.clone());
                }
            }
        }
        verdicts
    }

    /// Retire one finished optimistic top-level commit: staged if
    /// [`stages`](DbInner::stages), else as a batch of one. A footprint
    /// already overtaken at its begin epoch loses before it could queue —
    /// with no epoch, and no wait behind a batch leader's force; the
    /// batch validates every survivor again. Such a loser still counts
    /// as staged, so `commits_staged == commits_batched` plus every
    /// staged loser.
    pub(crate) fn commit_optimistic(
        &self,
        txn: TxnId,
        footprint: OptFootprint<K, V>,
    ) -> Result<(), TxnError> {
        let stages = self.stages();
        if stages && self.opt_conflict(&footprint, footprint.begin_epoch).is_none() {
            return self.stage(txn, footprint);
        }
        if stages {
            self.stats.bump(|b| &b.commits_staged);
        }
        let commit = StagedCommit { txn, payload: footprint };
        self.process_optimistic_batch(vec![commit]).pop().expect("one verdict")
    }

    /// The optimistic loser sequence, for every participant whose verdict
    /// is an error: audit `Abort`, registry transition, counters. Whoever
    /// validated runs it — a staged loser's own thread is parked, so
    /// someone must finish it.
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
    /// append one commit frame carrying every survivor's buffered writes
    /// and force it with a single fsync, then publish each write set at
    /// its epoch. The gate becomes the publication ticket: the watermark
    /// passes the whole run when it drops, WAL-logged before it moves.
    /// Returns the durability verdict every survivor reports.
    fn publish_optimistic(
        &self,
        gate: PublishGate<'_>,
        survivors: &mut [Participant<K, V>],
    ) -> Result<(), TxnError> {
        let wal = self.wal.get();
        let mut writes: Vec<WriteSet> = Vec::new();
        for p in survivors.iter_mut() {
            let id = p.txn;
            let footprint = &mut p.payload;
            if let Some(audit) = &self.audit {
                for record in footprint.audit.drain(..) {
                    audit.log.push(record);
                }
            }
            self.audit_record(|reg| AuditRecord::Commit { path: reg.path(id).expect("known") });
            if let Some(w) = wal {
                writes.push(footprint.writes.iter().map(|(k, v)| w.encode(k, v)).collect());
            }
        }
        let publish = gate.into_batch(survivors.len());
        let (first, last) = (publish.epoch(), publish.last_epoch());
        self.log_commit_frame(first, survivors.iter().map(|p| p.txn).zip(writes));
        self.force_log(first, last);
        // The chain is the only home of an optimistic commit: there is no
        // lock table to update and no lock waiter to wake, so publication
        // is publish → store, no shard in between.
        for (i, p) in survivors.iter().enumerate() {
            for (key, value) in &p.payload.writes {
                self.mvcc.append(key, publish.epoch_of(i), value.clone());
            }
        }
        let durable = self.wal_verdict(last);
        drop(publish);
        durable
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
        let view = self.registry.read_view();
        if let Some(record) = self.access_record(&view, t, key, || (update, seen)) {
            opt.audit_buf.lock().push(record);
        }
    }

    /// First-committer-wins validation: the newest committed epoch above
    /// `floor` anywhere in the footprint, or `None` if it is clean.
    fn opt_conflict(&self, footprint: &OptFootprint<K, V>, floor: u64) -> Option<u64> {
        let newest = footprint.newest(|k| self.mvcc.last_epoch(k), |s| self.mvcc.max_epoch_in(s));
        newest.filter(|&e| e > floor)
    }
}

impl<K, V> Txn<K, V>
where
    K: Eq + Hash + Ord + Clone + Send + Sync + 'static,
    V: Clone + Hash + Send + Sync + 'static,
{
    /// The value an optimistic access sees: the nearest buffered write in
    /// this tree (no snapshot dependency), else the pinned snapshot's —
    /// and then the key joins the read set for validation.
    fn opt_lookup(&self, key: &K, opt: &OptCtx<K, V>) -> Result<V, TxnError> {
        let inner = &self.inner;
        inner.access_preamble(self.id, opt.parent.is_none(), inner.shard_of(key))?;
        if let Some(v) = opt.buffered(key) {
            return Ok(v);
        }
        // An absent key in a dead transaction is orphanhood, not absence:
        // a racing ancestor abort may have unpinned our snapshot and let
        // GC compact the chain mid-read.
        let v = inner.mvcc.read_at(key, opt.begin_epoch).ok_or_else(|| {
            if inner.registry.read_view().is_dead(self.id) {
                TxnError::Orphaned
            } else {
                TxnError::UnknownKey
            }
        })?;
        // One hash, first contact or not: a re-read pays a key clone
        // instead of a second lookup.
        opt.reads.lock().insert(key.clone());
        Ok(v)
    }

    /// Optimistic read: an audited access whether it hit the buffers or
    /// the snapshot (mirroring a locked read of an own-held version).
    pub(crate) fn opt_read(&self, key: &K, opt: &OptCtx<K, V>) -> Result<V, TxnError> {
        let v = self.opt_lookup(key, opt)?;
        self.inner.opt_buffer_access(opt, self.id, key, UpdateFn::Read, hash_value(&v));
        Ok(v)
    }

    /// Optimistic read-modify-write: `f` over the overlaid view, result
    /// into the private write buffer.
    pub(crate) fn opt_rmw(
        &self,
        key: &K,
        f: impl Fn(&V) -> V,
        opt: &OptCtx<K, V>,
    ) -> Result<V, TxnError> {
        let inner = &self.inner;
        let seen = self.opt_lookup(key, opt)?;
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
    pub(crate) fn opt_range<R: RangeBounds<K>>(
        &self,
        bounds: R,
        opt: &OptCtx<K, V>,
    ) -> Result<Vec<(K, V)>, TxnError> {
        let inner = &self.inner;
        let is_top = opt.parent.is_none();
        // A scan crosses every lock-table shard; the injector is told 0.
        inner.access_preamble(self.id, is_top, 0)?;
        let mut rows =
            inner.mvcc.range_at((bounds.start_bound(), bounds.end_bound()), opt.begin_epoch);
        let bounds = (bounds.start_bound().cloned(), bounds.end_bound().cloned());
        opt.overlay(&bounds, &mut rows);
        // A racing ancestor abort may have unpinned the snapshot and let
        // GC compact chains mid-walk: a dead transaction reports
        // orphanhood, not a short scan (cf. `opt_lookup`).
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
}

#[cfg(test)]
mod tests {
    use crate::{CcMode, Db, DbConfig, Durability, TxnError};
    use std::sync::Arc;

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
        // Staged: an optimistic commit forcing under the gate.
        let config = DbConfig::builder()
            .cc_mode(CcMode::Optimistic)
            .durability(Durability::WalFsync)
            .build();
        let vfs = Arc::new(rnt_wal::MemVfs::new());
        let db: Db<u64, i64> = Db::open_with_vfs(vfs, "group.wal", config).unwrap();
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
