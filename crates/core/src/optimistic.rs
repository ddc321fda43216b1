//! Optimistic first-committer-wins concurrency control
//! ([`CcMode::Optimistic`]): per-transaction snapshots and private
//! buffers, lock-free reads and scans, commit-time validation, and the
//! optimistic sequencing and loser sequences.
//!
//! [`CcMode::Optimistic`]: crate::CcMode::Optimistic

use crate::audit::{hash_value, AuditRecord};
use crate::db::{map_reg_err, DbInner, Effects, Run, Txn};
use crate::error::TxnError;
use crate::registry::TxnId;
use parking_lot::Mutex;
use rnt_model::UpdateFn;
use std::collections::{BTreeMap, HashSet};
use std::hash::Hash;
use std::ops::{Bound, RangeBounds};
use std::sync::Arc;

/// A scanned interval, owned: the bounds of one
/// [`ReadView::range`](crate::ReadView::range) call.
type KeyRange<K> = (Bound<K>, Bound<K>);

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
    /// Commit one finished optimistic top-level transaction: validate its
    /// footprint and, if it is clean, sequence it into a run that
    /// [`DbInner::publish`] forces and publishes; otherwise run the loser
    /// sequence — audit `Abort`, registry transition, counters, the begin
    /// pin released.
    ///
    /// A loser overtaken by a run that is still forcing (its
    /// `committed_epoch` above the watermark) returns only once that run
    /// is published, waiting outside the gate: a caller that retries at
    /// once then pins a snapshot that already holds the winner's write,
    /// instead of losing to it again.
    pub(crate) fn commit_optimistic(
        &self,
        txn: TxnId,
        footprint: OptFootprint<K, V>,
    ) -> Result<(), TxnError> {
        let pin = footprint.begin_epoch;
        let failure = match self.sequence_optimistic(txn, footprint) {
            Ok(run) => return self.publish(run),
            Err(failure) => failure,
        };
        self.abort_action(txn);
        self.stats.bump(|b| &b.aborted);
        self.mvcc.unpin(pin);
        if let TxnError::Conflict { committed_epoch, .. } = failure {
            self.stats.bump(|b| &b.occ_conflicts);
            self.mvcc.wait_published(committed_epoch);
        }
        Err(failure)
    }

    /// The serialized half of the optimistic publication sequence:
    /// validate, then, in the gate hold that validated, commit in the
    /// registry, flush the audit records, reserve the epoch and append
    /// the commit frame. Returns the run, or the verdict of a loser.
    ///
    /// Validation is two-phase (Kung–Robinson). Phase 1 runs *before* the
    /// gate, against a pre-read watermark: every run published by then is
    /// in the chains, so the O(footprint) walk happens outside the
    /// publish critical section, and the losers it finds never touch the
    /// gate. Phase 2, under it, checks what phase 1 could not see: the
    /// chains from `pre_watermark` — only if the watermark moved in
    /// between — and the in-flight table, which holds the write set of
    /// every run that reserved its epoch but has not published (it may
    /// still be forcing). Under the gate every run is in exactly one of
    /// the two: a run leaves the table in the same hold that appends its
    /// versions. An in-flight epoch is above the watermark, hence above
    /// any begin epoch, so a hit is a conflict.
    ///
    /// A run that releases the lock before it publishes — to force, or
    /// because an earlier epoch is still unpublished and it parks for its
    /// turn — enters the table first. One with nothing to force and
    /// nothing reserved ahead (no log, `Wal`, or a log already lost)
    /// publishes in this same hold, and skips it.
    fn sequence_optimistic(
        &self,
        txn: TxnId,
        footprint: OptFootprint<K, V>,
    ) -> Result<Run<'_, K, V>, TxnError> {
        let begin_epoch = footprint.begin_epoch;
        let lost = |committed_epoch| TxnError::Conflict { begin_epoch, committed_epoch };
        let pre_watermark = self.mvcc.watermark();
        if let Some(newest) = self.opt_conflict(&footprint, begin_epoch) {
            return Err(lost(newest));
        }
        let gate = self.mvcc.begin_publish_gate();
        // `pre_watermark ≥ begin_epoch` (a begin pin is at or below any
        // later watermark read), so the tighter floor loses no conflicts.
        let mut newest = None;
        if self.mvcc.watermark() != pre_watermark {
            newest = self.opt_conflict(&footprint, pre_watermark);
        }
        let table = self.in_flight.lock();
        if !table.is_empty() {
            newest = newest.max(footprint.newest(
                |k| table.get(k).copied(),
                |span| table.range(span).map(|(_, &e)| e).max(),
            ));
        }
        drop(table);
        if let Some(newest) = newest {
            return Err(lost(newest));
        }
        // A clean footprint makes the commit final: the registry state
        // flips under the gate, so no later observation can see a
        // validated transaction still active.
        self.registry.commit(txn).map_err(map_reg_err)?;
        let reservation = gate.reserve();
        let epoch = reservation.epoch();
        let forces = self.must_force(epoch);
        let in_flight = forces || epoch != self.mvcc.watermark() + 1;
        let OptFootprint { writes, audit, .. } = footprint;
        let effects = Effects::Writes { writes, in_flight, pin: begin_epoch };
        let mut run =
            Run { inner: self, txn, effects: Some(effects), reservation: Some(reservation) };
        let Some(Effects::Writes { writes, .. }) = &run.effects else {
            unreachable!("built above")
        };
        // Flushed under the gate, so audit data order = commit (= epoch)
        // order, the Theorem-9 reconstruction invariant.
        if let Some(log) = &self.audit {
            for record in audit {
                log.log.push(record);
            }
        }
        self.audit_record(|reg| AuditRecord::Commit { path: reg.path(txn).expect("known") });
        if let Some(w) = self.wal.get() {
            let set = writes.iter().map(|(k, v)| w.encode(k, v)).collect();
            self.log_commit_frame(epoch, txn, set);
        }
        if in_flight {
            let mut table = self.in_flight.lock();
            for key in writes.keys() {
                table.insert(key.clone(), epoch);
            }
        }
        if forces {
            run.reservation.as_mut().expect("reserved above").leave_gate();
        }
        Ok(run)
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
    fn optimistic_forced_commits_validate_under_contention() {
        // Forced: every commit's run leaves the gate to force, so runs
        // validate against each other through the in-flight table.
        let config = DbConfig::builder()
            .cc_mode(CcMode::Optimistic)
            .durability(Durability::WalFsync)
            .build();
        let vfs = Arc::new(rnt_wal::MemVfs::new());
        let db: Db<u64, i64> = Db::open_with_vfs(vfs, "forced.wal", config).unwrap();
        for k in 0..64 {
            db.insert(k, 0);
        }
        let threads: Vec<_> = (0..8)
            .map(|i| {
                let db = db.clone();
                std::thread::spawn(move || {
                    for j in 0..50u64 {
                        // Disjoint per-thread keys (0..56) plus a shared
                        // hot key, so runs in flight mix winners and losers.
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
        assert_eq!(s.wal_fsyncs, s.committed, "one force per commit");
        assert_eq!(s.wal_appends, 64 + s.committed, "one frame per commit");
        assert_eq!(s.snapshot_pins_live, 0);
        assert!(db.inner.in_flight.lock().is_empty(), "every run left the in-flight table");
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
