//! Moss's nested-transaction read/write locking ([`CcMode::Locking`]):
//! the sharded lock tables, the acquire loop with its deadlock policies,
//! lock release and inheritance, and the locking publication sequence.
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
//! [`Stats`](crate::Stats).
//!
//! [`CcMode::Locking`]: crate::CcMode::Locking

use crate::audit::{hash_value, AuditRecord};
use crate::config::DeadlockPolicy;
use crate::db::{DbInner, Effects, Run, Txn, WalState, WriteSet};
use crate::error::TxnError;
use crate::lock::{Conflict, LockEnv, LockState};
use crate::registry::{Registry, RegistryView, TxnId};
use parking_lot::{Condvar, Mutex, MutexGuard};
use rnt_model::UpdateFn;
use std::collections::{HashMap, HashSet};
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The engine's one fallback re-check bound for a parked thread: a
/// [`DeadlockPolicy::WaitDie`] or [`DeadlockPolicy::Detect`] lock waiter.
/// Notifications drive progress; the bound only caps how long a lost
/// race could cost before the thread re-runs its check unprompted. A
/// [`DeadlockPolicy::Timeout`] waiter sleeps to its deadline instead.
const WAIT_SLICE: Duration = Duration::from_millis(2);

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
/// wait gates of keys someone is currently blocked on. An idle key is
/// `(key, base)`; an optimistic database keeps no entries at all.
pub(crate) struct ShardState<K, V> {
    pub(crate) objects: HashMap<K, LockState<V>>,
    gates: HashMap<K, Arc<KeyGate>>,
}

impl<K, V> ShardState<K, V> {
    pub(crate) fn new() -> Self {
        ShardState { objects: HashMap::new(), gates: HashMap::new() }
    }
}

/// A parked lock waiter, registered so aborts can wake transactions that
/// just became orphans (their awaited key's state never changes, so the
/// per-key gate alone would leave them sleeping a full [`WAIT_SLICE`],
/// or to their deadline).
pub(crate) struct WaitEntry {
    txn: TxnId,
    shard: usize,
    gate: Arc<KeyGate>,
}

impl LockEnv for Registry {
    fn is_ancestor(&self, a: TxnId, b: TxnId) -> bool {
        Registry::is_ancestor(self, a, b)
    }
    fn is_dead(&self, t: TxnId) -> bool {
        Registry::is_dead(self, t)
    }
}

/// Chaos-harness lock-table hooks (compiled only with `chaos-hooks`):
/// additive observers/perturbers, neither needed for nor changing normal
/// operation.
#[cfg(feature = "chaos-hooks")]
impl<K, V> crate::Db<K, V>
where
    K: Eq + Hash + Ord + Clone + Send + Sync + std::fmt::Debug + 'static,
    V: Clone + Hash + Send + Sync + 'static,
{
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
    /// (see [`LockState::chaos_check`]), and that an optimistic database
    /// has no lock-table entry at all; additionally, when no transaction
    /// is active, no lock may be held (all versions either published to
    /// base or restored) and every tree must be retired
    /// (`txns_resident == 0`). The version store's layout, and that no
    /// live snapshot pin sits below its retained floor, are checked too
    /// ([`Db::layout_violations`](crate::Db::layout_violations)).
    /// Returns human-readable violations, sorted; empty means all
    /// invariants hold. Call
    /// [`Db::chaos_reap_all`](crate::Db::chaos_reap_all) first so
    /// lazily-reapable dead holders are not reported.
    pub fn chaos_lock_violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        let quiescent = self.inner.registry.chaos_active().is_empty();
        let optimistic = self.inner.config.cc_mode == crate::CcMode::Optimistic;
        let resident = self.inner.registry.resident();
        if quiescent && resident != 0 {
            out.push(format!("{resident} transactions resident at quiescence"));
        }
        for shard in self.inner.shards.iter() {
            let guard = shard.lock();
            let view = self.inner.registry.read_view();
            for (key, state) in guard.objects.iter() {
                if optimistic {
                    out.push(format!("{key:?}: lock-table entry in an optimistic database"));
                }
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
        out.extend(self.layout_violations());
        out.sort();
        out
    }
}

impl<K, V> DbInner<K, V>
where
    K: Eq + Hash + Ord + Clone + Send + Sync + 'static,
    V: Clone + Hash + Send + Sync + 'static,
{
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
        // Only a `Timeout` policy reads the clock, from the first conflict.
        let mut start = None;
        let shard_idx = self.shard_of(key);
        let mut guard = self.shards[shard_idx].lock();
        loop {
            self.access_preamble(t, top_level, shard_idx)?;
            let view = self.registry.read_view();
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
                DeadlockPolicy::Timeout(timeout) => {
                    let elapsed = start.get_or_insert_with(Instant::now).elapsed();
                    if elapsed >= timeout {
                        self.stats.bump(|b| &b.timeouts);
                        return Err(TxnError::Timeout(timeout));
                    }
                    // Sleep to the deadline: a release or an orphaning
                    // abort notifies, so nothing needs an earlier re-check.
                    self.wait_for_key_change(&mut guard, shard_idx, key, t, timeout - elapsed)?;
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
                    self.wait_for_key_change(&mut guard, shard_idx, key, t, WAIT_SLICE)?;
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
                    let woke = self.wait_for_key_change(&mut guard, shard_idx, key, t, WAIT_SLICE);
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
        // Clone the key only when the key has no gate yet: a gate lives
        // while anyone waits on it (the last waiter out removes it,
        // below), so a conflict that re-waits finds its gate.
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

    /// Release/publish `t`'s locks on `keys`. For a committing top-level
    /// transaction, `publish_epoch` carries the commit epoch (the caller
    /// holds the MVCC publish lock): each key `t` wrote gains a version in
    /// its committed chain, appended under the same shard guard that
    /// publishes the base value — so per-key chain order equals lock-grant
    /// order — through the chain id the lock entry keeps, so the publish
    /// lock covers no map lock and no descent. Nested commits and all
    /// aborts pass `None`.
    pub(crate) fn finish_locks(
        &self,
        t: TxnId,
        keys: &HashSet<K>,
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
                        let chain = state.chain().expect("a seeded entry is on its chain");
                        self.mvcc.append_at(chain, epoch, state.base_value().clone());
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
    pub(crate) fn wake_orphaned_waiters(&self) {
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

    /// The serialized half of the locking publication sequence, for a
    /// top-level `txn` whose registry transition and audit `Commit` are
    /// done and whose locks on `keys` are still held: read its write set
    /// (only with a log attached), then, in one publish-gate hold, reserve
    /// its epoch and append its commit frame. [`DbInner::publish`] does
    /// the rest.
    ///
    /// The write set is read before the gate: it cannot change, because
    /// every key is still write-locked by its committer. Holding the gate
    /// from the reservation across the append makes commit-frame log
    /// order equal epoch order. A run with a force ahead of it leaves the
    /// gate here; one without (no log, no `WalFsync`, or a log already
    /// lost) keeps it and publishes in the same hold — nothing slow runs
    /// under it.
    ///
    /// The run's write set is disjoint from every unpublished run's
    /// (each still holds its write locks, and no committer is an
    /// ancestor of another), so chain appends never race on a key and
    /// per-key epoch order stays ascending. No lock moves before the
    /// force returned: once `finish_locks` runs at the turn, other
    /// threads can acquire those locks and commit on what they read.
    pub(crate) fn sequence_locking(&self, txn: TxnId, keys: HashSet<K>) -> Run<'_, K, V> {
        let mut run =
            Run { inner: self, txn, effects: Some(Effects::Locks(keys)), reservation: None };
        let Some(Effects::Locks(keys)) = &run.effects else { unreachable!("built above") };
        let writes = self.wal.get().map(|w| self.write_set(w, txn, keys));
        let reservation = run.reservation.insert(self.mvcc.reserve());
        if let Some(writes) = writes {
            self.log_commit_frame(reservation.epoch(), txn, writes);
        }
        if self.must_force(reservation.epoch()) {
            reservation.leave_gate();
        }
        run
    }

    /// What a committing top-level `t` changes in the committed state:
    /// its own entry on the write stack of every key in `keys` it holds a
    /// write lock on (own writes plus those inherited from committed
    /// children), read under each shard guard and encoded in key order —
    /// a deterministic frame, whatever the order of the hashed set.
    fn write_set(&self, w: &WalState<K, V>, t: TxnId, keys: &HashSet<K>) -> WriteSet {
        let mut keys: Vec<&K> = keys.iter().collect();
        keys.sort_unstable();
        keys.into_iter()
            .filter_map(|key| {
                let guard = self.shards[self.shard_of(key)].lock();
                let state = guard.objects.get(key)?;
                let (_, value) = state.write_entries().find(|&(h, _)| h == t)?;
                Some(w.encode(key, value))
            })
            .collect()
    }
}

/// Record `key` in a touched set, cloning only on first touch.
fn touch<K: Eq + Hash + Clone>(touched: &Mutex<HashSet<K>>, key: &K) {
    let mut touched = touched.lock();
    if !touched.contains(key) {
        touched.insert(key.clone());
    }
}

impl<K, V> Txn<K, V>
where
    K: Eq + Hash + Ord + Clone + Send + Sync + 'static,
    V: Clone + Hash + Send + Sync + 'static,
{
    /// A read under a read lock in Moss's discipline; `touched` is this
    /// transaction's held-key set.
    pub(crate) fn locked_read(
        &self,
        key: &K,
        touched: &Mutex<HashSet<K>>,
        top_level: bool,
    ) -> Result<V, TxnError> {
        let inner = &self.inner;
        let out = inner.with_locked_state(self.id, top_level, key, |state, reg| {
            state.try_read(self.id, reg).map(|v| {
                let record =
                    inner.access_record(reg, self.id, key, || (UpdateFn::Read, hash_value(v)));
                (v.clone(), record)
            })
        })?;
        touch(touched, key);
        Ok(out)
    }

    /// A read-modify-write under a single write lock.
    pub(crate) fn locked_rmw(
        &self,
        key: &K,
        f: impl Fn(&V) -> V,
        touched: &Mutex<HashSet<K>>,
        top_level: bool,
    ) -> Result<V, TxnError> {
        let inner = &self.inner;
        let out = inner.with_locked_state(self.id, top_level, key, |state, reg| {
            // Only the audit needs the written value, and only its hash.
            let mut written = None;
            let seen = state.try_write(self.id, reg, |old| {
                let new = f(old);
                written = inner.audit.as_ref().map(|_| hash_value(&new));
                new
            })?;
            let record = inner.access_record(reg, self.id, key, || {
                (UpdateFn::Write(written.expect("hashed under audit")), hash_value(&seen))
            });
            Ok((seen, record))
        })?;
        touch(touched, key);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use crate::{Db, DbConfig, DeadlockPolicy, TxnError};
    use std::sync::Arc;

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
}
