//! Per-object lock state: Moss's read/write locking rules with lock
//! inheritance (anti-inheritance on commit) and version restore on abort.
//!
//! This is the engine counterpart of the paper's *value map* (level 4),
//! extended from the paper's simplified exclusive-lock variant to the full
//! read/write algorithm the paper lists as follow-up work:
//!
//! * a transaction may **write** an object iff every holder of *any* lock
//!   on it is an ancestor;
//! * a transaction may **read** an object iff every holder of a *write*
//!   lock on it is an ancestor;
//! * on commit, locks pass to the parent; on abort, write versions are
//!   discarded, restoring the enclosing version — the paper's
//!   `release-lock` / `lose-lock` events;
//! * locks held by *dead* transactions (aborted ancestors — orphans'
//!   locks) are reaped lazily at conflict-check time, exactly the paper's
//!   lazily-performable `lose-lock`.

use crate::registry::TxnId;

/// Environment queries the lock logic needs (implemented by the registry).
pub trait LockEnv {
    /// True iff `a` is an ancestor of `b` (reflexively).
    fn is_ancestor(&self, a: TxnId, b: TxnId) -> bool;
    /// True iff the transaction or an ancestor has aborted.
    fn is_dead(&self, t: TxnId) -> bool;
}

/// Why a lock could not be granted: the live, non-ancestor holders.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Conflict {
    /// The transactions whose locks block the request.
    pub blockers: Vec<TxnId>,
}

/// The lock/version state of one object.
#[derive(Clone, Debug)]
pub struct LockState<V> {
    /// The permanently committed value (the paper's `V(x, U)`).
    base: V,
    /// Write-lock holders, outermost first — an ancestor chain; each holds
    /// the object's value as of that holder (the value-map stack).
    writes: Vec<(TxnId, V)>,
    /// Read-lock holders.
    readers: Vec<TxnId>,
}

impl<V: Clone> LockState<V> {
    /// A fresh object with its initial value.
    pub fn new(initial: V) -> Self {
        LockState { base: initial, writes: Vec::new(), readers: Vec::new() }
    }

    /// The value the deepest live holder sees (the principal value).
    pub fn current_value(&self) -> &V {
        self.writes.last().map_or(&self.base, |(_, v)| v)
    }

    /// The permanently committed value.
    pub fn base_value(&self) -> &V {
        &self.base
    }

    /// Publish a validated optimistic commit's value directly to base.
    ///
    /// Optimistic transactions never enter the lock table — their writes
    /// live in a private buffer until first-committer-wins validation
    /// passes under the publish gate — so at publication time the object
    /// has no holders to inherit through: the committed value simply
    /// replaces base, exactly as a top-level `commit_to_parent` would
    /// have done had the write gone through a lock.
    pub fn publish_base(&mut self, value: V) {
        debug_assert!(self.writes.is_empty(), "optimistic publication under live lock holders");
        self.base = value;
    }

    /// Current write-lock holders, outermost first.
    pub fn write_holders(&self) -> impl Iterator<Item = TxnId> + '_ {
        self.writes.iter().map(|(t, _)| *t)
    }

    /// Current read-lock holders.
    pub fn read_holders(&self) -> &[TxnId] {
        &self.readers
    }

    /// Write-lock holders with their pending versions, outermost first
    /// (checkpointing re-logs these so a later crash can still resolve
    /// post-checkpoint commit/abort records).
    pub fn write_entries(&self) -> impl Iterator<Item = (TxnId, &V)> {
        self.writes.iter().map(|(t, v)| (*t, v))
    }

    /// Reap locks held by dead transactions (`lose-lock`): dead readers are
    /// dropped; the write stack is truncated at the first dead holder
    /// (everything above a dead holder is a descendant of it, hence dead).
    pub fn reap(&mut self, env: &impl LockEnv) {
        self.readers.retain(|&t| !env.is_dead(t));
        if let Some(first_dead) = self.writes.iter().position(|&(t, _)| env.is_dead(t)) {
            self.writes.truncate(first_dead);
        }
        self.free_drained();
    }

    /// Give back the allocation of a stack that drained: most keys are
    /// locked now and then, so an idle key holds no buffer.
    fn free_drained(&mut self) {
        if self.writes.is_empty() {
            self.writes = Vec::new();
        }
        if self.readers.is_empty() {
            self.readers = Vec::new();
        }
    }

    /// Try to acquire (or re-affirm) a read lock for `t` and return the
    /// visible value. Grants iff every *write* holder is an ancestor of `t`.
    ///
    /// Fast path: the write stack is an ancestor chain, so if the innermost
    /// holder is live and an ancestor of `t`, every holder is — the grant
    /// needs one ancestry test, no stack scan and no reap.
    pub fn try_read(&mut self, t: TxnId, env: &impl LockEnv) -> Result<&V, Conflict> {
        match self.writes.last() {
            Some(&(top, _)) => {
                if top == t {
                    // A write holder needs no separate read lock.
                    return Ok(self.current_value());
                }
                if env.is_ancestor(top, t) && !env.is_dead(top) {
                    if !self.readers.contains(&t) {
                        self.readers.push(t);
                    }
                    return Ok(self.current_value());
                }
            }
            None => {
                // No write holders at all: reads always share.
                if !self.readers.contains(&t) {
                    self.readers.push(t);
                }
                return Ok(self.current_value());
            }
        }
        // Slow path: reap dead holders, then scan for live blockers.
        self.reap(env);
        let blockers: Vec<TxnId> =
            self.writes.iter().map(|&(h, _)| h).filter(|&h| !env.is_ancestor(h, t)).collect();
        if !blockers.is_empty() {
            return Err(Conflict { blockers });
        }
        if self.writes.last().map(|&(h, _)| h) != Some(t) && !self.readers.contains(&t) {
            self.readers.push(t);
        }
        Ok(self.current_value())
    }

    /// Try to acquire (or re-affirm) a write lock for `t`, computing the new
    /// value from the currently visible one. Grants iff every holder of any
    /// lock is an ancestor of `t`. Returns the value that was *seen*.
    pub fn try_write(
        &mut self,
        t: TxnId,
        env: &impl LockEnv,
        new_value: impl FnOnce(&V) -> V,
    ) -> Result<V, Conflict> {
        // Fast path: `t` already holds the innermost write lock and no
        // reader exists that could block a re-write — update in place
        // without scanning or reaping. (Callers guarantee `t` is live,
        // which makes the ancestor chain below it live too.)
        if self.readers.is_empty() {
            if let Some((h, slot)) = self.writes.last_mut() {
                if *h == t {
                    let seen = slot.clone();
                    *slot = new_value(&seen);
                    return Ok(seen);
                }
            }
        }
        self.reap(env);
        let blockers: Vec<TxnId> = self
            .writes
            .iter()
            .map(|&(h, _)| h)
            .chain(self.readers.iter().copied())
            .filter(|&h| h != t && !env.is_ancestor(h, t))
            .collect();
        if !blockers.is_empty() {
            return Err(Conflict { blockers });
        }
        let seen = self.current_value().clone();
        let value = new_value(&seen);
        match self.writes.last_mut() {
            Some((h, slot)) if *h == t => *slot = value,
            _ => self.writes.push((t, value)),
        }
        // Upgrade: t's read lock is subsumed by its write lock.
        self.readers.retain(|&r| r != t);
        Ok(seen)
    }

    /// True iff `t` holds any lock here (used to build per-txn lock lists).
    pub fn holds(&self, t: TxnId) -> bool {
        self.readers.contains(&t) || self.writes.iter().any(|&(h, _)| h == t)
    }

    /// Lock inheritance on commit (`release-lock`): `t`'s locks pass to
    /// `parent`; for a top-level commit (`parent == None`) the write version
    /// becomes the new base and read locks evaporate.
    pub fn commit_to_parent(&mut self, t: TxnId, parent: Option<TxnId>, env: &impl LockEnv) {
        self.reap(env);
        if let Some(pos) = self.writes.iter().position(|&(h, _)| h == t) {
            match parent {
                None => {
                    let (_, v) = self.writes.remove(pos);
                    debug_assert!(self.writes.is_empty(), "top-level commit under other holders");
                    self.base = v;
                }
                Some(p) => {
                    if let Some(ppos) = self.writes.iter().position(|&(h, _)| h == p) {
                        // The parent already holds an (older) version:
                        // the child's version replaces it.
                        let (_, v) = self.writes.remove(pos);
                        self.writes[ppos].1 = v;
                    } else {
                        // Hand the version over in place: `p` lies strictly
                        // between the entry's ancestors and `t`, so retagging
                        // the holder keeps the chain ordered — no element
                        // shifting, no version move.
                        self.writes[pos].0 = p;
                    }
                    // The parent's write subsumes any read lock it held.
                    self.readers.retain(|&r| r != p);
                }
            }
        }
        if let Some(pos) = self.readers.iter().position(|&r| r == t) {
            self.readers.swap_remove(pos);
            if let Some(p) = parent {
                let p_writes = self.writes.iter().any(|&(h, _)| h == p);
                if !p_writes && !self.readers.contains(&p) {
                    self.readers.push(p);
                }
            }
        }
        self.free_drained();
    }

    /// Abort (`lose-lock` for the aborter's own locks): discard `t`'s read
    /// lock and write version, restoring the enclosing version.
    pub fn abort_discard(&mut self, t: TxnId) {
        self.readers.retain(|&r| r != t);
        if let Some(pos) = self.writes.iter().position(|&(h, _)| h == t) {
            // Anything above t is a descendant of t — dead with it.
            self.writes.truncate(pos);
        }
        self.free_drained();
    }

    /// Structural invariants of this lock state (chaos harness only):
    ///
    /// * the write stack is a duplicate-free ancestor chain, outermost
    ///   first (the paper's value-map well-formedness);
    /// * read holders are duplicate-free and disjoint from write holders
    ///   (a write lock subsumes the holder's read lock);
    /// * no holder is dead — valid after a [`LockState::reap`], since
    ///   `lose-lock` is otherwise lazily performable.
    #[cfg(feature = "chaos-hooks")]
    pub fn chaos_check(&self, env: &impl LockEnv) -> Result<(), String> {
        for pair in self.writes.windows(2) {
            let (outer, inner) = (pair[0].0, pair[1].0);
            if outer == inner {
                return Err(format!("duplicate write holder {outer:?}"));
            }
            if !env.is_ancestor(outer, inner) {
                return Err(format!(
                    "write stack is not an ancestor chain: {outer:?} is not an ancestor of {inner:?}"
                ));
            }
        }
        for (i, &r) in self.readers.iter().enumerate() {
            if self.readers[..i].contains(&r) {
                return Err(format!("duplicate read holder {r:?}"));
            }
            if self.writes.iter().any(|&(w, _)| w == r) {
                return Err(format!("{r:?} holds both a read and a write lock"));
            }
        }
        let dead = self
            .writes
            .iter()
            .map(|&(t, _)| t)
            .chain(self.readers.iter().copied())
            .find(|&t| env.is_dead(t));
        if let Some(t) = dead {
            return Err(format!(
                "dead transaction {t:?} still holds a lock after reap (lose-lock not performed)"
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, HashSet};

    /// A scriptable environment: explicit parent edges and dead set.
    #[derive(Default)]
    struct Env {
        parent: HashMap<TxnId, TxnId>,
        dead: HashSet<TxnId>,
    }

    impl LockEnv for Env {
        fn is_ancestor(&self, a: TxnId, b: TxnId) -> bool {
            let mut cur = Some(b);
            while let Some(c) = cur {
                if c == a {
                    return true;
                }
                cur = self.parent.get(&c).copied();
            }
            false
        }
        fn is_dead(&self, t: TxnId) -> bool {
            let mut cur = Some(t);
            while let Some(c) = cur {
                if self.dead.contains(&c) {
                    return true;
                }
                cur = self.parent.get(&c).copied();
            }
            false
        }
    }

    const T1: TxnId = TxnId(1);
    const T2: TxnId = TxnId(2);
    const C1: TxnId = TxnId(11); // child of T1

    fn env() -> Env {
        let mut e = Env::default();
        e.parent.insert(C1, T1);
        e
    }

    #[test]
    fn read_read_share() {
        let e = env();
        let mut l = LockState::new(7);
        assert_eq!(*l.try_read(T1, &e).unwrap(), 7);
        assert_eq!(*l.try_read(T2, &e).unwrap(), 7);
        assert_eq!(l.read_holders().len(), 2);
    }

    #[test]
    fn write_blocks_unrelated_read_and_write() {
        let e = env();
        let mut l = LockState::new(7);
        l.try_write(T1, &e, |_| 8).unwrap();
        assert_eq!(l.try_read(T2, &e), Err(Conflict { blockers: vec![T1] }));
        assert_eq!(l.try_write(T2, &e, |_| 9).unwrap_err().blockers, vec![T1]);
    }

    #[test]
    fn read_blocks_unrelated_write_but_not_read() {
        let e = env();
        let mut l = LockState::new(7);
        l.try_read(T1, &e).unwrap();
        assert!(l.try_read(T2, &e).is_ok());
        let err = l.try_write(T2, &e, |_| 9).unwrap_err();
        assert!(err.blockers.contains(&T1));
    }

    #[test]
    fn child_may_lock_under_ancestor_holder() {
        let e = env();
        let mut l = LockState::new(7);
        l.try_write(T1, &e, |v| v + 1).unwrap();
        // Child of the write holder may read and write.
        assert_eq!(*l.try_read(C1, &e).unwrap(), 8);
        let seen = l.try_write(C1, &e, |v| v * 10).unwrap();
        assert_eq!(seen, 8);
        assert_eq!(*l.current_value(), 80);
        // Holders are now [T1, C1].
        assert_eq!(l.write_holders().collect::<Vec<_>>(), vec![T1, C1]);
    }

    #[test]
    fn reacquire_by_same_holder_updates_in_place() {
        let e = env();
        let mut l = LockState::new(0);
        l.try_write(T1, &e, |_| 1).unwrap();
        l.try_write(T1, &e, |v| v + 1).unwrap();
        assert_eq!(*l.current_value(), 2);
        assert_eq!(l.write_holders().count(), 1);
    }

    #[test]
    fn upgrade_read_to_write() {
        let e = env();
        let mut l = LockState::new(0);
        l.try_read(T1, &e).unwrap();
        l.try_write(T1, &e, |_| 5).unwrap();
        assert!(l.read_holders().is_empty(), "read lock subsumed");
        // Another reader blocks the upgrade.
        let mut l2 = LockState::new(0);
        l2.try_read(T1, &e).unwrap();
        l2.try_read(T2, &e).unwrap();
        assert!(l2.try_write(T1, &e, |_| 5).is_err());
    }

    #[test]
    fn commit_passes_write_to_parent_and_merges() {
        let e = env();
        let mut l = LockState::new(7);
        l.try_write(T1, &e, |_| 8).unwrap();
        l.try_write(C1, &e, |_| 9).unwrap();
        // Child commits: its version overwrites the parent's entry.
        l.commit_to_parent(C1, Some(T1), &e);
        assert_eq!(l.write_holders().collect::<Vec<_>>(), vec![T1]);
        assert_eq!(*l.current_value(), 9);
        // Top-level commit publishes to base, and the drained stack gives
        // its buffer back.
        l.commit_to_parent(T1, None, &e);
        assert_eq!(l.writes.capacity(), 0);
        assert_eq!(*l.base_value(), 9);
    }

    #[test]
    fn commit_inserts_parent_when_absent() {
        let e = env();
        let mut l = LockState::new(7);
        // Only the child wrote; parent never held the lock.
        l.try_write(C1, &e, |_| 9).unwrap();
        l.commit_to_parent(C1, Some(T1), &e);
        assert_eq!(l.write_holders().collect::<Vec<_>>(), vec![T1]);
        assert_eq!(*l.current_value(), 9);
        // T2 still cannot write (T1 is not its ancestor) — retention!
        assert!(l.try_write(T2, &e, |_| 0).is_err());
    }

    #[test]
    fn commit_passes_read_to_parent() {
        let e = env();
        let mut l = LockState::new(7);
        l.try_read(C1, &e).unwrap();
        l.commit_to_parent(C1, Some(T1), &e);
        assert_eq!(l.read_holders(), &[T1]);
        // Top-level read commit just drops the lock, and its buffer.
        l.commit_to_parent(T1, None, &e);
        assert_eq!(l.readers.capacity(), 0);
    }

    #[test]
    fn abort_restores_enclosing_version() {
        let e = env();
        let mut l = LockState::new(7);
        l.try_write(T1, &e, |_| 8).unwrap();
        l.try_write(C1, &e, |_| 9).unwrap();
        l.abort_discard(C1);
        assert_eq!(*l.current_value(), 8, "child's version discarded");
        l.abort_discard(T1);
        assert_eq!(*l.current_value(), 7, "base restored");
        assert_eq!(l.writes.capacity(), 0, "drained stack freed");
    }

    #[test]
    fn dead_locks_reaped_lazily() {
        let mut e = env();
        let mut l = LockState::new(7);
        l.try_write(C1, &e, |_| 9).unwrap();
        l.try_read(C1, &e).ok();
        // T1 aborts somewhere else; C1 is an orphan whose locks linger.
        e.dead.insert(T1);
        // T2's request reaps them and succeeds.
        let seen = l.try_write(T2, &e, |v| v + 1).unwrap();
        assert_eq!(seen, 7, "orphan version discarded, base visible");
        assert_eq!(l.write_holders().collect::<Vec<_>>(), vec![T2]);
    }

    #[test]
    fn reap_truncates_descendants_of_dead() {
        let mut e = env();
        e.parent.insert(TxnId(111), C1);
        let mut l = LockState::new(0);
        l.try_write(T1, &e, |_| 1).unwrap();
        l.try_write(C1, &e, |_| 2).unwrap();
        l.try_write(TxnId(111), &e, |_| 3).unwrap();
        e.dead.insert(C1);
        l.reap(&e);
        assert_eq!(l.write_holders().collect::<Vec<_>>(), vec![T1]);
        assert_eq!(*l.current_value(), 1);
        e.dead.insert(T1);
        l.reap(&e);
        assert_eq!(l.writes.capacity(), 0, "a reap that drains the stack frees it");
    }

    #[test]
    fn conflict_lists_all_blockers() {
        let e = env();
        let mut l = LockState::new(0);
        l.try_read(T1, &e).unwrap();
        l.try_read(T2, &e).unwrap();
        let err = l.try_write(TxnId(3), &e, |_| 1).unwrap_err();
        assert_eq!(err.blockers.len(), 2);
    }
}
