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
use rnt_mvcc::ChainId;

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

/// The lock/version state of one object: its committed value and the id
/// of its committed version chain, plus — only while someone holds a lock
/// on it — the holders, out of line.
///
/// An idle key is `(key, base, chain)`: 24 bytes for a `u64` value, no
/// heap. The first grant boxes the holders; whichever commit, abort or
/// reap drains both of its stacks drops the box again, so a key pays for
/// the paper's value-map stack only while that stack is non-empty.
///
/// The committed value is kept here as well as at the chain's head: a
/// grant reads `base` where it already is, under the shard lock, and only
/// a top-level commit goes through `chain` to publish.
#[derive(Clone, Debug)]
pub struct LockState<V> {
    /// The permanently committed value (the paper's `V(x, U)`).
    base: V,
    /// The object's chain in the version store, where a top-level commit
    /// appends without a key lookup; `None` for lock logic used on its own.
    chain: Option<ChainId>,
    /// The lock holders; `None` exactly when nobody holds a lock.
    held: Option<Box<Holders<V>>>,
}

/// The holders of a locked object.
#[derive(Clone, Debug)]
struct Holders<V> {
    /// Write-lock holders, outermost first — an ancestor chain; each holds
    /// the object's value as of that holder (the value-map stack).
    writes: Vec<(TxnId, V)>,
    /// Read-lock holders.
    readers: Vec<TxnId>,
}

impl<V> Default for Holders<V> {
    fn default() -> Self {
        Holders { writes: Vec::new(), readers: Vec::new() }
    }
}

impl<V: Clone> LockState<V> {
    /// A fresh object with its initial value, on no version chain.
    pub fn new(initial: V) -> Self {
        LockState { base: initial, chain: None, held: None }
    }

    /// A fresh object with its initial value, whose committed versions go
    /// to `chain`.
    pub fn on_chain(initial: V, chain: ChainId) -> Self {
        LockState { base: initial, chain: Some(chain), held: None }
    }

    /// The object's version chain, if it has one.
    pub fn chain(&self) -> Option<ChainId> {
        self.chain
    }

    /// The value the deepest live holder sees (the principal value).
    pub fn current_value(&self) -> &V {
        self.held.as_ref().and_then(|h| h.writes.last()).map_or(&self.base, |(_, v)| v)
    }

    /// The permanently committed value.
    pub fn base_value(&self) -> &V {
        &self.base
    }

    /// Current write-lock holders, outermost first.
    pub fn write_holders(&self) -> impl Iterator<Item = TxnId> + '_ {
        self.write_entries().map(|(t, _)| t)
    }

    /// Current read-lock holders.
    pub fn read_holders(&self) -> &[TxnId] {
        self.held.as_ref().map_or(&[], |h| &h.readers)
    }

    /// Write-lock holders with their pending versions, outermost first (a
    /// committing top-level holder's entry is what its commit frame logs).
    pub fn write_entries(&self) -> impl Iterator<Item = (TxnId, &V)> {
        self.held.iter().flat_map(|h| h.writes.iter().map(|(t, v)| (*t, v)))
    }

    /// The innermost write-lock holder, if any.
    fn top_writer(&self) -> Option<TxnId> {
        self.held.as_ref()?.writes.last().map(|&(t, _)| t)
    }

    /// Drop the holder box once both stacks drained.
    fn release_if_drained(&mut self) {
        if self.held.as_ref().is_some_and(|h| h.writes.is_empty() && h.readers.is_empty()) {
            self.held = None;
        }
    }

    /// Reap locks held by dead transactions (`lose-lock`): dead readers are
    /// dropped; the write stack is truncated at the first dead holder
    /// (everything above a dead holder is a descendant of it, hence dead).
    /// A reap that drains both stacks drops the holder box.
    pub fn reap(&mut self, env: &impl LockEnv) {
        let Some(held) = &mut self.held else { return };
        held.readers.retain(|&t| !env.is_dead(t));
        if let Some(first_dead) = held.writes.iter().position(|&(t, _)| env.is_dead(t)) {
            held.writes.truncate(first_dead);
        }
        self.release_if_drained();
    }

    /// Try to acquire (or re-affirm) a read lock for `t` and return the
    /// visible value. Grants iff every *write* holder is an ancestor of `t`.
    ///
    /// Fast path: the write stack is an ancestor chain, so if the innermost
    /// holder is live and an ancestor of `t`, every holder is — the grant
    /// needs one ancestry test, no stack scan and no reap.
    pub fn try_read(&mut self, t: TxnId, env: &impl LockEnv) -> Result<&V, Conflict> {
        let fast = match self.top_writer() {
            // No write holders at all: reads always share.
            None => true,
            // A write holder needs no separate read lock.
            Some(top) => top == t || (env.is_ancestor(top, t) && !env.is_dead(top)),
        };
        if !fast {
            // Slow path: reap dead holders, then scan for live blockers.
            self.reap(env);
            let blockers: Vec<TxnId> =
                self.write_holders().filter(|&h| !env.is_ancestor(h, t)).collect();
            if !blockers.is_empty() {
                return Err(Conflict { blockers });
            }
        }
        if self.top_writer() != Some(t) {
            let held = self.held.get_or_insert_with(Box::default);
            if !held.readers.contains(&t) {
                held.readers.push(t);
            }
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
        if let Some(held) = self.held.as_mut().filter(|h| h.readers.is_empty()) {
            if let Some((h, slot)) = held.writes.last_mut() {
                if *h == t {
                    let seen = slot.clone();
                    *slot = new_value(&seen);
                    return Ok(seen);
                }
            }
        }
        self.reap(env);
        let blockers: Vec<TxnId> = self
            .write_holders()
            .chain(self.read_holders().iter().copied())
            .filter(|&h| h != t && !env.is_ancestor(h, t))
            .collect();
        if !blockers.is_empty() {
            return Err(Conflict { blockers });
        }
        let seen = self.current_value().clone();
        let value = new_value(&seen);
        let held = self.held.get_or_insert_with(Box::default);
        match held.writes.last_mut() {
            Some((h, slot)) if *h == t => *slot = value,
            _ => held.writes.push((t, value)),
        }
        // Upgrade: t's read lock is subsumed by its write lock.
        held.readers.retain(|&r| r != t);
        Ok(seen)
    }

    /// True iff `t` holds any lock here (used to build per-txn lock lists).
    pub fn holds(&self, t: TxnId) -> bool {
        self.read_holders().contains(&t) || self.write_holders().any(|h| h == t)
    }

    /// Lock inheritance on commit (`release-lock`): `t`'s locks pass to
    /// `parent`; for a top-level commit (`parent == None`) the write version
    /// becomes the new base and read locks evaporate.
    pub fn commit_to_parent(&mut self, t: TxnId, parent: Option<TxnId>, env: &impl LockEnv) {
        self.reap(env);
        let Some(held) = &mut self.held else { return };
        if let Some(pos) = held.writes.iter().position(|&(h, _)| h == t) {
            match parent {
                None => {
                    let (_, v) = held.writes.remove(pos);
                    debug_assert!(held.writes.is_empty(), "top-level commit under other holders");
                    self.base = v;
                }
                Some(p) => {
                    if let Some(ppos) = held.writes.iter().position(|&(h, _)| h == p) {
                        // The parent already holds an (older) version:
                        // the child's version replaces it.
                        let (_, v) = held.writes.remove(pos);
                        held.writes[ppos].1 = v;
                    } else {
                        // Hand the version over in place: `p` lies strictly
                        // between the entry's ancestors and `t`, so retagging
                        // the holder keeps the chain ordered — no element
                        // shifting, no version move.
                        held.writes[pos].0 = p;
                    }
                    // The parent's write subsumes any read lock it held.
                    held.readers.retain(|&r| r != p);
                }
            }
        }
        if let Some(pos) = held.readers.iter().position(|&r| r == t) {
            held.readers.swap_remove(pos);
            if let Some(p) = parent {
                let p_writes = held.writes.iter().any(|&(h, _)| h == p);
                if !p_writes && !held.readers.contains(&p) {
                    held.readers.push(p);
                }
            }
        }
        self.release_if_drained();
    }

    /// Abort (`lose-lock` for the aborter's own locks): discard `t`'s read
    /// lock and write version, restoring the enclosing version.
    pub fn abort_discard(&mut self, t: TxnId) {
        let Some(held) = &mut self.held else { return };
        held.readers.retain(|&r| r != t);
        if let Some(pos) = held.writes.iter().position(|&(h, _)| h == t) {
            // Anything above t is a descendant of t — dead with it.
            held.writes.truncate(pos);
        }
        self.release_if_drained();
    }

    /// Structural invariants of this lock state (chaos harness only):
    ///
    /// * the write stack is a duplicate-free ancestor chain, outermost
    ///   first (the paper's value-map well-formedness);
    /// * read holders are duplicate-free and disjoint from write holders
    ///   (a write lock subsumes the holder's read lock);
    /// * no holder is dead — valid after a [`LockState::reap`], since
    ///   `lose-lock` is otherwise lazily performable;
    /// * a holder box exists only while it holds someone (an idle key is
    ///   `(key, base)`).
    #[cfg(feature = "chaos-hooks")]
    pub fn chaos_check(&self, env: &impl LockEnv) -> Result<(), String> {
        let Some(held) = &self.held else { return Ok(()) };
        if held.writes.is_empty() && held.readers.is_empty() {
            return Err("holder box present but empty (a drain kept it)".to_string());
        }
        for pair in held.writes.windows(2) {
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
        for (i, &r) in held.readers.iter().enumerate() {
            if held.readers[..i].contains(&r) {
                return Err(format!("duplicate read holder {r:?}"));
            }
            if self.write_holders().any(|w| w == r) {
                return Err(format!("{r:?} holds both a read and a write lock"));
            }
        }
        let dead =
            self.write_holders().chain(held.readers.iter().copied()).find(|&t| env.is_dead(t));
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

    /// An idle key costs its committed value, its chain id and one
    /// pointer: the holders live out of line, and only while someone
    /// holds a lock.
    #[test]
    fn idle_entry_is_base_chain_id_and_a_pointer() {
        assert_eq!(std::mem::size_of::<LockState<u64>>(), 24);
        assert!(LockState::new(0u64).held.is_none());
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
        // Top-level commit publishes to base, and the drained key is idle
        // again: no holder box.
        l.commit_to_parent(T1, None, &e);
        assert!(l.held.is_none(), "holders gone");
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
        // Top-level read commit just drops the lock, and the holder box.
        l.commit_to_parent(T1, None, &e);
        assert!(l.held.is_none(), "holders gone");
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
        assert!(l.held.is_none(), "holders gone");
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
        assert!(l.held.is_none(), "a reap that drains the stacks drops the holders");
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
