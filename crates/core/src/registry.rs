//! Transaction identities and the nesting registry.
//!
//! The engine's analogue of the paper's universal action tree: every
//! transaction gets a [`TxnId`] and a path of child indices from the
//! (virtual) root, so ancestor tests and audit reconstruction are pure
//! functions of registry state.
//!
//! Hot-path queries (status, liveness, ancestry) go through a
//! [`RegistryView`] over the table: a fixed power-of-two array of shards,
//! each a deque of slots indexed by `TxnId`. Consecutive ids round-robin
//! across shards, so concurrent begins and lookups touch different locks;
//! a lookup is one short shard read-lock plus an `Arc` clone, with no
//! hashing at all.
//!
//! # Retirement
//!
//! In the paper an action's status matters only while something can still
//! ask about it. So a transaction tree retires when the last handle on it
//! drops ([`Registry::close`]): that handle takes every member's slot, and
//! a retired id answers like one never registered — no status, `is_dead`
//! true, `is_ancestor` false. Each shard pops its emptied prefix on its
//! next insert, so slot storage is bounded by the ids issued since the
//! oldest unfinished tree, not by history.
//!
//! This is sound because of one invariant: **once a tree's last handle has
//! dropped, the only references left to its ids are lock entries of dead
//! holders waiting for a lazy `lose-lock`.** Every member has finished, so
//! each either committed up to a committed top, which released every lock
//! passed to it (`finish_locks`) before its handle dropped, or is dead by
//! its own abort or an ancestor's. What a dead member can still hold (a
//! version a child handed up just as its parent aborted on another
//! thread, say) gets "unknown ⇒ dead", the answer it got anyway.
//!
//! # Consistency semantics
//!
//! A view does not freeze table membership across its queries, and no
//! caller can tell: per-transaction state (status, active-children) lives
//! in atomics, an id becomes visible to other threads only after its meta
//! is published (begin returns after the insert), and it disappears only
//! once no handle can ask about it. A lock-table query racing a
//! retirement gets the pre-retirement answer or the unknown one, which
//! agree for the dead holders that are all such a query can meet.
//! The one window — a child id appears in its parent's `child_ids` just
//! before its meta is inserted — is closed by `active_subtree` skipping
//! ids it cannot resolve; a retired blocker likewise expands to nothing,
//! which is right, since it holds nothing a live transaction waits for.
//! The storm test below exercises all of this.

use parking_lot::RwLock;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

/// Identifier of a transaction. Monotonically increasing across the
/// database; usable as a wait-die timestamp.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct TxnId(pub u64);

/// Lifecycle status of a transaction (the paper's `status_T`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TxnStatus {
    /// Created and not yet completed.
    Active,
    /// Committed to its parent (or, for top-level, permanently).
    Committed,
    /// Aborted.
    Aborted,
}

const ST_ACTIVE: u8 = 0;
const ST_COMMITTED: u8 = 1;
const ST_ABORTED: u8 = 2;

/// log2 of the shard count; shard = id & mask, slot = id >> bits.
const SHARD_BITS: u32 = 6;
const SHARD_COUNT: usize = 1 << SHARD_BITS;
const SHARD_MASK: u64 = (SHARD_COUNT as u64) - 1;

fn decode(s: u8) -> TxnStatus {
    match s {
        ST_ACTIVE => TxnStatus::Active,
        ST_COMMITTED => TxnStatus::Committed,
        _ => TxnStatus::Aborted,
    }
}

#[derive(Debug)]
struct TxnMeta {
    parent: Option<TxnId>,
    /// Root (top-level ancestor) id, used as the wait-die timestamp.
    root: TxnId,
    /// Path of child indices from the root; the audit log uses it to name
    /// actions. Immutable after creation.
    path: Vec<u32>,
    status: AtomicU8,
    /// Child *index* counter (transactions and audit access leaves).
    children: AtomicU32,
    /// Number of children still active.
    active_children: AtomicU32,
    /// Child transaction ids (for wait-for expansion over subtrees and
    /// retirement); guarded by its own lock, never by the table's.
    child_ids: RwLock<Vec<TxnId>>,
    /// Open handles on the tree (meaningful in a root's meta only).
    open: AtomicU32,
}

impl TxnMeta {
    fn new(parent: Option<TxnId>, root: TxnId, path: Vec<u32>) -> Arc<Self> {
        Arc::new(TxnMeta {
            parent,
            root,
            path,
            status: AtomicU8::new(ST_ACTIVE),
            children: AtomicU32::new(0),
            active_children: AtomicU32::new(0),
            child_ids: RwLock::new(Vec::new()),
            open: AtomicU32::new(u32::from(parent.is_none())),
        })
    }
}

/// One shard of the table: slot `base + i` of the shard (the id
/// `(base + i) << SHARD_BITS | shard`) is `metas[i]`. An empty slot is an
/// id not registered here, or not yet.
#[derive(Debug, Default)]
struct Slots {
    base: usize,
    metas: VecDeque<Option<Arc<TxnMeta>>>,
}

impl Slots {
    fn get(&self, slot: usize) -> Option<&Arc<TxnMeta>> {
        self.metas.get(slot.checked_sub(self.base)?)?.as_ref()
    }

    fn take(&mut self, slot: usize) -> Option<Arc<TxnMeta>> {
        self.metas.get_mut(slot.checked_sub(self.base)?)?.take()
    }

    /// Every resident meta with its slot.
    fn resident(&self) -> impl Iterator<Item = (usize, &Arc<TxnMeta>)> {
        (self.base..).zip(&self.metas).filter_map(|(slot, m)| Some((slot, m.as_ref()?)))
    }

    /// Store `meta` in `slot`, popping the empty prefix first. An id
    /// issued before one inserted here later can find its slot popped
    /// from under it: the front regrows to take it.
    fn insert(&mut self, slot: usize, meta: Arc<TxnMeta>) {
        while self.metas.front().is_some_and(Option::is_none) {
            self.metas.pop_front();
            self.base += 1;
        }
        if self.metas.is_empty() {
            self.base = slot;
        }
        while slot < self.base {
            self.metas.push_front(None);
            self.base -= 1;
        }
        let at = slot - self.base;
        if self.metas.len() <= at {
            self.metas.resize(at + 1, None);
        }
        self.metas[at] = Some(meta);
    }
}

type Shard = RwLock<Slots>;

/// A transaction tree's open-handle count, one per handle on the tree and
/// carried by each. It lives in the root's meta, so opening a tree
/// allocates nothing; [`Registry::close`] takes a handle's count back.
pub(crate) struct Tree(Arc<TxnMeta>);

impl Tree {
    /// Count one more handle on this tree (a new child's).
    pub(crate) fn share(&self) -> Tree {
        self.0.open.fetch_add(1, Ordering::Relaxed);
        Tree(self.0.clone())
    }
}

/// The registry of a database's transactions, from begin until their tree
/// retires.
///
/// Dead-ness of orphans is decided by walking ancestors, so a tree stays
/// resident as a whole while any handle on it is open; the handle that
/// closes it last retires it (see the module docs). Trees begun with
/// [`Registry::begin_top`] have no handle to close them and never retire.
#[derive(Debug)]
pub struct Registry {
    next: AtomicU64,
    top_count: AtomicU64,
    shards: Box<[Shard]>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

/// A read view over the registry: arbitrarily many queries per view.
/// A free handle — each query briefly read-locks one shard.
pub struct RegistryView<'a> {
    shards: &'a [Shard],
}

fn shard_slot(id: TxnId) -> (usize, usize) {
    ((id.0 & SHARD_MASK) as usize, (id.0 >> SHARD_BITS) as usize)
}

impl<'a> RegistryView<'a> {
    fn meta(&self, id: TxnId) -> Option<Arc<TxnMeta>> {
        let (s, slot) = shard_slot(id);
        self.shards[s].read().get(slot).cloned()
    }

    /// The status of `id`.
    pub fn status(&self, id: TxnId) -> Option<TxnStatus> {
        self.meta(id).map(|m| decode(m.status.load(Ordering::Acquire)))
    }

    /// The parent of `id`, if any.
    pub fn parent(&self, id: TxnId) -> Option<TxnId> {
        self.meta(id).and_then(|m| m.parent)
    }

    /// The root (top-level ancestor) of `id` — the wait-die timestamp.
    pub fn root(&self, id: TxnId) -> Option<TxnId> {
        self.meta(id).map(|m| m.root)
    }

    /// The action-tree path of `id`.
    pub fn path(&self, id: TxnId) -> Option<Vec<u32>> {
        self.meta(id).map(|m| m.path.clone())
    }

    /// Allocate the next child *index* under `id` (atomic; no write lock).
    pub fn alloc_child_index(&self, id: TxnId) -> Option<u32> {
        self.meta(id).map(|m| m.children.fetch_add(1, Ordering::Relaxed))
    }

    /// True iff `a` is an ancestor of `b` (reflexively).
    ///
    /// Paths are immutable child-index sequences from the action-tree root,
    /// so ancestry is a prefix test — one comparison instead of a parent
    /// walk, which matters because this runs inside every lock grant.
    pub fn is_ancestor(&self, a: TxnId, b: TxnId) -> bool {
        if a == b {
            return true;
        }
        match (self.meta(a), self.meta(b)) {
            (Some(ma), Some(mb)) => {
                ma.path.len() < mb.path.len() && mb.path[..ma.path.len()] == ma.path[..]
            }
            _ => false,
        }
    }

    /// True iff `id` or any ancestor has aborted (the paper's "dead").
    pub fn is_dead(&self, id: TxnId) -> bool {
        let mut cur = Some(id);
        while let Some(c) = cur {
            match self.meta(c) {
                // Unknown ⇒ dead: a retired id is only ever asked about
                // by a lock entry a dead member left behind.
                None => return true,
                Some(m) if m.status.load(Ordering::Acquire) == ST_ABORTED => return true,
                Some(m) => cur = m.parent,
            }
        }
        false
    }

    /// The members of `id`'s subtree that are still *active* (including
    /// `id` itself if active). Waiting for a lock held by `id` really means
    /// waiting for all of these to complete — a parent's lock is released
    /// only when its own thread commits it, which in turn waits for the
    /// children — so deadlock detection must expand blockers to this set.
    pub fn active_subtree(&self, id: TxnId) -> Vec<TxnId> {
        let mut out = Vec::new();
        let mut stack = vec![id];
        while let Some(t) = stack.pop() {
            if let Some(m) = self.meta(t) {
                if m.status.load(Ordering::Acquire) == ST_ACTIVE {
                    out.push(t);
                    stack.extend(m.child_ids.read().iter().copied());
                }
            }
        }
        out
    }
}

impl crate::lock::LockEnv for RegistryView<'_> {
    fn is_ancestor(&self, a: TxnId, b: TxnId) -> bool {
        RegistryView::is_ancestor(self, a, b)
    }
    fn is_dead(&self, t: TxnId) -> bool {
        RegistryView::is_dead(self, t)
    }
}

impl Registry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Registry {
            next: AtomicU64::new(0),
            top_count: AtomicU64::new(0),
            shards: (0..SHARD_COUNT).map(|_| RwLock::default()).collect(),
        }
    }

    /// Take a read view for a batch of queries.
    pub fn read_view(&self) -> RegistryView<'_> {
        RegistryView { shards: &self.shards }
    }

    fn insert(&self, id: TxnId, meta: Arc<TxnMeta>) {
        let (s, slot) = shard_slot(id);
        self.shards[s].write().insert(slot, meta);
    }

    /// Register a new top-level transaction (its tree never retires).
    pub fn begin_top(&self) -> TxnId {
        self.begin_tree().0
    }

    /// Register a new top-level transaction and open its tree for the
    /// first handle.
    pub(crate) fn begin_tree(&self) -> (TxnId, Tree) {
        let id = TxnId(self.next.fetch_add(1, Ordering::Relaxed));
        let top = self.top_count.fetch_add(1, Ordering::Relaxed) as u32;
        let meta = TxnMeta::new(None, id, vec![top]);
        self.insert(id, meta.clone());
        (id, Tree(meta))
    }

    /// Take one handle's count back from `tree`. The handle that takes it
    /// to zero retires every member, all finished by then (a handle
    /// finishes its transaction before it closes), by taking its slot: the
    /// metas are freed here, on the thread that built most of them, and
    /// not by whichever thread inserts next into their shards.
    pub(crate) fn close(&self, tree: &Tree) {
        if tree.0.open.fetch_sub(1, Ordering::AcqRel) != 1 {
            return;
        }
        let mut rest = Vec::new();
        let mut id = tree.0.root;
        loop {
            let (s, slot) = shard_slot(id);
            let taken = self.shards[s].write().take(slot);
            if let Some(meta) = taken {
                rest.extend(meta.child_ids.read().iter().copied());
            }
            match rest.pop() {
                Some(next) => id = next,
                None => break,
            }
        }
    }

    /// Transactions registered and not retired.
    pub(crate) fn resident(&self) -> u64 {
        self.shards.iter().map(|s| s.read().resident().count() as u64).sum()
    }

    /// Slots the shards have room for, resident or not.
    #[cfg(test)]
    pub(crate) fn slot_capacity(&self) -> usize {
        self.shards.iter().map(|s| s.read().metas.capacity()).sum()
    }

    /// Register a child of `parent`.
    ///
    /// Fails if the parent is not active (committed parents cannot gain
    /// children; aborted parents *may* in the paper, but the engine rejects
    /// spawning under a known-aborted parent as a programming error).
    ///
    /// Safe-API note: a parent's `commit`/`abort` consume the handle, so
    /// they cannot race with `begin_child` through the public engine API;
    /// the atomic counter updates here rely on that.
    pub fn begin_child(&self, parent: TxnId) -> Result<TxnId, RegistryError> {
        let id = TxnId(self.next.fetch_add(1, Ordering::Relaxed));
        let pm = self.read_view().meta(parent).ok_or(RegistryError::Unknown(parent))?;
        if pm.status.load(Ordering::Acquire) != ST_ACTIVE {
            return Err(RegistryError::NotActive(parent));
        }
        let idx = pm.children.fetch_add(1, Ordering::Relaxed);
        pm.active_children.fetch_add(1, Ordering::AcqRel);
        let mut path = pm.path.clone();
        path.push(idx);
        pm.child_ids.write().push(id);
        self.insert(id, TxnMeta::new(Some(parent), pm.root, path));
        Ok(id)
    }

    /// The parent of `id`, if any.
    pub fn parent(&self, id: TxnId) -> Option<TxnId> {
        self.read_view().parent(id)
    }

    /// The status of `id`.
    pub fn status(&self, id: TxnId) -> Option<TxnStatus> {
        self.read_view().status(id)
    }

    /// Number of still-active children of `id`.
    pub fn active_children(&self, id: TxnId) -> u32 {
        self.read_view().meta(id).map_or(0, |m| m.active_children.load(Ordering::Acquire))
    }

    /// True iff `a` is an ancestor of `b` (reflexively).
    pub fn is_ancestor(&self, a: TxnId, b: TxnId) -> bool {
        self.read_view().is_ancestor(a, b)
    }

    /// True iff `id` or any ancestor has aborted (the paper's "dead").
    pub fn is_dead(&self, id: TxnId) -> bool {
        self.read_view().is_dead(id)
    }

    /// True iff `id` is live (no aborted ancestor).
    pub fn is_live(&self, id: TxnId) -> bool {
        !self.is_dead(id)
    }

    fn finish(&self, id: TxnId, to: u8, require_no_children: bool) -> Result<(), RegistryError> {
        let view = self.read_view();
        let meta = view.meta(id).ok_or(RegistryError::Unknown(id))?;
        if require_no_children {
            let n = meta.active_children.load(Ordering::Acquire);
            if n > 0 {
                return Err(RegistryError::ChildrenActive(id, n));
            }
        }
        meta.status
            .compare_exchange(ST_ACTIVE, to, Ordering::AcqRel, Ordering::Acquire)
            .map_err(|_| RegistryError::NotActive(id))?;
        if let Some(p) = meta.parent {
            if let Some(pm) = view.meta(p) {
                pm.active_children.fetch_sub(1, Ordering::AcqRel);
            }
        }
        Ok(())
    }

    /// Mark `id` committed, decrementing the parent's active-children count.
    ///
    /// Fails unless `id` is active with no active children.
    pub fn commit(&self, id: TxnId) -> Result<(), RegistryError> {
        self.finish(id, ST_COMMITTED, true)
    }

    /// Mark `id` aborted (children may still be active — they become
    /// orphans), decrementing the parent's active-children count.
    pub fn abort(&self, id: TxnId) -> Result<(), RegistryError> {
        self.finish(id, ST_ABORTED, false)
    }

    /// Ids of transactions whose own status is still `Active`, in id order
    /// (chaos harness only). Orphans count as active: their status only
    /// changes when their handle aborts or drops.
    #[cfg(feature = "chaos-hooks")]
    pub fn chaos_active(&self) -> Vec<TxnId> {
        self.snapshot()
            .into_iter()
            .filter(|(_, _, status, _)| *status == TxnStatus::Active)
            .map(|(id, ..)| id)
            .collect()
    }

    /// Snapshot of the resident transactions: `(id, parent, status, path)`.
    pub fn snapshot(&self) -> Vec<(TxnId, Option<TxnId>, TxnStatus, Vec<u32>)> {
        let mut out = Vec::new();
        for (s, shard) in self.shards.iter().enumerate() {
            for (slot, m) in shard.read().resident() {
                let id = TxnId(((slot as u64) << SHARD_BITS) | s as u64);
                out.push((id, m.parent, decode(m.status.load(Ordering::Acquire)), m.path.clone()));
            }
        }
        out.sort_by_key(|(id, ..)| *id);
        out
    }
}

/// Registry operation errors.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RegistryError {
    /// The transaction id is not registered.
    Unknown(TxnId),
    /// The transaction is not active.
    NotActive(TxnId),
    /// Commit attempted with active children.
    ChildrenActive(TxnId, u32),
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::Unknown(id) => write!(f, "unknown transaction {id:?}"),
            RegistryError::NotActive(id) => write!(f, "transaction {id:?} not active"),
            RegistryError::ChildrenActive(id, n) => {
                write!(f, "transaction {id:?} has {n} active children")
            }
        }
    }
}

impl std::error::Error for RegistryError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn begin_and_status() {
        let r = Registry::new();
        let t = r.begin_top();
        assert_eq!(r.status(t), Some(TxnStatus::Active));
        assert_eq!(r.parent(t), None);
        assert_eq!(r.read_view().root(t), Some(t));
        assert!(r.is_live(t));
    }

    #[test]
    fn child_paths_extend_parent() {
        let r = Registry::new();
        let t = r.begin_top();
        let c1 = r.begin_child(t).unwrap();
        let c2 = r.begin_child(t).unwrap();
        let g = r.begin_child(c1).unwrap();
        let view = r.read_view();
        let tp = view.path(t).unwrap();
        assert_eq!(view.path(c1).unwrap(), [tp.clone(), vec![0]].concat());
        assert_eq!(view.path(c2).unwrap(), [tp.clone(), vec![1]].concat());
        assert_eq!(view.path(g).unwrap(), [tp, vec![0, 0]].concat());
        assert_eq!(view.root(g), Some(t));
    }

    #[test]
    fn distinct_top_level_paths() {
        let r = Registry::new();
        let a = r.begin_top();
        let b = r.begin_top();
        let view = r.read_view();
        assert_ne!(view.path(a), view.path(b));
    }

    #[test]
    fn ancestor_checks() {
        let r = Registry::new();
        let t = r.begin_top();
        let c = r.begin_child(t).unwrap();
        let g = r.begin_child(c).unwrap();
        let other = r.begin_top();
        assert!(r.is_ancestor(t, g));
        assert!(r.is_ancestor(c, g));
        assert!(r.is_ancestor(g, g));
        assert!(!r.is_ancestor(g, t));
        assert!(!r.is_ancestor(other, g));
    }

    #[test]
    fn commit_requires_children_done() {
        let r = Registry::new();
        let t = r.begin_top();
        let c = r.begin_child(t).unwrap();
        assert_eq!(r.commit(t), Err(RegistryError::ChildrenActive(t, 1)));
        r.commit(c).unwrap();
        r.commit(t).unwrap();
        assert_eq!(r.status(t), Some(TxnStatus::Committed));
        assert_eq!(r.commit(t), Err(RegistryError::NotActive(t)));
    }

    #[test]
    fn abort_orphans_descendants() {
        let r = Registry::new();
        let t = r.begin_top();
        let c = r.begin_child(t).unwrap();
        let g = r.begin_child(c).unwrap();
        r.abort(c).unwrap();
        assert!(r.is_dead(c));
        assert!(r.is_dead(g), "descendants of aborted are dead");
        assert!(r.is_live(t));
        assert_eq!(r.status(g), Some(TxnStatus::Active), "orphan is still 'active'");
    }

    #[test]
    fn abort_with_active_children_allowed() {
        let r = Registry::new();
        let t = r.begin_top();
        let _c = r.begin_child(t).unwrap();
        r.abort(t).unwrap();
        assert!(r.is_dead(t));
    }

    #[test]
    fn no_children_under_done_parent() {
        let r = Registry::new();
        let t = r.begin_top();
        r.commit(t).unwrap();
        assert_eq!(r.begin_child(t), Err(RegistryError::NotActive(t)));
    }

    #[test]
    fn wait_die_timestamps_monotone() {
        let r = Registry::new();
        let a = r.begin_top();
        let b = r.begin_top();
        assert!(a < b, "ids are monotone");
        let ac = r.begin_child(a).unwrap();
        assert_eq!(r.read_view().root(ac), Some(a), "children inherit root timestamp");
    }

    #[test]
    fn active_subtree_walks_children() {
        let r = Registry::new();
        let t = r.begin_top();
        let c = r.begin_child(t).unwrap();
        let g = r.begin_child(c).unwrap();
        let mut sub = r.read_view().active_subtree(t);
        sub.sort();
        assert_eq!(sub, vec![t, c, g]);
        r.commit(g).unwrap();
        let mut sub = r.read_view().active_subtree(t);
        sub.sort();
        assert_eq!(sub, vec![t, c]);
    }

    #[test]
    fn view_batches_queries() {
        let r = Registry::new();
        let t = r.begin_top();
        let c = r.begin_child(t).unwrap();
        let view = r.read_view();
        assert_eq!(view.status(t), Some(TxnStatus::Active));
        assert!(view.is_ancestor(t, c));
        assert!(!view.is_dead(c));
        assert_eq!(view.root(c), Some(t));
        assert_eq!(view.parent(c), Some(t));
    }

    #[test]
    fn concurrent_begin_children() {
        use std::sync::Arc;
        let r = Arc::new(Registry::new());
        let t = r.begin_top();
        let mut handles = Vec::new();
        for _ in 0..8 {
            let r = r.clone();
            handles.push(std::thread::spawn(move || {
                let mut ids = Vec::new();
                for _ in 0..50 {
                    ids.push(r.begin_child(t).unwrap());
                }
                ids
            }));
        }
        let mut all: Vec<TxnId> = handles.into_iter().flat_map(|h| h.join().unwrap()).collect();
        let mut paths: Vec<_> = all.iter().map(|&id| r.read_view().path(id).unwrap()).collect();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), 400, "ids unique");
        paths.sort();
        paths.dedup();
        assert_eq!(paths.len(), 400, "paths unique");
        assert_eq!(r.active_children(t), 400);
    }

    /// Regression: concurrent begin/finish/close/lookup storm over the
    /// table, while reader threads hammer views. No meta is lost — an id
    /// resolves, with its status, until its tree's last handle closes,
    /// whatever other threads' inserts pop from or regrow at the front of
    /// its shard — and none is resurrected: a retired id answers like an
    /// unknown one, and the table ends empty.
    #[test]
    fn sharded_storm_no_lost_or_resurrected_metas() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let r = Arc::new(Registry::new());
        let stop = Arc::new(AtomicBool::new(false));
        let workers: Vec<_> = (0..4)
            .map(|w| {
                let r = r.clone();
                std::thread::spawn(move || {
                    for i in 0..1_000 {
                        let orphan = (i + w) % 2 == 1;
                        let (t, top) = r.begin_tree();
                        let c = r.begin_child(t).unwrap();
                        let child = top.share();
                        assert_eq!(r.status(c), Some(TxnStatus::Active), "fresh child resolves");
                        if orphan {
                            r.abort(t).unwrap();
                        } else {
                            r.commit(c).unwrap();
                            r.commit(t).unwrap();
                        }
                        r.close(&top);
                        // The child's handle is still open: so is its tree.
                        assert_eq!(r.is_dead(c), orphan, "orphan of aborted parent is dead");
                        assert!(r.is_ancestor(t, c));
                        if orphan {
                            r.abort(c).unwrap();
                        }
                        r.close(&child);
                        assert_eq!((r.status(t), r.status(c)), (None, None), "retired");
                        assert!(r.is_dead(c) && !r.is_ancestor(t, c));
                    }
                })
            })
            .collect();
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let r = r.clone();
                let stop = stop.clone();
                std::thread::spawn(move || {
                    let mut k = 0;
                    while !stop.load(Ordering::Relaxed) {
                        let view = r.read_view();
                        view.active_subtree(TxnId(k % 8_000));
                        view.is_dead(TxnId(k % 8_000));
                        k += 1;
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        for rd in readers {
            rd.join().unwrap();
        }
        assert_eq!(r.resident(), 0);
        assert!(r.snapshot().is_empty());
    }
}
