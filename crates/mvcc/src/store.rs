//! The version-chain store — one ordered map from key to chain — the
//! publish critical section, and epoch-based reclamation.
//!
//! **Lock order**: publish → pin table → map (`RwLock`, shared except on
//! a key's first contact) → one chain `Mutex` at a time → dirty set. No
//! path takes them in any other order, and none holds two chain locks or
//! re-enters the map lock, so a first-contact seeder (the only map
//! writer) can never deadlock against scanners, appenders or a sweep.

use parking_lot::{Condvar, Mutex, MutexGuard, RwLock};
use std::collections::{btree_map::Entry, BTreeMap, HashSet};
use std::hash::Hash;
use std::mem::take;
use std::ops::RangeBounds;
use std::sync::atomic::{AtomicU64, Ordering};

/// The epoch of non-transactional base seeds (the paper's `init(x)`).
///
/// Seeds enter every chain at the genesis epoch, so they are visible to
/// *every* snapshot regardless of when the key was inserted — seeding is
/// not a transaction and takes no place in the commit order.
pub const GENESIS_EPOCH: u64 = 0;

/// A committed version chain, never empty, epochs strictly ascending: the
/// newest version (the committed value) inline in the map slot, and the
/// superseded ones a live pin may still need in a spill, never empty.
struct Chain<V> {
    head: (u64, V),
    older: Option<Spill<V>>,
}

/// Out-of-line storage for superseded versions, recycled, not freed.
type Spill<V> = Box<Vec<(u64, V)>>;

impl<V> Chain<V> {
    /// Every version, oldest first.
    fn versions(&self) -> impl Iterator<Item = &(u64, V)> {
        self.older.iter().flat_map(|older| older.iter()).chain(std::iter::once(&self.head))
    }
}

/// The dirty set and, under the same lock, the spare list.
struct Dirty<K, V> {
    /// Keys whose chains hold more than one version — the only chains a
    /// pin-release sweep could reclaim from, so [`MvccStore::unpin`]'s
    /// sweep visits the handful of pinned-down chains instead of walking
    /// the keyspace. A chain enters when an append spills it and leaves
    /// when a sweep's prune collapses it (both under the chain's lock); a
    /// sweep works on the set it took and puts the still-long keys back,
    /// so between sweeps the set covers every long chain.
    keys: HashSet<K>,
    /// Emptied spill buffers for the next spill, at most `SPARE_CAP`.
    spare: Vec<Spill<V>>,
}

/// Staleness bound for the amortized pin-release sweep: while other pins
/// are live, at most this many unpins may pass before a sweep runs anyway
/// (see [`MvccStore::unpin`]). Quiescence — the pin table draining —
/// always sweeps immediately.
const SWEEP_EVERY: u64 = 64;

/// Spare spills kept for reuse: the thousands a preempted pin lets writers
/// spill, since freeing them from whichever thread sweeps mixes arenas.
const SPARE_CAP: usize = 64 * SWEEP_EVERY as usize;

/// Slots in the fast-pin ring (a power of two). Two live pins whose
/// epochs collide modulo the ring size can't share a slot; the loser
/// falls back to the locked pin table, which is always correct.
const RING_SLOTS: usize = 64;

/// Low bits of a ring slot hold the pin count; high bits the epoch.
const COUNT_BITS: u32 = 16;
const COUNT_MASK: u64 = (1 << COUNT_BITS) - 1;

/// Epochs above this don't fit a packed slot (2^48 commits — unreachable
/// in practice); they always take the locked path.
const MAX_FAST_EPOCH: u64 = u64::MAX >> COUNT_BITS;

/// Bounded retries for the seqlock-validated fast pin and for the
/// min-pin settle loop before falling back to the always-correct path.
const FAST_PIN_TRIES: usize = 4;

/// Monotonic counters the store maintains (see [`MvccStore::counters`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MvccCounters {
    /// Versions ever appended to a chain (commits + seeds).
    pub created: u64,
    /// Versions reclaimed by epoch-based GC.
    pub reclaimed: u64,
    /// Snapshots currently pinning an epoch.
    pub pins_live: u64,
}

/// Why an epoch could not be pinned by [`MvccStore::pin_at`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PinError {
    /// The epoch predates the oldest retained one: reclamation has already
    /// dropped versions a consistent view at this epoch would need.
    Pruned {
        /// The epoch that was requested.
        requested: u64,
        /// The oldest epoch still consistently resolvable.
        oldest_retained: u64,
    },
    /// The epoch is above the publish watermark: no commit with that epoch
    /// has been published yet.
    Future {
        /// The epoch that was requested.
        requested: u64,
        /// The highest fully published epoch.
        watermark: u64,
    },
}

/// The multi-version object store.
///
/// One ordered map *is* the store: every key ever written, in key order,
/// with its version chain inline under a per-chain lock. Point
/// operations are one descent plus one chain lock under the map's shared
/// lock; a range scan is a single in-order walk of the same map. Keys are
/// never deleted (the engine has no transactional delete), so the map's
/// exclusive lock is taken only on a key's first contact — seeding and
/// replay. Three pieces of epoch state tie the chains to the commit
/// order:
///
/// * `watermark` — the highest *fully published* epoch: every commit with
///   epoch ≤ watermark has all its versions appended. Snapshots pin the
///   watermark, so a pin never dangles over a half-published commit.
/// * the **publish lock** — serializes epoch allocation, top-level
///   publication (chain appends → watermark advance) *and* pin creation.
///   Without it, a commit at epoch `w+1` could garbage-collect the
///   version a snapshot racing to pin `w` is about to need; with it, a
///   pin either lands before the publisher reads the pin set (and is
///   respected) or after the watermark advanced (and pins `w+1`).
///   Allocation and publication may be two holds
///   ([`MvccStore::reserve`]): an epoch reserved in one hold is published
///   in a later one, **in epoch order** — it waits until the watermark
///   reaches the epoch below it. Out of order, a commit's in-place head
///   overwrite (no pin below it) could hide a version a pin on the
///   earlier epoch still needs.
/// * `min_pin` — cached minimum live pin (`u64::MAX` when none), read on
///   the append path so reclamation needs no pin-table lock.
///
/// **Reclamation rule**: a version may be dropped iff it has a successor
/// and the successor's epoch is ≤ the minimum live pin. (A pin `P` reads
/// the latest version with epoch ≤ `P`; a version whose successor is
/// already ≤ every pin can win that race for no pin — pins only grow, as
/// they always pin the current watermark.) With no pins this prunes every
/// chain to length 1 — liveness — and it never drops a version some live
/// pin still resolves to — safety. Both are property-tested.
///
/// **Time travel** ([`MvccStore::pin_at`]) is bounded below by
/// `oldest_retained`: the low-water mark of epochs still consistently
/// resolvable. Every prune raises it to the sweep bound *before* any
/// version is dropped (conservatively, inside the pin-table lock), so a
/// racing `pin_at` either sees the raise and rejects, or lands its pin
/// first and is respected by the sweep's bound.
///
/// Every raise stops at the minimum live pin (replay's
/// [`MvccStore::concede_retained`] runs before any pin exists), so **a
/// live pin is never below `oldest_retained`**: whatever a pinned reader
/// resolves stays resolvable until it unpins, however long it holds on —
/// a stuck pin costs memory, never consistency.
/// [`MvccStore::layout_violations`] checks this.
pub struct MvccStore<K, V> {
    map: RwLock<BTreeMap<K, Mutex<Chain<V>>>>,
    dirty: Mutex<Dirty<K, V>>,
    /// The commit order: watermark, reservations, publish lock.
    order: Order,
    /// Fast-pin ring: `RING_SLOTS` packed `(epoch << COUNT_BITS) | count`
    /// slots indexed by `epoch % RING_SLOTS`. A slot with count 0 is
    /// free (its epoch bits are stale). Ring pins and tree pins are
    /// fungible per epoch: the live pin count at epoch `e` is the ring
    /// count plus the tree count.
    ring: Box<[AtomicU64]>,
    /// Bumped once per ring registration, after the slot CAS and before
    /// the `min_pin` lowering. [`MvccStore::settle_min`] uses it to
    /// detect registrations racing its recompute-and-store of `min_pin`.
    reg_seq: AtomicU64,
    /// Gauge of live pins across ring and tree (the `pins_live` counter
    /// and the quiescence trigger for sweeps).
    live_pins: AtomicU64,
    /// The locked pin table, epoch → count: where a pin lands when the
    /// ring cannot take it (slot collision, count overflow, a publisher
    /// overlapping every retry) and where [`MvccStore::pin_at`] always
    /// lands, since a past epoch has no seqlock to validate against.
    pins: Mutex<BTreeMap<u64, u64>>,
    /// A lower bound on every live pin, ring or tree (`u64::MAX` when
    /// none): registrations only lower it, [`MvccStore::settle_min`]
    /// alone raises it.
    min_pin: AtomicU64,
    /// Oldest epoch still consistently resolvable (see the struct docs).
    oldest_retained: AtomicU64,
    /// Unpins since the last non-quiescent sweep (see [`MvccStore::unpin`]).
    unswept: AtomicU64,
    created: AtomicU64,
    reclaimed: AtomicU64,
}

/// The commit order, which every publication ticket borrows.
struct Order {
    /// Highest fully published epoch.
    watermark: AtomicU64,
    /// Highest allocated epoch: the watermark plus every epoch reserved
    /// and not yet published. Written under `lock` only.
    reserved: AtomicU64,
    /// The publish lock (see the struct docs), held by publication
    /// tickets and briefly by [`MvccStore::pin`] / [`MvccStore::pin_at`].
    /// It guards the number of threads parked on `turn`.
    lock: Mutex<usize>,
    /// Signalled, under `lock`, when the watermark advances and someone is
    /// parked: runs waiting for their turn, and threads waiting for an
    /// epoch to publish ([`MvccStore::wait_published`]).
    turn: Condvar,
    /// Seqlock over the publish critical section: odd while a ticket that
    /// appends is live, even otherwise. A fast pin registers in the ring
    /// and then validates that the sequence is unchanged and even — proof
    /// that no publisher overlapped its registration, which substitutes
    /// for taking the publish lock (see [`MvccStore::pin`]).
    seq: AtomicU64,
}

impl Order {
    /// Hold the publish lock (re-taking it if `held` is `None`) at the
    /// turn of `epoch`: once the watermark reached the epoch below it.
    fn lock_turn<'a>(
        &'a self,
        held: Option<MutexGuard<'a, usize>>,
        epoch: u64,
    ) -> MutexGuard<'a, usize> {
        let mut guard = held.unwrap_or_else(|| self.lock.lock());
        while self.watermark.load(Ordering::Acquire) + 1 != epoch {
            self.park(&mut guard);
        }
        guard
    }

    /// Wait on `turn`, counted in the lock's parked count.
    fn park(&self, guard: &mut MutexGuard<'_, usize>) {
        **guard += 1;
        self.turn.wait(guard);
        **guard -= 1;
    }

    /// Publish through `epoch`, under the lock (`guard`), waking whoever
    /// is parked for a turn. SeqCst: the store must order before the
    /// ticket's sequence flip, so a fast pin that reads the even sequence
    /// also reads this watermark (it pins the published epoch, never a
    /// stale one).
    fn advance(&self, guard: &MutexGuard<'_, usize>, epoch: u64) {
        self.watermark.store(epoch, Ordering::SeqCst);
        if **guard > 0 {
            self.turn.notify_all();
        }
    }
}

/// RAII half of the publish seqlock: constructing it flips the sequence
/// odd (publisher active), dropping it flips it back even. Fast pins
/// validate against the sequence instead of taking the publish lock, so
/// every ticket that appends under the lock must also hold one of these.
struct SeqCrit<'a> {
    seq: &'a AtomicU64,
}

impl<'a> SeqCrit<'a> {
    fn enter(order: &'a Order) -> Self {
        order.seq.fetch_add(1, Ordering::SeqCst);
        SeqCrit { seq: &order.seq }
    }
}

impl Drop for SeqCrit<'_> {
    fn drop(&mut self) {
        self.seq.fetch_add(1, Ordering::SeqCst);
    }
}

/// An exclusive publication ticket for one top-level commit, returned by
/// [`Reservation::publish`] at the reserved epoch's turn (or by
/// [`MvccStore::begin_publish`], which reserves and publishes in one
/// go). Holds the publish lock; the commit appends its versions at
/// [`Publish::epoch`], and dropping the ticket advances the watermark to
/// it — the instant the commit becomes visible to new snapshots, as one
/// unit, never as a prefix.
///
/// Field order is load-bearing: the `Drop` body stores the watermark,
/// then `_crit` drops (sequence goes even — fast pins may now trust the
/// new watermark), then `guard` releases the lock.
pub struct Publish<'a> {
    order: &'a Order,
    _crit: SeqCrit<'a>,
    guard: MutexGuard<'a, usize>,
    epoch: u64,
}

impl Publish<'_> {
    /// The commit epoch assigned to this publication.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

impl std::fmt::Debug for Publish<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Publish").field("epoch", &self.epoch).finish_non_exhaustive()
    }
}

impl Drop for Publish<'_> {
    fn drop(&mut self) {
        // Published at its turn: every earlier epoch is published.
        self.order.advance(&self.guard, self.epoch);
    }
}

/// One commit epoch allocated ahead of its publication, returned by
/// [`MvccStore::reserve`]: the two halves of a publication that must not
/// hold the publish lock in between.
///
/// It is born holding the lock, so whatever the caller orders against
/// the allocation (a log append) happens in the same hold;
/// [`Reservation::leave_gate`] releases it. [`Reservation::publish`]
/// then waits for the epoch's **turn** — every earlier epoch published —
/// and returns the [`Publish`] ticket the commit appends under.
/// A reserved epoch stays above the watermark until then: no pin can
/// land on it, and no later reservation can publish first.
///
/// Dropped unpublished, a reservation still publishes its epoch in turn,
/// empty, so no later reservation waits on it forever.
pub struct Reservation<'a> {
    order: &'a Order,
    gate: Option<MutexGuard<'a, usize>>,
    epoch: u64,
    published: bool,
}

impl<'a> Reservation<'a> {
    /// The reserved commit epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Release the publish lock taken at allocation (idempotent).
    pub fn leave_gate(&mut self) {
        self.gate = None;
    }

    /// Wait for the epoch's turn and take the publish lock for it.
    pub fn publish(mut self) -> Publish<'a> {
        self.published = true;
        let guard = self.order.lock_turn(self.gate.take(), self.epoch);
        let crit = SeqCrit::enter(self.order);
        Publish { order: self.order, _crit: crit, guard, epoch: self.epoch }
    }
}

impl std::fmt::Debug for Reservation<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reservation")
            .field("epoch", &self.epoch)
            .field("holds_gate", &self.gate.is_some())
            .finish_non_exhaustive()
    }
}

impl Drop for Reservation<'_> {
    fn drop(&mut self) {
        if !self.published {
            let guard = self.order.lock_turn(self.gate.take(), self.epoch);
            self.order.advance(&guard, self.epoch);
        }
    }
}

/// The publish critical section held *without* an epoch allocated yet,
/// returned by [`MvccStore::begin_publish_gate`]. Optimistic commit
/// validation runs under the gate: the lock excludes concurrent
/// publications, so the chain heads it observes are final for the
/// duration. On validation success the gate converts into a
/// [`Reservation`] ([`PublishGate::reserve`]), allocating the epoch in
/// the same hold; on failure it is simply dropped, releasing the lock
/// **without advancing the watermark** — an aborted validation leaves no
/// epoch gap. Epochs reserved earlier may still be unpublished: the gate
/// does not wait for them.
pub struct PublishGate<'a> {
    order: &'a Order,
    guard: MutexGuard<'a, usize>,
}

impl<'a> PublishGate<'a> {
    /// Allocate the next epoch, one above every epoch reserved so far,
    /// keeping the lock: the gate becomes that epoch's [`Reservation`].
    pub fn reserve(self) -> Reservation<'a> {
        let epoch = self.order.reserved.load(Ordering::Relaxed) + 1;
        self.order.reserved.store(epoch, Ordering::Relaxed);
        Reservation { order: self.order, gate: Some(self.guard), epoch, published: false }
    }
}

impl std::fmt::Debug for PublishGate<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PublishGate").finish_non_exhaustive()
    }
}

/// Drop every superseded version whose successor is ≤ `min_pin`.
/// Successor epochs ascend along the chain, so the droppable set is a
/// prefix of the spill. Returns how many versions were dropped.
fn prune<V>(chain: &mut Chain<V>, min_pin: u64) -> u64 {
    let Some(older) = chain.older.as_mut() else { return 0 };
    let successors = older.iter().skip(1).map(|&(e, _)| e).chain([chain.head.0]);
    let cut = successors.take_while(|&e| e <= min_pin).count();
    older.drain(..cut);
    cut as u64
}

/// The latest version in `chain` with epoch ≤ `epoch`, as `(epoch,
/// value)`: the head, else a reverse scan of the spill (short:
/// reclamation keeps only pinned spans).
fn resolve<V>(chain: &Chain<V>, epoch: u64) -> Option<&(u64, V)> {
    if chain.head.0 <= epoch {
        return Some(&chain.head);
    }
    chain.older.as_ref()?.iter().rev().find(|&&(e, _)| e <= epoch)
}

impl<K, V> MvccStore<K, V> {
    /// The highest fully published epoch.
    pub fn watermark(&self) -> u64 {
        self.order.watermark.load(Ordering::Acquire)
    }

    /// The oldest epoch a time-travel pin ([`MvccStore::pin_at`]) can
    /// still land on: reclamation has conceded everything below it.
    pub fn oldest_retained(&self) -> u64 {
        self.oldest_retained.load(Ordering::Acquire)
    }

    /// Raise the watermark to at least `epoch` (replay only: recovery
    /// learns epochs from the log instead of allocating them).
    pub fn advance_watermark(&self, epoch: u64) {
        self.order.watermark.fetch_max(epoch, Ordering::AcqRel);
        self.order.reserved.fetch_max(epoch, Ordering::AcqRel);
    }

    /// Concede that epochs below `epoch` are no longer consistently
    /// resolvable (replay only: a checkpoint compacts the history beneath
    /// its watermark, so post-recovery time travel must not reach under
    /// it — chains there start at their per-key checkpoint epochs, not at
    /// the versions that actually existed).
    pub fn concede_retained(&self, epoch: u64) {
        self.oldest_retained.fetch_max(epoch, Ordering::AcqRel);
    }

    /// The store's monotonic counters plus the live-pin gauge.
    pub fn counters(&self) -> MvccCounters {
        MvccCounters {
            created: self.created.load(Ordering::Relaxed),
            reclaimed: self.reclaimed.load(Ordering::Relaxed),
            pins_live: self.live_pins.load(Ordering::SeqCst),
        }
    }

    /// Register one pin at `epoch` in the ring and lower `min_pin` to it.
    /// Fails (caller takes the locked path) when the slot holds a
    /// different epoch with live pins, the slot's count would overflow,
    /// or the epoch doesn't pack.
    ///
    /// `reg_seq` is bumped *between* the slot CAS and the lowering. A
    /// settle whose re-check misses the bump stored before the lowering,
    /// so the lowering survives; one whose scan missed the slot sees the
    /// bump and re-scans. Lowering first would let a settle overwrite it
    /// and still pass its re-check: a live pin under a `min_pin` above
    /// it, whose version the next append overwrites in place.
    fn ring_register(&self, epoch: u64) -> bool {
        if epoch > MAX_FAST_EPOCH {
            return false;
        }
        let slot = &self.ring[(epoch as usize) % RING_SLOTS];
        let mut cur = slot.load(Ordering::SeqCst);
        loop {
            let (slot_epoch, count) = (cur >> COUNT_BITS, cur & COUNT_MASK);
            let next = if count == 0 {
                // Free slot (stale epoch bits): claim it.
                (epoch << COUNT_BITS) | 1
            } else if slot_epoch == epoch {
                if count == COUNT_MASK {
                    return false;
                }
                cur + 1
            } else {
                return false;
            };
            match slot.compare_exchange_weak(cur, next, Ordering::SeqCst, Ordering::SeqCst) {
                Ok(_) => break,
                Err(now) => cur = now,
            }
        }
        self.reg_seq.fetch_add(1, Ordering::SeqCst);
        self.min_pin.fetch_min(epoch, Ordering::SeqCst);
        true
    }

    /// Release one ring pin at `epoch`. Returns false when the ring holds
    /// no pin at that epoch (the pin lives in the locked table instead).
    fn ring_unregister(&self, epoch: u64) -> bool {
        if epoch > MAX_FAST_EPOCH {
            return false;
        }
        let slot = &self.ring[(epoch as usize) % RING_SLOTS];
        let mut cur = slot.load(Ordering::SeqCst);
        loop {
            if cur >> COUNT_BITS != epoch || cur & COUNT_MASK == 0 {
                return false;
            }
            match slot.compare_exchange_weak(cur, cur - 1, Ordering::SeqCst, Ordering::SeqCst) {
                Ok(_) => return true,
                Err(now) => cur = now,
            }
        }
    }

    /// Minimum epoch with a live ring pin (`u64::MAX` when none).
    fn ring_min(&self) -> u64 {
        let mut min = u64::MAX;
        for slot in self.ring.iter() {
            let v = slot.load(Ordering::SeqCst);
            if v & COUNT_MASK != 0 {
                min = min.min(v >> COUNT_BITS);
            }
        }
        min
    }

    /// Recompute `min_pin` from the ring and the locked table and *store*
    /// it — the only place `min_pin` ever rises. Must be called with the
    /// publish lock held: that excludes publishers, so every ring pin
    /// below the current watermark is visible to the scan (a pin below
    /// the watermark can only exist because some publisher ran after its
    /// validated registration, and we are ordered after that publisher by
    /// the lock). Ring pins still mid-registration can be missed, but
    /// they pin the current watermark, and no prune at any bound drops a
    /// chain's newest version — which has epoch ≤ watermark — so they
    /// are safe regardless.
    ///
    /// The store may race a concurrent registration's `fetch_min` and
    /// clobber it; `reg_seq` detects that, and the loop re-scans. If
    /// registrations keep landing, the bounded loop gives up and lowers
    /// conservatively (`fetch_min` never raises, so it can't clobber).
    fn settle_min(&self, tree_min: u64) -> u64 {
        for _ in 0..FAST_PIN_TRIES {
            let seq = self.reg_seq.load(Ordering::SeqCst);
            let min = self.ring_min().min(tree_min);
            self.min_pin.store(min, Ordering::SeqCst);
            if self.reg_seq.load(Ordering::SeqCst) == seq {
                return min;
            }
        }
        let min = self.ring_min().min(tree_min);
        self.min_pin.fetch_min(min, Ordering::SeqCst);
        min
    }
}

impl<K, V> std::fmt::Debug for MvccStore<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MvccStore")
            .field("watermark", &self.watermark())
            .field("oldest_retained", &self.oldest_retained())
            .field("counters", &self.counters())
            .finish_non_exhaustive()
    }
}

impl<K, V> MvccStore<K, V>
where
    K: Eq + Hash + Ord + Clone,
    V: Clone,
{
    /// An empty store. The argument is unused: it sized the hash shards
    /// of an earlier layout and stays so that callers written against it
    /// keep compiling.
    pub fn new(_shards: usize) -> Self {
        MvccStore {
            map: RwLock::new(BTreeMap::new()),
            dirty: Mutex::new(Dirty { keys: HashSet::new(), spare: Vec::new() }),
            order: Order {
                watermark: AtomicU64::new(GENESIS_EPOCH),
                reserved: AtomicU64::new(GENESIS_EPOCH),
                lock: Mutex::new(0),
                turn: Condvar::new(),
                seq: AtomicU64::new(0),
            },
            ring: (0..RING_SLOTS).map(|_| AtomicU64::new(0)).collect(),
            reg_seq: AtomicU64::new(0),
            live_pins: AtomicU64::new(0),
            pins: Mutex::new(BTreeMap::new()),
            min_pin: AtomicU64::new(u64::MAX),
            oldest_retained: AtomicU64::new(GENESIS_EPOCH),
            unswept: AtomicU64::new(0),
            created: AtomicU64::new(0),
            reclaimed: AtomicU64::new(0),
        }
    }

    /// Enter the publish critical section for one top-level commit,
    /// assigning it the next epoch. Append the commit's versions with
    /// [`MvccStore::append`] at [`Publish::epoch`], then drop the ticket
    /// to advance the watermark. Waits out any [`Reservation`] still
    /// unpublished.
    pub fn begin_publish(&self) -> Publish<'_> {
        self.reserve().publish()
    }

    /// Allocate the next epoch, `reserved+1`, for one top-level commit,
    /// holding the publish lock until [`Reservation::leave_gate`]; publish
    /// it later, in turn, with [`Reservation::publish`]. The publication
    /// is split so that whatever the caller does between the halves (a
    /// log force) overlaps other commits' halves.
    pub fn reserve(&self) -> Reservation<'_> {
        self.begin_publish_gate().reserve()
    }

    /// Enter the publish critical section *without* allocating an epoch.
    /// Optimistic commits validate their footprints against chain heads
    /// under the gate, then convert it ([`PublishGate::reserve`]) only if
    /// validation succeeds; dropping an unconverted gate releases the
    /// lock with the watermark untouched.
    pub fn begin_publish_gate(&self) -> PublishGate<'_> {
        PublishGate { order: &self.order, guard: self.order.lock.lock() }
    }

    /// Block until the watermark reaches `epoch`: every commit up to it
    /// published. Parks on the publication turn's condvar, holding no
    /// lock while parked.
    pub fn wait_published(&self, epoch: u64) {
        if self.watermark() >= epoch {
            return;
        }
        let mut guard = self.order.lock.lock();
        while self.order.watermark.load(Ordering::Acquire) < epoch {
            self.order.park(&mut guard);
        }
    }

    /// Append a version to `key`'s chain, entering the key into the map on
    /// first contact. `epoch` must be strictly above the chain's last
    /// (per-key publications are serialized by the lock manager, so
    /// callers get this for free). Reclaims the replaced head when no pin
    /// can resolve to it.
    pub fn append(&self, key: &K, epoch: u64, value: V) {
        {
            let map = self.map.read();
            if let Some(slot) = map.get(key) {
                return self.push_version(key, &mut slot.lock(), epoch, value);
            }
        }
        // First contact: the only exclusive use of the map lock, and the
        // only key clone. `entry`, because a racing seeder may have won
        // between the two locks.
        match self.map.write().entry(key.clone()) {
            Entry::Occupied(e) => self.push_version(key, e.into_mut().get_mut(), epoch, value),
            Entry::Vacant(slot) => {
                slot.insert(Mutex::new(Chain { head: (epoch, value), older: None }));
                self.created.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// [`MvccStore::append`] under `key`'s chain lock.
    ///
    /// An append reclaims only the head it replaces, and only while the
    /// chain has no spill. A spilled chain's older versions are the
    /// pin-release sweep's: `min_pin` rises only in a sweep, which prunes
    /// every spilled chain at its new bound under the publish lock that
    /// publication appends also hold, so nothing in a spill becomes
    /// droppable between sweeps.
    fn push_version(&self, key: &K, chain: &mut Chain<V>, epoch: u64, value: V) {
        debug_assert!(chain.head.0 < epoch, "chain epochs must ascend");
        self.created.fetch_add(1, Ordering::Relaxed);
        let old = std::mem::replace(&mut chain.head, (epoch, value));
        if chain.older.is_none() && epoch <= self.min_pin.load(Ordering::Acquire) {
            // No pin resolves below the new head: it overwrote the old
            // one. Epochs below it just lost resolution on this chain:
            // concede them so no later `pin_at` lands there. The head is
            // ≤ every live pin, so no live pin is invalidated; and
            // publish-path appends hold the publish lock, serializing
            // this raise against `pin_at`'s check.
            self.oldest_retained.fetch_max(epoch, Ordering::AcqRel);
            self.reclaimed.fetch_add(1, Ordering::Relaxed);
            return;
        }
        // A live pin may resolve to the old head: spill it, and on the
        // chain's first spill remember it for the pin-release sweep.
        let older = chain.older.get_or_insert_with(|| {
            let mut dirty = self.dirty.lock();
            dirty.keys.insert(key.clone());
            dirty.spare.pop().unwrap_or_default()
        });
        older.push(old);
    }

    /// Pin the current watermark for a snapshot. Balance with
    /// [`MvccStore::unpin`].
    ///
    /// **Fast path**: instead of taking the publish lock,
    /// register in the ring and *validate* that no publisher overlapped,
    /// via the publish seqlock. The registration order is load-bearing:
    ///
    /// 1. read `publish_seq` — bail to the locked path if odd;
    /// 2. read the watermark `w`;
    /// 3. CAS the ring slot (the pin becomes visible to min scans);
    /// 4. bump `reg_seq` (min scans racing us re-check);
    /// 5. lower `min_pin` to ≤ `w`;
    /// 6. re-read `publish_seq` — if unchanged, no publisher's critical
    ///    section overlapped steps 1–5, so every later publisher reads
    ///    `min_pin` ≤ `w` *after* our step 5 and respects the pin; if it
    ///    changed, undo the slot and retry (a publisher may have missed
    ///    us and pruned as if we weren't there).
    ///
    /// This is the struct docs' guarantee — "a pin either lands before
    /// the publisher reads the pin set or after the watermark advance" —
    /// enforced by optimistic validation instead of the lock.
    pub fn pin(&self) -> u64 {
        for _ in 0..FAST_PIN_TRIES {
            let seq = self.order.seq.load(Ordering::SeqCst);
            if seq & 1 == 1 {
                break; // publisher active — queue on its lock instead
            }
            let epoch = self.order.watermark.load(Ordering::SeqCst);
            if !self.ring_register(epoch) {
                break; // slot collision or overflow — locked path
            }
            if self.order.seq.load(Ordering::SeqCst) == seq {
                self.live_pins.fetch_add(1, Ordering::SeqCst);
                return epoch;
            }
            // A publisher overlapped the registration: the watermark
            // we pinned may already be stale. Undo and retry. Counts
            // at one epoch are fungible between ring and tree, so a
            // concurrent `unpin` of a *tree* pin at this epoch may
            // have consumed our ring count — the undo must then
            // release the tree entry that unpin left standing, or it
            // holds `min_pin` down forever. (`min_pin` stays
            // conservatively low until a settle.)
            let undone = self.release_at(epoch);
            debug_assert!(undone, "a registered pin is in the ring or the tree");
        }
        // The locked path: serialized against publishers by the publish
        // lock (see the struct docs for why).
        let _publish = self.order.lock.lock();
        let epoch = self.order.watermark.load(Ordering::Acquire);
        self.tree_register(&mut self.pins.lock(), epoch);
        epoch
    }

    /// Land one pin at `epoch` in the locked table. Ring pins may sit
    /// below the tree minimum, so `min_pin` is only ever lowered here —
    /// raising it is exclusively [`MvccStore::sweep_locked`]'s job.
    fn tree_register(&self, pins: &mut BTreeMap<u64, u64>, epoch: u64) {
        *pins.entry(epoch).or_insert(0) += 1;
        self.min_pin.fetch_min(epoch, Ordering::SeqCst);
        self.live_pins.fetch_add(1, Ordering::SeqCst);
    }

    /// Pin a *specific* epoch for a time-travel snapshot. Fails with
    /// [`PinError::Future`] above the watermark and [`PinError::Pruned`]
    /// below the oldest retained epoch. Serialized against publishers by
    /// the publish lock; ordered against concurrent sweeps by the
    /// pin-table lock (sweeps concede their bound to `oldest_retained`
    /// inside it, before dropping anything — so this check is race-free).
    pub fn pin_at(&self, epoch: u64) -> Result<u64, PinError> {
        let _publish = self.order.lock.lock();
        let watermark = self.order.watermark.load(Ordering::Acquire);
        if epoch > watermark {
            return Err(PinError::Future { requested: epoch, watermark });
        }
        let mut pins = self.pins.lock();
        let oldest_retained = self.oldest_retained.load(Ordering::Acquire);
        if epoch < oldest_retained {
            return Err(PinError::Pruned { requested: epoch, oldest_retained });
        }
        self.tree_register(&mut pins, epoch);
        Ok(epoch)
    }

    /// Add one more pin to an epoch that is already pinned (snapshot
    /// cloning). The epoch's versions are protected by the caller's
    /// existing pin (ring or tree), so no publisher validation is needed
    /// — the count lands wherever there is room.
    pub fn repin(&self, epoch: u64) {
        if self.ring_register(epoch) {
            self.live_pins.fetch_add(1, Ordering::SeqCst);
        } else {
            // The base pin may live in the ring, so a missing tree entry
            // is legitimate here.
            self.tree_register(&mut self.pins.lock(), epoch);
        }
    }

    /// Release a pin taken by [`MvccStore::pin`] / [`MvccStore::pin_at`].
    /// A ring-resident pin releases with one CAS; the `min_pin` raise,
    /// the `oldest_retained` concession and the sweep — the liveness half
    /// of reclamation: once all snapshots drop, chains shrink back to
    /// length 1 — happen at sweep points only: quiescence (the gauge
    /// draining) or the `SWEEP_EVERY` staleness bound, inside
    /// `MvccStore::sweep_locked`, which takes the publish lock so the
    /// recompute can never race a publisher. Skipping a sweep is always
    /// safe (it only delays reclamation; an unspilled chain's append
    /// still overwrites its head in place), and without the amortization
    /// every snapshot drop and every optimistic commit would serialize
    /// behind a chain walk.
    /// Deferring the floor raise is safe too: the floor only ever lags,
    /// admitting `pin_at`s a per-unpin raise would have rejected a little
    /// earlier, and those epochs are still resolvable (nothing was
    /// swept). Ring and tree counts at one epoch are fungible, so
    /// releasing "a" pin at the epoch — whichever copy is found first —
    /// keeps the totals exact.
    pub fn unpin(&self, epoch: u64) {
        if !self.release_at(epoch) {
            debug_assert!(false, "unpin of an epoch never pinned");
            return;
        }
        let left = self.live_pins.fetch_sub(1, Ordering::SeqCst) - 1;
        let backlog = self.unswept.fetch_add(1, Ordering::Relaxed) + 1;
        if left == 0 || backlog >= SWEEP_EVERY {
            self.sweep_locked();
        }
    }

    /// Release one pin count at `epoch` — the ring's if it has one, else
    /// the tree's (collision/overflow/`pin_at`, or the count a release
    /// that found the ring first left behind). False when neither holds
    /// a pin at `epoch`.
    fn release_at(&self, epoch: u64) -> bool {
        if self.ring_unregister(epoch) {
            return true;
        }
        let mut pins = self.pins.lock();
        match pins.get_mut(&epoch) {
            Some(n) if *n > 1 => *n -= 1,
            Some(_) => {
                pins.remove(&epoch);
            }
            None => return false,
        }
        true
    }

    /// Raise `min_pin` and the `oldest_retained` floor to the settled
    /// minimum live pin, then sweep. The publish lock excludes
    /// publishers and `pin_at` for the duration, so the bound cannot go
    /// stale mid-sweep, and the pin-table lock is held through the sweep
    /// so pin accounting and its sweep are one atomic step against tree
    /// pins; fast pins may still land concurrently, but they pin the
    /// current watermark, and no prune drops a chain's newest version
    /// (epoch ≤ watermark), so they are safe under any bound this
    /// computes. The floor is conceded *before* anything is dropped and
    /// capped at the watermark, so a pin-free store still allows pinning
    /// the present.
    fn sweep_locked(&self) {
        let _publish = self.order.lock.lock();
        let pins = self.pins.lock();
        let tree_min = pins.keys().next().copied().unwrap_or(u64::MAX);
        let min = self.settle_min(tree_min);
        let cap = self.order.watermark.load(Ordering::SeqCst);
        self.oldest_retained.fetch_max(min.min(cap), Ordering::AcqRel);
        self.unswept.store(0, Ordering::Relaxed);
        self.sweep(min);
        drop(pins);
    }

    /// Drop every version reclaimable under `min_pin`, store-wide.
    ///
    /// Only chains in the dirty set can hold a reclaimable version (an
    /// append spills only when some pin may hold its old head back), so
    /// the sweep visits exactly those — O(live multi-version chains),
    /// not O(keyspace). It takes the set, prunes outside the set's lock,
    /// and puts back the chains still long (an older pin persists); a key
    /// an append dirties meanwhile lands in the fresh set and waits for
    /// the next sweep.
    fn sweep(&self, min_pin: u64) {
        let mut dirty = self.dirty.lock();
        if dirty.keys.is_empty() {
            return;
        }
        let (mut taken, mut spare) = (take(&mut dirty.keys), take(&mut dirty.spare));
        drop(dirty);
        let mut dropped = 0;
        {
            let map = self.map.read();
            taken.retain(|key| {
                let Some(slot) = map.get(key) else { return false };
                let mut chain = slot.lock();
                dropped += prune(&mut chain, min_pin);
                let Some(spill) = chain.older.take_if(|older| older.is_empty()) else {
                    return chain.older.is_some();
                };
                spare.push(spill);
                false
            });
        }
        self.reclaimed.fetch_add(dropped, Ordering::Relaxed);
        // Swapped back to keep the allocations; what landed meanwhile merges in.
        let mut dirty = self.dirty.lock();
        std::mem::swap(&mut dirty.keys, &mut taken);
        dirty.keys.extend(taken);
        std::mem::swap(&mut dirty.spare, &mut spare);
        dirty.spare.extend(spare);
        dirty.spare.truncate(SPARE_CAP);
    }

    /// The latest version of `key` with epoch ≤ `epoch`, if any: one
    /// descent and one chain lock under the map's shared lock.
    pub fn read_at(&self, key: &K, epoch: u64) -> Option<V> {
        let map = self.map.read();
        let chain = map.get(key)?.lock();
        resolve(&chain, epoch).map(|(_, v)| v.clone())
    }

    /// A consistent key-ordered walk over every chain in `bounds`,
    /// resolved at `epoch`: for each key in range, the latest version
    /// with epoch ≤ `epoch` (keys with no such version — born after the
    /// pinned epoch by checkpoint replay — are skipped).
    ///
    /// One in-order walk of the map under its shared lock, taking each
    /// chain's lock in turn, so the scan blocks no publication (appends
    /// to known keys share the map lock) — only a first-contact seeder
    /// waits for it. Consistency comes from the epoch filter, not the
    /// locking: versions at or below a pinned epoch are immutable and
    /// GC-protected, and any commit racing the walk publishes at an epoch
    /// above it — invisible by construction.
    pub fn range_at<R>(&self, bounds: R, epoch: u64) -> Vec<(K, V)>
    where
        R: RangeBounds<K>,
    {
        let map = self.map.read();
        map.range((bounds.start_bound(), bounds.end_bound()))
            .filter_map(|(k, s)| resolve(&s.lock(), epoch).map(|(_, v)| (k.clone(), v.clone())))
            .collect()
    }

    /// Every key in `bounds`, ascending. (The key set is insert-only, so
    /// this is stable under concurrent commits; only a concurrent
    /// non-transactional seed can extend it.)
    pub fn keys_in<R>(&self, bounds: R) -> Vec<K>
    where
        R: RangeBounds<K>,
    {
        let map = self.map.read();
        map.range((bounds.start_bound(), bounds.end_bound())).map(|(k, _)| k.clone()).collect()
    }

    /// The newest epoch at which any key in `bounds` was written (`None`
    /// for an empty range): what first-committer-wins validation compares
    /// against a begin epoch to judge a scanned interval as a whole.
    pub fn max_epoch_in<R>(&self, bounds: R) -> Option<u64>
    where
        R: RangeBounds<K>,
    {
        let map = self.map.read();
        map.range((bounds.start_bound(), bounds.end_bound()))
            .map(|(_, slot)| slot.lock().head.0)
            .max()
    }

    /// The epoch of `key`'s newest version (`None` for unknown keys).
    pub fn last_epoch(&self, key: &K) -> Option<u64> {
        Some(self.map.read().get(key)?.lock().head.0)
    }

    /// Visit every key's newest version at or below `epoch` — the
    /// committed state as of `epoch` — as `(key, version epoch, value)`, in
    /// key order, without cloning; keys with no such version are skipped,
    /// as in [`MvccStore::range_at`]. Consistent only at an epoch no
    /// reclamation can pass: the watermark of a quiescent store, or a
    /// pinned one. `visit` runs under the map's shared lock and the
    /// chain's lock, so it must not call back into the store.
    pub fn for_each_at(&self, epoch: u64, mut visit: impl FnMut(&K, u64, &V)) {
        for (key, slot) in self.map.read().iter() {
            if let Some((version, value)) = resolve(&slot.lock(), epoch) {
                visit(key, *version, value);
            }
        }
    }

    /// `key`'s full committed version chain, oldest first.
    pub fn chain(&self, key: &K) -> Vec<(u64, V)> {
        let map = self.map.read();
        map.get(key).map(|slot| slot.lock().versions().cloned().collect()).unwrap_or_default()
    }

    /// Every key's chain, in key order.
    pub fn chains(&self) -> Vec<(K, Vec<(u64, V)>)> {
        let map = self.map.read();
        map.iter().map(|(k, slot)| (k.clone(), slot.lock().versions().cloned().collect())).collect()
    }

    /// Total versions currently held across all chains. Conservation:
    /// always equals `created - reclaimed` (property-tested).
    pub fn total_versions(&self) -> u64 {
        self.map.read().values().map(|slot| slot.lock().versions().count() as u64).sum()
    }

    /// The store's layout faults, empty when there are none: a live pin
    /// (ring or tree) below `oldest_retained`, a spill buffer present but
    /// empty, a long chain missing from the dirty set (no pin-release
    /// sweep would reclaim it), a spare list over its cap. Holds the
    /// publish lock, so no sweep has keys out of the set.
    ///
    /// The pin check is exact only at quiescence: a fast pin that has
    /// registered in the ring but not yet validated may show a stale
    /// epoch, which its failed validation then undoes.
    pub fn layout_violations(&self) -> Vec<String>
    where
        K: std::fmt::Debug,
    {
        let _publish = self.order.lock.lock();
        let mut out = Vec::new();
        let tree_min = self.pins.lock().keys().next().copied().unwrap_or(u64::MAX);
        let (pin, floor) = (self.ring_min().min(tree_min), self.oldest_retained());
        if pin < floor {
            out.push(format!("live pin at epoch {pin} below oldest retained {floor}"));
        }
        let spare = self.dirty.lock().spare.len();
        if spare > SPARE_CAP {
            out.push(format!("{spare} spare buffers, cap {SPARE_CAP}"));
        }
        for (key, slot) in self.map.read().iter() {
            let fault = match &slot.lock().older {
                Some(older) if older.is_empty() => "empty spill buffer",
                Some(_) if !self.dirty.lock().keys.contains(key) => {
                    "long chain not in the dirty set"
                }
                _ => continue,
            };
            out.push(format!("{key:?}: {fault}"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> MvccStore<u64, i64> {
        MvccStore::new(0)
    }

    /// Publish one single-key commit, returning its epoch.
    fn commit(s: &MvccStore<u64, i64>, key: u64, value: i64) -> u64 {
        let publish = s.begin_publish();
        let epoch = publish.epoch();
        s.append(&key, epoch, value);
        epoch
    }

    #[test]
    fn read_at_resolves_the_pinned_epoch() {
        let s = store();
        s.append(&1, GENESIS_EPOCH, 10);
        let pin = s.pin(); // pins genesis
        assert_eq!(commit(&s, 1, 20), 1);
        assert_eq!(commit(&s, 1, 30), 2);
        assert_eq!(s.read_at(&1, pin), Some(10), "snapshot sees its epoch, not the present");
        assert_eq!(s.read_at(&1, s.watermark()), Some(30));
        assert_eq!(s.read_at(&2, pin), None);
        s.unpin(pin);
    }

    #[test]
    fn dropped_gate_leaves_the_watermark_untouched() {
        let s = store();
        s.append(&1, GENESIS_EPOCH, 0);
        commit(&s, 1, 1);
        {
            let _gate = s.begin_publish_gate();
            // Validation failed: drop without reserving.
        }
        assert_eq!(s.watermark(), 1, "no epoch allocated by an abandoned gate");
        // The lock was released: the next publication proceeds and gets
        // the next epoch.
        assert_eq!(commit(&s, 1, 2), 2);
    }

    #[test]
    fn a_gate_reserves_past_an_unpublished_reservation() {
        let s = store();
        s.append(&1, GENESIS_EPOCH, 0);
        let mut earlier = s.reserve();
        earlier.leave_gate();
        // The gate does not wait for the earlier epoch to publish.
        let mut later = s.begin_publish_gate().reserve();
        assert_eq!((earlier.epoch(), later.epoch()), (1, 2));
        later.leave_gate();
        drop(earlier.publish());
        drop(later.publish());
        assert_eq!(s.watermark(), 2);
    }

    #[test]
    fn wait_published_returns_once_the_watermark_reaches_the_epoch() {
        let s = store();
        s.append(&1, GENESIS_EPOCH, 0);
        let mut reserved = s.reserve();
        reserved.leave_gate();
        s.wait_published(GENESIS_EPOCH);
        std::thread::scope(|scope| {
            let s = &s;
            let waiter = scope.spawn(move || s.wait_published(1));
            std::thread::sleep(std::time::Duration::from_millis(10));
            assert!(!waiter.is_finished(), "returned before the epoch published");
            drop(reserved.publish());
            waiter.join().unwrap();
        });
        assert_eq!(s.watermark(), 1);
    }

    #[test]
    fn unpinned_chains_collapse_to_length_one() {
        let s = store();
        s.append(&1, GENESIS_EPOCH, 0);
        for i in 1..=5 {
            commit(&s, 1, i);
        }
        // No pins: every superseded version reclaimed at append time.
        assert_eq!(s.chain(&1), vec![(5, 5)]);
        let c = s.counters();
        assert_eq!(c.created, 6);
        assert_eq!(c.reclaimed, 5);
        assert_eq!(s.total_versions(), 1);
    }

    #[test]
    fn pins_hold_versions_and_release_sweeps() {
        let s = store();
        s.append(&1, GENESIS_EPOCH, 0);
        commit(&s, 1, 1);
        let pin = s.pin(); // pin epoch 1
        commit(&s, 1, 2);
        commit(&s, 1, 3);
        // Version (1,1) is held by the pin; (2,2) superseded at 3 > pin so
        // it is held too (the pin rule is per-successor, and 3 > 1)… no:
        // successor epochs 2,3 vs min pin 1 — (1,1)'s successor is 2 > 1,
        // kept; (2,2)'s successor is 3 > 1, kept. Chain is full.
        assert_eq!(s.chain(&1), vec![(1, 1), (2, 2), (3, 3)]);
        assert_eq!(s.read_at(&1, pin), Some(1));
        assert_eq!(s.counters().pins_live, 1);
        s.unpin(pin);
        assert_eq!(s.chain(&1), vec![(3, 3)], "release sweeps the chain down");
        assert_eq!(s.counters().pins_live, 0);
        assert_eq!(s.total_versions(), 1);
    }

    #[test]
    fn pin_then_publish_is_ordered() {
        let s = store();
        s.append(&1, GENESIS_EPOCH, 0);
        let pin = s.pin();
        assert_eq!(pin, GENESIS_EPOCH);
        let publish = s.begin_publish();
        assert_eq!(publish.epoch(), 1);
        s.append(&1, publish.epoch(), 7);
        // Not yet published: the watermark (and any new pin) is still 0.
        assert_eq!(s.watermark(), GENESIS_EPOCH);
        drop(publish);
        assert_eq!(s.watermark(), 1);
        assert_eq!(s.pin(), 1);
        s.unpin(pin);
        s.unpin(1);
    }

    #[test]
    fn conservation_created_minus_reclaimed_is_live() {
        let s = store();
        for k in 0..8 {
            s.append(&k, GENESIS_EPOCH, 0);
        }
        let pin = s.pin();
        for i in 0..20 {
            commit(&s, i % 8, i as i64);
        }
        let c = s.counters();
        assert_eq!(c.created - c.reclaimed, s.total_versions());
        s.unpin(pin);
        let c = s.counters();
        assert_eq!(c.created - c.reclaimed, s.total_versions());
        assert_eq!(s.total_versions(), 8);
    }

    #[test]
    fn a_reservation_allocates_an_epoch_and_publishes_it_when_the_ticket_drops() {
        let s = store();
        s.append(&1, GENESIS_EPOCH, 0);
        commit(&s, 1, 1); // watermark -> 1
        let mut reserved = s.reserve();
        assert_eq!(reserved.epoch(), 2);
        reserved.leave_gate();
        // Allocated is not published: a pin still lands on the watermark.
        assert_eq!(s.watermark(), 1);
        let pin = s.pin();
        assert_eq!(pin, 1);
        let publish = reserved.publish();
        assert_eq!(publish.epoch(), 2);
        for k in 10..13u64 {
            s.append(&k, publish.epoch(), k as i64);
        }
        // Nothing visible until the ticket drops: no partial commit.
        assert_eq!(s.watermark(), 1);
        drop(publish);
        assert_eq!(s.watermark(), 2, "the whole commit published at once");
        // Numbering continues contiguously after a reservation.
        assert_eq!(commit(&s, 1, 9), 3);
        s.unpin(pin);
    }

    #[test]
    fn a_later_run_waits_for_the_earlier_one_to_publish() {
        let s = store();
        for k in 0..2u64 {
            s.append(&k, GENESIS_EPOCH, 10);
        }
        let mut earlier = s.reserve();
        earlier.leave_gate();
        std::thread::scope(|scope| {
            let s = &s;
            let later = scope.spawn(move || {
                let later = s.reserve();
                assert_eq!(later.epoch(), 2);
                let publish = later.publish();
                s.append(&1, publish.epoch(), 12);
            });
            std::thread::sleep(std::time::Duration::from_millis(20));
            assert!(!later.is_finished(), "the later run published before its turn");
            assert_eq!(s.watermark(), GENESIS_EPOCH);
            // No pin was live, so an out-of-turn publication would have
            // overwritten key 1's seed in place: this pin would read it
            // absent. In turn, it reads every key it could before.
            let pin = s.pin();
            assert_eq!((s.read_at(&0, pin), s.read_at(&1, pin)), (Some(10), Some(10)));
            let publish = earlier.publish();
            s.append(&0, publish.epoch(), 11);
            drop(publish);
            later.join().unwrap();
            assert_eq!(s.watermark(), 2);
            assert_eq!((s.read_at(&0, pin), s.read_at(&1, pin)), (Some(10), Some(10)));
            assert_eq!((s.read_at(&0, 2), s.read_at(&1, 2)), (Some(11), Some(12)));
            s.unpin(pin);
        });
    }

    #[test]
    fn a_dropped_reservation_still_advances_the_watermark() {
        let s = store();
        s.append(&1, GENESIS_EPOCH, 0);
        // Dropped while still holding the gate, a reservation publishes
        // its epoch empty.
        drop(s.reserve());
        assert_eq!(s.watermark(), 1);
        let mut abandoned = s.reserve();
        abandoned.leave_gate();
        let mut next = s.reserve();
        next.leave_gate();
        assert_eq!(next.epoch(), 3);
        // Dropped after leaving the gate, it takes its turn like any
        // reservation, so the one behind it is not stranded.
        drop(abandoned);
        assert_eq!(s.watermark(), 2);
        s.append(&1, next.publish().epoch(), 7);
        assert_eq!(s.watermark(), 3);
        // A one-hold publication allocates after every reservation.
        assert_eq!(commit(&s, 1, 8), 4);
        assert_eq!(s.chain(&1), vec![(4, 8)]);
    }

    #[test]
    fn shared_pin_epoch_refcounts() {
        let s = store();
        s.append(&1, GENESIS_EPOCH, 0);
        let a = s.pin();
        let b = s.pin();
        assert_eq!(a, b);
        assert_eq!(s.counters().pins_live, 2);
        commit(&s, 1, 1);
        s.unpin(a);
        assert_eq!(s.read_at(&1, b), Some(0), "second pin still holds the version");
        s.unpin(b);
        assert_eq!(s.chain(&1), vec![(1, 1)]);
    }

    #[test]
    fn range_at_walks_keys_in_order() {
        let s = store();
        for k in [5u64, 1, 9, 3, 7] {
            s.append(&k, GENESIS_EPOCH, k as i64 * 10);
        }
        let pin = s.pin();
        assert_eq!(
            s.range_at(.., pin),
            vec![(1, 10), (3, 30), (5, 50), (7, 70), (9, 90)],
            "full scan in key order"
        );
        assert_eq!(s.range_at(3..8, pin), vec![(3, 30), (5, 50), (7, 70)]);
        assert_eq!(s.range_at(3..=7, pin), vec![(3, 30), (5, 50), (7, 70)]);
        assert_eq!(s.range_at(10.., pin), vec![]);
        assert_eq!(s.keys_in(..), vec![1, 3, 5, 7, 9]);
        s.unpin(pin);
    }

    #[test]
    fn range_at_resolves_the_pinned_epoch() {
        let s = store();
        s.append(&1, GENESIS_EPOCH, 10);
        s.append(&2, GENESIS_EPOCH, 20);
        let pin = s.pin();
        commit(&s, 1, 11);
        commit(&s, 2, 22);
        assert_eq!(s.range_at(.., pin), vec![(1, 10), (2, 20)], "scan frozen at the pin");
        assert_eq!(s.range_at(.., s.watermark()), vec![(1, 11), (2, 22)]);
        // A key whose chain starts above the scanned epoch is skipped.
        s.append(&3, 5, 30); // checkpoint-style late-born key
        assert_eq!(s.range_at(.., pin), vec![(1, 10), (2, 20)]);
        // Interval validation sees the newest write anywhere in bounds.
        assert_eq!(s.max_epoch_in(1..=1), Some(1));
        assert_eq!(s.max_epoch_in(1..3), Some(2));
        assert_eq!(s.max_epoch_in(..), Some(5));
        assert_eq!(s.max_epoch_in(10..), None, "no key in range");
        s.unpin(pin);
    }

    #[test]
    fn pin_at_travels_within_retained_epochs() {
        let s = store();
        s.append(&1, GENESIS_EPOCH, 0);
        let hold = s.pin(); // pin genesis: everything ≥ 0 stays retained
        for i in 1..=4 {
            commit(&s, 1, i);
        }
        for epoch in 0..=4u64 {
            let pin = s.pin_at(epoch).expect("epoch within retained span");
            assert_eq!(s.read_at(&1, pin), Some(epoch as i64));
            s.unpin(pin);
        }
        assert_eq!(
            s.pin_at(9),
            Err(PinError::Future { requested: 9, watermark: 4 }),
            "cannot pin the future"
        );
        s.unpin(hold);
    }

    #[test]
    fn pin_at_rejects_pruned_epochs() {
        let s = store();
        s.append(&1, GENESIS_EPOCH, 0);
        for i in 1..=3 {
            commit(&s, 1, i);
        }
        // No pins were live, so every superseded version is gone and the
        // sweep bound was conceded: the deep past must be rejected.
        let pin = s.pin();
        s.unpin(pin); // trigger a sweep that raises the concession
        match s.pin_at(0) {
            Err(PinError::Pruned { requested: 0, oldest_retained }) => {
                assert!(oldest_retained > 0);
            }
            other => panic!("expected Pruned, got {other:?}"),
        }
        // The present always pins.
        let now = s.pin_at(s.watermark()).expect("watermark is always retained");
        s.unpin(now);
    }

    #[test]
    fn repin_shares_the_epoch() {
        let s = store();
        s.append(&1, GENESIS_EPOCH, 0);
        let pin = s.pin();
        s.repin(pin);
        assert_eq!(s.counters().pins_live, 2);
        commit(&s, 1, 1);
        s.unpin(pin);
        assert_eq!(s.read_at(&1, pin), Some(0), "clone still holds the version");
        s.unpin(pin);
        assert_eq!(s.chain(&1), vec![(1, 1)]);
    }

    #[test]
    fn concurrent_pins_never_lose_their_version() {
        // Regression: `unpin` once swept *outside* the pin-table lock
        // with its captured minimum. A fresh pin plus a publish could
        // land in between, and the stale sweep then dropped the very
        // version the new pin resolves to. Under churn, every live pin
        // must always resolve every seeded key.
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        const KEYS: u64 = 8;
        let s = Arc::new(MvccStore::<u64, i64>::new(4));
        for k in 0..KEYS {
            s.append(&k, GENESIS_EPOCH, k as i64);
        }
        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let s = Arc::clone(&s);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut v = 0i64;
                while !stop.load(Ordering::Relaxed) {
                    let publish = s.begin_publish();
                    let epoch = publish.epoch();
                    s.append(&(v as u64 % KEYS), epoch, v);
                    drop(publish);
                    v += 1;
                }
            })
        };
        let pinners: Vec<_> = (0..2)
            .map(|p| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for i in 0..20_000u64 {
                        let pin = s.pin();
                        let key = (p + i) % KEYS;
                        assert!(s.read_at(&key, pin).is_some(), "live pin at {pin} lost key {key}");
                        assert_eq!(
                            s.range_at(.., pin).len(),
                            KEYS as usize,
                            "live pin at {pin} lost part of the keyspace"
                        );
                        s.unpin(pin);
                    }
                })
            })
            .collect();
        for h in pinners {
            h.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();
    }

    #[test]
    fn fast_pins_fall_back_on_ring_slot_collision() {
        // Two live pins whose epochs collide modulo the ring size cannot
        // share a slot: the second lands in the locked table instead,
        // and both still hold their versions until released.
        let s = store();
        s.append(&1, GENESIS_EPOCH, 0);
        let old = s.pin();
        for _ in 0..RING_SLOTS {
            commit(&s, 1, 1);
        }
        let new = s.pin();
        assert_eq!(new, old + RING_SLOTS as u64, "epochs collide modulo the ring");
        assert_eq!(s.counters().pins_live, 2);
        assert_eq!(s.read_at(&1, old), Some(0), "colliding pin still resolves");
        s.unpin(old);
        s.unpin(new);
        assert_eq!(s.counters().pins_live, 0);
        s.unpin(s.pin()); // quiescent release forces a settle + sweep
        assert_eq!(s.chain(&1).len(), 1, "chains collapse once all pins drop");
    }

    #[test]
    fn fast_pins_mix_ring_and_tree_at_one_epoch() {
        // `pin()` lands in the ring, `pin_at` of the same epoch lands in
        // the tree. Counts at one epoch are fungible: releases resolve
        // against either copy and the totals stay exact.
        let s = store();
        s.append(&1, GENESIS_EPOCH, 0);
        commit(&s, 1, 1);
        let ring_pin = s.pin();
        let tree_pin = s.pin_at(ring_pin).expect("watermark epoch is retained");
        assert_eq!(ring_pin, tree_pin);
        assert_eq!(s.counters().pins_live, 2);
        commit(&s, 1, 2);
        s.unpin(ring_pin);
        assert_eq!(s.read_at(&1, tree_pin), Some(1), "remaining pin holds the version");
        s.unpin(tree_pin);
        assert_eq!(s.counters().pins_live, 0);
        assert_eq!(s.chain(&1), vec![(2, 2)]);
    }

    #[test]
    fn pin_churn_leaves_no_pin_behind() {
        // Regression: when the fast pin's seqlock validation failed, the
        // undo released only a *ring* count and ignored failure. A
        // concurrent `unpin` of a tree-resident pin at the same epoch
        // could already have consumed that count, so the tree entry it
        // left standing was never released: `min_pin` stuck there, every
        // later append left a two-version chain, and the dirty set (and
        // each quiescent sweep over it) grew without bound.
        use std::sync::{Arc, Barrier};
        let s = Arc::new(store());
        for k in 0..2u64 {
            s.append(&k, GENESIS_EPOCH, 0);
        }
        let start = Arc::new(Barrier::new(2));
        let threads: Vec<_> = (0..2u64)
            .map(|t| {
                let s = Arc::clone(&s);
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    start.wait();
                    for i in 0..300_000i64 {
                        let pin = s.pin();
                        commit(&s, t, i);
                        s.unpin(pin);
                    }
                })
            })
            .collect();
        for h in threads {
            h.join().unwrap();
        }
        let tree = s.pins.lock().clone();
        assert!(tree.is_empty(), "tree pins leaked: {tree:?}");
        assert_eq!(s.ring_min(), u64::MAX, "ring pins leaked");
        assert_eq!(s.counters().pins_live, 0);
        assert_eq!(s.total_versions(), 2, "nothing pinned: chains collapse");
        assert!(s.dirty.lock().keys.is_empty());
    }

    /// The number of spill buffers waiting on the spare list.
    fn spares(s: &MvccStore<u64, i64>) -> usize {
        s.dirty.lock().spare.len()
    }

    /// Whether `key`'s chain has a spill buffer.
    fn spilled(s: &MvccStore<u64, i64>, key: u64) -> bool {
        s.map.read()[&key].lock().older.is_some()
    }

    #[test]
    fn a_chain_slot_is_as_small_as_an_empty_vec() {
        // The head lives in the slot, so a key with one committed version
        // costs its B-tree slot and nothing on the heap.
        assert_eq!(std::mem::size_of::<Mutex<Chain<u64>>>(), 32);
        assert_eq!(
            std::mem::size_of::<Mutex<Chain<u64>>>(),
            std::mem::size_of::<Mutex<Vec<u64>>>()
        );
    }

    #[test]
    fn an_unpinned_append_overwrites_the_head_in_place() {
        let s = store();
        s.append(&1, GENESIS_EPOCH, 0);
        for i in 1..=5 {
            commit(&s, 1, i);
            assert!(!spilled(&s, 1), "no pin, so nothing to spill");
        }
        assert_eq!(s.chain(&1), vec![(5, 5)]);
        assert_eq!(spares(&s), 0, "no buffer was ever allocated");
        assert!(s.dirty.lock().keys.is_empty());
        assert_eq!(s.layout_violations(), Vec::<String>::new());
    }

    #[test]
    fn a_pinned_append_spills_and_the_unpin_recycles_the_buffer() {
        let s = store();
        s.append(&1, GENESIS_EPOCH, 0);
        s.append(&2, GENESIS_EPOCH, 0);
        let pin = s.pin();
        commit(&s, 1, 1);
        assert!(spilled(&s, 1), "the pin still resolves to the old head");
        assert!(s.dirty.lock().keys.contains(&1));
        assert_eq!(s.layout_violations(), Vec::<String>::new());
        s.unpin(pin);
        assert!(!spilled(&s, 1), "the sweep collapsed the chain");
        assert_eq!(s.chain(&1), vec![(1, 1)]);
        assert_eq!(spares(&s), 1, "its buffer waits for the next spill");
        // The next spill, on another key, takes that buffer, and the
        // next sweep gives it back again: one buffer serves both.
        let pin = s.pin();
        commit(&s, 2, 2);
        assert!(spilled(&s, 2));
        assert_eq!(spares(&s), 0);
        s.unpin(pin);
        assert_eq!(spares(&s), 1);
        assert_eq!(s.layout_violations(), Vec::<String>::new());
    }

    #[test]
    fn the_spare_list_stops_at_its_cap() {
        let s = store();
        let keys = (SPARE_CAP + 8) as u64;
        for k in 0..keys {
            s.append(&k, GENESIS_EPOCH, 0);
        }
        let pin = s.pin();
        let publish = s.begin_publish();
        for k in 0..keys {
            s.append(&k, publish.epoch(), 1);
        }
        drop(publish);
        assert_eq!(s.dirty.lock().keys.len() as u64, keys, "every chain spilled");
        s.unpin(pin);
        assert_eq!(spares(&s), SPARE_CAP, "more chains collapsed than the cap keeps");
        assert_eq!(s.total_versions(), keys);
        assert_eq!(s.layout_violations(), Vec::<String>::new());
    }

    #[test]
    fn the_layout_check_reports_each_fault() {
        let s = store();
        for k in 0..3 {
            s.append(&k, GENESIS_EPOCH, 0);
        }
        let pin = s.pin();
        commit(&s, 0, 1);
        commit(&s, 1, 1);
        assert_eq!(s.layout_violations(), Vec::<String>::new());
        // A live pin under the floor, a spill left empty, a long chain
        // the dirty set lost, and a spare list over its cap: each is
        // reported.
        s.concede_retained(s.watermark());
        s.map.read()[&2].lock().older = Some(Box::default());
        s.dirty.lock().keys.remove(&1);
        s.dirty.lock().spare.resize_with(SPARE_CAP + 1, Box::default);
        let found = s.layout_violations();
        assert_eq!(found.len(), 4, "{found:?}");
        assert!(found.iter().any(|v| v.starts_with("live pin at epoch 0")), "{found:?}");
        assert!(found.iter().any(|v| v.starts_with("2: empty spill")), "{found:?}");
        assert!(found.iter().any(|v| v.starts_with("1: long chain")), "{found:?}");
        assert!(found.iter().any(|v| v.contains("spare")), "{found:?}");
        s.unpin(pin);
    }
}
