//! The gossip router: the paper's message buffer made executable.
//!
//! Cross-node commit status travels as *deliveries*: when a cluster
//! transaction commits at its home node, each remote participant is
//! handed to the router with the commit's cluster sequence number and a
//! redo image of its writes. The router is one **lane** per recipient —
//! FIFO queue, delivery log and counters behind the lane's own lock —
//! applied strictly in enqueue order. Two commits that conflict at a node
//! enqueue there in cluster-sequence order (the later cannot lock the key
//! before the earlier's delivery is applied), so each node's apply order
//! of *conflicting* commits embeds into the cluster serialization — the
//! runtime shadow of Theorem 29. Commits sharing no lane share no lock.
//!
//! Fault classes the lanes model:
//!
//! * **delayed gossip** — a per-link hold count, aged once per pump
//!   round of the lane; a held delivery blocks its recipient's queue
//!   (head-of-line, preserving order);
//! * **partition** — a blocked link; deliveries pile up until healed;
//! * **node crash** — a delivery that arrives at a node whose
//!   incarnation changed since enqueue has lost its participant
//!   transaction to recovery; a committed delivery is then applied as a
//!   *redo* (fresh transaction re-playing the write image), which is
//!   exactly why the enqueue captures one.
//!
//! The abort path never queues: aborts propagate eagerly (the paper's
//! resilience bias — release locks as soon as status is known), so only
//! commit statuses are subject to gossip policy and faults.

use crate::cluster::{Key, Participant, Value};
use parking_lot::{Mutex, MutexGuard};
use rnt_core::Db;
use rnt_distributed::NodeId;
use std::collections::{BTreeSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};

/// One queued commit status for a remote participant.
pub(crate) struct Delivery<K: Key, V: Value> {
    /// Cluster commit sequence number of the transaction.
    pub cseq: u64,
    /// Cluster transaction id.
    pub ctid: u64,
    /// The sending (home) node.
    pub from: NodeId,
    /// Remaining pump rounds this delivery is held by link delay.
    pub hold: u32,
    /// The remote participant, committed on delivery — or, if its node
    /// crashed in between, dropped and redone from its write image.
    pub part: Participant<K, V>,
}

/// Traffic and fault accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// Deliveries enqueued (`send` events).
    pub sends: u64,
    /// Deliveries applied (`receive` events).
    pub receives: u64,
    /// Summary entries shipped (eager gossip re-ships full knowledge).
    pub entries_shipped: u64,
    /// Committed deliveries applied as redo after a crash.
    pub redo_applied: u64,
    /// Remote participant commits that failed (e.g. a WAL fault at the
    /// recipient); the cluster commit itself already stood.
    pub remote_commit_failures: u64,
}

/// One recipient's share of the message buffer.
pub(crate) struct Lane<K: Key, V: Value> {
    pub queue: VecDeque<Delivery<K, V>>,
    /// Applied `(cseq, ctid)` order, for the embedding checks; recorded
    /// only when tracing.
    pub delivery_log: Vec<(u64, u64)>,
    /// Traffic *into* this lane; the cluster's totals are the lanes' sum.
    pub stats: RouterStats,
}

impl<K: Key, V: Value> Lane<K, V> {
    /// Age the head-of-line hold by one pump round.
    pub fn age(&mut self) {
        if let Some(front) = self.queue.front_mut() {
            front.hold = front.hold.saturating_sub(1);
        }
    }
}

/// Per-recipient lanes plus link state. The link flags and counters are
/// plain atomics (`Relaxed`: each is a standalone value that publishes
/// no other data), so no lane lock is needed to read them.
pub(crate) struct Router<K: Key, V: Value> {
    lanes: Vec<Mutex<Lane<K, V>>>,
    /// `blocked[from * k + to]`: the link is partitioned.
    blocked: Vec<AtomicBool>,
    /// `delay[from * k + to]`: pump rounds a fresh delivery on this link waits.
    delay: Vec<AtomicU32>,
    /// How many statuses each node knows (delivered or locally resolved)
    /// — the size of the runtime `i.T`, for eager-gossip payload accounting.
    known: Vec<AtomicU64>,
    /// Commits resolved since the last periodic pump.
    since_pump: AtomicU32,
}

impl<K: Key, V: Value> Router<K, V> {
    pub fn new(nodes: usize) -> Self {
        let lane =
            || Lane { queue: VecDeque::new(), delivery_log: Vec::new(), stats: Default::default() };
        Router {
            lanes: (0..nodes).map(|_| Mutex::new(lane())).collect(),
            blocked: (0..nodes * nodes).map(|_| AtomicBool::new(false)).collect(),
            delay: (0..nodes * nodes).map(|_| AtomicU32::new(0)).collect(),
            known: (0..nodes).map(|_| AtomicU64::new(0)).collect(),
            since_pump: AtomicU32::new(0),
        }
    }

    fn link(&self, from: NodeId, to: NodeId) -> usize {
        from * self.lanes.len() + to
    }

    /// Lock `to`'s lane.
    pub fn lane(&self, to: NodeId) -> MutexGuard<'_, Lane<K, V>> {
        self.lanes[to].lock()
    }

    pub fn set_blocked(&self, from: NodeId, to: NodeId, blocked: bool) {
        self.blocked[self.link(from, to)].store(blocked, Ordering::Relaxed);
    }

    pub fn set_delay(&self, from: NodeId, to: NodeId, rounds: u32) {
        self.delay[self.link(from, to)].store(rounds, Ordering::Relaxed);
    }

    /// Heal all partitions and clear all delays.
    pub fn heal(&self) {
        self.blocked.iter().for_each(|b| b.store(false, Ordering::Relaxed));
        self.delay.iter().for_each(|d| d.store(0, Ordering::Relaxed));
    }

    /// `node` learned one more status (its own commit, or a delivery).
    pub fn learn(&self, node: NodeId) {
        self.known[node].fetch_add(1, Ordering::Relaxed);
    }

    /// Enqueue a commit delivery on `to`'s (locked) lane, charging the
    /// link's current delay.
    pub fn enqueue(&self, lane: &mut Lane<K, V>, mut d: Delivery<K, V>, eager_full: bool) {
        d.hold = self.delay[self.link(d.from, d.part.node)].load(Ordering::Relaxed);
        lane.stats.sends += 1;
        // Delta gossip ships one entry; eager gossip re-ships the
        // sender's whole knowledge alongside it.
        lane.stats.entries_shipped +=
            if eager_full { self.known[d.from].load(Ordering::Relaxed) + 1 } else { 1 };
        lane.queue.push_back(d);
    }

    /// True if the front delivery of `to`'s lane may be applied now.
    pub fn front_deliverable(&self, lane: &Lane<K, V>, to: NodeId, flush: bool) -> bool {
        lane.queue.front().is_some_and(|d| {
            flush || (d.hold == 0 && !self.blocked[self.link(d.from, to)].load(Ordering::Relaxed))
        })
    }

    /// Count one commit toward the periodic pump; true every `every`-th.
    pub fn tick(&self, every: u32) -> bool {
        let due = self.since_pump.fetch_add(1, Ordering::Relaxed) + 1 >= every;
        if due {
            self.since_pump.store(0, Ordering::Relaxed);
        }
        due
    }

    /// The lanes' summed counters and the deliveries still queued.
    pub fn totals(&self) -> (RouterStats, usize) {
        let mut sum = RouterStats::default();
        let mut pending = 0;
        for lane in &self.lanes {
            let lane = lane.lock();
            sum.sends += lane.stats.sends;
            sum.receives += lane.stats.receives;
            sum.entries_shipped += lane.stats.entries_shipped;
            sum.redo_applied += lane.stats.redo_applied;
            sum.remote_commit_failures += lane.stats.remote_commit_failures;
            pending += lane.queue.len();
        }
        (sum, pending)
    }
}

/// Apply one delivery against the recipient's current database state.
/// Returns the keys whose locks the recipient released (for the trace).
pub(crate) fn apply_delivery<K: Key, V: Value>(
    d: Delivery<K, V>,
    db: &Db<K, V>,
    incarnation: u64,
    stats: &mut RouterStats,
) -> BTreeSet<K> {
    stats.receives += 1;
    let Participant { txn, writes, touched, incarnation: born, .. } = d.part;
    if born == incarnation {
        if txn.is_some_and(|txn| txn.commit().is_err()) {
            stats.remote_commit_failures += 1;
        }
    } else {
        // The participant died with the old incarnation; recovery kept
        // only locally-committed state, so re-play the write image (in
        // write order: the last value per key wins).
        drop(txn);
        if !writes.is_empty() {
            let redo = db.begin();
            if writes.into_iter().all(|(k, v)| redo.write(&k, v).is_ok()) && redo.commit().is_ok() {
                stats.redo_applied += 1;
            } else {
                stats.remote_commit_failures += 1;
            }
        }
    }
    touched
}
