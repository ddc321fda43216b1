//! The sharded multi-node engine.
//!
//! A [`Cluster`] is `k` full [`Db`] nodes — each with its own lock
//! manager, MVCC store, commit pipeline and (optionally) write-ahead log
//! — behind one transaction surface. Keys are routed by the
//! deterministic [`Partition`] (`home(x)`, Section 9.1); a cluster
//! transaction materializes a *participant* engine transaction per node
//! it touches, lazily, and nested cluster transactions materialize
//! engine subtransactions under the participants.
//!
//! Commit protocol (no two-phase commit needed): nodes run Moss locking
//! ([`rnt_core::CcMode::Locking`]), under which a participant that
//! performed its accesses can always commit — validation cannot fail at
//! commit time. A cluster commit therefore commits the **home**
//! participant synchronously (that is the commit point, sequenced by a
//! cluster sequence number) and hands each remote participant to the
//! gossip router, which commits it when the status delivery arrives.
//! Until then the remote node's locks stay held — gossip is
//! load-bearing, exactly as in the paper's level-5 algebra where a node
//! may release a lock only once its *local* summary knows the holder
//! committed. Aborts propagate eagerly (the resilience bias: locks of
//! dead transactions should die fast).
//!
//! A transaction's home is the node of its **first access** (`ctid % k`
//! if it opens a subtransaction or commits before touching a key): the
//! paper's `origin` map may be any fixed assignment, and a footprint
//! that stays on one node then never meets the router. No mutex on a
//! transaction's path is cluster-wide; the lock order is commit gate
//! (shared) → transaction state → node slot → one lane or one node book.

use crate::partition::Partition;
use crate::router::{apply_delivery, Delivery, Lane, Router, RouterStats};
use crate::trace::{RecOp, ReleasedByNode, TraceValue};
use parking_lot::{Mutex, RwLock};
use rnt_core::{Db, DbConfig, Durability, Snapshot, StatsSnapshot, Txn, TxnError};
use rnt_distributed::{GossipPolicy, NodeId, TraceReport};
use rnt_model::UpdateFn;
use rnt_wal::{MemVfs, WalCodec, WalError};
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::Hash;
use std::ops::RangeBounds;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The bounds of an [`rnt_core::Db`] key, named once; every type that
/// meets them is a `Key`.
pub trait Key: Eq + Hash + Ord + Clone + Send + Sync + 'static {}
impl<T: Eq + Hash + Ord + Clone + Send + Sync + 'static> Key for T {}

/// What a cluster value must be (see [`Key`]).
pub trait Value: Clone + Hash + Send + Sync + 'static {}
impl<T: Clone + Hash + Send + Sync + 'static> Value for T {}

/// The per-node WAL file name (each node has its own [`MemVfs`]).
const NODE_WAL: &str = "node.wal";

/// Cluster construction parameters.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of nodes `k`.
    pub nodes: usize,
    /// How commit status gossips to remote participants.
    pub gossip: GossipPolicy,
    /// The configuration every node's [`Db`] is built with. Must use
    /// [`rnt_core::CcMode::Locking`] (the commit protocol relies on
    /// locking-mode commits being conflict-free).
    pub node_config: DbConfig,
    /// Record the run: the level-5 event journal
    /// [`Cluster::validate_trace`] checks and the order logs
    /// [`Cluster::commit_log`] and [`Cluster::delivery_log`] return. Only
    /// `validate_trace` needs a single-threaded driver: under concurrent
    /// committers the journal's order is not the execution order, while
    /// the order logs are exact at any thread count.
    pub trace: bool,
}

impl ClusterConfig {
    /// A configuration with `nodes` in-memory nodes, eager gossip, the
    /// default node config and tracing off.
    pub fn new(nodes: usize) -> Self {
        ClusterConfig {
            nodes,
            gossip: GossipPolicy::EagerFull,
            node_config: DbConfig::default(),
            trace: false,
        }
    }

    /// Set the gossip policy.
    pub fn gossip(mut self, gossip: GossipPolicy) -> Self {
        self.gossip = gossip;
        self
    }

    /// Set the per-node engine configuration.
    pub fn node_config(mut self, config: DbConfig) -> Self {
        self.node_config = config;
        self
    }

    /// Enable or disable trace recording.
    pub fn trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }
}

/// One node's engine, its (simulated) durable medium, and its fail-stop
/// bookkeeping.
struct NodeSlot<K: Key, V: Value> {
    db: Db<K, V>,
    vfs: Option<Arc<MemVfs>>,
    /// WAL bytes captured at crash time — what the durable medium held
    /// when the node failed (later appends by the dying process must not
    /// leak into recovery).
    crash_image: Option<Vec<u8>>,
    incarnation: u64,
    up: bool,
}

impl<K: Key, V: Value> NodeSlot<K, V> {
    fn fresh(db: Db<K, V>, vfs: Option<Arc<MemVfs>>) -> Self {
        NodeSlot { db, vfs, crash_image: None, incarnation: 0, up: true }
    }
}

/// What a node records about the cluster transactions that use it.
struct NodeBook<K: Key, V: Value> {
    /// Live cluster transactions with a participant here — the ones a
    /// crash of this node dooms. A handful at a time (one per client
    /// thread), so a scan beats a map.
    participants: Vec<Arc<TxnInner<K, V>>>,
    /// How many cluster transactions homed here committed.
    commits: u64,
    /// `(cseq, ctid)` of those commits, in completion order; recorded
    /// only when tracing.
    commit_log: Vec<(u64, u64)>,
}

impl<K: Key, V: Value> NodeBook<K, V> {
    /// Drop `txn`'s registration, if it has one here.
    fn forget(&mut self, txn: &TxnInner<K, V>) {
        if let Some(at) = self.participants.iter().position(|t| std::ptr::eq(&**t, txn)) {
            self.participants.swap_remove(at);
        }
    }
}

struct Node<K: Key, V: Value> {
    slot: RwLock<NodeSlot<K, V>>,
    book: Mutex<NodeBook<K, V>>,
}

/// One node's share of a cluster (sub)transaction.
pub(crate) struct Participant<K: Key, V: Value> {
    pub node: NodeId,
    /// Node incarnation the (top-level) participant was created against.
    pub incarnation: u64,
    /// The engine (sub)transaction; `None` only once it has been
    /// consumed by a commit.
    pub txn: Option<Txn<K, V>>,
    /// Keys write-locked here (the journal's lock bookkeeping, kept only
    /// when tracing; engine read locks have no model image).
    pub touched: BTreeSet<K>,
    /// Values written here, in write order (the redo image; durable
    /// clusters only).
    pub writes: Vec<(K, V)>,
}

impl<K: Key, V: Value> Participant<K, V> {
    fn new(node: NodeId, incarnation: u64, txn: Txn<K, V>) -> Self {
        Participant {
            node,
            incarnation,
            txn: Some(txn),
            touched: BTreeSet::new(),
            writes: Vec::new(),
        }
    }
}

/// One live cluster action: the top level (`path` empty) or a
/// subtransaction, with its participants in first-touch order.
struct Frame<K: Key, V: Value> {
    /// Path relative to the transaction.
    path: Vec<u32>,
    parts: Vec<Participant<K, V>>,
    /// Next child index (shared by subtransactions and accesses, so
    /// model action ids never collide).
    next_idx: u32,
}

impl<K: Key, V: Value> Frame<K, V> {
    fn new(path: Vec<u32>) -> Self {
        Frame { path, parts: Vec::new(), next_idx: 0 }
    }

    fn part(&mut self, node: NodeId) -> Option<&mut Participant<K, V>> {
        self.parts.iter_mut().find(|p| p.node == node)
    }

    fn take_idx(&mut self) -> u32 {
        self.next_idx += 1;
        self.next_idx - 1
    }
}

/// The mutable state of one live cluster transaction.
struct TxnState<K: Key, V: Value> {
    /// Bound at the first access, `child()` or commit.
    home: Option<NodeId>,
    top: Frame<K, V>,
    /// Live subtransactions, materialised by `child()`; an ancestor of a
    /// live frame is live.
    nested: Vec<Frame<K, V>>,
    /// Set when a participant node crashed under the transaction.
    doomed: Option<NodeId>,
    /// The top level has resolved (committed or aborted).
    finished: bool,
}

impl<K: Key, V: Value> TxnState<K, V> {
    fn is_live(&self, path: &[u32]) -> bool {
        !self.finished && (path.is_empty() || self.nested.iter().any(|f| f.path == path))
    }

    fn frame(&mut self, path: &[u32]) -> &mut Frame<K, V> {
        if path.is_empty() {
            return &mut self.top;
        }
        self.nested.iter_mut().find(|f| f.path == path).expect("frame of a live action")
    }

    fn gone_error(&self) -> TxnError {
        self.doomed.map_or(TxnError::NotActive, |node| TxnError::Unavailable { node })
    }
}

struct TxnInner<K: Key, V: Value> {
    ctid: u64,
    state: Mutex<TxnState<K, V>>,
}

struct ClusterInner<K: Key, V: Value> {
    config: ClusterConfig,
    partition: Partition,
    durable: bool,
    nodes: Vec<Node<K, V>>,
    /// Commits/aborts take this shared; cluster-wide snapshots and node
    /// recovery take it exclusively, so neither observes a commit between
    /// its commit point and its enqueue.
    gate: RwLock<()>,
    router: Router<K, V>,
    next_ctid: AtomicU64,
    /// Drawn *before* the home participant commits, so that of two
    /// conflicting commits the one that held the lock first has the
    /// lower number. A failed home commit burns its number: gaps are legal.
    next_cseq: AtomicU64,
    aborts: AtomicU64,
    /// The journal of the run, if tracing.
    recorder: Option<Mutex<Vec<RecOp<K>>>>,
}

/// A sharded multi-node database: the paper's level-5 system as a
/// runtime. Cheap to clone (all clones share the cluster).
pub struct Cluster<K: Key, V: Value> {
    inner: Arc<ClusterInner<K, V>>,
}

impl<K: Key, V: Value> Clone for Cluster<K, V> {
    fn clone(&self) -> Self {
        Cluster { inner: self.inner.clone() }
    }
}

/// Counters over the whole cluster.
#[derive(Clone, Debug)]
pub struct ClusterStats {
    /// Cluster transactions committed.
    pub commits: u64,
    /// Cluster transactions aborted.
    pub aborts: u64,
    /// Gossip traffic and fault accounting.
    pub router: RouterStats,
    /// Deliveries currently queued.
    pub pending_deliveries: usize,
    /// Per-node engine counters.
    pub nodes: Vec<StatsSnapshot>,
}

/// A cluster-wide consistent snapshot: one pinned MVCC snapshot per
/// node, taken under the commit gate after a full router flush, so every
/// cluster commit is either fully visible on all nodes or on none.
pub struct ClusterSnapshot<K: Key, V: Value> {
    partition: Partition,
    pins: Vec<Snapshot<K, V>>,
}

impl<K: Key, V: Value> ClusterSnapshot<K, V> {
    /// Read a key through the snapshot.
    pub fn read(&self, key: &K) -> Option<V> {
        self.pins[self.partition.home(key)].read(key)
    }

    /// All key/value pairs in `bounds`, ascending by key, merged across
    /// nodes.
    pub fn range<R: RangeBounds<K> + Clone>(&self, bounds: R) -> Vec<(K, V)> {
        let mut out: Vec<(K, V)> = Vec::new();
        for pin in &self.pins {
            out.extend(pin.range(bounds.clone()));
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// The pinned epoch at each node.
    pub fn epochs(&self) -> Vec<u64> {
        self.pins.iter().map(Snapshot::epoch).collect()
    }
}

/// A (possibly nested) cluster transaction. The top-level handle comes
/// from [`Cluster::begin`]; [`ClusterTxn::child`] opens a resilient
/// subtransaction whose failure aborts only its own subtree, even when
/// that subtree spans nodes. Dropping a live handle aborts it.
pub struct ClusterTxn<K: Key, V: Value + TraceValue> {
    cluster: Cluster<K, V>,
    txn: Arc<TxnInner<K, V>>,
    path: Vec<u32>,
    /// This handle resolved its action; `Drop` has nothing to abort.
    done: bool,
}

impl<K: Key, V: Value + TraceValue> Cluster<K, V> {
    /// Build an in-memory cluster (no write-ahead logs; node crash is
    /// not survivable — see [`Cluster::new_durable`]).
    pub fn new(config: ClusterConfig) -> Self {
        assert_eq!(
            config.node_config.durability,
            Durability::None,
            "durable node configs need Cluster::new_durable (WalCodec bounds)"
        );
        let slots = (0..config.nodes)
            .map(|_| NodeSlot::fresh(Db::with_config(config.node_config.clone()), None))
            .collect();
        Self::assemble(config, slots, false)
    }

    fn assemble(config: ClusterConfig, slots: Vec<NodeSlot<K, V>>, durable: bool) -> Self {
        assert!(config.nodes > 0, "a cluster needs at least one node");
        let node = |slot| Node {
            slot: RwLock::new(slot),
            book: Mutex::new(NodeBook {
                participants: Vec::new(),
                commits: 0,
                commit_log: Vec::new(),
            }),
        };
        Cluster {
            inner: Arc::new(ClusterInner {
                partition: Partition::new(config.nodes),
                durable,
                nodes: slots.into_iter().map(node).collect(),
                gate: RwLock::new(()),
                router: Router::new(config.nodes),
                next_ctid: AtomicU64::new(0),
                next_cseq: AtomicU64::new(0),
                aborts: AtomicU64::new(0),
                recorder: config.trace.then(|| Mutex::new(Vec::new())),
                config,
            }),
        }
    }

    fn record(&self, op: impl FnOnce() -> RecOp<K>) {
        if let Some(rec) = &self.inner.recorder {
            rec.lock().push(op());
        }
    }

    /// The journal, or the error every record-reading method gives when
    /// [`ClusterConfig::trace`] is off: never an empty record, which a
    /// check would pass vacuously.
    fn recorder(&self) -> Result<&Mutex<Vec<RecOp<K>>>, String> {
        self.inner.recorder.as_ref().ok_or_else(|| "tracing is disabled for this cluster".into())
    }

    /// Number of nodes `k`.
    pub fn node_count(&self) -> usize {
        self.inner.config.nodes
    }

    /// The partition map (`home`).
    pub fn partition(&self) -> Partition {
        self.inner.partition
    }

    /// The engine at `node` — an escape hatch for harnesses (audit logs,
    /// chaos hooks, per-node inspection).
    pub fn node(&self, node: NodeId) -> Db<K, V> {
        self.inner.nodes[node].slot.read().db.clone()
    }

    /// Whether `node` is currently up.
    pub fn node_up(&self, node: NodeId) -> bool {
        self.inner.nodes[node].slot.read().up
    }

    /// Seed a key at its home node (the fixed object universe of the
    /// paper: keys exist before transactions use them). Returns false if
    /// the key was already present.
    pub fn insert(&self, key: K, value: V) -> bool {
        let node = self.inner.partition.home(&key);
        let init = value.trace_value();
        let key_for_trace = key.clone();
        let fresh = self.inner.nodes[node].slot.read().db.insert(key, value);
        if fresh {
            self.record(|| RecOp::Seed { key: key_for_trace, node, init });
        }
        fresh
    }

    /// The committed value of `key` at its home node.
    pub fn committed_value(&self, key: &K) -> Result<Option<V>, TxnError> {
        let node = self.inner.partition.home(key);
        let slot = self.inner.nodes[node].slot.read();
        if !slot.up {
            return Err(TxnError::Unavailable { node });
        }
        Ok(slot.db.committed_value(key))
    }

    /// Begin a top-level cluster transaction. It has no home yet: the
    /// node of its first access becomes its home, where its non-access
    /// bookkeeping lives, mirroring `origin(A) = home(parent(A))`.
    pub fn begin(&self) -> ClusterTxn<K, V> {
        let ctid = self.inner.next_ctid.fetch_add(1, Ordering::Relaxed);
        let state = TxnState {
            home: None,
            top: Frame::new(Vec::new()),
            nested: Vec::new(),
            doomed: None,
            finished: false,
        };
        let txn = Arc::new(TxnInner { ctid, state: Mutex::new(state) });
        ClusterTxn { cluster: self.clone(), txn, path: Vec::new(), done: false }
    }

    /// Run `body` in a cluster transaction with automatic retry on
    /// retryable (contention) errors — [`Db::run`] one level up.
    pub fn run<R>(
        &self,
        body: impl FnMut(&ClusterTxn<K, V>) -> Result<R, TxnError>,
    ) -> Result<R, TxnError> {
        self.run_with_retries(u32::MAX, body)
    }

    /// [`Cluster::run`] with an explicit bound on re-runs (0 = try once).
    pub fn run_with_retries<R>(
        &self,
        max_retries: u32,
        body: impl FnMut(&ClusterTxn<K, V>) -> Result<R, TxnError>,
    ) -> Result<R, TxnError> {
        retrying(max_retries, || Ok(self.begin()), body, backoff)
    }

    /// A cluster-wide consistent snapshot: drains the router under an
    /// exclusive commit gate, then pins every node. Fails with
    /// [`TxnError::Unavailable`] while any node is down.
    pub fn snapshot(&self) -> Result<ClusterSnapshot<K, V>, TxnError> {
        let _gate = self.inner.gate.write();
        for (node, n) in self.inner.nodes.iter().enumerate() {
            if !n.slot.read().up {
                return Err(TxnError::Unavailable { node });
            }
        }
        self.pump_round(true);
        debug_assert_eq!(self.inner.router.totals().1, 0, "flush must drain the router");
        let pins = self.inner.nodes.iter().map(|n| n.slot.read().db.snapshot()).collect();
        Ok(ClusterSnapshot { partition: self.inner.partition, pins })
    }

    /// Deliver whatever the links currently allow (one pump round).
    /// Useful with [`GossipPolicy::Periodic`] and in fault drivers.
    pub fn pump(&self) {
        let _gate = self.inner.gate.read();
        self.pump_round(false);
    }

    /// Force-deliver everything to every up node, ignoring link faults.
    pub fn flush(&self) {
        let _gate = self.inner.gate.write();
        self.pump_round(true);
    }

    /// Partition or heal the directed link `from → to`.
    pub fn set_link_blocked(&self, from: NodeId, to: NodeId, blocked: bool) {
        self.inner.router.set_blocked(from, to, blocked);
    }

    /// Delay deliveries on the directed link `from → to` by `rounds`
    /// pump rounds of `to`'s lane.
    pub fn set_link_delay(&self, from: NodeId, to: NodeId, rounds: u32) {
        self.inner.router.set_delay(from, to, rounds);
    }

    /// Heal all partitions and clear all delays.
    pub fn heal_links(&self) {
        self.inner.router.heal();
    }

    /// The global commit order as `(cseq, ctid)` pairs, ascending by
    /// `cseq`: conflicting transactions appear in the order they held
    /// their locks. Sequence numbers may have gaps. An error unless
    /// [`ClusterConfig::trace`] is on.
    pub fn commit_log(&self) -> Result<Vec<(u64, u64)>, String> {
        self.recorder()?;
        let mut log = Vec::new();
        for n in &self.inner.nodes {
            log.extend_from_slice(&n.book.lock().commit_log);
        }
        log.sort_unstable();
        Ok(log)
    }

    /// The order `(cseq, ctid)` in which `node` applied remote commits.
    /// An error unless [`ClusterConfig::trace`] is on.
    pub fn delivery_log(&self, node: NodeId) -> Result<Vec<(u64, u64)>, String> {
        self.recorder()?;
        Ok(self.inner.router.lane(node).delivery_log.clone())
    }

    /// Cluster-wide counters.
    pub fn stats(&self) -> ClusterStats {
        let (router, pending_deliveries) = self.inner.router.totals();
        let nodes = &self.inner.nodes;
        ClusterStats {
            commits: nodes.iter().map(|n| n.book.lock().commits).sum(),
            aborts: self.inner.aborts.load(Ordering::Relaxed),
            router,
            pending_deliveries,
            nodes: nodes.iter().map(|n| n.slot.read().db.stats()).collect(),
        }
    }

    /// Validate the recorded journal against the formal tower (requires
    /// [`ClusterConfig::trace`]); `deep` adds the Theorem-29 composed
    /// simulation. Pending deliveries are fine — a valid prefix is still
    /// a valid run.
    pub fn validate_trace(&self, deep: bool) -> Result<TraceReport, String> {
        crate::trace::validate(self.inner.config.nodes, &self.recorder()?.lock(), deep)
    }

    /// Mark `node` failed (fail-stop): its engine is frozen, every live
    /// cluster transaction with a participant there is force-aborted
    /// cluster-wide, and — on a durable cluster — the WAL bytes as of
    /// this instant become the recovery image for
    /// [`Cluster::recover_node`].
    pub fn crash_node(&self, node: NodeId) {
        {
            let mut slot = self.inner.nodes[node].slot.write();
            assert!(slot.up, "crash of a node that is already down");
            slot.up = false;
            slot.incarnation += 1;
            slot.crash_image = slot.vfs.as_ref().map(|vfs| vfs.snapshot(NODE_WAL));
        }
        // Participants register under the slot's read lock, so everyone
        // who got in before the crash is in the book by now.
        let victims = self.inner.nodes[node].book.lock().participants.clone();
        for victim in victims {
            let mut st = victim.state.lock();
            if !st.finished {
                st.doomed = Some(node);
                self.abort_top(&victim, &mut st);
            }
        }
    }

    /// One delivery round: every lane ages its head-of-line hold and
    /// drains as far as the links (or `flush`) allow.
    fn pump_round(&self, flush: bool) {
        for (node, n) in self.inner.nodes.iter().enumerate() {
            let slot = n.slot.read();
            let mut lane = self.inner.router.lane(node);
            lane.age();
            self.drain(&slot, &mut lane, node, flush);
        }
    }

    /// Apply `node`'s queue, in order, as far as the links (or `flush`)
    /// allow. The caller holds the node's slot, so the node cannot crash
    /// or recover under a delivery.
    fn drain(&self, slot: &NodeSlot<K, V>, lane: &mut Lane<K, V>, node: NodeId, flush: bool) {
        while slot.up && self.inner.router.front_deliverable(lane, node, flush) {
            let delivery = lane.queue.pop_front().expect("front checked");
            let ctid = delivery.ctid;
            if self.inner.recorder.is_some() {
                lane.delivery_log.push((delivery.cseq, ctid));
            }
            let released = apply_delivery(delivery, &slot.db, slot.incarnation, &mut lane.stats);
            self.inner.router.learn(node);
            self.record(|| RecOp::Deliver {
                node,
                action: vec![ctid as u32],
                released: released.into_iter().map(|k| (vec![ctid as u32], k)).collect(),
            });
        }
    }

    /// Hand a committed remote participant to its node's lane; under the
    /// eager policies the lane is pumped at once.
    fn send(&self, delivery: Delivery<K, V>) {
        let (from, to, ctid) = (delivery.from, delivery.part.node, delivery.ctid);
        self.record(|| RecOp::Send { from, to, action: vec![ctid as u32] });
        let gossip = self.inner.config.gossip;
        let slot = self.inner.nodes[to].slot.read();
        let mut lane = self.inner.router.lane(to);
        self.inner.router.enqueue(&mut lane, delivery, gossip == GossipPolicy::EagerFull);
        if !matches!(gossip, GossipPolicy::Periodic(_)) {
            lane.age();
            self.drain(&slot, &mut lane, to, false);
        }
    }

    /// Bind the transaction's home to `node` unless it has one; the
    /// journal's top-level `create` happens here.
    fn bind_home(&self, ctid: u64, st: &mut TxnState<K, V>, node: NodeId) -> NodeId {
        *st.home.get_or_insert_with(|| {
            self.record(|| RecOp::Create { action: vec![ctid as u32], home: node });
            node
        })
    }

    /// Create the engine-transaction chain for `path` at `node` (the
    /// participant, registered in the node's book, then one engine
    /// subtransaction per nesting level).
    fn ensure_chain(
        &self,
        txn: &Arc<TxnInner<K, V>>,
        st: &mut TxnState<K, V>,
        node: NodeId,
        path: &[u32],
    ) -> Result<(), TxnError> {
        let incarnation = match st.top.part(node) {
            Some(part) => part.incarnation,
            None => {
                let n = &self.inner.nodes[node];
                let slot = n.slot.read();
                if !slot.up {
                    return Err(TxnError::Unavailable { node });
                }
                n.book.lock().participants.push(txn.clone());
                st.top.parts.push(Participant::new(node, slot.incarnation, slot.db.begin()));
                slot.incarnation
            }
        };
        for depth in 1..=path.len() {
            if st.frame(&path[..depth]).part(node).is_some() {
                continue;
            }
            let parent = st.frame(&path[..depth - 1]).part(node).expect("parent ensured");
            let child = parent.txn.as_ref().expect("live participant").child()?;
            st.frame(&path[..depth]).parts.push(Participant::new(node, incarnation, child));
        }
        Ok(())
    }

    /// Abort the whole transaction and count it.
    fn abort_top(&self, txn: &TxnInner<K, V>, st: &mut TxnState<K, V>) {
        self.abort_subtree(txn, st, &[]);
        st.finished = true;
        self.inner.aborts.fetch_add(1, Ordering::Relaxed);
    }

    /// Abort the cluster-action subtree rooted at `root` (relative
    /// path): engine aborts deepest-first everywhere, eager status
    /// gossip, and the journal's `lose-lock`s.
    fn abort_subtree(&self, txn: &TxnInner<K, V>, st: &mut TxnState<K, V>, root: &[u32]) {
        let (mut lost, kept): (Vec<_>, Vec<_>) =
            std::mem::take(&mut st.nested).into_iter().partition(|f| f.path.starts_with(root));
        st.nested = kept;
        lost.sort_by_key(|f| std::cmp::Reverse(f.path.len()));
        if root.is_empty() {
            lost.push(std::mem::replace(&mut st.top, Frame::new(Vec::new())));
        }
        let mut released: BTreeMap<NodeId, Vec<(Vec<u32>, K)>> = BTreeMap::new();
        for frame in lost {
            for part in frame.parts {
                if let Some(engine_txn) = part.txn {
                    engine_txn.abort();
                }
                if frame.path.is_empty() {
                    self.inner.nodes[part.node].book.lock().forget(txn);
                }
                if !part.touched.is_empty() {
                    let holder = Self::action_path(txn.ctid, &frame.path);
                    let keys = part.touched.into_iter().map(|k| (holder.clone(), k));
                    released.entry(part.node).or_default().extend(keys);
                }
            }
        }
        // A transaction that never bound a home never entered the journal.
        if let Some(home) = st.home {
            self.record(|| RecOp::Finish {
                action: Self::action_path(txn.ctid, root),
                home,
                committed: false,
                released: released.into_iter().collect(),
            });
        }
    }

    /// The home of a transaction that binds one before touching a key.
    fn fallback_home(&self, ctid: u64) -> NodeId {
        (ctid % self.inner.config.nodes as u64) as NodeId
    }

    fn action_path(ctid: u64, rel: &[u32]) -> Vec<u32> {
        let mut path = Vec::with_capacity(rel.len() + 1);
        path.push(ctid as u32);
        path.extend_from_slice(rel);
        path
    }
}

impl<K: Key + WalCodec, V: Value + TraceValue + WalCodec> Cluster<K, V> {
    /// Build a durable cluster: every node writes a WAL on its own
    /// in-memory VFS, so [`Cluster::crash_node`] /
    /// [`Cluster::recover_node`] model fail-stop crashes that keep
    /// committed state. The node config must enable durability
    /// ([`Durability::Wal`] or [`Durability::WalFsync`]).
    pub fn new_durable(config: ClusterConfig) -> Result<Self, WalError> {
        assert_ne!(
            config.node_config.durability,
            Durability::None,
            "durable clusters need a WAL-enabled node config"
        );
        let mut slots = Vec::with_capacity(config.nodes);
        for _ in 0..config.nodes {
            let vfs = Arc::new(MemVfs::new());
            let db = Db::open_with_vfs(vfs.clone(), NODE_WAL, config.node_config.clone())?;
            slots.push(NodeSlot::fresh(db, Some(vfs)));
        }
        Ok(Self::assemble(config, slots, true))
    }

    /// Recover a crashed node from its WAL image: replay its log into a
    /// fresh engine (in-flight participants become the crash's aborted
    /// casualties), then flush every queued delivery destined to it —
    /// commits the crash interrupted are re-applied from their redo
    /// images, which is what makes a cluster commit durable even when a
    /// remote participant dies before its status arrives. No writer can
    /// slip in under the redo: the slot stays locked, and the exclusive
    /// gate has waited out every commit still on its way to the lane.
    pub fn recover_node(&self, node: NodeId) -> Result<(), WalError> {
        let _gate = self.inner.gate.write();
        let mut slot = self.inner.nodes[node].slot.write();
        assert!(!slot.up, "recover of a node that is up");
        let image = slot.crash_image.take().unwrap_or_default();
        let vfs = Arc::new(MemVfs::new());
        vfs.install(NODE_WAL, image);
        slot.db =
            Db::recover_with_vfs(vfs.clone(), NODE_WAL, self.inner.config.node_config.clone())?;
        slot.vfs = Some(vfs);
        slot.up = true;
        self.drain(&slot, &mut self.inner.router.lane(node), node, true);
        Ok(())
    }
}

/// Run `body` in the transaction `begin` opens and commit it; on a
/// retryable (contention) error, `pause` and go again, at most
/// `max_retries` times. A transaction whose body failed is aborted by
/// the drop of its handle.
fn retrying<K: Key, V: Value + TraceValue, R>(
    max_retries: u32,
    mut begin: impl FnMut() -> Result<ClusterTxn<K, V>, TxnError>,
    mut body: impl FnMut(&ClusterTxn<K, V>) -> Result<R, TxnError>,
    pause: impl Fn(u32),
) -> Result<R, TxnError> {
    let mut attempts = 0;
    loop {
        let txn = begin()?;
        match body(&txn).and_then(|out| txn.commit().map(|()| out)) {
            Err(e) if e.is_retryable() && attempts < max_retries => {
                attempts += 1;
                pause(attempts);
            }
            outcome => return outcome,
        }
    }
}

/// Seeded-free backoff between cluster retry attempts (mirrors
/// [`Db::run`]'s spirit without per-db state): yield first, then sleep a
/// capped, attempt-scaled duration.
fn backoff(attempt: u32) {
    if attempt <= 2 {
        std::thread::yield_now();
        return;
    }
    let micros = 1u64 << attempt.min(7);
    std::thread::sleep(Duration::from_micros(micros));
}

impl<K: Key, V: Value + TraceValue> ClusterTxn<K, V> {
    /// The cluster transaction id.
    pub fn id(&self) -> u64 {
        self.txn.ctid
    }

    /// The transaction's home node: the node of its first access (or
    /// `ctid % k`, had it opened a subtransaction first); `None` until
    /// then.
    pub fn home(&self) -> Option<NodeId> {
        self.txn.state.lock().home
    }

    /// True while this (sub)transaction is unresolved.
    pub fn is_live(&self) -> bool {
        self.txn.state.lock().is_live(&self.path)
    }

    /// Read `key` at its home node.
    pub fn get(&self, key: &K) -> Result<V, TxnError> {
        self.access(self.cluster.inner.partition.home(key), key, None::<fn(&V) -> V>)
    }

    /// Write `key` at its home node; returns the previously visible
    /// value.
    pub fn put(&self, key: &K, value: V) -> Result<V, TxnError> {
        self.access(self.cluster.inner.partition.home(key), key, Some(|_: &V| value.clone()))
    }

    /// Read-modify-write under one write lock (a single engine
    /// operation). Returns the value seen.
    pub fn rmw(&self, key: &K, f: impl Fn(&V) -> V) -> Result<V, TxnError> {
        self.access(self.cluster.inner.partition.home(key), key, Some(f))
    }

    /// [`ClusterTxn::get`] addressed to an explicit node — the paper's
    /// side condition `home(x) = i` checked at runtime: a mismatch is
    /// [`TxnError::WrongNode`].
    pub fn get_at(&self, node: NodeId, key: &K) -> Result<V, TxnError> {
        let home = self.cluster.inner.partition.home(key);
        if node != home {
            return Err(TxnError::WrongNode { node, home });
        }
        self.access(node, key, None::<fn(&V) -> V>)
    }

    /// One access at `node = home(key)`: a read, or a write of
    /// `update(seen)`.
    fn access(
        &self,
        node: NodeId,
        key: &K,
        update: Option<impl Fn(&V) -> V>,
    ) -> Result<V, TxnError> {
        let (cluster, ctid) = (&self.cluster, self.txn.ctid);
        let mut st = self.txn.state.lock();
        if !st.is_live(&self.path) {
            return Err(st.gone_error());
        }
        cluster.ensure_chain(&self.txn, &mut st, node, &self.path)?;
        let home = cluster.bind_home(ctid, &mut st, node);
        let frame = st.frame(&self.path);
        let Some(update) = update else {
            let part = frame.part(node).expect("chain ensured");
            return part.txn.as_ref().expect("live participant").read(key);
        };
        let aidx = frame.take_idx();
        let part = frame.part(node).expect("chain ensured");
        // The value written is wanted back only for the redo image and
        // the journal.
        let tracing = cluster.inner.recorder.is_some();
        let keep = tracing || cluster.inner.durable;
        let written = Cell::new(None);
        let seen = part.txn.as_ref().expect("live participant").rmw(key, |old| {
            let new = update(old);
            if keep {
                written.set(Some(new.clone()));
            }
            new
        })?;
        let Some(value) = written.into_inner() else { return Ok(seen) };
        // Only writes enter the journal bookkeeping: the formal tower
        // models the exclusive-lock algebra, so the trace maps the run's
        // write skeleton (see trace.rs); reads hold engine read locks
        // but have no model image.
        if tracing {
            part.touched.insert(key.clone());
            let (pre, update) = (seen.trace_value(), UpdateFn::Write(value.trace_value()));
            cluster.record(|| {
                let mut action = Cluster::<K, V>::action_path(ctid, &self.path);
                action.push(aidx);
                RecOp::Access { action, home, node, key: key.clone(), pre, update }
            });
        }
        if cluster.inner.durable {
            part.writes.push((key.clone(), value));
        }
        Ok(seen)
    }

    /// Open a resilient subtransaction: its failure (or a node failure
    /// under it) aborts only its own subtree; its commit publishes its
    /// work to this transaction via engine lock inheritance on every
    /// node it touched.
    pub fn child(&self) -> Result<ClusterTxn<K, V>, TxnError> {
        let ctid = self.txn.ctid;
        let mut st = self.txn.state.lock();
        if !st.is_live(&self.path) {
            return Err(st.gone_error());
        }
        let home = self.cluster.bind_home(ctid, &mut st, self.cluster.fallback_home(ctid));
        let mut path = self.path.clone();
        path.push(st.frame(&self.path).take_idx());
        st.nested.push(Frame::new(path.clone()));
        self.cluster
            .record(|| RecOp::Create { action: Cluster::<K, V>::action_path(ctid, &path), home });
        Ok(ClusterTxn { cluster: self.cluster.clone(), txn: self.txn.clone(), path, done: false })
    }

    /// Run `body` in a subtransaction with bounded retry — the cluster
    /// mirror of [`Txn::run_child`].
    pub fn run_child<R>(
        &self,
        max_retries: u32,
        body: impl FnMut(&ClusterTxn<K, V>) -> Result<R, TxnError>,
    ) -> Result<R, TxnError> {
        retrying(max_retries, || self.child(), body, |_| {})
    }

    /// Commit. For the top level this is the cluster commit point: the
    /// home participant commits synchronously under the commit gate, the
    /// commit takes its place in the cluster serialization, and each
    /// remote participant is handed to its node's router lane. For a
    /// subtransaction every engine subtransaction commits synchronously
    /// (lock inheritance is node-local). A failed commit leaves the
    /// handle live; dropping it aborts.
    pub fn commit(mut self) -> Result<(), TxnError> {
        if self.path.is_empty() { self.commit_top() } else { self.commit_child() }?;
        self.done = true;
        Ok(())
    }

    fn commit_top(&self) -> Result<(), TxnError> {
        let (cluster, inner, ctid) = (&self.cluster, &self.cluster.inner, self.txn.ctid);
        let _gate = inner.gate.read();
        let mut st = self.txn.state.lock();
        if st.finished {
            return Err(st.gone_error());
        }
        if !st.nested.is_empty() {
            return Err(TxnError::ChildrenActive(st.nested.len() as u32));
        }
        let home = cluster.bind_home(ctid, &mut st, cluster.fallback_home(ctid));
        let cseq = inner.next_cseq.fetch_add(1, Ordering::Relaxed);
        if let Some(part) = st.top.part(home) {
            // Under the home slot, so a crash either sees this commit in
            // its recovery image or fails it.
            let slot = inner.nodes[home].slot.read();
            let committed = if slot.up && slot.incarnation == part.incarnation {
                part.txn.take().expect("live participant").commit()
            } else {
                Err(TxnError::Unavailable { node: home })
            };
            drop(slot);
            if let Err(e) = committed {
                cluster.abort_top(&self.txn, &mut st);
                return Err(e);
            }
        }
        st.finished = true;
        let mut parts = std::mem::take(&mut st.top.parts);
        drop(st);
        {
            let mut book = inner.nodes[home].book.lock();
            book.commits += 1;
            if inner.recorder.is_some() {
                book.commit_log.push((cseq, ctid));
            }
            book.forget(&self.txn);
        }
        let home_released =
            parts.iter_mut().find(|p| p.node == home).map(|p| std::mem::take(&mut p.touched));
        cluster.record(|| RecOp::Finish {
            action: vec![ctid as u32],
            home,
            committed: true,
            released: vec![(
                home,
                home_released.into_iter().flatten().map(|k| (vec![ctid as u32], k)).collect(),
            )],
        });
        let periodic = matches!(inner.config.gossip, GossipPolicy::Periodic(_));
        if parts.iter().any(|p| p.node != home) || periodic {
            inner.router.learn(home);
        }
        // Hand each remote participant to its lane: its locks stay held
        // until the status delivery arrives.
        for part in parts.into_iter().filter(|p| p.node != home) {
            inner.nodes[part.node].book.lock().forget(&self.txn);
            cluster.send(Delivery { cseq, ctid, from: home, hold: 0, part });
        }
        if let GossipPolicy::Periodic(every) = inner.config.gossip {
            if inner.router.tick(every) {
                cluster.pump_round(false);
            }
        }
        Ok(())
    }

    fn commit_child(&self) -> Result<(), TxnError> {
        let (cluster, ctid) = (&self.cluster, self.txn.ctid);
        let mut st = self.txn.state.lock();
        if !st.is_live(&self.path) {
            return Err(st.gone_error());
        }
        let live_descendants = st
            .nested
            .iter()
            .filter(|f| f.path.len() > self.path.len() && f.path.starts_with(&self.path))
            .count();
        if live_descendants > 0 {
            return Err(TxnError::ChildrenActive(live_descendants as u32));
        }
        // Commit the engine subtransactions node by node; inheritance
        // publishes their work to the parent chain on each node.
        let at = st.nested.iter().position(|f| f.path == self.path).expect("live frame");
        for i in 0..st.nested[at].parts.len() {
            let engine_txn = st.nested[at].parts[i].txn.take().expect("live participant");
            if let Err(e) = engine_txn.commit() {
                cluster.abort_subtree(&self.txn, &mut st, &self.path);
                return Err(e);
            }
        }
        // The journal's releases: this action's locks pass to its parent,
        // along with its redo image.
        let frame = st.nested.swap_remove(at);
        let action = Cluster::<K, V>::action_path(ctid, &self.path);
        let parent = st.frame(&self.path[..self.path.len() - 1]);
        let mut released: ReleasedByNode<K> = Vec::new();
        for part in frame.parts {
            let heir = parent.part(part.node).expect("chain ensured the parent's participant");
            if !part.touched.is_empty() {
                let keys = part.touched.iter().map(|k| (action.clone(), k.clone())).collect();
                released.push((part.node, keys));
                heir.touched.extend(part.touched);
            }
            heir.writes.extend(part.writes);
        }
        let home = st.home.expect("bound by child()");
        cluster.record(|| RecOp::Finish { action, home, committed: true, released });
        Ok(())
    }

    /// Abort this (sub)transaction (by dropping the handle): engine aborts
    /// everywhere it ran, eager status gossip, locks lost. A subtransaction
    /// abort leaves its parent fully usable — resilience, across nodes.
    pub fn abort(self) {}
}

impl<K: Key, V: Value + TraceValue> Drop for ClusterTxn<K, V> {
    fn drop(&mut self) {
        let cluster = &self.cluster;
        if self.done {
            return;
        }
        if self.path.is_empty() {
            let _gate = cluster.inner.gate.read();
            let mut st = self.txn.state.lock();
            if !st.finished {
                cluster.abort_top(&self.txn, &mut st);
            }
        } else {
            let mut st = self.txn.state.lock();
            if st.is_live(&self.path) {
                cluster.abort_subtree(&self.txn, &mut st, &self.path);
            }
        }
    }
}
