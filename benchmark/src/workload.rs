//! The five workloads: how each builds its engine, draws its inputs, runs one
//! transaction attempt through the public API, and checks the final state.
//!
//! Keys and values are `u64`, every key starts at 0 and every write is
//! `rmw(+1)`, so the sum over all keys must equal the number of increments
//! the harness saw commit.

use crate::disk::{DiskCounters, ModelDisk, FSYNC_LATENCY};
use crate::gen::{Inputs, Rng, Zipf};
use crate::trace::{Call, Tracer};
use rnt_cluster::{Cluster, ClusterConfig, ClusterTxn, GossipPolicy, Partition, RouterStats};
use rnt_core::{
    CcMode, Db, DbConfig, DeadlockPolicy, Durability, ReadView, StatsSnapshot, Txn, TxnError,
};
use std::sync::Arc;

/// Nodes in the cluster workloads; also the width of [`Incs`].
pub const NODES: usize = 2;

/// Increments one committed transaction made, by home node of the key
/// (single-engine workloads use slot 0).
pub type Incs = [u64; NODES];

/// A point-in-time copy of every public counter a workload's engine exposes.
pub struct Counters {
    /// `Db::stats()` of the engine, or of each cluster node.
    pub nodes: Vec<StatsSnapshot>,
    /// `Cluster::stats().router` and its pending deliveries.
    pub router: Option<(RouterStats, u64)>,
    /// `ModelDisk` I/O totals (zero without a log).
    pub disk: DiskCounters,
}

impl Counters {
    fn of_db(db: &Db<u64, u64>) -> Self {
        Counters { nodes: vec![db.stats()], router: None, disk: DiskCounters::default() }
    }

    fn of_cluster(cluster: &Cluster<u64, u64>) -> Self {
        let stats = cluster.stats();
        Counters {
            nodes: stats.nodes,
            router: Some((stats.router, stats.pending_deliveries as u64)),
            disk: DiskCounters::default(),
        }
    }

    /// One `StatsSnapshot` field summed over the nodes.
    pub fn sum(&self, field: impl Fn(&StatsSnapshot) -> u64) -> u64 {
        self.nodes.iter().map(field).sum()
    }

    /// How far that sum has moved since `earlier`.
    pub fn since(&self, earlier: &Counters, field: fn(&StatsSnapshot) -> u64) -> u64 {
        self.sum(field) - earlier.sum(field)
    }
}

/// What the harness saw over a whole run (warm-up included), for the checks.
#[derive(Clone, Copy, Default)]
pub struct Totals {
    /// Committed increments by home node.
    pub incs: Incs,
    /// Transaction attempts started.
    pub attempts: u64,
    /// Transactions committed.
    pub commits: u64,
}

impl Totals {
    /// One transaction that took `attempts` and committed `done`, if anything.
    pub fn of(attempts: u32, done: Option<Incs>) -> Self {
        Totals {
            incs: done.unwrap_or_default(),
            attempts: attempts as u64,
            commits: done.is_some() as u64,
        }
    }

    /// Add `other`'s counts to these.
    pub fn add(&mut self, other: &Totals) {
        for (sum, n) in self.incs.iter_mut().zip(other.incs) {
            *sum += n;
        }
        self.attempts += other.attempts;
        self.commits += other.commits;
    }
}

/// One workload. `attempt` is the only timed method.
pub trait Workload: Sync + Sized {
    /// The name in `BENCHMARK.json`.
    const NAME: &'static str;

    /// Construct the engine and load every key through the public API.
    /// This is what `setup_s` times.
    fn build() -> Self;

    /// Draw `txns` transactions for `client` from `seed`.
    fn inputs(seed: u64, client: usize, txns: usize) -> Inputs;

    /// Run one attempt of the transaction `input` describes: `Ok` with the
    /// increments it committed, or the error after aborting it.
    fn attempt<T: Tracer>(&self, input: &[u32], tr: &mut T) -> Result<Incs, TxnError>;

    /// Snapshot the engine's public counters.
    fn counters(&self) -> Counters;

    /// Check the final state against what the harness saw; `used` is the
    /// counter difference over the run.
    fn check(&self, totals: &Totals, used: &Used) -> Result<(), String>;
}

/// Counter differences over a run that the mechanism-off checks look at.
pub struct Used {
    pub lock_waits: u64,
    pub lock_conflicts: u64,
    pub wal_appends: u64,
}

fn inc(v: &u64) -> u64 {
    v + 1
}

/// Begin, run `body`, then commit — or abort if `body` failed.
fn db_txn<T: Tracer>(
    db: &Db<u64, u64>,
    tr: &mut T,
    body: impl FnOnce(&Txn<u64, u64>, &mut T) -> Result<Incs, TxnError>,
) -> Result<Incs, TxnError> {
    let txn = tr.span(Call::DbBegin, || db.begin());
    match body(&txn, tr) {
        Ok(incs) => tr.span(Call::DbCommit, || txn.commit()).map(|()| incs),
        Err(e) => {
            tr.span(Call::DbAbort, || txn.abort());
            Err(e)
        }
    }
}

/// [`db_txn`] for a cluster transaction.
fn cluster_txn<T: Tracer>(
    cluster: &Cluster<u64, u64>,
    tr: &mut T,
    body: impl FnOnce(&ClusterTxn<u64, u64>, &mut T) -> Result<Incs, TxnError>,
) -> Result<Incs, TxnError> {
    let txn = tr.span(Call::ClusterBegin, || cluster.begin());
    match body(&txn, tr) {
        Ok(incs) => tr.span(Call::ClusterCommit, || txn.commit()).map(|()| incs),
        Err(e) => {
            tr.span(Call::ClusterAbort, || txn.abort());
            Err(e)
        }
    }
}

fn load_db(db: &Db<u64, u64>, keys: u32) {
    for k in 0..keys as u64 {
        db.insert(k, 0);
    }
}

fn db_sum(db: &Db<u64, u64>, keys: u32) -> u64 {
    (0..keys as u64).map(|k| db.committed_value(&k).expect("every key was loaded")).sum()
}

fn expect_eq(what: &str, got: u64, want: u64) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: got {got}, expected {want}"))
    }
}

// ---------------------------------------------------------------- nested-hot

/// The paper's shape: a top-level transaction with two sequential children,
/// each incrementing one hot and one cold key; one child in ten aborts.
pub struct NestedHot {
    db: Db<u64, u64>,
}

impl NestedHot {
    pub const KEYS: u32 = 262_144;
    pub const HOT_KEYS: u32 = 128;
    pub const ZIPF_S: f64 = 1.1;
    /// Words per transaction: (hot, cold) × 2 children, then the abort mask.
    const STRIDE: usize = 5;
}

impl Workload for NestedHot {
    const NAME: &'static str = "nested-hot";

    fn build() -> Self {
        let db = Db::with_config(DbConfig::builder().policy(DeadlockPolicy::Detect).build());
        load_db(&db, Self::KEYS);
        NestedHot { db }
    }

    fn inputs(seed: u64, client: usize, txns: usize) -> Inputs {
        let mut rng = Rng::new(seed, client as u64);
        let zipf = Zipf::new(Self::HOT_KEYS, Self::ZIPF_S);
        Inputs::generate(txns, Self::STRIDE, |t| {
            let mut aborts = 0;
            for child in 0..2 {
                t[2 * child] = zipf.sample(&mut rng);
                t[2 * child + 1] = rng.below(Self::KEYS);
                aborts |= u32::from(rng.below(10) == 0) << child;
            }
            t[4] = aborts;
        })
    }

    fn attempt<T: Tracer>(&self, input: &[u32], tr: &mut T) -> Result<Incs, TxnError> {
        db_txn(&self.db, tr, |txn, tr| {
            let mut incs = 0;
            for child in 0..2 {
                // A failed call drops `sub`, which aborts it.
                let sub = tr.span(Call::DbChildBegin, || txn.child())?;
                for key in &input[2 * child..2 * child + 2] {
                    tr.span(Call::DbRmw, || sub.rmw(&(*key as u64), inc))?;
                }
                if input[4] >> child & 1 == 1 {
                    tr.span(Call::DbChildAbort, || sub.abort());
                } else {
                    tr.span(Call::DbChildCommit, || sub.commit())?;
                    incs += 2;
                }
            }
            Ok([incs, 0])
        })
    }

    fn counters(&self) -> Counters {
        Counters::of_db(&self.db)
    }

    fn check(&self, totals: &Totals, used: &Used) -> Result<(), String> {
        expect_eq("sum of all keys", db_sum(&self.db, Self::KEYS), totals.incs[0])?;
        expect_eq("WAL appends without a log", used.wal_appends, 0)
    }
}

// ------------------------------------------------------------------ occ-scan

/// Optimistic mode: scan 64 consecutive keys, then increment one of them.
pub struct OccScan {
    db: Db<u64, u64>,
}

impl OccScan {
    pub const KEYS: u32 = 65_536;
    pub const SCAN: u32 = 64;
    /// Words per transaction: scan start, offset of the written key.
    const STRIDE: usize = 2;
}

impl Workload for OccScan {
    const NAME: &'static str = "occ-scan";

    fn build() -> Self {
        let db = Db::with_config(DbConfig::builder().cc_mode(CcMode::Optimistic).build());
        load_db(&db, Self::KEYS);
        OccScan { db }
    }

    fn inputs(seed: u64, client: usize, txns: usize) -> Inputs {
        let mut rng = Rng::new(seed, client as u64);
        Inputs::generate(txns, Self::STRIDE, |t| {
            t[0] = rng.below(Self::KEYS - Self::SCAN + 1);
            t[1] = rng.below(Self::SCAN);
        })
    }

    fn attempt<T: Tracer>(&self, input: &[u32], tr: &mut T) -> Result<Incs, TxnError> {
        let start = input[0] as u64;
        db_txn(&self.db, tr, |txn, tr| {
            let rows = tr.span(Call::DbRange, || txn.range(start..start + Self::SCAN as u64))?;
            if rows.len() != Self::SCAN as usize {
                // Not retryable: the run is reported incorrect.
                return Err(TxnError::UnknownKey);
            }
            tr.span(Call::DbRmw, || txn.rmw(&(start + input[1] as u64), inc))?;
            Ok([1, 0])
        })
    }

    fn counters(&self) -> Counters {
        Counters::of_db(&self.db)
    }

    fn check(&self, totals: &Totals, used: &Used) -> Result<(), String> {
        expect_eq("sum of all keys", db_sum(&self.db, Self::KEYS), totals.incs[0])?;
        expect_eq("lock waits in optimistic mode", used.lock_waits, 0)?;
        expect_eq("lock conflicts in optimistic mode", used.lock_conflicts, 0)?;
        expect_eq("WAL appends without a log", used.wal_appends, 0)
    }
}

// ------------------------------------------------------------ durable-commit

/// Flat transactions of four uniform increments, each commit forced to a
/// `ModelDisk` through the group-commit pipeline.
pub struct DurableCommit {
    db: Db<u64, u64>,
    disk: Arc<ModelDisk>,
}

impl DurableCommit {
    pub const KEYS: u32 = 65_536;
    pub const WRITES: usize = 4;
    const LOG: &'static str = "bench.wal";

    fn config() -> DbConfig {
        DbConfig::builder().durability(Durability::WalFsync).group_commit(true).build()
    }

    /// A loaded engine logging to `disk`.
    pub fn on(disk: Arc<ModelDisk>) -> Self {
        let db = Db::open_with_vfs(disk.clone(), Self::LOG, Self::config())
            .expect("a fresh ModelDisk accepts a new log");
        load_db(&db, Self::KEYS);
        DurableCommit { db, disk }
    }

    /// Recover a fresh engine from `image` without attaching a log: pure
    /// replay.
    pub fn replay(image: Vec<u8>) -> Result<Db<u64, u64>, String> {
        Db::recover_with_vfs(Arc::new(ModelDisk::holding(image)), Self::LOG, DbConfig::default())
            .map_err(|e| format!("recovery failed: {e}"))
    }

    /// The engine and its disk (for the recovery probes).
    pub fn parts(&self) -> (&Db<u64, u64>, &ModelDisk) {
        (&self.db, &self.disk)
    }
}

fn uniform_inputs(seed: u64, client: usize, txns: usize, stride: usize, keys: u32) -> Inputs {
    let mut rng = Rng::new(seed, client as u64);
    Inputs::generate(txns, stride, |t| t.iter_mut().for_each(|k| *k = rng.below(keys)))
}

impl Workload for DurableCommit {
    const NAME: &'static str = "durable-commit";

    fn build() -> Self {
        Self::on(Arc::new(ModelDisk::new(FSYNC_LATENCY)))
    }

    fn inputs(seed: u64, client: usize, txns: usize) -> Inputs {
        uniform_inputs(seed, client, txns, Self::WRITES, Self::KEYS)
    }

    fn attempt<T: Tracer>(&self, input: &[u32], tr: &mut T) -> Result<Incs, TxnError> {
        db_txn(&self.db, tr, |txn, tr| {
            for key in input {
                tr.span(Call::DbRmw, || txn.rmw(&(*key as u64), inc))?;
            }
            Ok([Self::WRITES as u64, 0])
        })
    }

    fn counters(&self) -> Counters {
        Counters { disk: self.disk.counters(), ..Counters::of_db(&self.db) }
    }

    /// Besides the live sum: cut the disk to its last fsync (what a power
    /// cut leaves), recover from that alone, and require every acknowledged
    /// increment — and no increment never attempted — in the result.
    fn check(&self, totals: &Totals, _used: &Used) -> Result<(), String> {
        let acked = totals.incs[0];
        expect_eq("sum of all keys", db_sum(&self.db, Self::KEYS), acked)?;
        let recovered = db_sum(&Self::replay(self.disk.durable_image())?, Self::KEYS);
        let attempted = totals.attempts * Self::WRITES as u64;
        if recovered < acked || recovered > attempted {
            return Err(format!(
                "recovered {recovered} increments from the fsynced log prefix; \
                 {acked} were acknowledged and {attempted} attempted"
            ));
        }
        Ok(())
    }
}

// ------------------------------------------------------------------- cluster

fn build_cluster(keys: u32) -> Cluster<u64, u64> {
    let node = DbConfig::builder().policy(DeadlockPolicy::NoWait).build();
    let cluster =
        Cluster::new(ClusterConfig::new(NODES).gossip(GossipPolicy::EagerFull).node_config(node));
    for k in 0..keys as u64 {
        cluster.insert(k, 0);
    }
    cluster
}

/// `flush`, then: nothing pending, no delivery failed, and each node's keys
/// sum to the increments the harness saw commit there.
fn check_cluster(cluster: &Cluster<u64, u64>, keys: u32, totals: &Totals) -> Result<(), String> {
    cluster.flush();
    let stats = cluster.stats();
    expect_eq("deliveries pending after flush", stats.pending_deliveries as u64, 0)?;
    expect_eq("remote commit failures", stats.router.remote_commit_failures, 0)?;
    let partition = cluster.partition();
    let mut sums: Incs = [0; NODES];
    for k in 0..keys as u64 {
        let home = partition.home(&k);
        sums[home] += cluster.node(home).committed_value(&k).expect("every key was loaded");
    }
    for (node, (got, want)) in sums.iter().zip(totals.incs).enumerate() {
        expect_eq(&format!("sum of node {node}'s keys"), *got, want)?;
    }
    Ok(())
}

/// The keys of `0..keys` homed at `node`, ascending.
fn keys_of_node(keys: u32, node: usize) -> Vec<u32> {
    let partition = Partition::new(NODES);
    (0..keys).filter(|k| partition.home(&(*k as u64)) == node).collect()
}

/// Flat read-mostly transactions whose nine keys all live on one node.
pub struct ClusterLocal {
    cluster: Cluster<u64, u64>,
}

impl ClusterLocal {
    pub const KEYS: u32 = 262_144;
    pub const READS: usize = 8;
    /// Words per transaction: 8 read keys, the written key, their node.
    const STRIDE: usize = Self::READS + 2;
}

impl Workload for ClusterLocal {
    const NAME: &'static str = "cluster-local";

    fn build() -> Self {
        ClusterLocal { cluster: build_cluster(Self::KEYS) }
    }

    /// Each transaction draws its node, then every key from that node's.
    ///
    /// The node is per transaction, not per client: `Cluster::begin` homes
    /// transactions round-robin, so with one node per client the share of
    /// transactions whose home is their node — the share that skips the
    /// router — would hang on how the two clients' `begin`s happen to
    /// interleave, and differ from run to run.
    fn inputs(seed: u64, client: usize, txns: usize) -> Inputs {
        let pools: Vec<Vec<u32>> = (0..NODES).map(|n| keys_of_node(Self::KEYS, n)).collect();
        let mut rng = Rng::new(seed, client as u64);
        Inputs::generate(txns, Self::STRIDE, |t| {
            let node = rng.below(NODES as u32);
            let pool = &pools[node as usize];
            for k in &mut t[..=Self::READS] {
                *k = pool[rng.below(pool.len() as u32) as usize];
            }
            t[Self::READS + 1] = node;
        })
    }

    fn attempt<T: Tracer>(&self, input: &[u32], tr: &mut T) -> Result<Incs, TxnError> {
        cluster_txn(&self.cluster, tr, |txn, tr| {
            for key in &input[..Self::READS] {
                tr.span(Call::ClusterGet, || txn.get(&(*key as u64)))?;
            }
            tr.span(Call::ClusterRmw, || txn.rmw(&(input[Self::READS] as u64), inc))?;
            let mut incs = [0; NODES];
            incs[input[Self::READS + 1] as usize] = 1;
            Ok(incs)
        })
    }

    fn counters(&self) -> Counters {
        Counters::of_cluster(&self.cluster)
    }

    fn check(&self, totals: &Totals, _used: &Used) -> Result<(), String> {
        check_cluster(&self.cluster, Self::KEYS, totals)
    }
}

/// [`ClusterLocal`]'s transactions on one bare `Db` with the node
/// configuration: the denominator of `cluster.cluster.local_tax` and the
/// source of the `core.db.*` spans reported beside the `cluster.cluster.*`
/// ones. Not a workload of `BENCHMARK.json`.
pub struct BareLocal {
    db: Db<u64, u64>,
}

impl Workload for BareLocal {
    const NAME: &'static str = "bare-local";

    fn build() -> Self {
        let db = Db::with_config(DbConfig::builder().policy(DeadlockPolicy::NoWait).build());
        load_db(&db, ClusterLocal::KEYS);
        BareLocal { db }
    }

    fn inputs(seed: u64, client: usize, txns: usize) -> Inputs {
        ClusterLocal::inputs(seed, client, txns)
    }

    fn attempt<T: Tracer>(&self, input: &[u32], tr: &mut T) -> Result<Incs, TxnError> {
        db_txn(&self.db, tr, |txn, tr| {
            for key in &input[..ClusterLocal::READS] {
                tr.span(Call::DbRead, || txn.read(&(*key as u64)))?;
            }
            tr.span(Call::DbRmw, || txn.rmw(&(input[ClusterLocal::READS] as u64), inc))?;
            Ok([1, 0])
        })
    }

    fn counters(&self) -> Counters {
        Counters::of_db(&self.db)
    }

    fn check(&self, totals: &Totals, _used: &Used) -> Result<(), String> {
        expect_eq("sum of all keys", db_sum(&self.db, ClusterLocal::KEYS), totals.incs[0])
    }
}

/// Flat transactions of four uniform increments: about 94 % touch both
/// nodes, so the router is on every commit's path.
pub struct ClusterCross {
    cluster: Cluster<u64, u64>,
}

impl ClusterCross {
    pub const KEYS: u32 = 65_536;
    pub const WRITES: usize = 4;
    /// Words per transaction: 4 keys, then a mask with bit `i` = home of key `i`.
    const STRIDE: usize = Self::WRITES + 1;
}

impl Workload for ClusterCross {
    const NAME: &'static str = "cluster-cross";

    fn build() -> Self {
        ClusterCross { cluster: build_cluster(Self::KEYS) }
    }

    fn inputs(seed: u64, client: usize, txns: usize) -> Inputs {
        let partition = Partition::new(NODES);
        let mut rng = Rng::new(seed, client as u64);
        Inputs::generate(txns, Self::STRIDE, |t| {
            t[Self::WRITES] = 0;
            for i in 0..Self::WRITES {
                t[i] = rng.below(Self::KEYS);
                t[Self::WRITES] |= (partition.home(&(t[i] as u64)) as u32) << i;
            }
        })
    }

    fn attempt<T: Tracer>(&self, input: &[u32], tr: &mut T) -> Result<Incs, TxnError> {
        cluster_txn(&self.cluster, tr, |txn, tr| {
            let mut incs = [0; NODES];
            for (i, key) in input[..Self::WRITES].iter().enumerate() {
                tr.span(Call::ClusterRmw, || txn.rmw(&(*key as u64), inc))?;
                incs[(input[Self::WRITES] >> i & 1) as usize] += 1;
            }
            Ok(incs)
        })
    }

    fn counters(&self) -> Counters {
        Counters::of_cluster(&self.cluster)
    }

    fn check(&self, totals: &Totals, _used: &Used) -> Result<(), String> {
        check_cluster(&self.cluster, Self::KEYS, totals)
    }
}
