//! What the single-threaded drivers (chaos sweep, proptests) cannot see:
//! several threads committing through the same nodes, lanes and books at
//! once. Every write is `rmw(+1)` from 0, so writes are distinguishable —
//! the writer that *saw* `v` is the `v`-th writer of its key — and the
//! per-key order the run actually took can be read back and compared
//! with the orders the cluster reports (Biswas–Enea: with unique writes
//! that check is polynomial).
//!
//! All threads start on a barrier; nodes run `NoWait`, so a conflict is a
//! retry, never a cross-node wait the per-node deadlock detectors could
//! not see.

use rnt_cluster::{Cluster, ClusterConfig, TxnError};
use rnt_core::{DbConfig, DeadlockPolicy, Durability};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

const NODES: usize = 3;
const KEYS: u64 = 6;
const WORKERS: usize = 4;

/// `n` iterations in a release build (where a run is fast enough for the
/// narrow windows to open), a fifth of that in a debug build.
fn scaled(n: usize) -> usize {
    if cfg!(debug_assertions) {
        n / 5
    } else {
        n
    }
}

/// A cluster of `NODES` with `KEYS` seeded keys; `trace` records the
/// order logs (and the journal, which nothing here validates).
fn cluster(durability: Durability, trace: bool) -> Cluster<u64, i64> {
    let node = DbConfig::builder().policy(DeadlockPolicy::NoWait).durability(durability).build();
    let config = ClusterConfig::new(NODES).node_config(node).trace(trace);
    let cluster = match durability {
        Durability::None => Cluster::new(config),
        _ => Cluster::new_durable(config).expect("open"),
    };
    for k in 0..KEYS {
        cluster.insert(k, 0);
    }
    let homes: Vec<usize> = (0..KEYS).map(|k| cluster.partition().home(&k)).collect();
    assert!((0..NODES).all(|n| homes.contains(&n)), "keys must cover every node: {homes:?}");
    cluster
}

/// The `i`-th transaction of `worker`: two or three distinct keys, drawn
/// so that all workers overlap on all keys.
fn footprint(worker: usize, i: usize) -> Vec<u64> {
    let x = (worker * 7919 + i * 104_729) as u64;
    let mut keys = vec![x % KEYS, (x / KEYS) % KEYS, (x / (KEYS * KEYS)) % KEYS];
    keys.sort_unstable();
    keys.dedup();
    keys
}

/// One committed transaction: its id and, per key, the value it saw.
type Committed = (u64, Vec<(u64, i64)>);

fn increment_all(cluster: &Cluster<u64, i64>, keys: &[u64]) -> Result<Committed, TxnError> {
    cluster.run(|txn| {
        let seen = keys.iter().map(|k| Ok((*k, txn.rmw(k, |v| v + 1)?)));
        Ok((txn.id(), seen.collect::<Result<_, TxnError>>()?))
    })
}

/// Run `rounds` transactions on each of [`WORKERS`] threads while `extra`
/// runs beside them (it is told when the workers are done).
fn run_workers(
    cluster: &Cluster<u64, i64>,
    rounds: usize,
    extra: impl FnOnce(&AtomicBool) + Send,
) -> Vec<Committed> {
    let barrier = Barrier::new(WORKERS + 1);
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..WORKERS)
            .map(|w| {
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    (0..rounds)
                        .map(|i| increment_all(cluster, &footprint(w, i)).expect("run retries"))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let extra = s.spawn(|| {
            barrier.wait();
            extra(&done);
        });
        let all = workers.into_iter().flat_map(|w| w.join().expect("worker")).collect();
        done.store(true, Ordering::SeqCst);
        extra.join().expect("extra thread");
        all
    })
}

/// Per key, the committed writers in the order they wrote: sorted by the
/// value seen, which must then read 0, 1, 2, …
fn writers_by_key(committed: &[Committed]) -> BTreeMap<u64, Vec<u64>> {
    let mut seen_by: BTreeMap<u64, Vec<(i64, u64)>> = BTreeMap::new();
    for (ctid, seen) in committed {
        for (key, v) in seen {
            seen_by.entry(*key).or_default().push((*v, *ctid));
        }
    }
    seen_by
        .into_iter()
        .map(|(key, mut writers)| {
            writers.sort_unstable();
            for (i, (v, ctid)) in writers.iter().enumerate() {
                assert_eq!(*v, i as i64, "key {key}: txn {ctid} saw a value some other writer saw");
            }
            (key, writers.into_iter().map(|(_, ctid)| ctid).collect())
        })
        .collect()
}

fn assert_sums(cluster: &Cluster<u64, i64>, writers: &BTreeMap<u64, Vec<u64>>) {
    for k in 0..KEYS {
        let want = writers.get(&k).map_or(0, Vec::len) as i64;
        assert_eq!(cluster.committed_value(&k).unwrap(), Some(want), "key {k}");
    }
}

/// `cseq` is a serialization order and every lane applies conflicting
/// commits in it: the writer that saw `v` precedes the writer that saw
/// `v + 1` in `commit_log()` and in the key's node's `delivery_log`.
#[test]
fn conflicting_commits_keep_their_order_everywhere() {
    let cluster = cluster(Durability::None, true);
    let committed = run_workers(&cluster, scaled(40_000), |_| {});
    cluster.flush();
    let writers = writers_by_key(&committed);
    assert_sums(&cluster, &writers);

    let commit_log = cluster.commit_log().unwrap();
    assert_eq!(commit_log.len(), committed.len());
    assert!(commit_log.windows(2).all(|w| w[0].0 < w[1].0), "commit_log ascends by cseq");
    let cseq_of: BTreeMap<u64, u64> = commit_log.iter().map(|&(cseq, ctid)| (ctid, cseq)).collect();
    for (key, order) in &writers {
        let node = cluster.partition().home(key);
        // Where each remote commit sits in the node's apply order; the
        // writers homed at `node` committed in place and are not in it.
        let applied: BTreeMap<u64, usize> =
            cluster.delivery_log(node).unwrap().iter().enumerate().map(|(i, e)| (e.1, i)).collect();
        let mut last_applied = None;
        for pair in order.windows(2) {
            assert!(
                cseq_of[&pair[0]] < cseq_of[&pair[1]],
                "key {key}: txn {} wrote before txn {} but has the higher cseq",
                pair[0],
                pair[1]
            );
        }
        for ctid in order {
            if let Some(at) = applied.get(ctid) {
                assert!(last_applied < Some(*at), "key {key}: node {node} applied {ctid} early");
                last_applied = Some(*at);
            }
        }
    }
}

/// Links delayed, partitioned and healed from a fifth thread mid-run:
/// nothing is lost, nothing fails, and after a flush nothing is pending.
#[test]
fn link_faults_under_load_lose_nothing() {
    let cluster = cluster(Durability::None, false);
    let committed = run_workers(&cluster, scaled(10_000), |done| {
        let mut round = 0usize;
        while !done.load(Ordering::SeqCst) {
            let (from, to) = (round % NODES, (round / NODES + 1) % NODES);
            match round % 4 {
                0 => cluster.set_link_delay(from, to, 2),
                1 => cluster.set_link_blocked(from, to, true),
                2 => cluster.pump(),
                _ => cluster.heal_links(),
            }
            // Held remote locks starve the workers until a pump: keep
            // the lanes moving between faults.
            cluster.pump();
            round += 1;
            std::thread::yield_now();
        }
    });
    cluster.heal_links();
    cluster.flush();
    assert_sums(&cluster, &writers_by_key(&committed));
    let stats = cluster.stats();
    assert_eq!(stats.commits as usize, committed.len());
    assert_eq!(stats.pending_deliveries, 0);
    assert_eq!(stats.router.remote_commit_failures, 0);
    assert_eq!(stats.router.sends, stats.router.receives);
}

/// A node crashes and recovers, repeatedly, under two threads that commit
/// through it: whoever the crash catches is told `Unavailable`, every
/// acknowledged commit survives, and no lock outlives its transaction.
#[test]
fn crash_and_recover_under_load() {
    const VICTIM: usize = 1;
    let cluster = cluster(Durability::WalFsync, false);
    let barrier = Barrier::new(3);
    let done = AtomicBool::new(false);
    let committed: Vec<Committed> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..2)
            .map(|w| {
                let (cluster, barrier, done) = (&cluster, &barrier, &done);
                s.spawn(move || {
                    barrier.wait();
                    let mut committed = Vec::new();
                    let mut i = 0;
                    while !done.load(Ordering::SeqCst) {
                        i += 1;
                        match increment_all(cluster, &footprint(w, i)) {
                            Ok(c) => committed.push(c),
                            Err(TxnError::Unavailable { node: VICTIM }) => std::thread::yield_now(),
                            Err(e) => panic!("a crash victim must report Unavailable, got {e:?}"),
                        }
                    }
                    committed
                })
            })
            .collect();
        barrier.wait();
        for _ in 0..scaled(500) {
            let before = cluster.stats().commits;
            while cluster.stats().commits < before + 20 {
                std::thread::yield_now();
            }
            cluster.crash_node(VICTIM);
            std::thread::yield_now();
            cluster.recover_node(VICTIM).expect("recover");
        }
        done.store(true, Ordering::SeqCst);
        workers.into_iter().flat_map(|w| w.join().expect("worker")).collect()
    });
    cluster.flush();
    let stats = cluster.stats();
    assert_eq!(stats.commits as usize, committed.len());
    assert_eq!((stats.pending_deliveries, stats.router.remote_commit_failures), (0, 0));
    assert_sums(&cluster, &writers_by_key(&committed));
    // NoWait: a lock leaked by a doomed or redone participant would kill
    // this writer.
    let sweep = cluster.begin();
    for k in 0..KEYS {
        sweep.put(&k, -1).unwrap_or_else(|e| panic!("key {k} is still locked: {e:?}"));
    }
    sweep.commit().unwrap();
}
