//! Panics in user closures, one level up from `core/tests/panic_safety.rs`:
//! a `Cluster::run` or `ClusterTxn::run_child` body that unwinds after
//! writing on every node must leave nothing behind on any of them. The
//! handles' `Drop`-abort is the whole contract — every participant's
//! engine transaction aborted, its locks released and pre-images restored,
//! nothing queued on the router.

use rnt_cluster::{Cluster, ClusterConfig};
use rnt_core::{DbConfig, DeadlockPolicy};
use std::panic::{catch_unwind, AssertUnwindSafe};

const NODES: usize = 3;

/// A 3-node `NoWait` cluster and one key homed on each node, valued
/// `10 * (node + 1)`.
fn cluster() -> (Cluster<u64, i64>, Vec<u64>) {
    let config = ClusterConfig::new(NODES)
        .node_config(DbConfig::builder().policy(DeadlockPolicy::NoWait).build());
    let cluster = Cluster::new(config);
    let partition = cluster.partition();
    let keys: Vec<u64> = (0..NODES)
        .map(|node| (0..).find(|k| partition.home(k) == node).expect("every node homes a key"))
        .collect();
    for (node, key) in keys.iter().enumerate() {
        assert!(cluster.insert(*key, 10 * (node as i64 + 1)));
    }
    (cluster, keys)
}

/// Nothing of the panicked transaction survives: under `NoWait` a single
/// attempt gets every key at once, sees the pre-images, and commits; the
/// router drains with no failed remote commit, and every node's ledger
/// balances with no snapshot pin left.
fn assert_clean(cluster: &Cluster<u64, i64>, keys: &[u64]) {
    let seen: Vec<i64> = cluster
        .run_with_retries(0, |t| keys.iter().map(|k| t.rmw(k, |v| v + 1)).collect())
        .unwrap_or_else(|e| panic!("keys not writable after the panic: {e}"));
    assert_eq!(seen, vec![10, 20, 30], "pre-images");
    cluster.flush();
    for (key, pre) in keys.iter().zip(seen) {
        assert_eq!(cluster.committed_value(key).unwrap(), Some(pre + 1));
    }
    let s = cluster.stats();
    assert_eq!((s.commits, s.aborts), (1, 1), "the probe committed, the panicked txn aborted");
    assert_eq!(s.pending_deliveries, 0, "router drained");
    assert_eq!(s.router.remote_commit_failures, 0);
    for (node, n) in s.nodes.iter().enumerate() {
        assert_eq!(n.begun, n.committed + n.aborted, "node {node}: ledger");
        assert_eq!(n.committed, 1, "node {node}: only the probe's participant committed");
        assert_eq!(n.snapshot_pins_live, 0, "node {node}: leaked pin");
    }
}

#[test]
fn panic_in_a_run_body_aborts_on_every_node() {
    let (cluster, keys) = cluster();
    let unwound = catch_unwind(AssertUnwindSafe(|| {
        cluster.run(|t| {
            for k in &keys {
                t.rmw(k, |v| v + 100)?;
            }
            panic!("user code failed after its writes");
            #[allow(unreachable_code)]
            Ok(())
        })
    }));
    assert!(unwound.is_err(), "the panic propagates");
    assert_clean(&cluster, &keys);
}

#[test]
fn panic_in_a_run_child_body_aborts_child_and_parent_on_every_node() {
    let (cluster, keys) = cluster();
    let unwound = catch_unwind(AssertUnwindSafe(|| {
        cluster.run(|t| {
            t.rmw(&keys[0], |v| v + 100)?;
            t.run_child(0, |c| {
                for k in &keys {
                    c.rmw(k, |v| v + 100)?;
                }
                panic!("user code failed inside the subtransaction");
                #[allow(unreachable_code)]
                Ok(())
            })
        })
    }));
    assert!(unwound.is_err(), "the panic propagates");
    assert_clean(&cluster, &keys);
}
