//! Functional coverage of the sharded multi-node engine: routing,
//! cross-node transactions, nesting resilience, gossip policies, fault
//! classes, recovery, snapshots, and trace validation.

use rnt_cluster::{Cluster, ClusterConfig, GossipPolicy, TxnError};
use rnt_core::{DbConfig, Durability};

fn mem_cluster(nodes: usize) -> Cluster<u64, i64> {
    let cluster = Cluster::new(ClusterConfig::new(nodes).trace(true));
    for k in 0..64u64 {
        assert!(cluster.insert(k, 0));
    }
    cluster
}

fn durable_cluster(nodes: usize) -> Cluster<u64, i64> {
    let config = ClusterConfig::new(nodes)
        .trace(true)
        .node_config(DbConfig::builder().durability(Durability::WalFsync).build());
    let cluster = Cluster::new_durable(config).expect("open");
    for k in 0..64u64 {
        assert!(cluster.insert(k, 0));
    }
    cluster
}

/// Keys spread over all nodes end up readable from every handle with
/// single-node semantics.
#[test]
fn cross_node_commit_is_visible_everywhere() {
    let cluster = mem_cluster(4);
    let txn = cluster.begin();
    for k in 0..16u64 {
        assert_eq!(txn.put(&k, k as i64 + 1).unwrap(), 0);
    }
    txn.commit().unwrap();
    for k in 0..16u64 {
        assert_eq!(cluster.committed_value(&k).unwrap(), Some(k as i64 + 1));
    }
    let report = cluster.validate_trace(true).expect("trace valid");
    assert!(report.events > 0);
    assert!(report.sends > 0, "a 4-node write-all txn must gossip");
}

/// An aborted cluster transaction leaves no trace on any node.
#[test]
fn abort_restores_all_nodes() {
    let cluster = mem_cluster(4);
    let txn = cluster.begin();
    for k in 0..16u64 {
        txn.put(&k, -7).unwrap();
    }
    txn.abort();
    for k in 0..16u64 {
        assert_eq!(cluster.committed_value(&k).unwrap(), Some(0));
    }
    cluster.validate_trace(true).expect("trace valid");
}

/// Dropping a live handle aborts it (RAII poison safety).
#[test]
fn drop_aborts() {
    let cluster = mem_cluster(2);
    {
        let txn = cluster.begin();
        txn.put(&3, 99).unwrap();
    }
    assert_eq!(cluster.committed_value(&3).unwrap(), Some(0));
    assert_eq!(cluster.stats().aborts, 1);
    cluster.validate_trace(true).expect("trace valid");
}

/// A nested subtransaction's failure aborts only its subtree, even when
/// the subtree spans nodes the parent also touched.
#[test]
fn child_abort_is_resilient_across_nodes() {
    let cluster = mem_cluster(4);
    let txn = cluster.begin();
    for k in 0..8u64 {
        txn.put(&k, 1).unwrap();
    }
    let child = txn.child().unwrap();
    for k in 0..8u64 {
        child.put(&k, 1000).unwrap();
    }
    child.abort();
    // Parent still live, child's writes undone under the parent's view.
    for k in 0..8u64 {
        assert_eq!(txn.get(&k).unwrap(), 1);
    }
    let child2 = txn.child().unwrap();
    child2.put(&0, 2).unwrap();
    child2.commit().unwrap();
    assert_eq!(txn.get(&0).unwrap(), 2);
    txn.commit().unwrap();
    assert_eq!(cluster.committed_value(&0).unwrap(), Some(2));
    assert_eq!(cluster.committed_value(&1).unwrap(), Some(1));
    cluster.validate_trace(true).expect("trace valid");
}

/// Deeply nested cluster transactions commit bottom-up, and committing
/// over a live descendant is refused (consuming the handle, which
/// aborts the subtree — the engine's own contract, one level up).
#[test]
fn deep_nesting() {
    let cluster = mem_cluster(3);
    let top = cluster.begin();
    let c1 = top.child().unwrap();
    let c2 = c1.child().unwrap();
    for k in 0..6u64 {
        c2.put(&k, 5).unwrap();
    }
    c2.commit().unwrap();
    c1.commit().unwrap();
    top.put(&0, 1).unwrap();
    top.commit().unwrap();
    assert_eq!(cluster.committed_value(&0).unwrap(), Some(1));
    for k in 1..6u64 {
        assert_eq!(cluster.committed_value(&k).unwrap(), Some(5));
    }
    // A top-level commit over a live child fails and (handle consumed)
    // aborts the whole tree — top's own writes included.
    let top2 = cluster.begin();
    top2.put(&0, 100).unwrap();
    let orphan = top2.child().unwrap();
    orphan.put(&1, 100).unwrap();
    assert!(matches!(top2.commit(), Err(TxnError::ChildrenActive(_))));
    assert!(!orphan.is_live(), "parent death kills the subtree");
    assert_eq!(cluster.committed_value(&0).unwrap(), Some(1));
    assert_eq!(cluster.committed_value(&1).unwrap(), Some(5));
    cluster.validate_trace(true).expect("trace valid");
}

/// Periodic gossip holds remote locks until the pump round, and the
/// locks block conflicting writers in the meantime.
#[test]
fn periodic_gossip_defers_remote_release() {
    let cluster: Cluster<u64, i64> =
        Cluster::new(ClusterConfig::new(2).trace(true).gossip(GossipPolicy::Periodic(100)));
    for k in 0..8u64 {
        cluster.insert(k, 0);
    }
    // The first access homes the transaction; a key of the other node
    // then needs a remote participant.
    let txn = cluster.begin();
    txn.get(&0).unwrap();
    let home = txn.home().unwrap();
    let remote_key = (0..8u64).find(|k| cluster.partition().home(k) != home).unwrap();
    txn.put(&remote_key, 42).unwrap();
    txn.commit().unwrap();
    // The commit stood (the home node sequenced it), but the remote
    // node does not know yet: its participant is queued, its lock still
    // held, its committed state still the old value — exactly the
    // level-5 discipline where status is knowledge.
    assert_eq!(cluster.stats().pending_deliveries, 1);
    assert_eq!(cluster.committed_value(&remote_key).unwrap(), Some(0));
    // A manual pump delivers what links allow regardless of policy.
    cluster.pump();
    assert_eq!(cluster.stats().pending_deliveries, 0);
    assert_eq!(cluster.committed_value(&remote_key).unwrap(), Some(42));
    cluster.validate_trace(true).expect("trace valid");
}

/// First-touch homing: the first key's node is the home, a footprint
/// that stays there never meets the router, and each further node costs
/// exactly one delivery.
#[test]
fn single_node_footprint_sends_nothing() {
    let cluster = mem_cluster(3);
    let partition = cluster.partition();
    let first = 5u64;
    let node = partition.home(&first);
    let local: Vec<u64> = (0..64).filter(|k| partition.home(k) == node).collect();
    let txn = cluster.begin();
    assert_eq!(txn.home(), None, "no home before the first access");
    for k in &local {
        txn.rmw(k, |v| v + 1).unwrap();
        assert_eq!(txn.home(), Some(node));
    }
    txn.commit().unwrap();
    let stats = cluster.stats();
    assert_eq!((stats.commits, stats.router.sends, stats.pending_deliveries), (1, 0, 0));
    assert_eq!(cluster.committed_value(&first).unwrap(), Some(1), "no delivery was needed");

    let remote_key = (0..64u64).find(|k| partition.home(k) != node).unwrap();
    let txn = cluster.begin();
    txn.put(&first, 7).unwrap();
    txn.put(&remote_key, 8).unwrap();
    assert_eq!(txn.home(), Some(node), "later accesses do not move the home");
    txn.commit().unwrap();
    assert_eq!(cluster.stats().router.sends, 1, "one remote participant, one delivery");
    assert_eq!(cluster.delivery_log(partition.home(&remote_key)).unwrap().len(), 1);

    // Without an access, the first `child()` or the commit binds `ctid % k`.
    let txn = cluster.begin();
    let fallback = (txn.id() % 3) as usize;
    txn.child().unwrap().commit().unwrap();
    assert_eq!(txn.home(), Some(fallback));
    txn.commit().unwrap();
    cluster.begin().commit().unwrap();
    assert_eq!(cluster.stats().commits, 4);
    assert_eq!(cluster.stats().router.sends, 1);
    cluster.validate_trace(true).expect("trace valid");
}

/// Snapshots are cluster-wide consistent: never a half-visible commit,
/// and ranges merge across nodes in key order.
#[test]
fn snapshot_is_consistent_and_ordered() {
    let cluster = mem_cluster(4);
    for round in 1..=5i64 {
        let txn = cluster.begin();
        for k in 0..16u64 {
            txn.put(&k, round).unwrap();
        }
        txn.commit().unwrap();
        let snap = cluster.snapshot().unwrap();
        let vals: Vec<i64> = (0..16u64).map(|k| snap.read(&k).unwrap()).collect();
        assert!(vals.iter().all(|&v| v == round), "torn snapshot: {vals:?}");
    }
    let snap = cluster.snapshot().unwrap();
    let range = snap.range(0..16u64);
    assert_eq!(range.len(), 16);
    assert!(range.windows(2).all(|w| w[0].0 < w[1].0), "range must be key-ordered");
    cluster.validate_trace(true).expect("trace valid");
}

/// WrongNode is a typed routing error, not a panic.
#[test]
fn wrong_node_is_typed() {
    let cluster = mem_cluster(4);
    let key = 5u64;
    let home = cluster.partition().home(&key);
    let wrong = (home + 1) % 4;
    let txn = cluster.begin();
    match txn.get_at(wrong, &key) {
        Err(TxnError::WrongNode { node, home: h }) => {
            assert_eq!(node, wrong);
            assert_eq!(h, home);
        }
        other => panic!("expected WrongNode, got {other:?}"),
    }
    assert_eq!(txn.get_at(home, &key).unwrap(), 0);
    txn.commit().unwrap();
}

/// Crashing a node force-aborts transactions with a participant there;
/// unrelated transactions and the rest of the cluster keep going.
#[test]
fn crash_aborts_participants_only() {
    let cluster = durable_cluster(4);
    let txn = cluster.begin();
    // Touch every node so the crash surely hits a participant.
    for k in 0..16u64 {
        txn.put(&k, 9).unwrap();
    }
    cluster.crash_node(2);
    assert!(!txn.is_live(), "participant at crashed node must die");
    assert!(matches!(txn.get(&0), Err(TxnError::Unavailable { node: 2 })));
    txn.abort(); // no-op, already dead
                 // Keys homed elsewhere still work.
    let other_key = (0..64u64).find(|k| cluster.partition().home(k) != 2).unwrap();
    let t2 = cluster.begin();
    t2.put(&other_key, 1).unwrap();
    t2.commit().unwrap();
    assert_eq!(cluster.committed_value(&other_key).unwrap(), Some(1));
    // Keys homed at the dead node are unavailable.
    let dead_key = (0..64u64).find(|k| cluster.partition().home(k) == 2).unwrap();
    assert!(matches!(cluster.committed_value(&dead_key), Err(TxnError::Unavailable { node: 2 })));
    // Snapshots refuse while a node is down.
    assert!(matches!(cluster.snapshot(), Err(TxnError::Unavailable { node: 2 })));
    cluster.recover_node(2).unwrap();
    assert_eq!(cluster.committed_value(&dead_key).unwrap(), Some(0));
    cluster.snapshot().unwrap();
    cluster.validate_trace(true).expect("trace valid");
}

/// A committed cluster transaction survives a remote participant's crash
/// before its status delivery: recovery + redo re-applies the writes.
#[test]
fn committed_work_survives_remote_crash_via_redo() {
    let config = ClusterConfig::new(2)
        .trace(true)
        .gossip(GossipPolicy::Periodic(1000)) // keep deliveries queued
        .node_config(DbConfig::builder().durability(Durability::WalFsync).build());
    let cluster: Cluster<u64, i64> = Cluster::new_durable(config).expect("open");
    for k in 0..16u64 {
        cluster.insert(k, 0);
    }
    let txn = cluster.begin();
    txn.get(&0).unwrap();
    let home = txn.home().unwrap();
    let remote_key = (0..16u64).find(|k| cluster.partition().home(k) != home).unwrap();
    let remote = cluster.partition().home(&remote_key);
    txn.put(&remote_key, 77).unwrap();
    txn.commit().unwrap();
    assert_eq!(cluster.stats().pending_deliveries, 1);
    // The remote node dies holding the undelivered status.
    cluster.crash_node(remote);
    cluster.recover_node(remote).unwrap();
    // Recovery flushed the queue: the redo image re-applied the write.
    assert_eq!(cluster.stats().pending_deliveries, 0);
    assert_eq!(cluster.stats().router.redo_applied, 1);
    assert_eq!(cluster.committed_value(&remote_key).unwrap(), Some(77));
    cluster.validate_trace(true).expect("trace valid");
}

/// Without tracing the order logs are not kept, and asking for one is
/// the error `validate_trace` gives, never an empty log a check would
/// pass on; the commit count stays exact.
#[test]
fn order_logs_need_tracing() {
    let cluster = Cluster::new(ClusterConfig::new(2));
    for k in 0..8u64 {
        assert!(cluster.insert(k, 0));
    }
    for round in 0..3 {
        let txn = cluster.begin();
        for k in 0..8u64 {
            txn.put(&k, round).unwrap();
        }
        txn.commit().unwrap();
    }
    assert_eq!(cluster.stats().commits, 3);
    let disabled = cluster.validate_trace(false).unwrap_err();
    assert!(disabled.contains("tracing is disabled"), "{disabled}");
    assert_eq!(cluster.commit_log(), Err(disabled.clone()));
    for node in 0..2 {
        assert_eq!(cluster.delivery_log(node), Err(disabled.clone()));
    }
}

/// Partitioned links queue deliveries; healing releases them in commit
/// order.
#[test]
fn partition_queues_then_heals() {
    let cluster = mem_cluster(2);
    cluster.set_link_blocked(0, 1, true);
    cluster.set_link_blocked(1, 0, true);
    // Disjoint key sets per round: remote locks stay held while the
    // partition lasts, so overlapping rounds would block — held locks of
    // *committed-but-unknown* transactions are the point of the model.
    for round in 0..6u64 {
        let txn = cluster.begin();
        for k in round * 8..round * 8 + 8 {
            txn.put(&k, round as i64 + 1).unwrap();
        }
        txn.commit().unwrap();
    }
    assert!(cluster.stats().pending_deliveries > 0, "partition must queue");
    cluster.heal_links();
    cluster.pump();
    assert_eq!(cluster.stats().pending_deliveries, 0);
    // Each node applied remote commits in cluster commit order.
    for node in 0..2 {
        let log = cluster.delivery_log(node).unwrap();
        assert!(log.windows(2).all(|w| w[0].0 < w[1].0), "out-of-order delivery at {node}");
    }
    for k in 0..48u64 {
        assert_eq!(cluster.committed_value(&k).unwrap(), Some((k / 8) as i64 + 1));
    }
    cluster.validate_trace(true).expect("trace valid");
}

/// Delayed links hold deliveries for the configured number of pump
/// rounds without reordering them.
#[test]
fn delayed_gossip_preserves_order() {
    let cluster = mem_cluster(2);
    cluster.set_link_delay(0, 1, 3);
    cluster.set_link_delay(1, 0, 3);
    let txn = cluster.begin();
    for k in 0..8u64 {
        txn.put(&k, 1).unwrap();
    }
    txn.commit().unwrap();
    // The commit's own (eager) pump round already aged the hold once:
    // 3 → 2 remaining.
    assert_eq!(cluster.stats().pending_deliveries, 1);
    cluster.pump();
    assert_eq!(cluster.stats().pending_deliveries, 1, "still held");
    cluster.pump();
    assert_eq!(cluster.stats().pending_deliveries, 0, "delay served");
    cluster.validate_trace(true).expect("trace valid");
}

/// Cluster::run retries contention like Db::run: concurrent increments
/// across nodes sum exactly.
#[test]
fn run_retries_to_exact_sum() {
    let cluster: Cluster<u64, i64> = Cluster::new(ClusterConfig::new(4));
    for k in 0..4u64 {
        cluster.insert(k, 0);
    }
    let threads: Vec<_> = (0..4)
        .map(|_| {
            let c = cluster.clone();
            std::thread::spawn(move || {
                for _ in 0..50 {
                    c.run(|txn| {
                        for k in 0..4u64 {
                            txn.rmw(&k, |v| v + 1)?;
                        }
                        Ok(())
                    })
                    .unwrap();
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    cluster.flush();
    for k in 0..4u64 {
        assert_eq!(cluster.committed_value(&k).unwrap(), Some(200), "lost update on {k}");
    }
}

/// The trace journal round-trips through the deep (Theorem-29) checker
/// on a mixed workload: nesting, aborts, remote ops, faults.
#[test]
fn mixed_workload_trace_validates_deep() {
    let cluster = mem_cluster(3);
    for round in 0..10u64 {
        let txn = cluster.begin();
        let k1 = round % 8;
        let k2 = 8 + (round % 8);
        txn.rmw(&k1, |v| v + 1).unwrap();
        let child = txn.child().unwrap();
        child.put(&k2, round as i64).unwrap();
        if round % 3 == 0 {
            child.abort();
        } else {
            child.commit().unwrap();
        }
        if round % 4 == 3 {
            txn.abort();
        } else {
            txn.commit().unwrap();
        }
    }
    cluster.flush();
    let report = cluster.validate_trace(true).expect("deep trace valid");
    assert!(report.high_steps > 0);
}
