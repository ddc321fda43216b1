//! Property tests for the cluster ↔ formal-tower correspondence:
//!
//! * every router-generated level-5 trace of a randomized 2–4 node
//!   workload satisfies the paper's event preconditions and the
//!   `summary_le_tree` local mapping (Lemmas 23–28), and survives the
//!   Theorem-29 composed simulation down to level 1;
//! * each node's local apply order of remote commits embeds into the
//!   cluster serialization (Theorem 29's order embedding): per-node
//!   delivery logs are strictly increasing subsequences of the cluster
//!   commit log.

use proptest::prelude::*;
use rnt_cluster::{Cluster, ClusterConfig, GossipPolicy};
use rnt_core::{DbConfig, DeadlockPolicy};

#[derive(Clone, Debug)]
struct OpSpec {
    key: u64,
    write: bool,
}

#[derive(Clone, Debug)]
struct ChildSpec {
    ops: Vec<OpSpec>,
    abort: bool,
}

#[derive(Clone, Debug)]
struct TxnSpec {
    ops: Vec<OpSpec>,
    children: Vec<ChildSpec>,
    abort: bool,
}

fn op_strategy() -> impl Strategy<Value = OpSpec> {
    (0u64..24, 0u32..2).prop_map(|(key, write)| OpSpec { key, write: write == 1 })
}

fn txn_strategy() -> impl Strategy<Value = TxnSpec> {
    (
        proptest::collection::vec(op_strategy(), 0..6),
        proptest::collection::vec(
            (proptest::collection::vec(op_strategy(), 1..4), 0u32..2)
                .prop_map(|(ops, abort)| ChildSpec { ops, abort: abort == 1 }),
            0..3,
        ),
        0u32..2,
    )
        .prop_map(|(ops, children, abort)| TxnSpec { ops, children, abort: abort == 1 })
}

fn policy_strategy() -> impl Strategy<Value = GossipPolicy> {
    prop_oneof![
        Just(GossipPolicy::EagerFull),
        Just(GossipPolicy::DeltaOnChange),
        (1u32..4).prop_map(GossipPolicy::Periodic),
    ]
}

fn run_workload(nodes: usize, policy: GossipPolicy, txns: &[TxnSpec]) -> Cluster<u64, i64> {
    // NoWait: under lazy gossip a committed-but-undelivered transaction
    // still holds its remote locks; a single-threaded driver must die on
    // such a conflict (and treat it as an abort), never block on it.
    let node_config = DbConfig::builder().policy(DeadlockPolicy::NoWait).build();
    let cluster: Cluster<u64, i64> =
        Cluster::new(ClusterConfig::new(nodes).gossip(policy).node_config(node_config).trace(true));
    for k in 0..24u64 {
        cluster.insert(k, 0);
    }
    let mut serial = 1i64;
    for spec in txns {
        let txn = cluster.begin();
        let mut ok = true;
        for op in &spec.ops {
            let res = if op.write {
                txn.put(&op.key, serial).map(|_| ())
            } else {
                txn.get(&op.key).map(|_| ())
            };
            if res.is_err() {
                ok = false;
                break;
            }
            serial += 1;
        }
        if ok {
            for child_spec in &spec.children {
                let Ok(child) = txn.child() else { break };
                let mut child_ok = true;
                for op in &child_spec.ops {
                    let res = if op.write {
                        child.put(&op.key, serial).map(|_| ())
                    } else {
                        child.get(&op.key).map(|_| ())
                    };
                    if res.is_err() {
                        child_ok = false;
                        break;
                    }
                    serial += 1;
                }
                if child_spec.abort || !child_ok {
                    child.abort();
                } else if child.commit().is_err() {
                    break;
                }
            }
        }
        if spec.abort || !ok {
            txn.abort();
        } else {
            let _ = txn.commit();
        }
    }
    cluster.flush();
    cluster
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Lemmas 23–28 + Theorem 29, end to end: the synthesized level-5
    /// trace of any single-threaded random workload validates deeply.
    #[test]
    fn router_traces_satisfy_summary_le_tree(
        nodes in 2usize..=4,
        policy in policy_strategy(),
        txns in proptest::collection::vec(txn_strategy(), 1..12),
    ) {
        let cluster = run_workload(nodes, policy, &txns);
        let report = cluster.validate_trace(true)
            .map_err(|e| TestCaseError(format!("trace invalid: {e}")))?;
        prop_assert!(report.events > 0);
    }

    /// Theorem 29's order embedding at runtime: every node applies
    /// remote commits as a strictly increasing subsequence of the
    /// cluster commit log.
    #[test]
    fn delivery_order_embeds_into_commit_order(
        nodes in 2usize..=4,
        policy in policy_strategy(),
        txns in proptest::collection::vec(txn_strategy(), 1..16),
    ) {
        let cluster = run_workload(nodes, policy, &txns);
        let commit_log = cluster.commit_log().map_err(TestCaseError)?;
        prop_assert!(commit_log.windows(2).all(|w| w[0].0 < w[1].0));
        for node in 0..nodes {
            let log = cluster.delivery_log(node).map_err(TestCaseError)?;
            prop_assert!(
                log.windows(2).all(|w| w[0].0 < w[1].0),
                "node {} applied out of cluster order: {:?}", node, log
            );
            let mut walk = commit_log.iter();
            for entry in &log {
                prop_assert!(
                    walk.any(|e| e == entry),
                    "delivery {:?} at node {} is not in the commit log {:?}",
                    entry, node, commit_log
                );
            }
        }
    }
}
