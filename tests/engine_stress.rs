//! Engine stress integration: invariants under heavy concurrency, deep
//! nesting, orphan storms, and all deadlock policies.

use resilient_nt::core::{Db, DbConfig, DeadlockPolicy, TxnError};
use resilient_nt::sim::engine::{run_workload, seeded_db, KeyDist, TxnShape, Workload};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Bank-transfer conservation across every policy at high contention.
#[test]
fn transfers_conserve_total_under_all_policies() {
    for policy in [
        DeadlockPolicy::Detect,
        DeadlockPolicy::WaitDie,
        DeadlockPolicy::NoWait,
        DeadlockPolicy::Timeout(std::time::Duration::from_millis(100)),
    ] {
        let db: Db<u64, i64> = Db::with_config(DbConfig::builder().policy(policy).build());
        let n = 16u64;
        for k in 0..n {
            db.insert(k, 100);
        }
        let done = Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            for t in 0..6u64 {
                let db = db.clone();
                let done = done.clone();
                scope.spawn(move || {
                    // Each loop iteration is a *distinct* transfer; retries
                    // of an individual transfer live inside `Db::run`.
                    let mut committed = 0;
                    let mut tick = t;
                    while committed < 50 {
                        tick += 1;
                        let from = (t + tick) % n;
                        let to = (t + tick * 7 + 1) % n;
                        if from == to {
                            continue;
                        }
                        db.run(|txn| {
                            txn.rmw(&from, |v| v - 1)?;
                            txn.rmw(&to, |v| v + 1)?;
                            Ok(())
                        })
                        .expect("transfer retried to completion");
                        committed += 1;
                        done.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        let total: i64 = (0..n).map(|k| db.committed_value(&k).unwrap()).sum();
        assert_eq!(total, 1600, "{policy:?}: conservation violated");
        assert_eq!(done.load(Ordering::Relaxed), 300);
    }
}

/// Deep nesting with failures at every level still converges and keeps
/// parent state intact.
#[test]
fn deep_nesting_with_mid_level_aborts() {
    let db: Db<u64, i64> = Db::new();
    db.insert(0, 0);
    let top = db.begin();
    top.write(&0, 1).unwrap();

    // Build a 12-deep chain; each level increments; abort at depth 6.
    let mut chain = vec![top.child().unwrap()];
    for _ in 0..11 {
        let next = chain.last().unwrap().child().unwrap();
        next.rmw(&0, |v| v + 1).unwrap();
        chain.push(next);
    }
    assert_eq!(chain.last().unwrap().read(&0).unwrap(), 12);
    // Abort the 6th from the top: everything below dies with it.
    let victim = chain.remove(6);
    while chain.len() > 6 {
        let orphan = chain.pop().unwrap();
        drop(orphan); // drop-abort of orphans is a no-op beyond cleanup
    }
    victim.abort();
    // The surviving prefix still sees its own increments.
    assert_eq!(chain.last().unwrap().read(&0).unwrap(), 6);
    while let Some(t) = chain.pop() {
        t.commit().unwrap();
    }
    assert_eq!(top.read(&0).unwrap(), 6);
    top.commit().unwrap();
    assert_eq!(db.committed_value(&0), Some(6));
}

/// Many sibling subtransactions racing on the same keys inside ONE
/// top-level transaction, from multiple threads.
#[test]
fn intra_transaction_parallelism() {
    let db: Db<u64, i64> =
        Db::with_config(DbConfig::builder().policy(DeadlockPolicy::WaitDie).build());
    for k in 0..4u64 {
        db.insert(k, 0);
    }
    let top = Arc::new(db.begin());
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let top = top.clone();
            scope.spawn(move || {
                for committed in 0..25u64 {
                    top.run_child(u32::MAX, |child| {
                        child.rmw(&(committed % 4), |v| v + 1)?;
                        child.rmw(&((committed + 1) % 4), |v| v + 1)?;
                        Ok::<_, TxnError>(())
                    })
                    .expect("subtransaction retried to completion");
                }
            });
        }
    });
    let top = Arc::try_unwrap(top).expect("threads joined");
    let sum_inside: i64 = (0..4u64).map(|k| top.read(&k).unwrap()).sum();
    assert_eq!(sum_inside, 200, "4 threads x 25 subtxns x 2 increments");
    top.commit().unwrap();
    let total: i64 = (0..4u64).map(|k| db.committed_value(&k).unwrap()).sum();
    assert_eq!(total, 200);
}

/// Sustained mixed workload with injected failures across shapes: engine
/// finishes, conserves, and reports sane stats.
#[test]
fn sustained_mixed_workload() {
    for shape in [
        TxnShape::Flat,
        TxnShape::Nested { children: 4, depth: 1 },
        TxnShape::Nested { children: 2, depth: 3 },
    ] {
        let db = seeded_db(DbConfig::default(), 64);
        let w = Workload {
            threads: 4,
            txns_per_thread: 50,
            ops_per_txn: 4,
            read_ratio: 0.3,
            keys: 64,
            dist: KeyDist::Zipf(0.6),
            shape,
            abort_prob: 0.1,
            exclusive_reads: false,
            op_abort_prob: 0.0,
            sorted_ops: false,
            seed: 11,
        };
        let r = run_workload(&db, &w);
        assert_eq!(r.committed, 200, "{shape:?}");
        let s = db.stats();
        // Every begun (sub)transaction ends exactly once. Aborts may
        // outnumber commits on the hot nested shapes: each detected
        // deadlock aborts and retries a subtransaction, and the retry can
        // deadlock again before getting through.
        assert_eq!(s.begun, s.committed + s.aborted, "{shape:?}");
        assert!(s.begun >= s.committed);
    }
}

/// Timeout policy actually times out (rather than hanging) when a lock is
/// held indefinitely.
#[test]
fn timeout_policy_times_out() {
    let db: Db<u64, i64> = Db::with_config(
        DbConfig::builder()
            .policy(DeadlockPolicy::Timeout(std::time::Duration::from_millis(30)))
            .build(),
    );
    db.insert(0, 0);
    let holder = db.begin();
    holder.write(&0, 1).unwrap();
    let blocked = db.begin();
    let start = std::time::Instant::now();
    match blocked.read(&0) {
        Err(TxnError::Timeout(_)) => {}
        other => panic!("expected timeout, got {other:?}"),
    }
    assert!(start.elapsed() >= std::time::Duration::from_millis(25));
    holder.abort();
    assert_eq!(blocked.read(&0).unwrap(), 0, "after the abort the value is visible again");
}
