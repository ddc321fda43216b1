//! One integration test per [`DeadlockPolicy`] variant: each policy's
//! characteristic verdict fires on a real contended schedule, and no
//! scenario hangs.

use rnt_core::{Db, DbConfig, DeadlockPolicy, TxnError};
use std::sync::{Arc, Barrier};
use std::time::Duration;

fn db_with(policy: DeadlockPolicy) -> Db<u64, i64> {
    let db = Db::with_config(DbConfig::builder().policy(policy).build());
    db.insert(0, 0);
    db.insert(1, 0);
    db
}

#[test]
fn no_wait_dies_immediately_naming_the_blocker() {
    let db = db_with(DeadlockPolicy::NoWait);
    let holder = db.begin();
    holder.write(&0, 1).unwrap();
    let t = db.begin();
    match t.write(&0, 2) {
        Err(TxnError::Die { blocker }) => assert_eq!(blocker, holder.id()),
        other => panic!("expected Die, got {other:?}"),
    }
    t.abort();
    holder.commit().unwrap();
    assert_eq!(db.committed_value(&0), Some(1));
}

#[test]
fn timeout_expires_against_a_held_lock() {
    let db = db_with(DeadlockPolicy::Timeout(Duration::from_millis(20)));
    let holder = db.begin();
    holder.write(&0, 1).unwrap();
    let t = db.begin();
    let start = std::time::Instant::now();
    match t.write(&0, 2) {
        Err(TxnError::Timeout(bound)) => assert_eq!(bound, Duration::from_millis(20)),
        other => panic!("expected Timeout, got {other:?}"),
    }
    assert!(start.elapsed() >= Duration::from_millis(20), "timed out early");
    t.abort();
    // After the holder finishes, a fresh transaction acquires immediately.
    holder.commit().unwrap();
    let t2 = db.begin();
    assert_eq!(t2.read(&0).unwrap(), 1);
    t2.commit().unwrap();
}

#[test]
fn wait_die_kills_the_younger_and_lets_the_older_wait() {
    let db = db_with(DeadlockPolicy::WaitDie);
    // Older holds: the younger requester must die, not wait.
    let older = db.begin();
    older.write(&0, 1).unwrap();
    let younger = db.begin();
    match younger.write(&0, 2) {
        Err(TxnError::Die { blocker }) => assert_eq!(blocker, older.id()),
        other => panic!("expected Die for the younger requester, got {other:?}"),
    }
    younger.abort();
    older.commit().unwrap();

    // Younger holds: the older requester waits until the lock frees.
    let first = db.begin(); // older
    let second = db.begin(); // younger
    second.write(&1, 5).unwrap();
    let handle = {
        let db = db.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            second.commit().unwrap();
            db.committed_value(&1)
        })
    };
    // Blocks (waits) until the younger holder commits, then acquires.
    assert_eq!(first.read(&1).unwrap(), 5);
    first.commit().unwrap();
    assert_eq!(handle.join().unwrap(), Some(5));
}

#[test]
fn detect_finds_the_cycle_and_picks_one_victim() {
    let db = db_with(DeadlockPolicy::Detect);
    let barrier = Arc::new(Barrier::new(2));
    let side = |first: u64, second: u64, db: Db<u64, i64>, barrier: Arc<Barrier>| {
        std::thread::spawn(move || {
            let t = db.begin();
            t.write(&first, 1).unwrap();
            barrier.wait(); // both sides hold one lock before crossing
            match t.write(&second, 1) {
                Ok(_) => {
                    t.commit().unwrap();
                    None
                }
                Err(TxnError::Deadlock { cycle }) => {
                    let id = t.id();
                    t.abort();
                    Some((id, cycle))
                }
                Err(other) => panic!("expected Deadlock or success, got {other}"),
            }
        })
    };
    let a = side(0, 1, db.clone(), barrier.clone());
    let b = side(1, 0, db.clone(), barrier);
    let results = [a.join().unwrap(), b.join().unwrap()];
    let victims: Vec<_> = results.iter().flatten().collect();
    assert_eq!(victims.len(), 1, "exactly one side closes the cycle: {victims:?}");
    let (victim, cycle) = victims[0];
    assert!(cycle.contains(victim), "the victim appears in its own cycle: {cycle:?}");
    // The survivor committed both writes; the victim's were discarded.
    assert_eq!(
        db.committed_value(&0).unwrap() + db.committed_value(&1).unwrap(),
        2,
        "exactly one transaction's writes survived"
    );
}
