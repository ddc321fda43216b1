//! Retirement: a transaction tree leaves the registry when the last handle
//! on it drops, and not before. An open orphan keeps its aborted tree
//! resolvable; once every handle is gone nothing of the tree is resident
//! (`txns_resident == 0`), whichever path finished it — commit, abort,
//! orphan commit, deadlock victim, optimistic loser, forced commit —
//! and a later writer is never blocked by what it left in the lock table.

use rnt_core::{CcMode, Db, DbConfig, DeadlockPolicy, Durability, TxnError};
use rnt_wal::MemVfs;
use std::sync::{Arc, Barrier};

fn db(config: DbConfig) -> Db<u64, i64> {
    let db = Db::with_config(config);
    for k in 0..4 {
        db.insert(k, 10 * k as i64);
    }
    db
}

fn resident(db: &Db<u64, i64>) -> u64 {
    db.stats().txns_resident
}

#[test]
fn an_open_orphan_keeps_its_aborted_tree_until_it_drops() {
    for mode in [CcMode::Locking, CcMode::Optimistic] {
        let db = db(DbConfig::builder().cc_mode(mode).build());
        let top = db.begin();
        let committer = top.child().unwrap();
        let aborter = top.child().unwrap();
        committer.write(&1, 100).unwrap();
        top.abort();
        assert_eq!(resident(&db), 3, "{mode:?}: two open orphans hold the tree");
        // The orphans behave as they always did: dead, refused service,
        // and still able to finish.
        assert!(!committer.is_live() && !aborter.is_live());
        assert_eq!(committer.read(&0), Err(TxnError::Orphaned));
        aborter.abort();
        assert_eq!(resident(&db), 3, "{mode:?}: one orphan is still open");
        committer.commit().unwrap();
        assert_eq!(resident(&db), 0, "{mode:?}: the last drop retires the tree");
        assert_eq!(db.committed_value(&1), Some(10), "{mode:?}: nothing of the tree published");
    }
}

#[test]
fn a_later_writer_passes_what_an_orphan_committed_into_its_aborted_parent() {
    let db = db(DbConfig::builder().policy(DeadlockPolicy::NoWait).build());
    let top = db.begin();
    let parent = top.child().unwrap();
    let orphan = parent.child().unwrap();
    orphan.write(&2, 99).unwrap();
    orphan.read(&3).unwrap();
    parent.abort();
    // Committing into an aborted parent is allowed; what the orphan
    // holds is dead, and the commit's `lose-lock` reaps it.
    orphan.commit().unwrap();
    top.commit().unwrap();
    assert_eq!(resident(&db), 0, "every handle dropped: the tree retired");
    let writer = db.begin();
    assert_eq!(writer.write(&2, 5), Ok(20), "the orphan's version never became visible");
    assert_eq!(writer.write(&3, 6), Ok(30));
    writer.commit().unwrap();
    assert_eq!((db.committed_value(&2), db.committed_value(&3)), (Some(5), Some(6)));
}

#[test]
fn a_deadlock_victim_leaves_nothing_resident() {
    let db = db(DbConfig::builder().policy(DeadlockPolicy::Detect).build());
    let barrier = Arc::new(Barrier::new(2));
    let outcomes: Vec<Result<(), TxnError>> = std::thread::scope(|s| {
        let sides: Vec<_> = [(0, 1), (1, 0)]
            .map(|(first, second)| {
                let (db, barrier) = (&db, barrier.clone());
                s.spawn(move || {
                    let t = db.begin();
                    t.write(&first, 1).unwrap();
                    barrier.wait();
                    // Each side now waits for the other: one of them closes
                    // the cycle and is the victim.
                    t.write(&second, 1)?;
                    t.commit()
                })
            })
            .into_iter()
            .collect();
        sides.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let victims = outcomes.iter().filter(|o| matches!(o, Err(TxnError::Deadlock { .. }))).count();
    assert_eq!(victims, 1, "{outcomes:?}");
    assert_eq!(resident(&db), 0);
}

#[test]
fn an_optimistic_loser_leaves_nothing_resident() {
    let db = db(DbConfig::builder().cc_mode(CcMode::Optimistic).build());
    let winner = db.begin();
    let loser = db.begin();
    let nested = loser.child().unwrap();
    nested.rmw(&0, |v| v + 1).unwrap();
    nested.commit().unwrap();
    winner.rmw(&0, |v| v + 2).unwrap();
    winner.commit().unwrap();
    assert_eq!(resident(&db), 2, "the loser's tree is open");
    assert!(matches!(loser.commit(), Err(TxnError::Conflict { .. })));
    assert_eq!(resident(&db), 0);
}

/// Forced optimistic commits — sequenced under the gate, forced and
/// published outside it — retire their trees too.
#[test]
fn forced_optimistic_commits_leave_nothing_resident() {
    let config =
        DbConfig::builder().cc_mode(CcMode::Optimistic).durability(Durability::WalFsync).build();
    let db: Db<u64, i64> =
        Db::open_with_vfs(Arc::new(MemVfs::new()), "retire.wal", config).unwrap();
    for k in 0..4 {
        db.insert(k, 10 * k as i64);
    }
    std::thread::scope(|s| {
        for k in 0..2u64 {
            let db = &db;
            s.spawn(move || {
                for _ in 0..200 {
                    db.run(|t| t.run_child(8, |c| c.rmw(&k, |v| v + 1))).unwrap();
                }
            });
        }
    });
    let stats = db.stats();
    assert_eq!(stats.wal_fsyncs, 400, "one force per top-level commit");
    assert_eq!(stats.txns_resident, 0);
}

/// The last-handle race: a top-level transaction aborts on one thread
/// while its orphaned children commit or abort on two others, so any of
/// the three handles can be the one that retires the tree. Whichever it
/// is, the tree retires exactly once and leaves the keys writable. Needs
/// an optimized build to hit the window often.
#[test]
fn the_last_handle_out_retires_the_tree_whichever_thread_it_is() {
    for mode in [CcMode::Locking, CcMode::Optimistic] {
        let db = db(DbConfig::builder().cc_mode(mode).policy(DeadlockPolicy::NoWait).build());
        for round in 0..500 {
            let top = db.begin();
            let children = [top.child().unwrap(), top.child().unwrap()];
            for (k, child) in (1u64..).zip(&children) {
                child.write(&k, round).unwrap();
            }
            let barrier = Barrier::new(3);
            std::thread::scope(|s| {
                for (i, child) in children.into_iter().enumerate() {
                    let barrier = &barrier;
                    s.spawn(move || {
                        barrier.wait();
                        if i == 0 {
                            let _ = child.commit();
                        } else {
                            child.abort();
                        }
                    });
                }
                barrier.wait();
                top.abort();
            });
            assert_eq!(resident(&db), 0, "{mode:?} round {round}");
        }
        db.run(|t| {
            t.write(&1, -1)?;
            t.write(&2, -2)
        })
        .unwrap();
        assert_eq!((db.committed_value(&1), db.committed_value(&2)), (Some(-1), Some(-2)));
    }
}
