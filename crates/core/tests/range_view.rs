//! The unified read API: range scans, time travel and the `ReadView`
//! trait.

use rnt_core::{
    AuditRecord, CcMode, Db, DbConfig, DbConfigBuilder, Durability, ReadView, Snapshot,
    SnapshotError, TxnError,
};

mod common;
use common::GateVfs;

fn db() -> Db<u64, i64> {
    let db = Db::new();
    for k in 0..10 {
        db.insert(k, k as i64 * 10);
    }
    db
}

/// Written once against the trait; exercised below through both surfaces.
fn sum_range<V: ReadView<u64, i64>>(view: &V, lo: u64, hi: u64) -> Result<i64, TxnError> {
    Ok(view.range(lo..hi)?.into_iter().map(|(_, v)| v).sum())
}

#[test]
fn snapshot_range_walks_keys_in_order() {
    let db = db();
    let snap = db.snapshot();
    let all = snap.range(..);
    assert_eq!(all.len(), 10);
    assert!(all.windows(2).all(|w| w[0].0 < w[1].0), "ascending key order");
    assert_eq!(snap.range(3..6), vec![(3, 30), (4, 40), (5, 50)]);
    assert_eq!(snap.range(3..=6), vec![(3, 30), (4, 40), (5, 50), (6, 60)]);
    assert_eq!(snap.range(42..), vec![]);
}

#[test]
fn snapshot_range_is_frozen_against_later_commits() {
    let db = db();
    let snap = db.snapshot();
    for i in 0..5 {
        db.run(|t| t.write(&i, -1).map(|_| ())).unwrap();
    }
    assert_eq!(snap.range(0..5), vec![(0, 0), (1, 10), (2, 20), (3, 30), (4, 40)]);
    let fresh = db.snapshot();
    assert!(fresh.range(0..5).iter().all(|&(_, v)| v == -1));
}

#[test]
fn snapshot_at_time_travels_to_retained_epochs() {
    let db = db();
    let hold = db.snapshot(); // pin genesis so no epoch gets reclaimed
    for round in 1..=3i64 {
        db.run(|t| t.write(&0, round * 100).map(|_| ())).unwrap();
    }
    let bounds = db.epochs();
    assert_eq!(bounds.watermark, 3);
    for epoch in 1..=3u64 {
        assert!(bounds.contains(epoch));
        let past = db.snapshot_at(epoch).unwrap();
        assert_eq!(past.epoch(), epoch);
        assert_eq!(past.read(&0), Some(epoch as i64 * 100));
        // Keys not rewritten still read their seeds at every epoch.
        assert_eq!(past.read(&5), Some(50));
    }
    drop(hold);
}

#[test]
fn snapshot_at_rejects_future_epochs() {
    let db = db();
    db.run(|t| t.write(&0, 1).map(|_| ())).unwrap();
    match db.snapshot_at(99) {
        Err(SnapshotError::Future { requested: 99, watermark }) => assert_eq!(watermark, 1),
        other => panic!("expected Future, got {other:?}"),
    }
    // Transient: once the epoch is published the same call succeeds.
    db.run(|t| t.write(&0, 2).map(|_| ())).unwrap();
    assert!(db.snapshot_at(2).is_ok());
}

#[test]
fn snapshot_at_rejects_pruned_epochs() {
    let db = db();
    for round in 1..=4i64 {
        db.run(|t| t.write(&0, round).map(|_| ())).unwrap();
    }
    // No snapshot was live, so superseded versions are gone; opening and
    // dropping a snapshot concedes the floor up to the watermark.
    drop(db.snapshot());
    match db.snapshot_at(1) {
        Err(SnapshotError::Pruned { requested: 1, oldest_retained }) => {
            assert!(oldest_retained > 1)
        }
        other => panic!("expected Pruned, got {other:?}"),
    }
    // The watermark itself is always servable.
    assert!(db.snapshot_at(db.epochs().watermark).is_ok());
}

#[test]
fn retained_floor_follows_the_oldest_live_pin() {
    let db = db();
    db.run(|t| t.write(&0, 1).map(|_| ())).unwrap();
    let old = db.snapshot(); // pins epoch 1
    for round in 2..=5i64 {
        db.run(|t| t.write(&0, round).map(|_| ())).unwrap();
    }
    // Open/drop a newer snapshot: the sweep may only concede up to the
    // oldest live pin, so every epoch since `old` stays travelable.
    drop(db.snapshot());
    for epoch in 1..=5u64 {
        let past = db.snapshot_at(epoch).expect("held epoch must stay servable");
        assert_eq!(past.read(&0), Some(epoch as i64));
    }
    drop(old);
}

#[test]
fn read_view_unifies_snapshot_and_txn() {
    let db = db();
    // Snapshot surface.
    let snap = db.snapshot();
    assert_eq!(sum_range(&snap, 2, 5).unwrap(), 20 + 30 + 40);
    assert_eq!(ReadView::get(&snap, &3).unwrap(), Some(30));
    assert_eq!(ReadView::get(&snap, &42).unwrap(), None, "unknown key is None, not an error");
    assert_eq!(ReadView::epoch(&snap), snap.epoch());
    assert_eq!(snap.scan_all().unwrap().len(), 10);

    // Transactional surface: same generic code, live semantics.
    let t = db.begin();
    t.write(&3, 999).unwrap();
    assert_eq!(sum_range(&t, 2, 5).unwrap(), 20 + 999 + 40, "txn range sees own writes");
    assert_eq!(ReadView::get(&t, &42).unwrap(), None);
    assert_eq!(ReadView::epoch(&t), db.epochs().watermark);
    t.abort();

    // The snapshot was isolated from the aborted write all along.
    assert_eq!(sum_range(&snap, 2, 5).unwrap(), 90);
}

#[test]
fn txn_range_conflicts_surface_as_errors() {
    let db: Db<u64, i64> =
        Db::with_config(DbConfig::builder().policy(rnt_core::DeadlockPolicy::NoWait).build());
    for k in 0..4 {
        db.insert(k, 0);
    }
    let writer = db.begin();
    writer.write(&2, 7).unwrap();
    // A locked scan crossing the held key dies under NoWait...
    let reader = db.begin();
    assert!(ReadView::range(&reader, 0..4).is_err());
    reader.abort();
    // ...while the lock-free snapshot scan sails through.
    assert_eq!(db.snapshot().range(0..4).len(), 4);
    writer.commit().unwrap();
}

#[test]
fn snapshot_clone_shares_the_pin() {
    let db = db();
    let snap = db.snapshot();
    let clone = snap.clone();
    assert_eq!(clone.epoch(), snap.epoch());
    assert_eq!(db.stats().snapshot_pins_live, 2);
    db.run(|t| t.write(&0, -5).map(|_| ())).unwrap();
    drop(snap);
    // The clone alone still protects the old version.
    assert_eq!(clone.read(&0), Some(0));
    assert_eq!(db.stats().snapshot_pins_live, 1);
    drop(clone);
    assert_eq!(db.stats().snapshot_pins_live, 0);
    assert_eq!(db.history(&0).len(), 1, "versions reclaimed once every clone dropped");
}

#[test]
fn debug_impls_are_present_and_informative() {
    let db = db();
    let s = format!("{db:?}");
    assert!(s.contains("watermark"));
    let snap: Snapshot<u64, i64> = db.snapshot();
    let s = format!("{snap:?}");
    assert!(s.contains("epoch"));
    let t = db.begin();
    let s = format!("{t:?}");
    assert!(s.contains("top_level"));
    t.abort();
    let s = format!("{:?}", db.epochs());
    assert!(s.contains("oldest_retained"));
    let s = format!("{:?}", SnapshotError::Pruned { requested: 1, oldest_retained: 2 });
    assert!(s.contains("Pruned"));
}

#[test]
fn range_scans_are_counted() {
    let db = db();
    let before = db.stats().range_scans;
    let _ = db.snapshot().range(..);
    let t = db.begin();
    let _ = ReadView::range(&t, 0..3).unwrap();
    t.abort();
    assert_eq!(db.stats().range_scans, before + 2);
}

// ------------------------------------------------ optimistic mode: a scan's
// read-set entry is its interval, validated as one at commit.

fn opt_db(config: DbConfigBuilder) -> Db<u64, i64> {
    let db = Db::with_config(config.cc_mode(CcMode::Optimistic).build());
    for k in 0..10 {
        db.insert(k, k as i64 * 10);
    }
    db
}

/// Commit `key := value` in its own transaction; returns the commit epoch.
fn commit_write(db: &Db<u64, i64>, key: u64, value: i64) -> u64 {
    db.run(|t| t.write(&key, value).map(|_| ())).unwrap();
    db.epochs().watermark
}

#[test]
fn optimistic_scan_conflicts_with_a_committed_write_inside_its_interval() {
    let db = opt_db(DbConfig::builder());
    let reader = db.begin();
    let begin = ReadView::epoch(&reader);
    assert_eq!(sum_range(&reader, 2, 6).unwrap(), 20 + 30 + 40 + 50);
    reader.write(&9, -1).unwrap(); // its own write is outside the interval
    let writer_epoch = commit_write(&db, 4, 444);
    match reader.commit().unwrap_err() {
        TxnError::Conflict { begin_epoch, committed_epoch } => {
            assert_eq!((begin_epoch, committed_epoch), (begin, writer_epoch));
        }
        other => panic!("expected Conflict, got {other:?}"),
    }
    assert_eq!(db.committed_value(&9), Some(90), "the loser published nothing");
}

#[test]
fn optimistic_scan_ignores_committed_writes_outside_its_interval() {
    let db = opt_db(DbConfig::builder());
    let reader = db.begin();
    assert_eq!(ReadView::range(&reader, 2..6).unwrap().len(), 4);
    reader.write(&9, -1).unwrap();
    commit_write(&db, 6, 666); // the excluded end bound
    commit_write(&db, 1, 111);
    reader.commit().unwrap();
    assert_eq!(db.committed_value(&9), Some(-1));
}

#[test]
fn optimistic_interval_covers_keys_the_scan_did_not_return() {
    // The interval is a superset of the returned keys: a key seeded inside
    // it after the scan, then written by a committed transaction, is a
    // phantom the per-key read set could not have seen.
    let db = opt_db(DbConfig::builder());
    let reader = db.begin();
    assert_eq!(ReadView::range(&reader, 20..30).unwrap(), vec![]);
    reader.write(&0, 1).unwrap();
    db.insert(25, 0);
    let phantom_epoch = commit_write(&db, 25, 7);
    assert!(matches!(
        reader.commit(),
        Err(TxnError::Conflict { committed_epoch, .. }) if committed_epoch == phantom_epoch
    ));
}

#[test]
fn optimistic_child_scan_is_inherited_on_commit_and_dropped_on_abort() {
    let db = opt_db(DbConfig::builder());
    // A committed child hands its interval to the parent...
    let top = db.begin();
    let child = top.child().unwrap();
    assert_eq!(ReadView::range(&child, 2..6).unwrap().len(), 4);
    child.commit().unwrap();
    commit_write(&db, 3, 333);
    assert!(matches!(top.commit(), Err(TxnError::Conflict { .. })));
    // ...an aborted child takes it to the grave.
    let top = db.begin();
    let child = top.child().unwrap();
    assert_eq!(ReadView::range(&child, 2..6).unwrap().len(), 4);
    child.abort();
    top.write(&9, 9).unwrap();
    commit_write(&db, 3, 334);
    top.commit().unwrap();
}

#[test]
fn optimistic_scan_sees_own_and_ancestor_buffered_writes() {
    let db = opt_db(DbConfig::builder());
    let top = db.begin();
    top.write(&3, 999).unwrap();
    top.write(&4, 1).unwrap();
    let child = top.child().unwrap();
    child.write(&4, 888).unwrap(); // the nearest buffer wins
    assert_eq!(
        ReadView::range(&child, 2..6).unwrap(),
        vec![(2, 20), (3, 999), (4, 888), (5, 50)],
        "buffered writes overlay the snapshot rows, in key order"
    );
    assert_eq!(ReadView::range(&top, 3..=4).unwrap(), vec![(3, 999), (4, 1)]);
    let before = db.stats();
    child.commit().unwrap();
    top.commit().unwrap();
    assert_eq!(db.snapshot().range(3..=4), vec![(3, 999), (4, 888)]);
    assert_eq!(db.stats().occ_conflicts, before.occ_conflicts);
}

#[test]
fn optimistic_scans_count_one_scan_and_one_read_per_row() {
    let db = opt_db(DbConfig::builder());
    let before = db.stats();
    let t = db.begin();
    assert_eq!(ReadView::range(&t, 2..6).unwrap().len(), 4);
    t.abort();
    let after = db.stats();
    assert_eq!(after.range_scans, before.range_scans + 1);
    assert_eq!(after.reads, before.reads + 4);
}

#[test]
fn an_in_flight_writer_defeats_a_range_reader_behind_it() {
    // Two transactions scan the same interval and write *different* keys
    // inside it, so only the intervals collide. The first commits and is
    // parked in its force: reserved, unpublished, nothing in the chains
    // yet. The second must lose to it through the in-flight table's
    // interval probe, and returns only once the winner is published.
    // Forced: optimistic commits under `WalFsync`.
    let config =
        DbConfig::builder().cc_mode(CcMode::Optimistic).durability(Durability::WalFsync).build();
    let vfs = GateVfs::closed();
    let db: Db<u64, i64> = Db::open_with_vfs(vfs.clone(), "range.wal", config).unwrap();
    for k in 0..10 {
        db.insert(k, k as i64 * 10);
    }
    let mut scanners: Vec<_> = [3u64, 5]
        .into_iter()
        .map(|key| {
            let t = db.begin();
            assert_eq!(ReadView::range(&t, 0..8).unwrap().len(), 8);
            t.rmw(&key, |v| v + 1).unwrap();
            t
        })
        .collect();
    let (second, first) = (scanners.pop().unwrap(), scanners.pop().unwrap());
    let winning = std::thread::spawn(move || first.commit());
    vfs.wait_parked();
    let losing = std::thread::spawn(move || second.commit());
    std::thread::sleep(std::time::Duration::from_millis(100));
    let returned_early = losing.is_finished();
    vfs.open();
    assert_eq!(winning.join().unwrap(), Ok(()));
    let verdict = losing.join().unwrap();
    assert!(!returned_early, "the loser returned while the winner was forcing: {verdict:?}");
    let winner_epoch = db.epochs().watermark;
    assert!(
        matches!(verdict, Err(TxnError::Conflict { committed_epoch, .. }) if committed_epoch == winner_epoch),
        "the loser names the in-flight winner's epoch: {verdict:?}"
    );
    assert_eq!(db.committed_value(&3), Some(31), "the winner's increment");
    assert_eq!(db.committed_value(&5), Some(50), "the loser published nothing");
    let stats = db.stats();
    assert_eq!((stats.occ_conflicts, stats.snapshot_pins_live), (1, 0));
}

#[test]
fn optimistic_audited_scan_logs_one_access_per_row_and_stays_serializable() {
    let db = opt_db(DbConfig::builder().audit(true));
    let accesses = |db: &Db<u64, i64>| {
        let log = db.audit_log().unwrap().records();
        log.iter().filter(|r| matches!(r, AuditRecord::Access { .. })).count()
    };
    let before = accesses(&db);
    db.run(|t| ReadView::range(t, 2..6).map(|rows| assert_eq!(rows.len(), 4))).unwrap();
    assert_eq!(accesses(&db), before + 4, "a scan of n rows is n audited reads");
    // Scan-then-increment under contention, retried to success: the
    // audited history must still be data-serializable (Theorem 9).
    std::thread::scope(|scope| {
        for i in 0..4u64 {
            let db = &db;
            scope.spawn(move || {
                for _ in 0..20 {
                    db.run(|t| {
                        ReadView::range(t, 0..4)?;
                        t.rmw(&(i % 4), |v| v + 1).map(|_| ())
                    })
                    .unwrap();
                }
            });
        }
    });
    let (universe, aat) = db.audit_log().unwrap().reconstruct().unwrap();
    assert!(aat.perm().is_data_serializable(&universe), "Theorem-9 check");
}
