//! Integration tests for lock-free snapshot reads (`Db::snapshot`) and
//! the MVCC version chains behind them: isolation semantics, the
//! zero-lock guarantee, counter conservation, GC liveness, and chain
//! equality across crash recovery.

use rnt_core::{CcMode, Db, DbConfig, Durability, ReadView};
use rnt_wal::MemVfs;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

const LOG: &str = "db.wal";

fn db() -> Db<u64, i64> {
    let db = Db::new();
    for k in 0..8 {
        db.insert(k, 100 + k as i64);
    }
    db
}

fn commit_write(db: &Db<u64, i64>, key: u64, delta: i64) {
    let t = db.begin();
    t.rmw(&key, |v| v + delta).unwrap();
    t.commit().unwrap();
}

#[test]
fn snapshot_is_frozen_at_its_epoch() {
    let db = db();
    commit_write(&db, 0, 1); // 101
    let snap = db.snapshot();
    let at_pin = snap.epoch();
    commit_write(&db, 0, 1); // 102
    commit_write(&db, 1, 5); // 106
    assert_eq!(snap.read(&0), Some(101), "snapshot must not see later commits");
    assert_eq!(snap.read(&1), Some(101));
    assert_eq!(snap.epoch(), at_pin);
    assert_eq!(db.committed_value(&0), Some(102), "writers unaffected");
    let later = db.snapshot();
    assert_eq!(later.read(&0), Some(102), "a fresh snapshot sees the present");
}

#[test]
fn snapshot_sees_seeds_inserted_after_pinning() {
    // Seeds are genesis-epoch versions: non-transactional initialization
    // is visible to every snapshot, whenever it happens.
    let db = db();
    let snap = db.snapshot();
    db.insert(99, 7);
    assert_eq!(snap.read(&99), Some(7));
    assert_eq!(snap.read(&98), None);
}

#[test]
fn snapshot_reads_acquire_zero_locks() {
    let db = db();
    commit_write(&db, 0, 1);
    commit_write(&db, 1, 1);
    let before = db.stats();
    let snap = db.snapshot();
    for k in 0..8 {
        snap.read(&k);
    }
    let after = db.stats();
    // The acceptance criterion: no lock-manager activity is attributable
    // to snapshot reads — only the snapshot_reads counter moves.
    assert_eq!(after.reads, before.reads, "snapshot reads must not take read locks");
    assert_eq!(after.writes, before.writes);
    assert_eq!(after.conflicts, before.conflicts);
    assert_eq!(after.waits, before.waits);
    assert_eq!(after.begun, before.begun, "snapshots are not transactions");
    assert_eq!(after.snapshot_reads, before.snapshot_reads + 8);
    assert_eq!(after.snapshot_pins_live, 1);
}

#[test]
fn snapshot_ignores_uncommitted_and_aborted_writes() {
    let db = db();
    let t = db.begin();
    t.rmw(&0, |v| v + 1000).unwrap();
    let snap = db.snapshot();
    assert_eq!(snap.read(&0), Some(100), "uncommitted write invisible");
    t.abort();
    assert_eq!(snap.read(&0), Some(100), "aborted write never published");
    drop(snap);
    assert_eq!(db.snapshot().read(&0), Some(100));
}

#[test]
fn nested_commits_publish_only_at_top_level() {
    let db = db();
    let snap0 = db.snapshot();
    let t = db.begin();
    let c = t.child().unwrap();
    c.rmw(&0, |v| v + 1).unwrap();
    c.commit().unwrap();
    // The child committed to its parent — not to the committed state.
    let mid = db.snapshot();
    assert_eq!(mid.read(&0), Some(100), "child commit is revocable, not visible");
    assert_eq!(mid.epoch(), snap0.epoch(), "no epoch consumed by nested commits");
    drop(mid);
    t.commit().unwrap();
    assert_eq!(db.snapshot().read(&0), Some(101));
    assert_eq!(snap0.read(&0), Some(100), "old pin still frozen");
}

#[test]
fn counter_conservation_and_gc_liveness() {
    let db = db();
    let snap = db.snapshot();
    for i in 0..20 {
        commit_write(&db, i % 4, 1);
    }
    let stats = db.stats();
    let held: u64 = (0..8).map(|k| db.history(&k).len() as u64).sum();
    assert_eq!(
        stats.versions_created - stats.versions_reclaimed,
        held,
        "created - reclaimed must equal the versions currently held"
    );
    assert!(held > 8, "the live pin must be holding superseded versions");
    assert_eq!(stats.snapshot_pins_live, 1);
    drop(snap);
    // Liveness: with no pins, every chain collapses back to length 1.
    for k in 0..8 {
        assert_eq!(db.history(&k).len(), 1, "key {k} chain not reclaimed");
    }
    let stats = db.stats();
    assert_eq!(stats.versions_created - stats.versions_reclaimed, 8);
    assert_eq!(stats.snapshot_pins_live, 0);
}

#[test]
fn concurrent_snapshots_pin_independent_epochs() {
    let db = db();
    let s1 = db.snapshot();
    commit_write(&db, 0, 1);
    let s2 = db.snapshot();
    commit_write(&db, 0, 1);
    let s3 = db.snapshot();
    assert_eq!(s1.read(&0), Some(100));
    assert_eq!(s2.read(&0), Some(101));
    assert_eq!(s3.read(&0), Some(102));
    drop(s2);
    assert_eq!(s1.read(&0), Some(100), "dropping a middle pin must not free s1's version");
    assert_eq!(s3.read(&0), Some(102));
}

#[test]
fn snapshot_readers_race_writers() {
    // 4 writer threads committing rmws vs 2 snapshot readers asserting
    // each snapshot is internally frozen (two reads of the same key agree
    // even while writers land between them).
    let db: Db<u64, i64> = Db::new();
    for k in 0..4 {
        db.insert(k, 0);
    }
    let mut handles = Vec::new();
    for w in 0..4u64 {
        let db = db.clone();
        handles.push(std::thread::spawn(move || {
            for i in 0..200 {
                let key = (w + i) % 4;
                db.run(|t| t.rmw(&key, |v| v + 1)).unwrap();
            }
        }));
    }
    for _ in 0..2 {
        let db = db.clone();
        handles.push(std::thread::spawn(move || {
            for _ in 0..300 {
                let snap = db.snapshot();
                for k in 0..4 {
                    let a = snap.read(&k);
                    let b = snap.read(&k);
                    assert_eq!(a, b, "a pinned snapshot must be frozen");
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let total: i64 = (0..4).map(|k| db.committed_value(&k).unwrap()).sum();
    assert_eq!(total, 4 * 200);
    for k in 0..4 {
        assert_eq!(db.history(&k).len(), 1, "all chains reclaimed after readers exit");
    }
}

/// Sets the flag when dropped: a thread that ends, even by a panic, stops
/// the threads paced by it.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

/// Seeds of fresh keys grow the version store's chain slab across
/// segment boundaries while two writers commit to their own key groups —
/// a locking commit publishing through the chain ids its lock entries
/// keep — and snapshot readers read points and scan ranges, in both CC
/// modes. A snapshot held from the start keeps every version, so at the
/// end each committed value is checked at its own epoch, and the store's
/// layout holds.
#[test]
fn seeds_grow_the_chain_slab_under_commits_point_reads_and_scans() {
    /// Fresh keys: more than four segments of the slab's 1,024 slots.
    const FRESH: u64 = 5_000;
    const GROUP: u64 = 3;
    const STRIDE: u64 = 1_000;
    /// Commits per writer at most.
    const COMMITS: i64 = 20_000;
    let group_key = |w: u64, i: u64| (w * GROUP + i) * STRIDE;
    let fresh_key = |n: u64| n / (STRIDE - 1) * STRIDE + n % (STRIDE - 1) + 1;
    for mode in [CcMode::Locking, CcMode::Optimistic] {
        let db: Db<u64, i64> = Db::with_config(DbConfig::builder().cc_mode(mode).build());
        for k in 0..2 * GROUP {
            db.insert(k * STRIDE, 0);
        }
        let history = db.snapshot();
        let (stop, seeded, commits) =
            (AtomicBool::new(false), AtomicU64::new(0), AtomicU64::new(0));
        let start = Barrier::new(5);
        let written: Vec<i64> = std::thread::scope(|scope| {
            let writers: Vec<_> = (0..2)
                .map(|w| {
                    let (db, stop, start, commits) = (&db, &stop, &start, &commits);
                    scope.spawn(move || {
                        let _done = StopOnDrop(stop);
                        start.wait();
                        let mut c = 0;
                        while !stop.load(Ordering::Relaxed) && c < COMMITS {
                            c += 1;
                            db.run(|t| {
                                (0..GROUP).try_for_each(|i| t.write(&group_key(w, i), c).map(drop))
                            })
                            .unwrap();
                            commits.fetch_add(1, Ordering::Relaxed);
                        }
                        c
                    })
                })
                .collect();
            // Paced by the commits, so the growth spans the run.
            let seeder = {
                let (db, stop, start, seeded, commits) = (&db, &stop, &start, &seeded, &commits);
                scope.spawn(move || {
                    start.wait();
                    for n in 0..FRESH {
                        while commits.load(Ordering::Relaxed) < n && !stop.load(Ordering::Relaxed) {
                            std::thread::yield_now();
                        }
                        assert!(db.insert(fresh_key(n), -1), "{mode:?}: fresh key {n} known");
                        seeded.store(n + 1, Ordering::Release);
                    }
                })
            };
            let readers: Vec<_> = (0..2u64)
                .map(|r| {
                    let (db, stop, start, seeded) = (&db, &stop, &start, &seeded);
                    scope.spawn(move || {
                        start.wait();
                        let mut i = r;
                        while !stop.load(Ordering::Relaxed) {
                            i += 1;
                            let snap = db.snapshot();
                            for w in 0..2 {
                                let first = snap.read(&group_key(w, 0));
                                for k in 1..GROUP {
                                    assert_eq!(
                                        snap.read(&group_key(w, k)),
                                        first,
                                        "{mode:?}: torn"
                                    );
                                }
                            }
                            let known = seeded.load(Ordering::Acquire);
                            if known > 0 {
                                let key = fresh_key(i * 7919 % known);
                                assert_eq!(snap.read(&key), Some(-1), "{mode:?}: fresh key {key}");
                            }
                            let lo = group_key(i % 2, 0);
                            let rows = snap.range(lo..lo + 2 * STRIDE);
                            assert!(rows.windows(2).all(|w| w[0].0 < w[1].0), "{mode:?}: order");
                            assert!(rows.iter().all(|&(k, v)| (k % STRIDE == 0) == (v >= 0)));
                        }
                    })
                })
                .collect();
            // Readers and writers run until the seeder is done (or has
            // panicked, which must not leave them running).
            let mut joined = vec![seeder.join()];
            stop.store(true, Ordering::Relaxed);
            joined.extend(readers.into_iter().map(|h| h.join()));
            for outcome in joined {
                outcome.expect("a reader or the seeder panicked");
            }
            writers.into_iter().map(|h| h.join().expect("a writer panicked")).collect()
        });
        for (w, &last) in written.iter().enumerate() {
            let chains: Vec<_> = (0..GROUP).map(|i| db.history(&group_key(w as u64, i))).collect();
            let values: Vec<i64> = chains[0].iter().map(|&(_, v)| v).collect();
            assert_eq!(
                values,
                (0..=last).collect::<Vec<_>>(),
                "{mode:?}: writer {w} lost a commit"
            );
            assert!(chains.iter().all(|c| c == &chains[0]), "{mode:?}: a commit split its epochs");
            assert!(chains[0].windows(2).all(|p| p[0].0 < p[1].0), "{mode:?}: epochs ascend");
            for &(epoch, value) in chains[0].iter().step_by(chains[0].len() / 64 + 1) {
                let snap = db.snapshot_at(epoch).expect("the history snapshot keeps every epoch");
                for i in 0..GROUP {
                    assert_eq!(snap.read(&group_key(w as u64, i)), Some(value), "{mode:?}");
                }
            }
        }
        drop(history);
        assert_eq!(db.stats().snapshot_pins_live, 0);
        assert_eq!(db.history(&group_key(0, 0)).len(), 1, "{mode:?}: chains collapse");
        assert_eq!(db.snapshot().range(..).len() as u64, 2 * GROUP + FRESH, "{mode:?}");
        assert_eq!(db.layout_violations(), Vec::<String>::new(), "{mode:?}");
    }
}

/// Write skew on a scanned interval while seeds grow it (optimistic
/// mode). Each marker transaction scans the interval: if no key in it is
/// marked, it marks the newest key it saw — often one seeded after other
/// markers scanned — and otherwise unmarks the marked one. A seeder
/// enters fresh keys inside the interval meanwhile. Two markers whose
/// scans both saw no mark each write a key the other scanned, so one of
/// them must lose validation, also when the key the other marked entered
/// the store after its scan. Snapshot readers and the end state check
/// that the interval never holds two marks.
#[test]
fn a_scan_conflicts_with_writes_to_keys_seeded_after_it() {
    const FRESH: u64 = 2_000;
    const MARKERS: usize = 2;
    let db: Db<u64, i64> = Db::with_config(DbConfig::builder().cc_mode(CcMode::Optimistic).build());
    db.insert(0, 0);
    let marks = |rows: &[(u64, i64)]| -> Vec<u64> {
        rows.iter().filter(|&&(_, v)| v == 1).map(|&(k, _)| k).collect()
    };
    let (stop, commits) = (AtomicBool::new(false), AtomicU64::new(0));
    let start = Barrier::new(MARKERS + 2);
    std::thread::scope(|scope| {
        let mut threads: Vec<_> = (0..MARKERS)
            .map(|_| {
                let (db, stop, start, commits) = (&db, &stop, &start, &commits);
                scope.spawn(move || {
                    let _done = StopOnDrop(stop);
                    start.wait();
                    while !stop.load(Ordering::Relaxed) {
                        db.run(|t| {
                            let rows = t.range(..)?;
                            let seen = marks(&rows);
                            assert!(seen.len() <= 1, "a transaction saw {seen:?} marked");
                            // Let a seed and another marker into the
                            // window between the scan and the commit.
                            std::thread::yield_now();
                            match seen.first() {
                                None => t.write(&rows.last().expect("key 0").0, 1),
                                Some(key) => t.write(key, 0),
                            }
                            .map(drop)
                        })
                        .unwrap();
                        commits.fetch_add(1, Ordering::Relaxed);
                    }
                })
            })
            .collect();
        // Paced by the commits, so the growth spans the run.
        threads.push({
            let (db, stop, start, commits) = (&db, &stop, &start, &commits);
            scope.spawn(move || {
                let _done = StopOnDrop(stop);
                start.wait();
                for n in 1..=FRESH {
                    while commits.load(Ordering::Relaxed) < n && !stop.load(Ordering::Relaxed) {
                        std::thread::yield_now();
                    }
                    assert!(db.insert(n, 0), "fresh key {n} known");
                }
            })
        });
        threads.push({
            let (db, stop, start) = (&db, &stop, &start);
            scope.spawn(move || {
                start.wait();
                while !stop.load(Ordering::Relaxed) {
                    let seen = marks(&db.snapshot().range(..));
                    assert!(seen.len() <= 1, "a snapshot saw {seen:?} marked");
                }
            })
        });
        for thread in threads {
            thread.join().expect("a marker, the seeder or the reader panicked");
        }
    });
    let rows = db.snapshot().range(..);
    assert_eq!(rows.len() as u64, FRESH + 1);
    assert!(marks(&rows).len() <= 1, "{:?} marked", marks(&rows));
    assert_eq!(db.stats().snapshot_pins_live, 0);
}

#[test]
fn recovery_rebuilds_identical_version_chains() {
    let vfs = Arc::new(MemVfs::new());
    let config = DbConfig::builder().durability(Durability::Wal).build();
    let db: Db<String, i64> = Db::open_with_vfs(vfs.clone(), LOG, config.clone()).unwrap();
    db.insert("a".into(), 1);
    db.insert("b".into(), 2);
    for i in 0..3 {
        let t = db.begin();
        t.rmw(&"a".to_string(), |v| v + 1).unwrap();
        if i == 1 {
            t.rmw(&"b".to_string(), |v| v * 10).unwrap();
        }
        t.commit().unwrap();
    }
    let forward_a = db.history(&"a".to_string());
    let forward_b = db.history(&"b".to_string());
    let forward_epoch = db.epochs().watermark;

    let v1 = Arc::new(MemVfs::new());
    v1.install(LOG, vfs.snapshot(LOG));
    let r1 = Db::<String, i64>::recover_with_vfs(v1.clone(), LOG, config.clone()).unwrap();
    assert_eq!(r1.history(&"a".to_string()), forward_a);
    assert_eq!(r1.history(&"b".to_string()), forward_b);
    assert_eq!(r1.epochs().watermark, forward_epoch);

    // recover ∘ recover ≡ recover, extended to chains: recovering the
    // recovered (checkpointed) log reproduces the same chains and epoch.
    let v2 = Arc::new(MemVfs::new());
    v2.install(LOG, v1.snapshot(LOG));
    let r2 = Db::<String, i64>::recover_with_vfs(v2, LOG, config.clone()).unwrap();
    assert_eq!(r2.history(&"a".to_string()), forward_a);
    assert_eq!(r2.history(&"b".to_string()), forward_b);
    assert_eq!(r2.epochs().watermark, forward_epoch);

    // …and to the ordered index: a full range scan over each recovered
    // database walks the same keys to the same values, in the same order.
    let forward_scan = db.snapshot().range(..);
    assert_eq!(r1.snapshot().range(..), forward_scan);
    assert_eq!(r2.snapshot().range(..), forward_scan);
}

#[test]
fn recovery_compacts_history_and_reports_the_floor_honestly() {
    let vfs = Arc::new(MemVfs::new());
    let config = DbConfig::builder().durability(Durability::Wal).build();
    let db: Db<String, i64> = Db::open_with_vfs(vfs.clone(), LOG, config.clone()).unwrap();
    db.insert("a".into(), 0);
    for i in 1..=3i64 {
        let t = db.begin();
        t.write(&"a".to_string(), i * 10).unwrap();
        t.commit().unwrap();
    }
    // Replay runs with no live pins, so recovery compacts every chain to
    // its newest version: time travel does not survive a restart, and the
    // retained floor must SAY so — a pre-crash epoch is a typed `Pruned`
    // rejection, never a silently inconsistent view.
    let fresh = Arc::new(MemVfs::new());
    fresh.install(LOG, vfs.snapshot(LOG));
    let r = Db::<String, i64>::recover_with_vfs(fresh, LOG, config.clone()).unwrap();
    let bounds = r.epochs();
    assert_eq!(bounds.watermark, 3);
    assert_eq!(bounds.oldest_retained, 3, "floor rose to the newest surviving versions");
    for epoch in 1..=2u64 {
        assert!(
            matches!(r.snapshot_at(epoch), Err(rnt_core::SnapshotError::Pruned { .. })),
            "compacted epoch {epoch} must be rejected, not served inconsistently"
        );
    }
    let now = r.snapshot_at(3).unwrap();
    assert_eq!(now.range(..), vec![("a".to_string(), 30)]);

    // Same story behind a checkpoint: chains restart at their per-key
    // checkpoint epochs, so the concession covers the compacted span and
    // only the post-recovery present is travelable.
    db.checkpoint().unwrap();
    let t = db.begin();
    t.write(&"a".to_string(), 40).unwrap();
    t.commit().unwrap(); // epoch 4, above the checkpoint
    let fresh = Arc::new(MemVfs::new());
    fresh.install(LOG, vfs.snapshot(LOG));
    let r = Db::<String, i64>::recover_with_vfs(fresh, LOG, config).unwrap();
    assert!(matches!(r.snapshot_at(1), Err(rnt_core::SnapshotError::Pruned { .. })));
    let past = r.snapshot_at(r.epochs().watermark).unwrap();
    assert_eq!(past.read(&"a".to_string()), Some(40));

    // Time travel re-arms going forward: pin the recovered present, then
    // commit on top — the held epoch stays travelable.
    let hold = r.snapshot();
    let t = r.begin();
    t.write(&"a".to_string(), 50).unwrap();
    t.commit().unwrap();
    let back = r.snapshot_at(hold.epoch()).unwrap();
    assert_eq!(back.read(&"a".to_string()), Some(40));
    drop((hold, back));
}

#[test]
fn recovered_checkpoint_preserves_per_key_epochs() {
    let vfs = Arc::new(MemVfs::new());
    let config = DbConfig::builder().durability(Durability::Wal).build();
    let db: Db<String, i64> = Db::open_with_vfs(vfs.clone(), LOG, config.clone()).unwrap();
    db.insert("a".into(), 1);
    db.insert("b".into(), 2);
    let t = db.begin();
    t.rmw(&"a".to_string(), |v| v + 1).unwrap();
    t.commit().unwrap(); // epoch 1 touches only "a"
    db.checkpoint().unwrap();
    let t = db.begin();
    t.rmw(&"b".to_string(), |v| v + 1).unwrap();
    t.commit().unwrap(); // epoch 2 touches only "b"

    let fresh = Arc::new(MemVfs::new());
    fresh.install(LOG, vfs.snapshot(LOG));
    let r = Db::<String, i64>::recover_with_vfs(fresh, LOG, config).unwrap();
    assert_eq!(r.history(&"a".to_string()), db.history(&"a".to_string()));
    assert_eq!(r.history(&"b".to_string()), db.history(&"b".to_string()));
    assert_eq!(r.epochs().watermark, db.epochs().watermark);
    // New commits on the recovered db continue the epoch sequence.
    let t = r.begin();
    t.rmw(&"a".to_string(), |v| v + 1).unwrap();
    t.commit().unwrap();
    assert_eq!(r.epochs().watermark, db.epochs().watermark + 1);
}
