//! Property-based commit-path checks under [`Durability::WalFsync`].
//!
//! The sequencer stages optimistic commits — the ones that force under
//! the publish gate — over arbitrary thread counts, arrival staggers and
//! fsync latencies; batches form from the commits that queue behind a
//! slow force, and every schedule must preserve its contract:
//!
//! * **conservation** — no commit is lost or invented: every `commit()`
//!   call returns, `commits_staged == commits_batched`, and every
//!   thread's writes are all in the committed state;
//! * **one force per batch** — exactly one fsync per retired batch
//!   (`wal_fsyncs == commit_batches`);
//! * **epoch order = log order** — the independent reference interpreter
//!   rejects any log whose commit epochs are not strictly increasing in
//!   record order, so a passing [`reference_trace`] *is* the ordering
//!   proof; its committed state must equal the live engine's;
//! * **one frame per batch** — each retired batch is exactly one commit
//!   frame.
//!
//! Locking commits retire directly, one frame and one force each, and
//! force outside the publish gate:
//!
//! * **force-before-ack** — every acked commit's frame lies inside a log
//!   prefix some force had covered before the ack;
//! * **the force holds no engine lock** — on a disk whose fsync takes
//!   tens of microseconds, other transactions' begins and `rmw`s run to
//!   completion *while* a commit is being forced, other commits' forces
//!   overlap it, and the ordering checks above still hold.

use proptest::prelude::*;
use rnt_chaos::recovery::{reference_trace, WAL_PATH};
use rnt_core::{CcMode, Db, DbConfig, DeadlockPolicy, Durability};
use rnt_wal::{frame, scan, Record, MAGIC};
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::Duration;

mod common;
use common::SlowVfs;

/// How a run on a [`SlowVfs`] overlapped its forces.
struct Overlap {
    /// Begins, `rmw`s and appends that ran inside a force.
    calls: u64,
    /// The most forces ever in flight at once.
    forces: u64,
}

/// `threads` locking clients, each committing `commits_per` flat
/// transactions of `rmws` writes to its own keys, onto a [`SlowVfs`].
/// Checks that no commit was staged, that commit frames sit in the log
/// in epoch order, one frame and one force per commit, and that each
/// acked commit's frame was durable at its ack.
fn run_on_slow_disk(
    threads: u64,
    commits_per: u64,
    rmws: u64,
    latency: Duration,
) -> Result<Overlap, TestCaseError> {
    let vfs = Arc::new(SlowVfs::new(latency));
    let config =
        DbConfig::builder().policy(DeadlockPolicy::NoWait).durability(Durability::WalFsync).build();
    let db = Db::<u64, i64>::open_with_vfs(vfs.clone(), WAL_PATH, config).expect("open");
    for k in 0..threads * rmws {
        db.insert(k, 0);
    }
    // Per acked commit: its action id and the durable prefix at its ack.
    let acks = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for t in 0..threads {
            let (db, vfs, acks) = (&db, &vfs, &acks);
            s.spawn(move || {
                for _ in 0..commits_per {
                    let txn = vfs.inside(|| db.begin());
                    for k in t * rmws..(t + 1) * rmws {
                        vfs.inside(|| txn.rmw(&k, |v| v + 1)).unwrap();
                    }
                    let action = txn.id().0;
                    txn.commit().unwrap();
                    let durable = vfs.durable.load(Ordering::SeqCst);
                    acks.lock().unwrap().push((action, durable));
                }
            });
        }
    });

    let total = threads * commits_per;
    let stats = db.stats();
    prop_assert_eq!(stats.commits_staged, 0, "locking commits retire directly");
    prop_assert_eq!(stats.wal_fsyncs, total, "one force per commit");
    let (records, _) = scan(&vfs.mem.snapshot(WAL_PATH)).expect("live log scans clean");
    prop_assert_eq!(
        records.len() as u64,
        threads * rmws + total,
        "one record per seed and one frame per commit"
    );
    let epochs: Vec<u64> = records
        .iter()
        .flat_map(|r| match r {
            Record::Commit { commits } => commits.iter().map(|c| c.epoch).collect(),
            _ => Vec::new(),
        })
        .collect();
    prop_assert_eq!(epochs, (1..=total).collect::<Vec<_>>(), "commit-record order = epoch order");
    // Force-before-ack: where each commit's frame ends in the log, against
    // the prefix some force had covered when the commit was acked.
    let mut frame_end = HashMap::new();
    let mut end = MAGIC.len() as u64;
    for record in &records {
        end += frame(record).len() as u64;
        if let Record::Commit { commits } = record {
            frame_end.extend(commits.iter().map(|c| (c.action, end)));
        }
    }
    for (action, durable) in acks.into_inner().unwrap() {
        let end = frame_end.get(&action).copied();
        prop_assert!(end.is_some(), "acked commit {} is not in the log", action);
        prop_assert!(
            end.unwrap() <= durable,
            "commit {} acked with its frame ending at byte {} but only {} forced",
            action,
            end.unwrap(),
            durable
        );
    }
    let trace = reference_trace(&records);
    prop_assert!(trace.is_ok(), "reference interpreter rejected the log: {:?}", trace.err());
    let committed = trace.unwrap().committed();
    for k in 0..threads * rmws {
        prop_assert_eq!(committed.get(&k).copied(), Some(commits_per as i64), "key {}", k);
    }
    Ok(Overlap {
        calls: vfs.appends_during_force.load(Ordering::Relaxed)
            + vfs.calls_during_force.load(Ordering::Relaxed),
        forces: vfs.most_forcing.load(Ordering::SeqCst),
    })
}

/// Fixed-size run long enough that, if the force let anybody run, somebody
/// did: with the fsync under an engine lock a begin or an `rmw` needs, the
/// count is exactly zero; with it under the publish gate, no two forces
/// ever overlap.
#[test]
fn records_land_while_a_slow_disk_forces() {
    let overlap = run_on_slow_disk(4, 60, 4, Duration::from_micros(50)).unwrap();
    assert!(overlap.calls > 0, "no begin, rmw or append completed inside any of the forces");
    assert!(overlap.forces >= 2, "no two forces were ever in flight at once");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn sequencer_contract_holds_on_a_slow_disk(
        threads in 2u64..5,
        commits_per in 1u64..12,
        rmws in 1u64..5,
        fsync_us in 10u64..80,
    ) {
        run_on_slow_disk(threads, commits_per, rmws, Duration::from_micros(fsync_us))?;
    }

    #[test]
    fn sequencer_contract_holds(
        threads in 1usize..7,
        commits_per in 1usize..5,
        fsync_us in 0u64..400,
        staggers in prop::collection::vec(0u64..150, 6),
    ) {
        let vfs = Arc::new(SlowVfs::new(Duration::from_micros(fsync_us)));
        let config = DbConfig::builder()
            .cc_mode(CcMode::Optimistic)
            .policy(DeadlockPolicy::NoWait)
            .durability(Durability::WalFsync)
            .build();
        let db = Arc::new(
            Db::<u64, i64>::open_with_vfs(vfs.clone(), WAL_PATH, config).expect("open"),
        );
        for k in 0..threads as u64 {
            db.insert(k, 0);
        }
        let handles: Vec<_> = (0..threads as u64)
            .map(|k| {
                let db = db.clone();
                let stagger = staggers[k as usize % staggers.len()];
                std::thread::spawn(move || {
                    // Perturb the arrival order: who stages first (and so
                    // who leads) varies across cases.
                    std::thread::sleep(Duration::from_micros(stagger));
                    for _ in 0..commits_per {
                        let t = db.begin();
                        t.rmw(&k, |v| v + 1).unwrap();
                        t.commit().unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }

        let total = (threads * commits_per) as u64;
        let stats = db.stats();
        prop_assert_eq!(stats.commits_staged, total, "every top-level commit staged");
        prop_assert_eq!(
            stats.commits_batched, total,
            "conservation: staged = retired"
        );
        prop_assert_eq!(
            stats.wal_fsyncs, stats.commit_batches,
            "exactly one force per retired batch"
        );
        prop_assert_eq!(db.epochs().watermark, total, "one epoch per top-level commit");
        for k in 0..threads as u64 {
            prop_assert_eq!(
                db.committed_value(&k), Some(commits_per as i64),
                "thread {}'s acked commits must all be in the committed state", k
            );
        }

        // The log side: one frame per batch, and the reference
        // interpreter's strictly-increasing-epoch rule doubles as the
        // ordering oracle.
        let bytes = vfs.mem.snapshot(WAL_PATH);
        let (records, _) = scan(&bytes).expect("live log scans clean");
        prop_assert_eq!(records.len() as u64, threads as u64 + stats.commit_batches);
        let trace = reference_trace(&records);
        prop_assert!(
            trace.is_ok(),
            "reference interpreter rejected the engine log (epoch order ≠ log order?): {:?}",
            trace.err()
        );
        let trace = trace.unwrap();
        prop_assert_eq!(trace.max_epoch(), total);
        let committed = trace.committed();
        for k in 0..threads as u64 {
            prop_assert_eq!(
                committed.get(&k).copied(), Some(commits_per as i64),
                "log-derived state diverges from acked commits at key {}", k
            );
        }
    }
}
