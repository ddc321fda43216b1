//! Property-based commit-path checks under [`Durability::WalFsync`], in
//! both concurrency-control modes.
//!
//! Every top-level commit takes the one commit path: under the publish
//! gate it reserves an epoch and appends its own frame; outside it, it
//! forces the log and then publishes at its turn. Over arbitrary thread
//! counts, arrival staggers and fsync latencies, every schedule must
//! preserve its contract:
//!
//! * **conservation** — no commit is lost or invented: every `commit()`
//!   call returns, and every thread's writes are all in the committed
//!   state;
//! * **one frame and one force per commit** — nothing is coalesced;
//! * **epoch order = log order** — the independent reference interpreter
//!   rejects any log whose commit epochs are not strictly increasing in
//!   record order, so a passing [`reference_trace`] *is* the ordering
//!   proof; its committed state must equal the live engine's;
//! * **force before visibility** — every acked commit's frame, and every
//!   commit a later `begin` could see, lies inside a log prefix some
//!   force had covered by then (Lemma 7);
//! * **the force holds no engine lock** — on a disk whose fsync takes
//!   tens of microseconds, other transactions' begins and `rmw`s run to
//!   completion *while* a commit is being forced, other commits' forces
//!   overlap it, and the checks above still hold.

use proptest::prelude::*;
use rnt_chaos::recovery::{reference_trace, WAL_PATH};
use rnt_core::{CcMode, Db, DbConfig, DeadlockPolicy, Durability, ReadView};
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

/// `threads` clients in mode `cc`, client `t` starting `staggers[t]` µs
/// late (cycled; none if empty), each committing `commits_per` flat
/// transactions of `rmws` writes to its own keys, onto a [`SlowVfs`].
/// Checks one frame and one force per commit, commit frames in the log in
/// epoch order, and that each acked commit's frame was durable at its
/// ack and each pinned begin epoch's frame durable at the begin.
fn run_on_slow_disk(
    cc: CcMode,
    threads: u64,
    commits_per: u64,
    rmws: u64,
    latency: Duration,
    staggers: &[u64],
) -> Result<Overlap, TestCaseError> {
    let vfs = Arc::new(SlowVfs::new(latency));
    let config = DbConfig::builder()
        .cc_mode(cc)
        .policy(DeadlockPolicy::NoWait)
        .durability(Durability::WalFsync)
        .build();
    let db = Db::<u64, i64>::open_with_vfs(vfs.clone(), WAL_PATH, config).expect("open");
    for k in 0..threads * rmws {
        db.insert(k, 0);
    }
    // Per acked commit: its action id and the durable prefix at its ack.
    let acks = Mutex::new(Vec::new());
    // Per begin: the epoch it reads at and the durable prefix just after.
    let begins = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for t in 0..threads {
            let (db, vfs, acks, begins) = (&db, &vfs, &acks, &begins);
            let stagger = staggers.get(t as usize % staggers.len().max(1)).copied();
            s.spawn(move || {
                // Perturb the arrival order: whose force runs first, and
                // which forces overlap, varies across cases.
                std::thread::sleep(Duration::from_micros(stagger.unwrap_or(0)));
                for _ in 0..commits_per {
                    let txn = vfs.inside(|| db.begin());
                    let seen = txn.epoch();
                    begins.lock().unwrap().push((seen, vfs.durable.load(Ordering::SeqCst)));
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
    prop_assert_eq!(stats.wal_fsyncs, total, "one force per commit");
    prop_assert_eq!(db.epochs().watermark, total, "one epoch per top-level commit");
    let (records, _) = scan(&vfs.mem.snapshot(WAL_PATH)).expect("live log scans clean");
    prop_assert_eq!(
        records.len() as u64,
        threads * rmws + total,
        "one record per seed and one frame per commit"
    );
    let epochs: Vec<u64> = records
        .iter()
        .filter_map(|r| match r {
            Record::Commit { epoch, .. } => Some(*epoch),
            _ => None,
        })
        .collect();
    prop_assert_eq!(epochs, (1..=total).collect::<Vec<_>>(), "commit-record order = epoch order");
    // Where each commit's frame ends in the log, by action and by epoch,
    // against the prefix some force had covered when the commit was
    // acked, or when a begin could read it.
    let (mut by_action, mut by_epoch) = (HashMap::new(), HashMap::new());
    let mut end = MAGIC.len() as u64;
    for record in &records {
        end += frame(record).len() as u64;
        if let Record::Commit { action, epoch, .. } = record {
            by_action.insert(*action, end);
            by_epoch.insert(*epoch, end);
        }
    }
    for (action, durable) in acks.into_inner().unwrap() {
        let end = by_action.get(&action).copied();
        prop_assert!(end.is_some(), "acked commit {} is not in the log", action);
        prop_assert!(
            end.unwrap() <= durable,
            "commit {} acked with its frame ending at byte {} but only {} forced",
            action,
            end.unwrap(),
            durable
        );
    }
    for (seen, durable) in begins.into_inner().unwrap() {
        let end = by_epoch.get(&seen).copied().unwrap_or(0);
        prop_assert!(
            end <= durable,
            "a begin read at epoch {} whose frame ends at byte {} but only {} forced",
            seen,
            end,
            durable
        );
    }
    let trace = reference_trace(&records);
    prop_assert!(trace.is_ok(), "reference interpreter rejected the log: {:?}", trace.err());
    let trace = trace.unwrap();
    prop_assert_eq!(trace.max_epoch(), total);
    let committed = trace.committed();
    for k in 0..threads * rmws {
        prop_assert_eq!(committed.get(&k).copied(), Some(commits_per as i64), "key {}", k);
        prop_assert_eq!(db.committed_value(&k), Some(commits_per as i64), "key {}", k);
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
    for cc in [CcMode::Locking, CcMode::Optimistic] {
        let overlap = run_on_slow_disk(cc, 4, 60, 4, Duration::from_micros(50), &[]).unwrap();
        assert!(overlap.calls > 0, "{cc:?}: no begin, rmw or append completed inside a force");
        assert!(overlap.forces >= 2, "{cc:?}: no two forces were ever in flight at once");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn commit_contract_holds_on_a_slow_disk(
        threads in 2u64..5,
        commits_per in 1u64..12,
        rmws in 1u64..5,
        fsync_us in 10u64..80,
    ) {
        let latency = Duration::from_micros(fsync_us);
        for cc in [CcMode::Locking, CcMode::Optimistic] {
            run_on_slow_disk(cc, threads, commits_per, rmws, latency, &[])?;
        }
    }

    /// Optimistic committers of one key each, arriving staggered.
    #[test]
    fn commit_contract_holds(
        threads in 1u64..7,
        commits_per in 1u64..5,
        fsync_us in 0u64..400,
        staggers in prop::collection::vec(0u64..150, 6),
    ) {
        let latency = Duration::from_micros(fsync_us);
        run_on_slow_disk(CcMode::Optimistic, threads, commits_per, 1, latency, &staggers)?;
    }
}
