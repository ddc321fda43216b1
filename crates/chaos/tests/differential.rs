//! The forcing differential suite: a force is a *durability* device, so
//! it must be observationally invisible. Every optimistic commit takes
//! the one commit path; under `Durability::Wal` it publishes in the gate
//! hold that sequenced it, and under `Durability::WalFsync` it leaves the
//! gate, forces, and publishes at its turn. The force itself changes no
//! byte.
//!
//! Two angles:
//!
//! 1. **Seed sweep** — every chaos seed is run twice, unforced and
//!    forced. The two runs must agree on *everything*: audit-log
//!    fingerprint (which the Theorem-9 oracle consumed), commit/abort
//!    counts, step count, and the raw WAL bytes (hash equality), which
//!    pins the recovered state and version chains byte-for-byte. Both
//!    verdicts must pass, and each WAL verdict already includes the full
//!    recovery oracle (differential vs the reference interpreter,
//!    `recover ∘ recover ≡ recover`).
//! 2. **Real concurrency** — multithreaded runs can't be byte-identical
//!    (epoch order depends on arrival timing), so there the obligation
//!    is semantic: same final committed state, same version chains after
//!    quiescence, and a log the recovery oracle accepts.

use rnt_chaos::recovery::{check_crash_recovery, WAL_PATH};
use rnt_chaos::{run, ChaosConfig};
use rnt_core::{CcMode, Db, DbConfig, DeadlockPolicy, Durability};
use std::sync::Arc;
use std::time::Duration;

mod common;
use common::SlowVfs;

/// ≥1000 optimistic seeds, each run unforced and forced: identical
/// fingerprints, WAL bytes, counts, and passing verdicts on both sides.
#[test]
fn optimistic_forcing_is_invisible_across_1000_seeds() {
    for seed in 0..1000u64 {
        let unforced = run(&ChaosConfig::seeded_wal(seed).optimistic());
        let forced = run(&ChaosConfig::seeded_wal_fsync(seed).optimistic());
        assert!(unforced.verdict.is_ok(), "seed {seed} (unforced): {:?}", unforced.verdict);
        assert!(forced.verdict.is_ok(), "seed {seed} (forced): {:?}", forced.verdict);
        assert_eq!(
            unforced.fingerprint, forced.fingerprint,
            "seed {seed}: audit/fault trace diverged under forcing"
        );
        assert_eq!(unforced.wal_hash, forced.wal_hash, "seed {seed}: WAL bytes diverged");
        assert_eq!(
            (unforced.commits, unforced.aborts, unforced.steps, unforced.wal_records),
            (forced.commits, forced.aborts, forced.steps, forced.wal_records),
            "seed {seed}: counters diverged"
        );
    }
}

/// The full-oracle variant (interleaved snapshot readers, epoch
/// cross-checks against the reference trace) over a smaller sweep:
/// forcing must not perturb pinned snapshots or epoch assignment.
#[test]
fn optimistic_forcing_is_invisible_under_snapshot_oracle() {
    for seed in 0..150u64 {
        let unforced = run(&ChaosConfig::seeded_wal_snapshots(seed).optimistic());
        let forced =
            run(&ChaosConfig { fsync: true, ..ChaosConfig::seeded_wal_snapshots(seed) }
                .optimistic());
        assert!(unforced.verdict.is_ok(), "seed {seed} (unforced): {:?}", unforced.verdict);
        assert!(forced.verdict.is_ok(), "seed {seed} (forced): {:?}", forced.verdict);
        assert_eq!(unforced.fingerprint, forced.fingerprint, "seed {seed}: trace diverged");
        assert_eq!(unforced.wal_hash, forced.wal_hash, "seed {seed}: WAL bytes diverged");
    }
}

/// Optimistic committers on disjoint keys, under `durability`: under
/// `WalFsync` their forces on a slow disk overlap, and later commits are
/// sequenced while earlier ones still force.
fn concurrent_run(durability: Durability) -> (Arc<SlowVfs>, Db<u64, i64>) {
    const THREADS: u64 = 4;
    const COMMITS: i64 = 12;
    let vfs = Arc::new(SlowVfs::new(Duration::from_micros(200)));
    let config = DbConfig::builder()
        .cc_mode(CcMode::Optimistic)
        .policy(DeadlockPolicy::NoWait)
        .audit(true)
        .durability(durability)
        .build();
    let db = Arc::new(Db::<u64, i64>::open_with_vfs(vfs.clone(), WAL_PATH, config).expect("open"));
    for k in 0..THREADS {
        db.insert(k, 0);
    }
    let handles: Vec<_> = (0..THREADS)
        .map(|k| {
            let db = db.clone();
            std::thread::spawn(move || {
                // Disjoint keys: every commit validates, so the final state
                // is timing-independent and comparable across the sides.
                for _ in 0..COMMITS {
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
    let db = Arc::into_inner(db).expect("all threads joined");
    (vfs, db)
}

/// Multithreaded unforced and forced runs converge to the same committed
/// state and version chains, and both logs pass the full recovery oracle.
#[test]
fn concurrent_forced_commits_converge_to_the_same_state() {
    let (vfs_off, db_off) = concurrent_run(Durability::Wal);
    let (vfs_on, db_on) = concurrent_run(Durability::WalFsync);
    for k in 0..4u64 {
        assert_eq!(db_off.committed_value(&k), Some(12), "off: key {k}");
        assert_eq!(db_on.committed_value(&k), Some(12), "on: key {k}");
        // Chains must have GC'd to a single committed version in both
        // modes. (Head *epochs* legitimately differ: which commit landed
        // last on a key depends on thread interleaving, not on the mode.)
        for (mode, db) in [("off", &db_off), ("on", &db_on)] {
            let chain = db.history(&k);
            assert_eq!(chain.len(), 1, "{mode}: chain for key {k} not reclaimed");
            assert_eq!(chain[0].1, 12, "{mode}: chain head for key {k}");
        }
    }
    assert_eq!(db_off.stats().wal_fsyncs, 0, "off: nothing forced");
    assert_eq!(db_on.stats().wal_fsyncs, 48, "on: one force per commit");
    for (mode, vfs) in [("off", vfs_off), ("on", vfs_on)] {
        if let Err(e) = check_crash_recovery(&vfs.mem.snapshot(WAL_PATH)) {
            panic!("recovery oracle rejected the {mode} log: {e}");
        }
    }
}
