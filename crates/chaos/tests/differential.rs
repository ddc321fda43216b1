//! The group-commit differential suite: the pipeline is a *throughput*
//! optimization, so it must be observationally invisible.
//!
//! Two angles:
//!
//! 1. **Seed sweep** — every chaos seed is run twice, `group_commit` off
//!    and on, in each concurrency-control mode. The driver is single-threaded, so every batch is a
//!    singleton, and singleton batches log a plain `Commit` record — the
//!    two runs must therefore agree on *everything*: audit-log
//!    fingerprint (which the Theorem-9 oracle consumed), commit/abort
//!    counts, step count, and the raw WAL bytes (hash equality), which
//!    pins the recovered state and version chains byte-for-byte. Both
//!    verdicts must pass, and each WAL verdict already includes the full
//!    recovery oracle (differential vs the reference interpreter,
//!    `recover ∘ recover ≡ recover`).
//! 2. **Real concurrency** — multithreaded runs can't be byte-identical
//!    (batch composition depends on arrival timing), so there the
//!    obligation is semantic: same final committed state, same version
//!    chains after quiescence, and a log the recovery oracle accepts.

use rnt_chaos::recovery::{check_crash_recovery, WAL_PATH};
use rnt_chaos::{run, ChaosConfig};
use rnt_core::{Db, DbConfig, DeadlockPolicy, Durability};
use rnt_wal::MemVfs;
use std::sync::Arc;
use std::time::Duration;

/// ≥1000 seeds, each run with the pipeline off and on: identical
/// fingerprints, WAL bytes, counts, and passing verdicts on both sides.
#[test]
fn group_commit_is_invisible_across_1000_seeds() {
    group_commit_is_invisible(ChaosConfig::seeded_wal, ChaosConfig::seeded_wal_group);
}

/// The same sweep under optimistic concurrency control, where a commit
/// with the pipeline off and a staged one run the same batch retire.
#[test]
fn optimistic_group_commit_is_invisible_across_1000_seeds() {
    group_commit_is_invisible(
        |seed| ChaosConfig::seeded_wal(seed).optimistic(),
        |seed| ChaosConfig::seeded_wal_group(seed).optimistic(),
    );
}

fn group_commit_is_invisible(off: fn(u64) -> ChaosConfig, on: fn(u64) -> ChaosConfig) {
    for seed in 0..1000u64 {
        let (off, on) = (run(&off(seed)), run(&on(seed)));
        assert!(off.verdict.is_ok(), "seed {seed} (off): {:?}", off.verdict);
        assert!(on.verdict.is_ok(), "seed {seed} (on): {:?}", on.verdict);
        assert_eq!(
            off.fingerprint, on.fingerprint,
            "seed {seed}: audit/fault trace diverged under group commit"
        );
        assert_eq!(off.wal_hash, on.wal_hash, "seed {seed}: WAL bytes diverged");
        assert_eq!(
            (off.commits, off.aborts, off.steps, off.wal_records),
            (on.commits, on.aborts, on.steps, on.wal_records),
            "seed {seed}: counters diverged"
        );
    }
}

/// The full-oracle variant (interleaved snapshot readers, epoch
/// cross-checks against the reference trace) over a smaller sweep: the
/// pipeline must not perturb pinned snapshots or epoch assignment.
#[test]
fn group_commit_is_invisible_under_snapshot_oracle() {
    for seed in 0..150u64 {
        let off = run(&ChaosConfig::seeded_wal_snapshots(seed));
        let on =
            run(&ChaosConfig { group_commit: true, ..ChaosConfig::seeded_wal_snapshots(seed) });
        assert!(off.verdict.is_ok(), "seed {seed} (off): {:?}", off.verdict);
        assert!(on.verdict.is_ok(), "seed {seed} (on): {:?}", on.verdict);
        assert_eq!(off.fingerprint, on.fingerprint, "seed {seed}: trace diverged");
        assert_eq!(off.wal_hash, on.wal_hash, "seed {seed}: WAL bytes diverged");
    }
}

fn concurrent_run(group_commit: bool) -> (Arc<MemVfs>, Db<u64, i64>) {
    const THREADS: u64 = 4;
    const COMMITS: i64 = 12;
    let vfs = Arc::new(MemVfs::new());
    let config = DbConfig::builder()
        .policy(DeadlockPolicy::NoWait)
        .audit(true)
        .durability(Durability::Wal)
        .group_commit(group_commit)
        .max_batch(THREADS as usize)
        .max_batch_wait(Duration::from_micros(200))
        .build();
    let db = Arc::new(Db::<u64, i64>::open_with_vfs(vfs.clone(), WAL_PATH, config).expect("open"));
    for k in 0..THREADS {
        db.insert(k, 0);
    }
    let handles: Vec<_> = (0..THREADS)
        .map(|k| {
            let db = db.clone();
            std::thread::spawn(move || {
                // Disjoint keys: every commit succeeds, so the final state
                // is timing-independent and comparable across modes.
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

/// Multithreaded on/off runs converge to the same committed state and
/// version chains, and the batched log passes the full recovery oracle.
#[test]
fn concurrent_group_commit_converges_to_the_same_state() {
    let (vfs_off, db_off) = concurrent_run(false);
    let (vfs_on, db_on) = concurrent_run(true);
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
    let on = db_on.stats();
    assert_eq!(on.commits_staged, 48, "every top-level commit staged");
    assert_eq!(on.commits_batched, on.commits_staged, "conservation: staged = retired");
    assert!(on.commit_batches >= 1 && on.commit_batches <= on.commits_batched);
    for (mode, vfs) in [("off", vfs_off), ("on", vfs_on)] {
        if let Err(e) = check_crash_recovery(&vfs.snapshot(WAL_PATH)) {
            panic!("recovery oracle rejected the {mode} log: {e}");
        }
    }
}
