//! Durability and crash-recovery integration tests for the WAL-backed
//! engine: committed top-level effects survive a crash, uncommitted and
//! in-flight effects do not, and recovery is idempotent.

use rnt_core::{CcMode, Db, DbConfig, DeadlockPolicy, Durability, Txn, TxnError};
use rnt_wal::faults::record_count;
use rnt_wal::{frame, scan, CommitEntry, MemVfs, Record, Vfs, WalError, INIT_ACTION, MAGIC};
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::Arc;

mod common;
use common::{GateVfs, PATIENCE};

const LOG: &str = "db.wal";

fn wal_config() -> DbConfig {
    DbConfig::builder().durability(Durability::Wal).build()
}

fn fsync_config() -> DbConfig {
    DbConfig::builder().durability(Durability::WalFsync).build()
}

/// Open a WAL-backed db on a fresh in-memory filesystem.
fn open_mem(config: DbConfig) -> (Arc<MemVfs>, Db<String, i64>) {
    let vfs = Arc::new(MemVfs::new());
    let db = Db::open_with_vfs(vfs.clone(), LOG, config).expect("open");
    (vfs, db)
}

/// Simulate a crash: recover a new db from the current bytes of `vfs`.
fn crash_recover(vfs: &MemVfs, config: DbConfig) -> Db<String, i64> {
    // Snapshot-and-install models the kernel's view surviving the process:
    // the recovered db sees exactly what reached the (mem) filesystem.
    let bytes = vfs.snapshot(LOG);
    let fresh = Arc::new(MemVfs::new());
    fresh.install(LOG, bytes);
    Db::recover_with_vfs(fresh.clone(), LOG, config).expect("recover")
}

#[test]
fn committed_top_level_writes_survive_recovery() {
    let (vfs, db) = open_mem(wal_config());
    db.insert("a".to_string(), 1);
    db.insert("b".to_string(), 2);

    let t = db.begin();
    t.rmw(&"a".to_string(), |v| v + 10).unwrap();
    t.commit().unwrap();

    let r = crash_recover(&vfs, wal_config());
    assert_eq!(r.committed_value(&"a".to_string()), Some(11));
    assert_eq!(r.committed_value(&"b".to_string()), Some(2));
}

#[test]
fn uncommitted_writes_are_absent_after_recovery() {
    let (vfs, db) = open_mem(wal_config());
    db.insert("a".to_string(), 1);

    let t = db.begin();
    t.rmw(&"a".to_string(), |v| v + 100).unwrap();
    // No commit: t is in flight at the "crash".
    let r = crash_recover(&vfs, wal_config());
    assert_eq!(r.committed_value(&"a".to_string()), Some(1));
    drop(t);
}

#[test]
fn child_commit_without_top_level_commit_is_not_durable() {
    let (vfs, db) = open_mem(wal_config());
    db.insert("a".to_string(), 1);

    let t = db.begin();
    let c = t.child().unwrap();
    c.rmw(&"a".to_string(), |v| v + 5).unwrap();
    c.commit().unwrap(); // visible to the parent only (Lemma 7)
    assert_eq!(t.read(&"a".to_string()).unwrap(), 6);

    let r = crash_recover(&vfs, wal_config());
    assert_eq!(r.committed_value(&"a".to_string()), Some(1));
    drop(t);
}

#[test]
fn aborted_subtree_stays_aborted_after_recovery() {
    let (vfs, db) = open_mem(wal_config());
    db.insert("a".to_string(), 1);
    db.insert("b".to_string(), 2);

    let t = db.begin();
    let keep = t.child().unwrap();
    keep.rmw(&"a".to_string(), |v| v + 10).unwrap();
    keep.commit().unwrap();
    let lose = t.child().unwrap();
    lose.rmw(&"b".to_string(), |v| v + 10).unwrap();
    lose.abort();
    t.commit().unwrap();

    let r = crash_recover(&vfs, wal_config());
    assert_eq!(r.committed_value(&"a".to_string()), Some(11));
    assert_eq!(r.committed_value(&"b".to_string()), Some(2));
}

#[test]
fn deep_nesting_recovers_exact_values() {
    let (vfs, db) = open_mem(wal_config());
    db.insert("x".to_string(), 0);

    let t = db.begin();
    let c1 = t.child().unwrap();
    let c2 = c1.child().unwrap();
    c2.rmw(&"x".to_string(), |v| v + 1).unwrap();
    c2.commit().unwrap();
    c1.rmw(&"x".to_string(), |v| v * 10).unwrap();
    c1.commit().unwrap();
    t.rmw(&"x".to_string(), |v| v + 7).unwrap();
    t.commit().unwrap();
    assert_eq!(db.committed_value(&"x".to_string()), Some(17));

    let r = crash_recover(&vfs, wal_config());
    assert_eq!(r.committed_value(&"x".to_string()), Some(17));
    assert_eq!(r.stats().recovered_commits, 1, "one tree, one commit entry");
}

#[test]
fn fsync_mode_syncs_once_per_top_level_commit() {
    let (_vfs, db) = open_mem(fsync_config());
    db.insert("a".to_string(), 0);

    for _ in 0..3 {
        let t = db.begin();
        let c = t.child().unwrap();
        c.rmw(&"a".to_string(), |v| v + 1).unwrap();
        c.commit().unwrap(); // subtxn commit: revocable, must not fsync
        t.commit().unwrap();
    }
    assert_eq!(db.stats().wal_fsyncs, 3);

    let (_vfs2, db2) = open_mem(wal_config());
    db2.insert("a".to_string(), 0);
    let t = db2.begin();
    t.rmw(&"a".to_string(), |v| v + 1).unwrap();
    t.commit().unwrap();
    assert_eq!(db2.stats().wal_fsyncs, 0, "Durability::Wal never fsyncs");
}

#[test]
fn wal_append_conservation_holds() {
    let (_vfs, db) = open_mem(wal_config());
    db.insert("a".to_string(), 0);
    db.insert("b".to_string(), 0);

    let t = db.begin();
    t.rmw(&"a".to_string(), |v| v + 1).unwrap();
    let c = t.child().unwrap();
    c.rmw(&"b".to_string(), |v| v + 1).unwrap();
    c.commit().unwrap();
    let dead = t.child().unwrap();
    dead.abort();
    t.commit().unwrap();

    let s = db.stats();
    assert_eq!(s.wal_appends, s.wal_appends_expected(2, 1));
    assert_eq!(s.wal_appends, 3, "two seeds and one commit frame");
}

#[test]
fn recover_of_recover_is_identity() {
    let (vfs, db) = open_mem(wal_config());
    db.insert("a".to_string(), 1);
    db.insert("b".to_string(), 2);
    let t = db.begin();
    t.rmw(&"a".to_string(), |v| v * 3).unwrap();
    t.commit().unwrap();
    let hang = db.begin();
    hang.rmw(&"b".to_string(), |v| v * 3).unwrap(); // in flight at crash

    let bytes = vfs.snapshot(LOG);
    let v1 = Arc::new(MemVfs::new());
    v1.install(LOG, bytes);
    let r1 = Db::<String, i64>::recover_with_vfs(v1.clone(), LOG, wal_config()).unwrap();
    let after_first = v1.snapshot(LOG);

    let v2 = Arc::new(MemVfs::new());
    v2.install(LOG, after_first.clone());
    let r2 = Db::<String, i64>::recover_with_vfs(v2.clone(), LOG, wal_config()).unwrap();

    for k in ["a", "b"] {
        assert_eq!(r1.committed_value(&k.to_string()), r2.committed_value(&k.to_string()));
    }
    assert_eq!(r1.committed_value(&"a".to_string()), Some(3));
    assert_eq!(r1.committed_value(&"b".to_string()), Some(2));
    // The second recovery replays a checkpoint-only log and rewrites an
    // equivalent one: byte-identical modulo nothing (same snapshot order).
    assert_eq!(after_first, v2.snapshot(LOG));
    drop(hang);
}

#[test]
fn checkpoint_truncates_the_log() {
    let (vfs, db) = open_mem(wal_config());
    for i in 0..8 {
        db.insert(format!("k{i}"), i);
    }
    for _ in 0..5 {
        let t = db.begin();
        t.rmw(&"k0".to_string(), |v| v + 1).unwrap();
        t.commit().unwrap();
    }
    let before = record_count(&vfs.snapshot(LOG));
    db.checkpoint().unwrap();
    let after = record_count(&vfs.snapshot(LOG));
    assert!(after < before, "checkpoint must shrink the log ({before} -> {after})");
    assert_eq!(after, 1, "idle checkpoint is a single snapshot record");

    let r = crash_recover(&vfs, wal_config());
    assert_eq!(r.committed_value(&"k0".to_string()), Some(5));
    assert_eq!(r.committed_value(&"k7".to_string()), Some(7));
}

#[test]
fn checkpoint_every_other_commit_leaves_one_record() {
    let (vfs, db) = open_mem(wal_config());
    db.insert("a".to_string(), 0);
    for n in 1..=4 {
        let t = db.begin();
        t.rmw(&"a".to_string(), |v| v + 1).unwrap();
        t.commit().unwrap();
        if n % 2 == 0 {
            db.checkpoint().unwrap();
        }
    }
    // Checkpoints after commits 2 and 4: the log holds one snapshot record.
    assert_eq!(record_count(&vfs.snapshot(LOG)), 1);
    let r = crash_recover(&vfs, wal_config());
    assert_eq!(r.committed_value(&"a".to_string()), Some(4));
}

#[test]
fn checkpoint_preserves_live_transactions() {
    let (vfs, db) = open_mem(wal_config());
    db.insert("a".to_string(), 1);
    db.insert("b".to_string(), 2);

    let t = db.begin();
    t.rmw(&"a".to_string(), |v| v + 100).unwrap();
    db.checkpoint().unwrap(); // t is live: nothing of it is in the log yet
    t.rmw(&"b".to_string(), |v| v + 100).unwrap();
    t.commit().unwrap();

    let r = crash_recover(&vfs, wal_config());
    assert_eq!(r.committed_value(&"a".to_string()), Some(101));
    assert_eq!(r.committed_value(&"b".to_string()), Some(102));
}

#[test]
fn torn_tail_recovers_to_last_intact_record() {
    let (vfs, db) = open_mem(wal_config());
    db.insert("a".to_string(), 1);
    let t = db.begin();
    t.rmw(&"a".to_string(), |v| v + 1).unwrap();
    t.commit().unwrap();

    // Tear the tail mid-record: everything after the last intact frame is
    // a crash artifact and must be discarded, not rejected.
    let bytes = vfs.snapshot(LOG);
    let torn = bytes[..bytes.len() - 3].to_vec();
    let fresh = Arc::new(MemVfs::new());
    fresh.install(LOG, torn);
    let r = Db::<String, i64>::recover_with_vfs(fresh, LOG, wal_config()).unwrap();
    // The final commit frame was torn: the transaction never happened;
    // the seed survives.
    assert_eq!(r.committed_value(&"a".to_string()), Some(1));
}

#[test]
fn armed_crash_during_commit_append_loses_only_that_commit() {
    let (vfs, db) = open_mem(wal_config());
    db.insert("a".to_string(), 1);

    let t0 = db.begin();
    t0.rmw(&"a".to_string(), |v| v + 1).unwrap();
    t0.commit().unwrap(); // durable: appended before the crash arms

    // Crash mid-append of the *next* transaction's commit record.
    let t1 = db.begin();
    t1.rmw(&"a".to_string(), |v| v + 1).unwrap();
    vfs.arm_crash(0, 5); // next append: keep 5 bytes, then drop everything
    let _ = t1.commit();
    assert!(vfs.crashed());

    let r = crash_recover(&vfs, wal_config());
    assert_eq!(r.committed_value(&"a".to_string()), Some(2), "t0 durable, t1 rolled back");
}

#[test]
fn open_truncates_an_existing_log() {
    let (vfs, db) = open_mem(wal_config());
    db.insert("a".to_string(), 7);
    let t = db.begin();
    t.rmw(&"a".to_string(), |v| v + 1).unwrap();
    t.commit().unwrap();
    drop(db);

    // open() = fresh database: the old log must not leak into it.
    let db2: Db<String, i64> = Db::open_with_vfs(vfs.clone(), LOG, wal_config()).unwrap();
    assert_eq!(db2.committed_value(&"a".to_string()), None);
    assert_eq!(record_count(&vfs.snapshot(LOG)), 0);
}

#[test]
fn durability_none_writes_no_log() {
    let vfs = Arc::new(MemVfs::new());
    let db: Db<String, i64> = Db::open_with_vfs(vfs.clone(), LOG, DbConfig::default()).unwrap();
    db.insert("a".to_string(), 1);
    let t = db.begin();
    t.rmw(&"a".to_string(), |v| v + 1).unwrap();
    t.commit().unwrap();
    assert!(!vfs.exists(LOG));
    assert_eq!(db.stats().wal_appends, 0);
}

// ---- hand-written format-05 logs, multi-commit frames included ----

fn install_log(records: &[Record]) -> Arc<MemVfs> {
    let mut bytes = MAGIC.to_vec();
    for r in records {
        bytes.extend_from_slice(&frame(r));
    }
    let vfs = Arc::new(MemVfs::new());
    vfs.install(LOG, bytes);
    vfs
}

fn enc(s: &str) -> Vec<u8> {
    rnt_wal::encode_to_vec(&s.to_string())
}

fn enc_v(v: i64) -> Vec<u8> {
    rnt_wal::encode_to_vec(&v)
}

fn seed(k: &str, v: i64) -> Record {
    Record::Write { action: INIT_ACTION, key: enc(k), version: enc_v(v) }
}

fn commit(action: u64, epoch: u64, writes: &[(&str, i64)]) -> CommitEntry {
    let writes = writes.iter().map(|&(k, v)| (enc(k), enc_v(v))).collect();
    CommitEntry { action, epoch, writes }
}

#[test]
fn batch_commit_replays_every_participant() {
    let vfs = install_log(&[
        seed("a", 1),
        seed("b", 2),
        Record::Commit { commits: vec![commit(0, 1, &[("a", 10)]), commit(1, 2, &[("b", 20)])] },
    ]);
    let r = Db::<String, i64>::recover_with_vfs(vfs, LOG, wal_config()).unwrap();
    assert_eq!(r.committed_value(&"a".to_string()), Some(10));
    assert_eq!(r.committed_value(&"b".to_string()), Some(20));
    assert_eq!(r.epochs().watermark, 2, "replay advances the watermark over the batch's run");
    assert_eq!(r.history(&"a".to_string()), vec![(1, 10)]);
    assert_eq!(r.history(&"b".to_string()), vec![(2, 20)]);
    assert_eq!(r.stats().recovered_commits, 2);
}

/// A commit frame at the log tail whose epoch was never durably
/// allocated (it is not above the replayed watermark) must be *rejected*,
/// not silently replayed at a fabricated position in the serial order.
#[test]
fn replay_rejects_a_commit_epoch_at_or_below_the_watermark() {
    // Epoch 0 is the genesis watermark: nothing can commit "at" it.
    let vfs =
        install_log(&[seed("a", 1), Record::Commit { commits: vec![commit(0, 0, &[("a", 5)])] }]);
    let err = Db::<String, i64>::recover_with_vfs(vfs, LOG, wal_config())
        .expect_err("a never-allocated epoch must fail replay");
    assert!(err.to_string().contains("never durably allocated"), "unexpected error: {err}");

    // Same gap behind a checkpoint: the checkpoint proves the watermark
    // reached 5, so a later commit claiming epoch 3 is corrupt.
    let vfs = install_log(&[
        Record::Checkpoint { epoch: 5, snapshot: vec![(enc("a"), 2, enc_v(1))] },
        Record::Commit { commits: vec![commit(7, 3, &[("a", 9)])] },
    ]);
    let err = Db::<String, i64>::recover_with_vfs(vfs, LOG, wal_config())
        .expect_err("an epoch below the checkpoint watermark must fail replay");
    assert!(err.to_string().contains("never durably allocated"), "unexpected error: {err}");
}

/// The same obligation inside a batch frame: a batch whose epoch run dips
/// to or below the replayed watermark is rejected wholesale.
#[test]
fn replay_rejects_a_batch_epoch_at_or_below_the_watermark() {
    let vfs = install_log(&[
        Record::Checkpoint { epoch: 4, snapshot: vec![(enc("a"), 2, enc_v(1))] },
        Record::Commit { commits: vec![commit(0, 5, &[("a", 10)]), commit(1, 4, &[])] },
    ]);
    let err = Db::<String, i64>::recover_with_vfs(vfs, LOG, wal_config())
        .expect_err("a batch epoch at the watermark must fail replay");
    assert!(err.to_string().contains("never durably allocated"), "unexpected error: {err}");
}

/// Replay refuses what the engine never writes: a commit to an unseeded
/// key, and a write record outside a commit frame.
#[test]
fn replay_rejects_unseeded_keys_and_loose_writes() {
    let vfs =
        install_log(&[seed("a", 1), Record::Commit { commits: vec![commit(0, 1, &[("b", 5)])] }]);
    let err = Db::<String, i64>::recover_with_vfs(vfs, LOG, wal_config()).unwrap_err();
    assert!(err.to_string().contains("unseeded key"), "unexpected error: {err}");

    let vfs =
        install_log(&[seed("a", 1), Record::Write { action: 0, key: enc("a"), version: enc_v(5) }]);
    let err = Db::<String, i64>::recover_with_vfs(vfs, LOG, wal_config()).unwrap_err();
    assert!(err.to_string().contains("outside a commit frame"), "unexpected error: {err}");
}

#[test]
fn forced_and_unforced_optimistic_logs_recover_identically() {
    // The same single-threaded optimistic workload, under `Wal` (the run
    // publishes in the gate hold that sequenced it) and under `WalFsync`
    // (it leaves the gate to force): the force changes no byte, so the
    // logs are byte-identical and so are the recoveries.
    let run = |durability: Durability| {
        let config = DbConfig::builder().cc_mode(CcMode::Optimistic).durability(durability).build();
        let (vfs, db) = open_mem(config);
        db.insert("a".to_string(), 0);
        db.insert("b".to_string(), 0);
        for i in 0..4 {
            let t = db.begin();
            let c = t.child().unwrap();
            c.rmw(&if i % 2 == 0 { "a".to_string() } else { "b".to_string() }, |v| v + 1).unwrap();
            c.commit().unwrap();
            t.commit().unwrap();
        }
        vfs.snapshot(LOG)
    };
    let (off, on) = (run(Durability::Wal), run(Durability::WalFsync));
    assert_eq!(off, on, "forcing must keep the log byte-identical");

    let fresh = Arc::new(MemVfs::new());
    fresh.install(LOG, on);
    let r = Db::<String, i64>::recover_with_vfs(fresh, LOG, wal_config()).unwrap();
    assert_eq!(r.committed_value(&"a".to_string()), Some(2));
    assert_eq!(r.committed_value(&"b".to_string()), Some(2));
}

#[test]
fn optimistic_fsync_acks_are_durable() {
    // Optimistic under WalFsync: every acked commit must survive a crash
    // cut at exactly the bytes on disk at ack time.
    let config =
        DbConfig::builder().cc_mode(CcMode::Optimistic).durability(Durability::WalFsync).build();
    let (vfs, db) = open_mem(config);
    db.insert("a".to_string(), 0);
    for _ in 0..3 {
        let t = db.begin();
        t.rmw(&"a".to_string(), |v| v + 1).unwrap();
        t.commit().unwrap();
        // The ack has been returned: the state on disk RIGHT NOW must
        // already contain this commit.
        let r = crash_recover(&vfs, wal_config());
        assert_eq!(r.committed_value(&"a".to_string()), db.committed_value(&"a".to_string()));
    }
    assert_eq!(db.stats().wal_fsyncs, 3, "one force per commit");
}

#[test]
fn recovered_db_accepts_new_transactions_and_stays_durable() {
    let (vfs, db) = open_mem(wal_config());
    db.insert("a".to_string(), 1);
    let t = db.begin();
    t.rmw(&"a".to_string(), |v| v + 1).unwrap();
    t.commit().unwrap();

    let bytes = vfs.snapshot(LOG);
    let v1 = Arc::new(MemVfs::new());
    v1.install(LOG, bytes);
    let r = Db::<String, i64>::recover_with_vfs(v1.clone(), LOG, wal_config()).unwrap();

    // Life goes on: new work on the recovered db is durable in turn.
    let t = r.begin();
    let c = t.child().unwrap();
    c.rmw(&"a".to_string(), |v| v * 10).unwrap();
    c.commit().unwrap();
    t.commit().unwrap();

    let bytes = v1.snapshot(LOG);
    let v2 = Arc::new(MemVfs::new());
    v2.install(LOG, bytes);
    let r2 = Db::<String, i64>::recover_with_vfs(v2, LOG, wal_config()).unwrap();
    assert_eq!(r2.committed_value(&"a".to_string()), Some(20));
}

// ---- The force runs outside the log mutex; a Vfs that fails poisons ----

fn key(i: usize) -> String {
    format!("k{i}")
}

/// `WalFsync` in mode `cc`.
fn forced_config(cc: CcMode) -> DbConfig {
    DbConfig::builder()
        .durability(Durability::WalFsync)
        .cc_mode(cc)
        // A held lock is an immediate error, not a wait: "the locks were
        // released" is then checkable without a timeout.
        .policy(DeadlockPolicy::NoWait)
        .build()
}

/// A flat transaction that has done `+1` on each of `keys` and is ready
/// to commit.
fn bumped(
    db: &Db<String, i64>,
    keys: std::ops::Range<usize>,
) -> Result<Txn<String, i64>, TxnError> {
    let t = db.begin();
    for k in keys {
        t.rmw(&key(k), |v| v + 1)?;
    }
    Ok(t)
}

/// One whole flat transaction.
fn bump(db: &Db<String, i64>, keys: std::ops::Range<usize>) -> Result<(), TxnError> {
    bumped(db, keys)?.commit()
}

type Verdict = std::sync::mpsc::Receiver<Result<(), TxnError>>;

/// Run `f` on its own thread; its verdict arrives on the channel, so a
/// thread that never finishes fails the test instead of hanging it.
fn spawn(f: impl FnOnce() -> Result<(), TxnError> + Send + 'static) -> Verdict {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx
}

fn spawn_bump(db: &Db<String, i64>, keys: std::ops::Range<usize>) -> Verdict {
    let db = db.clone();
    spawn(move || bump(&db, keys))
}

/// Optimistic phase-1 validation runs before the publish gate: a commit
/// whose footprint an already published commit overtook is refused while
/// another commit is still publishing — and it burns no epoch. Under
/// `WalFsync` the other commit is parked in its fsync, outside the gate;
/// under `Wal` it is parked in its commit-frame append, holding the gate.
/// Either way the loser must not wait for it.
#[test]
fn an_overtaken_optimistic_commit_loses_outside_the_gate() {
    for durability in [Durability::WalFsync, Durability::Wal] {
        let vfs = GateVfs::closed();
        vfs.open();
        let config = DbConfig::builder().durability(durability).cc_mode(CcMode::Optimistic).build();
        let db: Db<String, i64> = Db::open_with_vfs(vfs.clone(), LOG, config).unwrap();
        db.insert(key(0), 0);
        db.insert(key(1), 0);
        let loser = bumped(&db, 0..1).unwrap();
        bump(&db, 0..1).unwrap();
        let publisher = bumped(&db, 1..2).unwrap();
        let fsync = durability == Durability::WalFsync;
        if fsync {
            vfs.close();
        } else {
            vfs.hold_appends();
        }
        let publishing = spawn(move || publisher.commit());
        if fsync {
            vfs.wait_parked();
        } else {
            vfs.wait_append_parked();
        }
        let watermark = db.epochs().watermark;
        let lost = spawn(move || loser.commit()).recv_timeout(PATIENCE);
        vfs.open();
        assert!(matches!(lost, Ok(Err(TxnError::Conflict { .. }))), "{durability:?}: got {lost:?}");
        assert_eq!(publishing.recv_timeout(PATIENCE).unwrap(), Ok(()), "{durability:?}");
        assert_eq!(db.epochs().watermark, watermark + 1, "{durability:?}: the loser took no epoch");
    }
}

/// A loser overtaken by a run that is still forcing — it lost to the
/// in-flight table, not to the chains — returns only once that run is
/// published: retried at once, it would otherwise pin a snapshot below
/// the winner's write and lose to it again. It waits outside the gate.
#[test]
fn a_loser_overtaken_by_a_forcing_run_returns_once_the_run_is_published() {
    let vfs = GateVfs::closed();
    let db: Db<String, i64> =
        Db::open_with_vfs(vfs.clone(), LOG, forced_config(CcMode::Optimistic)).unwrap();
    db.insert(key(0), 0);
    db.insert(key(1), 0);
    let loser = bumped(&db, 0..1).unwrap();
    let winning = spawn_bump(&db, 0..1);
    vfs.wait_parked();
    let (tx, rx) = std::sync::mpsc::channel();
    {
        let db = db.clone();
        std::thread::spawn(move || {
            let verdict = loser.commit();
            let _ = tx.send((verdict, db.epochs().watermark));
        });
    }
    let early = rx.recv_timeout(std::time::Duration::from_millis(200));
    // The gate is free while the winner forces: another commit gets
    // through it, and is parked in its own force.
    let other = spawn_bump(&db, 1..2);
    let both = vfs.parks(2);
    vfs.open();
    assert!(early.is_err(), "the loser returned while its winner was forcing: {early:?}");
    assert!(both, "a commit could not sequence while a loser waited");
    assert_eq!(winning.recv_timeout(PATIENCE).unwrap(), Ok(()));
    assert_eq!(other.recv_timeout(PATIENCE).unwrap(), Ok(()));
    let (verdict, watermark) = rx.recv_timeout(PATIENCE).expect("the loser never returned");
    match verdict {
        Err(TxnError::Conflict { committed_epoch, .. }) => {
            assert!(
                watermark >= committed_epoch,
                "returned at {watermark}, below {committed_epoch}"
            )
        }
        other => panic!("expected Conflict, got {other:?}"),
    }
    assert_eq!(db.committed_value(&key(0)), Some(1), "only the winner's increment");
    assert_eq!(db.stats().snapshot_pins_live, 0);
}

#[derive(Clone, Copy, Debug)]
enum VfsFault {
    Fsync,
    Append,
}

/// After a commit failed: its keys are writable (locks released / nothing
/// left pinned), and the log stays poisoned — every later top-level
/// commit completes in memory and still reports `Wal`.
fn assert_released_and_poisoned(db: &Db<String, i64>, keys: std::ops::Range<usize>, what: &str) {
    for round in 0..2 {
        let t = db.begin();
        for k in keys.clone() {
            t.rmw(&key(k), |v| v + 1)
                .unwrap_or_else(|e| panic!("{what}: key {k} still held after the failure: {e}"));
        }
        let verdict = t.commit();
        assert!(
            matches!(verdict, Err(TxnError::Wal { .. })),
            "{what}: commit {round} after the failure must not ack, got {verdict:?}"
        );
    }
}

/// A lone commit whose force or commit-record append fails, in both
/// modes.
#[test]
fn a_failing_force_poisons_singleton_commits_in_both_modes() {
    for cc in [CcMode::Locking, CcMode::Optimistic] {
        for fault in [VfsFault::Fsync, VfsFault::Append] {
            let what = format!("{cc:?} {fault:?}");
            let (vfs, db) = open_mem(forced_config(cc));
            db.insert(key(0), 0);
            db.insert(key(1), 0);
            bump(&db, 0..2).unwrap_or_else(|e| panic!("{what}: healthy commit failed: {e}"));
            let healthy = vfs.snapshot(LOG);

            match fault {
                VfsFault::Fsync => vfs.arm_fsync_error(0),
                // The transaction's one append, its commit frame, is
                // refused by the disk.
                VfsFault::Append => vfs.arm_append_error(0),
            }
            let verdict = bump(&db, 0..2);
            assert!(matches!(verdict, Err(TxnError::Wal { .. })), "{what}: got {verdict:?}");
            let at_failure = vfs.snapshot(LOG);
            assert!(at_failure.starts_with(&healthy), "{what}: the log only grows");
            assert_released_and_poisoned(&db, 0..2, &what);
            // In memory all four commits happened; only the first was
            // acked.
            assert_eq!(db.committed_value(&key(0)), Some(4), "{what}");
            assert_eq!(db.stats().snapshot_pins_live, 0, "{what}: a pin left behind");
            assert!(db.checkpoint().is_err(), "{what}: a poisoned log refuses checkpoints");
            // Fail-stop: nothing lands behind the failure, so what is
            // on disk recovers like a crash there — the acked commit
            // at least, and never half a transaction.
            assert_eq!(vfs.snapshot(LOG), at_failure, "{what}: written to after the failure");
            let r = crash_recover(&vfs, wal_config());
            let (k0, k1) = (r.committed_value(&key(0)), r.committed_value(&key(1)));
            assert_eq!(k0, k1, "{what}: recovered half a transaction");
            assert!((Some(1)..=Some(2)).contains(&k0), "{what}: recovered {k0:?}");
        }
    }
}

/// Every run in flight behind a failed force or append hears `Wal`, in
/// both modes. Three runs are sequenced while the first is parked in its
/// force. With an fsync fault, the three forces are parked at once and
/// reach the inner disk in epoch order, and the second fails. With an
/// append fault, the second run's commit frame is refused. Either way the
/// first run acks, and the second and third both hear `Wal`: the third's
/// frame may have been forced, but with the second's lost, recovery stops
/// before it.
#[test]
fn every_run_in_flight_behind_a_failed_force_hears_wal() {
    for cc in [CcMode::Locking, CcMode::Optimistic] {
        for fault in [VfsFault::Fsync, VfsFault::Append] {
            let what = format!("{cc:?} {fault:?}");
            let vfs = GateVfs::closed();
            let db: Db<String, i64> =
                Db::open_with_vfs(vfs.clone(), LOG, forced_config(cc)).unwrap();
            for k in 0..6 {
                db.insert(key(k), 0);
            }
            let first = spawn_bump(&db, 0..2);
            vfs.wait_parked();
            if let VfsFault::Append = fault {
                // The next append is the second run's commit frame.
                vfs.mem.arm_append_error(0);
            }
            // Fsync tickets follow arrival, hence epoch order.
            let second = spawn_bump(&db, 2..4);
            let parked = matches!(fault, VfsFault::Append) || vfs.parks(2);
            let third = spawn_bump(&db, 4..6);
            let parked = parked && (matches!(fault, VfsFault::Append) || vfs.parks(3));
            if let VfsFault::Fsync = fault {
                vfs.release(0);
                vfs.wait_returned(1);
                vfs.mem.arm_fsync_error(0);
                vfs.release(1);
                vfs.wait_returned(2);
            }
            vfs.open();
            assert!(parked, "{what}: the forces did not overlap");
            assert_eq!(first.recv_timeout(PATIENCE).unwrap(), Ok(()), "{what}");
            for run in [second, third] {
                let verdict = run.recv_timeout(PATIENCE).expect("a run never returned");
                assert!(matches!(verdict, Err(TxnError::Wal { .. })), "{what}: got {verdict:?}");
            }
            assert_released_and_poisoned(&db, 0..6, &what);
            assert_eq!(db.stats().snapshot_pins_live, 0, "{what}: a pin left behind");

            // The log stopped at the failure: the acked commit recovers,
            // each refused run whole or not at all, and never the third
            // without the second.
            let r = crash_recover(&vfs.mem, wal_config());
            let values: Vec<_> = (0..6).map(|k| r.committed_value(&key(k))).collect();
            assert_eq!(values[..2], [Some(1), Some(1)], "{what}: the acked commit");
            for run in values.chunks(2) {
                assert!(run[0] == run[1] && run[0] <= Some(1), "{what}: recovered {values:?}");
            }
            assert!(values[4] <= values[2], "{what}: recovered past a lost frame: {values:?}");
        }
    }
}

// ---- redo at commit: what reaches the log, and what does not ----

fn records_of(vfs: &MemVfs) -> Vec<Record> {
    scan(&vfs.snapshot(LOG)).expect("a live log scans").0
}

/// A 3-deep tree with a committed grandchild, an aborted child and an
/// orphaned grandchild under it logs one frame with one commit entry, and
/// that entry's write set is exactly the committed values, in key order.
#[test]
fn a_nested_tree_logs_one_commit_entry_holding_its_committed_writes() {
    for cc in [CcMode::Locking, CcMode::Optimistic] {
        let (vfs, db) =
            open_mem(DbConfig::builder().durability(Durability::Wal).cc_mode(cc).build());
        for k in ["a", "b", "c", "d"] {
            db.insert(k.to_string(), 1);
        }
        let t = db.begin();
        let keep = t.child().unwrap();
        let deep = keep.child().unwrap();
        deep.rmw(&"d".to_string(), |v| v + 10).unwrap();
        deep.commit().unwrap();
        keep.rmw(&"d".to_string(), |v| v * 2).unwrap();
        keep.commit().unwrap();
        let lose = t.child().unwrap();
        lose.rmw(&"b".to_string(), |v| v + 100).unwrap();
        let orphan = lose.child().unwrap();
        orphan.rmw(&"c".to_string(), |v| v + 100).unwrap();
        lose.abort();
        drop(orphan);
        t.rmw(&"a".to_string(), |v| v + 5).unwrap();
        t.commit().unwrap();

        let records = records_of(&vfs);
        assert_eq!(records.len(), 5, "{cc:?}: four seeds and one commit frame");
        let Record::Commit { commits } = &records[4] else { panic!("{cc:?}: {records:?}") };
        assert_eq!(commits.len(), 1, "{cc:?}");
        let committed: Vec<_> = ["a", "d"]
            .iter()
            .map(|k| (enc(k), enc_v(db.committed_value(&k.to_string()).unwrap())))
            .collect();
        assert_eq!(commits[0].writes, committed, "{cc:?}");
        assert_eq!((commits[0].epoch, db.committed_value(&"d".to_string())), (1, Some(22)));
    }
}

/// A top-level abort appends nothing, and neither does a tree in flight
/// at the crash: their absence from the log is their abort.
#[test]
fn aborted_and_in_flight_trees_append_zero_bytes() {
    for cc in [CcMode::Locking, CcMode::Optimistic] {
        let (vfs, db) =
            open_mem(DbConfig::builder().durability(Durability::Wal).cc_mode(cc).build());
        db.insert("a".to_string(), 1);
        let seeded = vfs.snapshot(LOG);
        let t = db.begin();
        let c = t.child().unwrap();
        c.rmw(&"a".to_string(), |v| v + 1).unwrap();
        c.commit().unwrap();
        t.rmw(&"a".to_string(), |v| v + 1).unwrap();
        t.abort();
        assert_eq!(vfs.snapshot(LOG), seeded, "{cc:?}: a top-level abort");
        let hang = db.begin();
        let c = hang.child().unwrap();
        c.rmw(&"a".to_string(), |v| v + 1).unwrap();
        c.commit().unwrap();
        hang.child().unwrap().abort();
        assert_eq!(vfs.snapshot(LOG), seeded, "{cc:?}: a tree in flight");
        assert_eq!(db.stats().wal_appends, 1, "{cc:?}: only the seed");
        let r = crash_recover(&vfs, wal_config());
        assert_eq!(r.committed_value(&"a".to_string()), Some(1), "{cc:?}");
        assert_eq!(r.stats().recovered_commits, 0, "{cc:?}");
        drop(hang);
    }
}

/// A seed logs while a commit's force is parked on the disk: the force
/// holds no engine lock, and a seed takes none a force holds, so the
/// seed's record lands behind the parked commit's frame.
#[test]
fn a_seed_appends_while_a_force_is_parked() {
    let vfs = GateVfs::closed();
    let config = DbConfig::builder().durability(Durability::WalFsync).build();
    let db: Db<String, i64> = Db::open_with_vfs(vfs.clone(), LOG, config).unwrap();
    db.insert(key(0), 0);
    let forcing = spawn_bump(&db, 0..1);
    vfs.wait_parked();
    let seeding = {
        let db = db.clone();
        spawn(move || {
            assert!(db.insert(key(1), 7));
            Ok(())
        })
    };
    let seeded = seeding.recv_timeout(PATIENCE);
    let records = records_of(&vfs.mem);
    vfs.open();
    assert_eq!(seeded, Ok(Ok(())), "the seed waited for another commit's fsync");
    assert_eq!(forcing.recv_timeout(PATIENCE).unwrap(), Ok(()));
    assert!(matches!(
        records.as_slice(),
        [Record::Write { .. }, Record::Commit { .. }, Record::Write { .. }]
    ));
    let r = crash_recover(&vfs.mem, wal_config());
    assert_eq!((r.committed_value(&key(0)), r.committed_value(&key(1))), (Some(1), Some(7)));
}

// ---- A checkpoint stops no seed and no commit ----

/// A checkpoint runs to completion while a locking commit is parked in its
/// force: it pins the watermark below the parked run, and no seed or
/// commit holds a lock it waits for. It keeps the parked run's frame, so
/// once the force returns the acked commit recovers from the rewritten
/// file.
#[test]
fn a_checkpoint_completes_while_a_force_is_parked() {
    let vfs = GateVfs::closed();
    vfs.open();
    let db: Db<String, i64> = Db::open_with_vfs(vfs.clone(), LOG, fsync_config()).unwrap();
    db.insert(key(0), 0);
    db.insert(key(1), 0);
    bump(&db, 1..2).unwrap();
    vfs.close();
    let forcing = spawn_bump(&db, 0..1);
    vfs.wait_parked();
    // The checkpoint's own fsync, the next to arrive, may pass.
    let next = vfs.next_ticket();
    vfs.release(next);
    let checkpointed = {
        let db = db.clone();
        spawn(move || db.checkpoint()).recv_timeout(PATIENCE)
    };
    let records = records_of(&vfs.mem);
    vfs.open();
    assert_eq!(checkpointed, Ok(Ok(())), "the checkpoint waited for another commit's force");
    assert_eq!(forcing.recv_timeout(PATIENCE).unwrap(), Ok(()));
    assert!(
        matches!(records.as_slice(), [Record::Checkpoint { epoch: 1, .. }, Record::Commit { .. }]),
        "the image at epoch 1, then the parked run's frame: {records:?}"
    );
    let r = crash_recover(&vfs.mem, wal_config());
    assert_eq!((r.committed_value(&key(0)), r.committed_value(&key(1))), (Some(1), Some(1)));
}

/// For a quiescent database the checkpointed log is exactly the magic and
/// one `Checkpoint` frame holding every key's head, in encoded-key order,
/// at the watermark: the image a stop-the-world walk of the heads writes.
#[test]
fn a_quiescent_checkpoint_is_the_magic_and_one_frame_of_the_heads() {
    let (vfs, db) = open_mem(wal_config());
    for k in [1, 0, 2] {
        db.insert(key(k), 1);
    }
    for keys in [0..1, 2..3, 0..1] {
        bump(&db, keys).unwrap();
    }
    db.checkpoint().unwrap();
    let snapshot =
        vec![(enc("k0"), 3, enc_v(3)), (enc("k1"), 0, enc_v(1)), (enc("k2"), 2, enc_v(2))];
    let mut expected = MAGIC.to_vec();
    expected.extend(frame(&Record::Checkpoint { epoch: 3, snapshot }));
    assert_eq!(vfs.snapshot(LOG), expected);
}

/// Counters shared by a storm's threads: per key, the increments whose
/// commit was acked (bumped after `commit` returns `Ok`) and those ever
/// attempted (bumped before `commit` is called).
struct Tally {
    acked: Vec<AtomicU64>,
    attempted: Vec<AtomicU64>,
}

impl Tally {
    fn new(n: usize) -> Self {
        let zeros = || (0..n).map(|_| AtomicU64::new(0)).collect();
        Tally { acked: zeros(), attempted: zeros() }
    }
}

const STORM_COUNTERS: usize = 8;
const STORM_SEEDS: usize = 120;

/// Counter `i` of a storm, seeded at 0, and the storm's `i`-th freshly
/// seeded key, seeded at `i`: [`Tally`] index `i` and `STORM_COUNTERS + i`.
fn counter(i: usize) -> String {
    format!("c{i}")
}

fn fresh(i: usize) -> String {
    format!("s{i:03}")
}

/// What a recovered database must hold given a tally read before the log
/// bytes were taken (`acked`) and one read after (`attempted`): every
/// acked increment and every seed that had returned, and no increment
/// that was never attempted.
fn check_recovered(
    r: &Db<String, i64>,
    acked: &[u64],
    seeded: usize,
    attempted: &[u64],
    what: &str,
) {
    for (i, (&lo, &hi)) in acked.iter().zip(attempted).enumerate() {
        let (name, base) = match i.checked_sub(STORM_COUNTERS) {
            None => (counter(i), 0),
            Some(j) if j < seeded => (fresh(j), j as i64),
            Some(_) => continue,
        };
        let got = r.committed_value(&name).map(|v| (v - base) as u64);
        assert!(
            got.is_some_and(|v| (lo..=hi).contains(&v)),
            "{what}: {name} recovered {got:?} increments, acked {lo}, attempted {hi}"
        );
    }
}

fn read_all(counts: &[AtomicU64]) -> Vec<u64> {
    counts.iter().map(|c| c.load(SeqCst)).collect()
}

/// Committers bump counters and freshly seeded keys, a seeder inserts
/// those keys, and `checkpointers` threads checkpoint in a loop until the
/// committers are done — which is not before `CHECKPOINTS` checkpoints
/// have run (or every checkpointer failed), so they overlap whatever the
/// build's speed. Each checkpointer, after each checkpoint, recovers from
/// the bytes the log holds right then; at the end, with nothing in
/// flight, recovery from the final bytes holds exactly the acked
/// increments.
fn storm(cc: CcMode, checkpointers: usize) {
    const COMMITTERS: usize = 3;
    const COMMITS: usize = 250;
    const CHECKPOINTS: u64 = 20;
    let what = format!("{cc:?} checkpointers={checkpointers}");
    let (vfs, db) = open_mem(forced_config(cc));
    for i in 0..STORM_COUNTERS {
        db.insert(counter(i), 0);
    }
    let tally = Tally::new(STORM_COUNTERS + STORM_SEEDS);
    let seeded = AtomicU64::new(0);
    let committing = AtomicU64::new(COMMITTERS as u64);
    let checkpointing = AtomicU64::new(checkpointers as u64);
    let checkpoints = AtomicU64::new(0);
    std::thread::scope(|s| {
        for c in 0..COMMITTERS {
            let (db, tally, seeded, committing, checkpointing, checkpoints) =
                (&db, &tally, &seeded, &committing, &checkpointing, &checkpoints);
            s.spawn(move || {
                let _leaving = Leaving(committing);
                let mut x = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(c as u64 + 1);
                for n in 0.. {
                    let checkpointed = checkpoints.load(SeqCst) >= CHECKPOINTS;
                    if n >= COMMITS && (checkpointed || checkpointing.load(SeqCst) == 0) {
                        break;
                    }
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let mut bumps = vec![(x % STORM_COUNTERS as u64) as usize];
                    let fresh_keys = seeded.load(SeqCst) as usize;
                    if fresh_keys > 0 {
                        bumps.push(STORM_COUNTERS + (x >> 32) as usize % fresh_keys);
                    }
                    commit_bumps(db, tally, &bumps);
                }
            });
        }
        {
            let (db, seeded, committing) = (&db, &seeded, &committing);
            s.spawn(move || {
                for i in 0..STORM_SEEDS {
                    assert!(db.insert(fresh(i), i as i64));
                    seeded.store(i as u64 + 1, SeqCst);
                    if committing.load(SeqCst) > 0 {
                        std::thread::yield_now();
                    }
                }
            });
        }
        for _ in 0..checkpointers {
            let (db, vfs, tally, seeded, committing, checkpointing, checkpoints, what) =
                (&db, &vfs, &tally, &seeded, &committing, &checkpointing, &checkpoints, &what);
            s.spawn(move || {
                let _leaving = Leaving(checkpointing);
                while committing.load(SeqCst) > 0 {
                    db.checkpoint().unwrap_or_else(|e| panic!("{what}: checkpoint: {e}"));
                    checkpoints.fetch_add(1, SeqCst);
                    let (acked, seeds) = (read_all(&tally.acked), seeded.load(SeqCst) as usize);
                    let r = crash_recover(vfs, wal_config());
                    let attempted = read_all(&tally.attempted);
                    check_recovered(&r, &acked, seeds, &attempted, &format!("{what}, mid-run"));
                }
            });
        }
    });
    let acked = read_all(&tally.acked);
    let r = crash_recover(&vfs, wal_config());
    check_recovered(&r, &acked, STORM_SEEDS, &acked, &what);
}

/// Counts a storm thread out when it ends, by unwinding too, so a failing
/// thread cannot leave the others waiting for it forever.
struct Leaving<'a>(&'a AtomicU64);

impl Drop for Leaving<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, SeqCst);
    }
}

/// One flat transaction incrementing every tally index in `bumps`,
/// retried until it commits.
fn commit_bumps(db: &Db<String, i64>, tally: &Tally, bumps: &[usize]) {
    let name = |i: usize| i.checked_sub(STORM_COUNTERS).map_or_else(|| counter(i), fresh);
    loop {
        let t = db.begin();
        if let Err(e) = bumps.iter().try_for_each(|&i| t.rmw(&name(i), |v| v + 1).map(drop)) {
            assert!(e.is_retryable(), "{e}");
            t.abort();
            std::thread::yield_now();
            continue;
        }
        for &i in bumps {
            tally.attempted[i].fetch_add(1, SeqCst);
        }
        match t.commit() {
            Ok(()) => {
                for &i in bumps {
                    tally.acked[i].fetch_add(1, SeqCst);
                }
                return;
            }
            Err(e) => assert!(e.is_retryable(), "{e}"),
        }
    }
}

/// Commits, seeds and a looping checkpoint at once, in both modes: every
/// recovery — from the bytes after any
/// checkpoint, and from the final ones — holds every acked increment and
/// seed, and no increment never attempted.
#[test]
fn checkpoints_during_a_storm_of_commits_and_seeds_lose_nothing() {
    for cc in [CcMode::Locking, CcMode::Optimistic] {
        storm(cc, 1);
    }
}

/// Two checkpointers racing each other while commits and seeds run: they
/// serialize, so neither rewrites over a newer image than its own.
#[test]
fn racing_checkpointers_lose_nothing() {
    for cc in [CcMode::Locking, CcMode::Optimistic] {
        storm(cc, 2);
    }
}

// ---- Forces overlap; publication and verdicts follow epoch order ----

/// Two commits are parked in their forces at once, in both modes: the
/// publish gate is not held across a force, and nothing queues one force
/// behind another. Both ack once the disk opens, and both recover.
#[test]
fn two_commits_are_forced_at_once() {
    for cc in [CcMode::Locking, CcMode::Optimistic] {
        let vfs = GateVfs::closed();
        let db: Db<String, i64> = Db::open_with_vfs(vfs.clone(), LOG, forced_config(cc)).unwrap();
        for k in 0..4 {
            db.insert(key(k), 0);
        }
        let first = spawn_bump(&db, 0..2);
        vfs.wait_parked();
        let second = spawn_bump(&db, 2..4);
        let both = vfs.parks(2);
        vfs.open();
        assert!(both, "{cc:?}: the second force waited for the first");
        assert_eq!(first.recv_timeout(PATIENCE).unwrap(), Ok(()), "{cc:?}");
        assert_eq!(second.recv_timeout(PATIENCE).unwrap(), Ok(()), "{cc:?}");
        assert_eq!(db.stats().wal_fsyncs, 2, "{cc:?}");
        let r = crash_recover(&vfs.mem, wal_config());
        for k in 0..4 {
            assert_eq!(r.committed_value(&key(k)), Some(1), "{cc:?}: key {k}");
        }
    }
}

/// A snapshot opens, and a transaction begins, while a commit is parked
/// in its force, in both modes; both read the state before that commit:
/// the force holds no publish gate for a pin to queue on, and nothing of
/// the commit is visible yet.
#[test]
fn a_snapshot_opens_while_a_force_is_parked() {
    for cc in [CcMode::Locking, CcMode::Optimistic] {
        let vfs = GateVfs::closed();
        let db: Db<String, i64> = Db::open_with_vfs(vfs.clone(), LOG, forced_config(cc)).unwrap();
        db.insert(key(0), 0);
        db.insert(key(1), 0);
        let forcing = spawn_bump(&db, 0..1);
        vfs.wait_parked();
        let (tx, rx) = std::sync::mpsc::channel();
        {
            let db = db.clone();
            std::thread::spawn(move || {
                let snapshot = db.snapshot();
                let seen = (snapshot.epoch(), snapshot.read(&key(0)));
                let t = db.begin();
                let _ = tx.send((seen, t.read(&key(1))));
            });
        }
        let seen = rx.recv_timeout(PATIENCE);
        vfs.open();
        assert_eq!(seen, Ok(((0, Some(0)), Ok(0))), "{cc:?}: waited for the force, or saw it");
        assert_eq!(forcing.recv_timeout(PATIENCE).unwrap(), Ok(()), "{cc:?}");
        assert_eq!(db.snapshot().read(&key(0)), Some(1), "{cc:?}");
    }
}

/// Verdicts follow epoch order, not the order forces finish, in both
/// modes. Two runs are parked in their forces, and reach the inner disk
/// one at a time, the first of them failing. A later run's failure
/// retracts nothing from the earlier run, whose own force covered its
/// frame: it acks and recovers. An earlier run's failure fails the later
/// run too: with the earlier frame lost, recovery stops before the later
/// one.
#[test]
fn durability_verdicts_follow_epoch_order() {
    for cc in [CcMode::Locking, CcMode::Optimistic] {
        for later_fails in [true, false] {
            let what = format!("{cc:?} later_fails={later_fails}");
            let vfs = GateVfs::closed();
            let db: Db<String, i64> =
                Db::open_with_vfs(vfs.clone(), LOG, forced_config(cc)).unwrap();
            for k in 0..4 {
                db.insert(key(k), 0);
            }
            // Fsync tickets follow arrival: the earlier run's force is 0.
            let earlier = spawn_bump(&db, 0..2);
            vfs.wait_parked();
            let later = spawn_bump(&db, 2..4);
            let both = vfs.parks(2);
            vfs.mem.arm_fsync_error(0);
            let (failing, passing) = if later_fails { (1, 0) } else { (0, 1) };
            vfs.release(failing);
            vfs.wait_returned(1);
            vfs.release(passing);
            vfs.wait_returned(2);
            vfs.open();
            assert!(both, "{what}: the forces did not overlap");
            let (earlier, later) =
                (earlier.recv_timeout(PATIENCE).unwrap(), later.recv_timeout(PATIENCE).unwrap());
            assert!(matches!(later, Err(TxnError::Wal { .. })), "{what}: later got {later:?}");
            if later_fails {
                assert_eq!(earlier, Ok(()), "{what}: the earlier run's ack was retracted");
            } else {
                assert!(matches!(earlier, Err(TxnError::Wal { .. })), "{what}: got {earlier:?}");
            }
            assert_released_and_poisoned(&db, 0..4, &what);
            let r = crash_recover(&vfs.mem, wal_config());
            let values: Vec<_> = (0..4).map(|k| r.committed_value(&key(k))).collect();
            if later_fails {
                assert_eq!(values[..2], [Some(1), Some(1)], "{what}: the acked run recovers");
            }
            for run in values.chunks(2) {
                assert!(run[0] == run[1] && run[0] <= Some(1), "{what}: recovered {values:?}");
            }
        }
    }
}

/// Recovery refuses `old`, a log of an earlier format, at its magic.
fn assert_refused_at_the_magic(old: &[u8], magic: &[u8; 8]) {
    assert_eq!(&old[..MAGIC.len()], magic);
    let vfs = Arc::new(MemVfs::new());
    vfs.install(LOG, old.to_vec());
    let err = Db::<String, i64>::recover_with_vfs(vfs, LOG, wal_config()).unwrap_err();
    assert_eq!(err, WalError::BadMagic);
}

/// A format-03 log, as committed next to the format's golden fixtures, is
/// refused by recovery at its magic.
#[test]
fn a_format_03_log_is_rejected_with_bad_magic() {
    let old = include_bytes!("../../wal/tests/golden/format03_single_commit.wal");
    assert_refused_at_the_magic(old, b"RNTWAL03");
}

/// So is a format-04 log: fixed-width integers are not read as varints.
#[test]
fn a_format_04_log_is_rejected_with_bad_magic() {
    let old = include_bytes!("../../wal/tests/golden/format04_single_commit.wal");
    assert_refused_at_the_magic(old, b"RNTWAL04");
}

// ---- The log's budget: bytes and appends per commit ----

/// The frame of a flat commit of four `u64` writes whose keys and values
/// are each one byte long (1 to 255) and whose action id and epoch are
/// below 128: 8 header bytes; a tag and a commit count; the entry's
/// action, epoch and write count, a varint byte each; and four `(key,
/// value)` pairs of a length byte and a value byte each —
/// 8 + 2 + 3 + 4 × 4 = 29 bytes. Format 04 took 129.
const FLAT_COMMIT_BUDGET: u64 = 29;

/// The frame of a seed of a one-byte `u64` key and value: 8 header bytes,
/// a tag, `INIT_ACTION` (stored as the byte `0`) and two length-prefixed
/// one-byte integers — 8 + 2 + 2 × 2 = 14 bytes. Format 04 took 41.
const SEED_BUDGET: u64 = 14;

/// A `u64` database on `vfs` with `keys` seeded keys.
fn u64_db(vfs: &Arc<GateVfs>, cc: CcMode, keys: u64) -> Db<u64, u64> {
    let config = DbConfig::builder().durability(Durability::WalFsync).cc_mode(cc).build();
    let db = Db::open_with_vfs(vfs.clone(), LOG, config).unwrap();
    for k in 0..keys {
        db.insert(k, 0);
    }
    db
}

/// A seed of a `u64` key and value is one append of exactly its frame.
#[test]
fn a_seed_is_one_frame_within_budget() {
    let vfs = GateVfs::closed();
    vfs.open();
    let db = u64_db(&vfs, CcMode::Locking, 0);
    for k in 1..=4 {
        let before = vfs.counts();
        db.insert(k, k);
        let (appends, bytes) = vfs.counts();
        assert_eq!(appends - before.0, 1, "seed {k}: appends");
        assert_eq!(bytes - before.1, SEED_BUDGET, "seed {k}: bytes");
    }
}

/// A flat transaction that has incremented each of `keys`.
fn u64_bumped(db: &Db<u64, u64>, keys: std::ops::Range<u64>) -> Txn<u64, u64> {
    let t = db.begin();
    for k in keys {
        t.rmw(&k, |v| v + 1).unwrap();
    }
    t
}

/// `durable-commit`'s transaction shape: each flat commit of four `u64`
/// increments appends one frame within budget, in both modes. Format 03
/// took six appends and 208
/// bytes. Keys start at 1: key `0` encodes as no bytes at all.
#[test]
fn a_flat_commit_of_four_writes_is_one_frame_within_budget() {
    for cc in [CcMode::Locking, CcMode::Optimistic] {
        let vfs = GateVfs::closed();
        vfs.open();
        let db = u64_db(&vfs, cc, 17);
        for i in 0..4 {
            let before = vfs.counts();
            u64_bumped(&db, i * 4 + 1..i * 4 + 5).commit().unwrap();
            let (appends, bytes) = vfs.counts();
            let what = format!("{cc:?} commit {i}");
            assert_eq!(appends - before.0, 1, "{what}: appends");
            let framed = bytes - before.1;
            assert_eq!(framed, FLAT_COMMIT_BUDGET, "{what}: the frame is not the layout's");
        }
    }
}

// ---- One frame per commit, and one force per forced commit ----

/// `threads` flat committers on keys of their own, `commits` each.
fn commit_concurrently(db: &Db<u64, u64>, threads: u64, commits: u64) {
    std::thread::scope(|s| {
        for k in 0..threads {
            s.spawn(move || {
                for _ in 0..commits {
                    db.run(|t| t.rmw(&k, |v| v + 1).map(drop)).unwrap();
                }
            });
        }
    });
}

/// Concurrent committers in both modes: with a log, every top-level
/// commit appends one frame of its own, and under `WalFsync` is forced
/// on its own; nothing is coalesced. Without a log, whatever durability
/// the config names, nothing is appended or forced.
#[test]
fn concurrent_committers_frame_and_force_once_per_commit() {
    for cc in [CcMode::Locking, CcMode::Optimistic] {
        for durability in [Durability::Wal, Durability::WalFsync] {
            let what = format!("{cc:?} {durability:?}");
            let config = DbConfig::builder().cc_mode(cc).durability(durability).build();
            let vfs = Arc::new(MemVfs::new());
            let db: Db<u64, u64> = Db::open_with_vfs(vfs, LOG, config).unwrap();
            for k in 0..4 {
                db.insert(k, 0);
            }
            commit_concurrently(&db, 4, 25);
            let s = db.stats();
            assert_eq!(s.committed, 100, "{what}");
            assert_eq!(s.wal_appends, 4 + s.committed, "{what}: one frame per commit");
            let forced = if durability == Durability::WalFsync { s.committed } else { 0 };
            assert_eq!(s.wal_fsyncs, forced, "{what}: forces");
        }
        let db: Db<u64, u64> = Db::with_config(forced_config(cc));
        for k in 0..4 {
            db.insert(k, 0);
        }
        commit_concurrently(&db, 4, 25);
        let s = db.stats();
        assert_eq!(s.committed, 100, "{cc:?} in memory");
        assert_eq!((s.wal_appends, s.wal_fsyncs), (0, 0), "{cc:?} in memory");
    }
}
