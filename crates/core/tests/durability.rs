//! Durability and crash-recovery integration tests for the WAL-backed
//! engine: committed top-level effects survive a crash, uncommitted and
//! in-flight effects do not, and recovery is idempotent.

use rnt_core::{CcMode, Db, DbConfig, DeadlockPolicy, Durability, Txn, TxnError};
use rnt_wal::faults::record_count;
use rnt_wal::{frame, scan, CommitEntry, MemVfs, Record, Vfs, WalError, INIT_ACTION, MAGIC};
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

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

// ---- group commit and hand-written format-04 logs ----

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
fn group_commit_log_recovers_identically_to_plain_commit_log() {
    // The same single-threaded workload, pipeline off and on: a batch of
    // one frames exactly what an unbatched commit does, so the logs are
    // byte-identical and so are the recoveries.
    let run = |group: bool| {
        let config = DbConfig::builder()
            .durability(Durability::Wal)
            .group_commit(group)
            .max_batch_wait(Duration::ZERO)
            .build();
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
    let (off, on) = (run(false), run(true));
    assert_eq!(off, on, "singleton batches must keep the log byte-identical");

    let fresh = Arc::new(MemVfs::new());
    fresh.install(LOG, on);
    let r = Db::<String, i64>::recover_with_vfs(fresh, LOG, wal_config()).unwrap();
    assert_eq!(r.committed_value(&"a".to_string()), Some(2));
    assert_eq!(r.committed_value(&"b".to_string()), Some(2));
}

#[test]
fn group_commit_fsync_acks_are_durable() {
    // WalFsync + group commit: every acked commit must survive a crash cut
    // at exactly the bytes on disk at ack time.
    let config = DbConfig::builder()
        .durability(Durability::WalFsync)
        .group_commit(true)
        .max_batch(8)
        .build();
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
    let s = db.stats();
    assert_eq!(s.commits_staged, 3);
    assert_eq!(s.commits_batched, 3);
    assert_eq!(s.wal_fsyncs, s.commit_batches, "one force per batch");
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

/// A [`MemVfs`] the test can stall — a slow disk it controls. Fsyncs
/// park while the disk is closed, unless let through one by one by
/// arrival ticket; appends park while held, passing one per token. It
/// counts the appends that land and their bytes. Everything else passes
/// straight through, including the armed faults of the inner `MemVfs`.
struct GateVfs {
    mem: MemVfs,
    gate: Mutex<Gate>,
    cv: Condvar,
    appends: AtomicU64,
    bytes: AtomicU64,
}

#[derive(Default)]
struct Gate {
    /// Whether fsyncs must wait.
    closed: bool,
    /// Fsyncs parked now; fsyncs ever arrived (an fsync's ticket is the
    /// count before it); fsyncs returned from the inner `MemVfs`.
    parked: usize,
    arrived: u64,
    returned: u64,
    /// Tickets let through a closed disk.
    released: Vec<u64>,
    /// `Some(n)`: appends are held, and `n` more may pass.
    append_tokens: Option<u64>,
    appends_parked: usize,
}

impl GateVfs {
    fn closed() -> Arc<Self> {
        Arc::new(GateVfs {
            mem: MemVfs::new(),
            gate: Mutex::new(Gate { closed: true, ..Gate::default() }),
            cv: Condvar::new(),
            appends: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        })
    }

    /// `(appends, bytes)` landed so far.
    fn counts(&self) -> (u64, u64) {
        (self.appends.load(SeqCst), self.bytes.load(SeqCst))
    }

    /// Wait (bounded) until `done` holds; false on timeout, so the caller
    /// can open the disk before failing.
    fn reaches(&self, done: impl Fn(&Gate) -> bool) -> bool {
        let guard = self.gate.lock().unwrap();
        let (_guard, timeout) = self.cv.wait_timeout_while(guard, PATIENCE, |g| !done(g)).unwrap();
        !timeout.timed_out()
    }

    /// Wait until `n` fsyncs are parked inside the Vfs at once.
    fn parks(&self, n: usize) -> bool {
        self.reaches(|g| g.parked >= n)
    }

    /// Block until an fsync is parked inside the Vfs.
    fn wait_parked(&self) {
        assert!(self.parks(1), "no fsync reached the disk");
    }

    /// Block until an append is parked inside the Vfs.
    fn wait_append_parked(&self) {
        assert!(self.reaches(|g| g.appends_parked > 0), "no append reached the disk");
    }

    /// Block until `n` fsyncs have returned from the inner `MemVfs`.
    fn wait_returned(&self, n: u64) {
        assert!(self.reaches(|g| g.returned >= n), "a released fsync never returned");
    }

    fn update(&self, change: impl FnOnce(&mut Gate)) {
        change(&mut self.gate.lock().unwrap());
        self.cv.notify_all();
    }

    /// Open the disk: nothing parks any more.
    fn open(&self) {
        self.update(|g| (g.closed, g.append_tokens) = (false, None));
    }

    /// Let fsyncs through; held appends stay held.
    fn open_fsyncs(&self) {
        self.update(|g| g.closed = false);
    }

    fn close(&self) {
        self.update(|g| g.closed = true);
    }

    /// Let the fsync with arrival ticket `ticket` through a closed disk.
    fn release(&self, ticket: u64) {
        self.update(|g| g.released.push(ticket));
    }

    /// Park every append from now on, until passed or the disk opens.
    fn hold_appends(&self) {
        self.update(|g| g.append_tokens = Some(0));
    }

    /// Let one held append through.
    fn pass_append(&self) {
        self.update(|g| g.append_tokens = g.append_tokens.map(|n| n + 1));
    }
}

impl Vfs for GateVfs {
    fn append(&self, path: &str, data: &[u8]) -> Result<(), WalError> {
        let mut gate = self.gate.lock().unwrap();
        gate.appends_parked += 1;
        self.cv.notify_all();
        gate = self.cv.wait_while(gate, |g| g.append_tokens == Some(0)).unwrap();
        gate.appends_parked -= 1;
        gate.append_tokens = gate.append_tokens.map(|n| n - 1);
        drop(gate);
        self.mem.append(path, data)?;
        self.appends.fetch_add(1, SeqCst);
        self.bytes.fetch_add(data.len() as u64, SeqCst);
        Ok(())
    }
    fn fsync(&self, path: &str) -> Result<(), WalError> {
        let mut gate = self.gate.lock().unwrap();
        let ticket = gate.arrived;
        gate.arrived += 1;
        gate.parked += 1;
        self.cv.notify_all();
        gate = self.cv.wait_while(gate, |g| g.closed && !g.released.contains(&ticket)).unwrap();
        gate.parked -= 1;
        drop(gate);
        let out = self.mem.fsync(path);
        self.update(|g| g.returned += 1);
        out
    }
    fn read(&self, path: &str) -> Result<Vec<u8>, WalError> {
        self.mem.read(path)
    }
    fn replace(&self, path: &str, data: &[u8]) -> Result<(), WalError> {
        self.mem.replace(path, data)
    }
    fn exists(&self, path: &str) -> bool {
        self.mem.exists(path)
    }
}

/// How long a test waits for something that must happen before it calls
/// it a hang.
const PATIENCE: Duration = Duration::from_secs(20);

fn key(i: usize) -> String {
    format!("k{i}")
}

fn group_fsync_config(cc: CcMode) -> DbConfig {
    DbConfig::builder()
        .durability(Durability::WalFsync)
        .group_commit(true)
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

/// Wait until `n` commits have been handed to the pipeline. False on
/// timeout, so the caller can open the gate before failing.
fn staged_reaches(db: &Db<String, i64>, n: u64) -> bool {
    let deadline = std::time::Instant::now() + PATIENCE;
    while db.stats().commits_staged < n {
        if std::time::Instant::now() > deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    true
}

/// While the batch leader is parked inside the force, another transaction
/// must be able to run its whole body and reach the commit queue: the
/// force holds no engine lock.
#[test]
fn transactions_keep_logging_while_a_batch_is_being_forced() {
    let vfs = GateVfs::closed();
    let db: Db<String, i64> =
        Db::open_with_vfs(vfs.clone(), LOG, group_fsync_config(CcMode::Locking)).unwrap();
    for k in 0..8 {
        db.insert(key(k), 0);
    }
    let first = spawn_bump(&db, 0..4);
    vfs.wait_parked();
    assert_eq!(db.stats().commits_staged, 1);

    let second = spawn_bump(&db, 4..8);
    let reached_queue = staged_reaches(&db, 2);
    // Whatever happened, let the disk finish so no thread outlives the test.
    vfs.open();
    assert!(reached_queue, "begin + 4 rmw + stage must not wait for another batch's fsync");
    assert_eq!(first.recv_timeout(PATIENCE).unwrap(), Ok(()));
    assert_eq!(second.recv_timeout(PATIENCE).unwrap(), Ok(()));

    let s = db.stats();
    assert_eq!((s.commit_batches, s.commits_batched, s.wal_fsyncs), (2, 2, 2));
    let r = crash_recover(&vfs.mem, wal_config());
    for k in 0..8 {
        assert_eq!(r.committed_value(&key(k)), Some(1), "both acked commits recover ({k})");
    }
}

/// Optimistic phase-1 validation runs before the publish gate: with the
/// pipeline off, a commit whose footprint an earlier commit overtook is
/// refused while another commit holds the gate, parked in its fsync — and
/// it burns no epoch.
#[test]
fn an_overtaken_optimistic_commit_loses_outside_the_gate() {
    let vfs = GateVfs::closed();
    vfs.open();
    let config =
        DbConfig::builder().durability(Durability::WalFsync).cc_mode(CcMode::Optimistic).build();
    let db: Db<String, i64> = Db::open_with_vfs(vfs.clone(), LOG, config).unwrap();
    db.insert(key(0), 0);
    db.insert(key(1), 0);
    let loser = bumped(&db, 0..1).unwrap();
    bump(&db, 0..1).unwrap();
    // Begun before the disk stalls: an optimistic begin pins its snapshot
    // through the gate's lock while a publisher holds it.
    let forcer = bumped(&db, 1..2).unwrap();
    vfs.close();
    let forcing = spawn(move || forcer.commit());
    vfs.wait_parked();
    let watermark = db.epochs().watermark;
    let lost = spawn(move || loser.commit()).recv_timeout(PATIENCE);
    vfs.open();
    assert!(matches!(lost, Ok(Err(TxnError::Conflict { .. }))), "got {lost:?}");
    assert_eq!(forcing.recv_timeout(PATIENCE).unwrap(), Ok(()));
    assert_eq!(db.epochs().watermark, watermark + 1, "only the forcing commit took an epoch");
}

#[derive(Clone, Copy, Debug)]
enum VfsFault {
    Fsync,
    Append,
}

/// After a batch failed: its keys are writable (locks released / nothing
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

/// A singleton batch (and the inline, pipeline-off path) whose force or
/// commit-record append fails.
#[test]
fn a_failing_force_poisons_singleton_commits_in_both_modes() {
    for cc in [CcMode::Locking, CcMode::Optimistic] {
        for group in [false, true] {
            for fault in [VfsFault::Fsync, VfsFault::Append] {
                let what = format!("{cc:?} group_commit={group} {fault:?}");
                let mut config = group_fsync_config(cc);
                config.group_commit = group;
                let (vfs, db) = open_mem(config);
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
                let s = db.stats();
                assert_eq!(s.commits_staged, s.commits_batched, "{what}: nobody left in the queue");
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
}

/// A multi-participant batch whose force fails: the leader is held while
/// two more commits queue up behind it; they retire as one batch, the
/// disk refuses it, and **both** must hear `Wal`. An optimistic leader
/// holds leadership across its force, so it is held in its fsync. A
/// locking one holds leadership only while it sequences, so it is held
/// in its commit-frame append — and then, its frame landed, its force
/// returns before the followers' frame is let through, which fixes the
/// order the two runs reach the disk in.
#[test]
fn a_failing_force_fails_every_participant_of_a_multi_batch() {
    for cc in [CcMode::Locking, CcMode::Optimistic] {
        for fault in [VfsFault::Fsync, VfsFault::Append] {
            let what = format!("{cc:?} {fault:?}");
            let locking = cc == CcMode::Locking;
            let vfs = GateVfs::closed();
            let db: Db<String, i64> =
                Db::open_with_vfs(vfs.clone(), LOG, group_fsync_config(cc)).unwrap();
            for k in 0..6 {
                db.insert(key(k), 0);
            }
            // The followers begin before the leader takes the disk: an
            // optimistic `begin` pins its snapshot under the publish
            // gate, which the optimistic leader holds across the force.
            let followers = [2..4, 4..6].map(|keys| bumped(&db, keys).unwrap());
            if locking {
                vfs.hold_appends();
            }
            let leader = spawn_bump(&db, 0..2);
            if locking {
                vfs.wait_append_parked();
            } else {
                vfs.wait_parked();
            }
            let followers = followers.map(|t| spawn(move || t.commit()));
            let queued = staged_reaches(&db, 3);
            if locking {
                vfs.pass_append();
                vfs.wait_parked();
            }
            match fault {
                // The leader's own fsync is the first to reach the inner
                // MemVfs once the gate opens; the next one fails.
                VfsFault::Fsync => vfs.mem.arm_fsync_error(1),
                // The followers log nothing before staging; the next
                // append is their batch's commit frame.
                VfsFault::Append => vfs.mem.arm_append_error(0),
            }
            if locking {
                // The followers' sequencer sits in its held append, under
                // the publish gate: the leader can force, not publish.
                vfs.open_fsyncs();
                vfs.wait_returned(1);
            }
            vfs.open();
            assert!(queued, "{what}: followers never reached the queue");
            assert_eq!(leader.recv_timeout(PATIENCE).unwrap(), Ok(()), "{what}");
            for f in followers {
                let verdict = f.recv_timeout(PATIENCE).expect("a stager stayed parked");
                assert!(matches!(verdict, Err(TxnError::Wal { .. })), "{what}: got {verdict:?}");
            }
            let s = db.stats();
            assert_eq!(s.commit_batches, 2, "{what}: [leader] then [both followers]");
            assert_eq!(s.commits_staged, s.commits_batched, "{what}: nobody left in the queue");
            assert_released_and_poisoned(&db, 0..6, &what);

            // The log stopped at the failure: the leader's acked commit
            // recovers, the refused batch recovers whole or not at all.
            let r = crash_recover(&vfs.mem, wal_config());
            assert_eq!(r.committed_value(&key(0)), Some(1), "{what}: the acked commit");
            let batch: Vec<_> = (2..6).map(|k| r.committed_value(&key(k))).collect();
            assert!(
                batch.iter().all(|v| *v == batch[0]) && batch[0] <= Some(1),
                "{what}: the refused batch recovered as {batch:?}"
            );
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
/// holds neither the checkpoint latch exclusively nor the log mutex, so
/// the seed's record lands behind the parked commit's frame.
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

// ---- Forces overlap; publication and verdicts follow epoch order ----

/// Two locking commits are parked in their forces at once, with the
/// pipeline off and on: neither the publish gate nor pipeline leadership
/// is held across a force. Both ack once the disk opens, and both recover.
#[test]
fn two_locking_commits_are_forced_at_once() {
    for group in [false, true] {
        let vfs = GateVfs::closed();
        let mut config = group_fsync_config(CcMode::Locking);
        config.group_commit = group;
        let db: Db<String, i64> = Db::open_with_vfs(vfs.clone(), LOG, config).unwrap();
        for k in 0..4 {
            db.insert(key(k), 0);
        }
        let first = spawn_bump(&db, 0..2);
        vfs.wait_parked();
        let second = spawn_bump(&db, 2..4);
        let both = vfs.parks(2);
        vfs.open();
        assert!(both, "group_commit={group}: the second force waited for the first");
        assert_eq!(first.recv_timeout(PATIENCE).unwrap(), Ok(()), "group_commit={group}");
        assert_eq!(second.recv_timeout(PATIENCE).unwrap(), Ok(()), "group_commit={group}");
        assert_eq!(db.stats().wal_fsyncs, 2, "group_commit={group}");
        let r = crash_recover(&vfs.mem, wal_config());
        for k in 0..4 {
            assert_eq!(r.committed_value(&key(k)), Some(1), "group_commit={group}: key {k}");
        }
    }
}

/// A snapshot opens while a locking commit is parked in its force, and
/// reads the state before that commit: the force holds no publish gate
/// for the pin to queue on, and nothing of the commit is visible yet.
#[test]
fn a_snapshot_opens_while_a_locking_force_is_parked() {
    let vfs = GateVfs::closed();
    let db: Db<String, i64> = Db::open_with_vfs(vfs.clone(), LOG, fsync_config()).unwrap();
    db.insert(key(0), 0);
    let forcing = spawn_bump(&db, 0..1);
    vfs.wait_parked();
    let (tx, rx) = std::sync::mpsc::channel();
    {
        let db = db.clone();
        std::thread::spawn(move || {
            let snapshot = db.snapshot();
            let _ = tx.send((snapshot.epoch(), snapshot.read(&key(0))));
        });
    }
    let seen = rx.recv_timeout(PATIENCE);
    vfs.open();
    assert_eq!(seen, Ok((0, Some(0))), "the snapshot waited for the force, or saw it");
    assert_eq!(forcing.recv_timeout(PATIENCE).unwrap(), Ok(()));
    assert_eq!(db.snapshot().read(&key(0)), Some(1));
}

/// Verdicts follow epoch order, not the order forces finish. Two locking
/// runs are parked in their forces, and reach the inner disk one at a
/// time, the first of them failing. A later run's failure retracts
/// nothing from the earlier run, whose own force covered its frame: it
/// acks and recovers. An earlier run's failure fails the later run too:
/// with the earlier frame lost, recovery stops before the later one.
#[test]
fn durability_verdicts_follow_epoch_order() {
    for group in [false, true] {
        for later_fails in [true, false] {
            let what = format!("group_commit={group} later_fails={later_fails}");
            let vfs = GateVfs::closed();
            let mut config = group_fsync_config(CcMode::Locking);
            config.group_commit = group;
            let db: Db<String, i64> = Db::open_with_vfs(vfs.clone(), LOG, config).unwrap();
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

/// A format-03 log, as committed next to the format's golden fixtures, is
/// refused by recovery at its magic.
#[test]
fn a_format_03_log_is_rejected_with_bad_magic() {
    let old = include_bytes!("../../wal/tests/golden/format03_single_commit.wal");
    assert_eq!(&old[..MAGIC.len()], b"RNTWAL03");
    let vfs = Arc::new(MemVfs::new());
    vfs.install(LOG, old.to_vec());
    let err = Db::<String, i64>::recover_with_vfs(vfs, LOG, wal_config()).unwrap_err();
    assert_eq!(err, WalError::BadMagic);
}

// ---- The log's budget: bytes and appends per commit ----

/// The frame of a flat commit of four `u64` writes: 8 header bytes, a tag
/// and a count, the entry's action, epoch and write count, and four
/// length-prefixed `(key, value)` pairs — 129 bytes.
const FLAT_COMMIT_BUDGET: u64 = 130;

/// A `u64` database on `vfs` with `keys` seeded keys.
fn u64_db(vfs: &Arc<GateVfs>, cc: CcMode, group: bool, keys: u64) -> Db<u64, u64> {
    let config = DbConfig::builder()
        .durability(Durability::WalFsync)
        .cc_mode(cc)
        .group_commit(group)
        .build();
    let db = Db::open_with_vfs(vfs.clone(), LOG, config).unwrap();
    for k in 0..keys {
        db.insert(k, 0);
    }
    db
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
/// increments appends one frame within budget, in both modes, with the
/// pipeline off and on. Format 03 took six appends and 208 bytes.
#[test]
fn a_flat_commit_of_four_writes_is_one_frame_within_budget() {
    for cc in [CcMode::Locking, CcMode::Optimistic] {
        for group in [false, true] {
            let vfs = GateVfs::closed();
            vfs.open();
            let db = u64_db(&vfs, cc, group, 16);
            for i in 0..4 {
                let before = vfs.counts();
                u64_bumped(&db, i * 4..i * 4 + 4).commit().unwrap();
                let (appends, bytes) = vfs.counts();
                let what = format!("{cc:?} group_commit={group} commit {i}");
                assert_eq!(appends - before.0, 1, "{what}: appends");
                let framed = bytes - before.1;
                assert!(framed <= FLAT_COMMIT_BUDGET, "{what}: {framed} B over budget");
            }
        }
    }
}

/// A batch of `n` commits, for every `n` from 1 to 4, retires with
/// exactly one `Vfs::append`: the followers queue behind a leader parked
/// while it holds leadership — an optimistic one in its fsync, a locking
/// one in its commit-frame append, after which it parks in its fsync —
/// then retire together once the disk opens. No timing decides what is
/// asserted.
#[test]
fn a_retired_batch_of_any_size_is_one_append() {
    for cc in [CcMode::Locking, CcMode::Optimistic] {
        for n in 1..=4u64 {
            let what = format!("{cc:?} batch of {n}");
            let vfs = GateVfs::closed();
            vfs.open();
            let db = u64_db(&vfs, cc, true, 2 * (n + 1));
            // Begun before the leader holds the disk: an optimistic begin
            // pins its snapshot under the gate the leader holds.
            let followers: Vec<_> = (1..=n).map(|i| u64_bumped(&db, 2 * i..2 * i + 2)).collect();
            let locking = cc == CcMode::Locking;
            vfs.close();
            if locking {
                vfs.hold_appends();
            }
            let leader = {
                let db = db.clone();
                std::thread::spawn(move || u64_bumped(&db, 0..2).commit())
            };
            if locking {
                vfs.wait_append_parked();
            } else {
                vfs.wait_parked();
            }
            let followers: Vec<_> =
                followers.into_iter().map(|t| std::thread::spawn(move || t.commit())).collect();
            let deadline = std::time::Instant::now() + PATIENCE;
            while db.stats().commits_staged < n + 1 && std::time::Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            let queued = db.stats().commits_staged == n + 1;
            if locking {
                vfs.pass_append();
                vfs.wait_parked();
            }
            let before = vfs.counts().0;
            vfs.open();
            assert!(queued, "{what}: followers never reached the queue");
            assert_eq!(leader.join().unwrap(), Ok(()), "{what}");
            for f in followers {
                assert_eq!(f.join().unwrap(), Ok(()), "{what}");
            }
            assert_eq!(vfs.counts().0 - before, 1, "{what}: appends to retire the batch");
            assert_eq!(db.stats().commit_batches, 2, "{what}: [leader] then the followers");
            match records_of(&vfs.mem).last() {
                Some(Record::Commit { commits }) => assert_eq!(commits.len() as u64, n, "{what}"),
                other => panic!("{what}: the log ends in {other:?}"),
            }
        }
    }
}
