//! The crash-point matrix: a scripted 3-deep nested workload is run
//! against a WAL-backed engine, then the log is cut at *every* record
//! boundary — and, separately, at every byte offset — and each prefix
//! must pass the full recovery oracle (differential vs the reference
//! interpreter, lock invariants, accounting, idempotence).
//!
//! The record-boundary sweep models a clean crash between two writes; the
//! byte-offset sweep models a torn write anywhere, including inside the
//! file magic. There is no crash point the engine is allowed to lose
//! committed top-level work at, and none where uncommitted work may leak.

use rnt_chaos::recovery::{check_crash_recovery, WAL_PATH};
use rnt_chaos::{run_with_plan, ChaosConfig, FaultEvent, FaultKind, FaultPlan};
use rnt_core::{CcMode, Db, DbConfig, DeadlockPolicy, Durability};
use rnt_wal::faults::{cut_at_record, record_count, record_offsets};
use rnt_wal::{frame, scan, CommitEntry, MemVfs, Record, INIT_ACTION, MAGIC};
use std::sync::Arc;

mod common;
use common::gate::GateVfs;

fn wal_db() -> (Arc<MemVfs>, Db<u64, i64>) {
    let vfs = Arc::new(MemVfs::new());
    let config = DbConfig::builder()
        .policy(DeadlockPolicy::NoWait)
        .audit(true)
        .durability(Durability::Wal)
        .build();
    let db = Db::open_with_vfs(vfs.clone(), WAL_PATH, config).expect("open");
    (vfs, db)
}

/// A deterministic workload exercising every transition the recovery path
/// must get right: 3-deep nesting, sibling aborts, an orphaned subtree,
/// interleaved top-level transactions, and an in-flight transaction left
/// open at the end (the crash's casualty). Only seeds and top-level
/// commits reach the log; everything else must leave no trace.
fn scripted_log() -> Vec<u8> {
    let (vfs, db) = wal_db();
    for k in 0..4u64 {
        db.insert(k, k as i64 * 10);
    }

    // t1: full 3-deep chain, everything commits.
    let t1 = db.begin();
    let c1 = t1.child().unwrap();
    let g1 = c1.child().unwrap();
    g1.rmw(&0, |v| v + 1).unwrap();
    g1.commit().unwrap();
    c1.rmw(&0, |v| v * 2).unwrap();
    c1.commit().unwrap();
    t1.rmw(&1, |v| v + 5).unwrap();
    t1.commit().unwrap();

    // t2: a committed child and an aborted sibling, then top commit.
    let t2 = db.begin();
    let keep = t2.child().unwrap();
    keep.rmw(&2, |v| v + 100).unwrap();
    keep.commit().unwrap();
    let lose = t2.child().unwrap();
    lose.rmw(&3, |v| v + 100).unwrap();
    lose.abort();
    t2.commit().unwrap();

    // t3: the parent aborts under a live grandchild — an orphaned subtree.
    let t3 = db.begin();
    let c3 = t3.child().unwrap();
    let g3 = c3.child().unwrap();
    g3.rmw(&1, |v| v - 1).unwrap();
    t3.abort(); // c3 and g3 are now orphans
    drop(g3);
    drop(c3);

    // t4: committed work...
    let t4 = db.begin();
    t4.rmw(&2, |v| v - 7).unwrap();
    t4.commit().unwrap();

    // ...and t5 still in flight when the machine dies.
    let t5 = db.begin();
    let c5 = t5.child().unwrap();
    c5.rmw(&3, |v| v + 1).unwrap();
    c5.commit().unwrap();
    std::mem::forget(t5); // in flight: its commit frame never lands

    vfs.snapshot(WAL_PATH)
}

#[test]
fn every_record_boundary_recovers() {
    let bytes = scripted_log();
    let total = record_count(&bytes);
    assert_eq!(total, 7, "4 seeds and the commit frames of t1, t2 and t4");
    for cut in 0..=total {
        let prefix = cut_at_record(&bytes, cut);
        if let Err(e) = check_crash_recovery(&prefix) {
            panic!("crash after record {cut}/{total}: {e}");
        }
    }
}

#[test]
fn every_byte_offset_recovers() {
    let bytes = scripted_log();
    for len in 0..=bytes.len() {
        if let Err(e) = check_crash_recovery(&bytes[..len]) {
            panic!("crash after byte {len}/{}: {e}", bytes.len());
        }
    }
}

#[test]
fn post_checkpoint_crash_points_recover() {
    // Same sweep, but with a checkpoint in the middle of the history: cuts
    // landing after the rewrite must replay snapshot + suffix correctly.
    let (vfs, db) = wal_db();
    for k in 0..4u64 {
        db.insert(k, k as i64 * 10);
    }
    let t = db.begin();
    t.rmw(&0, |v| v + 1).unwrap();
    t.commit().unwrap();
    let live = db.begin();
    live.rmw(&1, |v| v + 1).unwrap();
    db.checkpoint().unwrap(); // `live` has nothing in the log to keep
    live.rmw(&2, |v| v + 1).unwrap();
    live.commit().unwrap();
    let t = db.begin();
    t.rmw(&3, |v| v + 1).unwrap();
    t.commit().unwrap();

    let bytes = vfs.snapshot(WAL_PATH);
    let total = record_count(&bytes);
    for cut in 0..=total {
        let prefix = cut_at_record(&bytes, cut);
        if let Err(e) = check_crash_recovery(&prefix) {
            panic!("crash after record {cut}/{total}: {e}");
        }
    }
}

#[test]
fn open_snapshots_at_crash_time_never_block_recovery() {
    // Snapshot pins are pure RAM: a crash with snapshots open must recover
    // exactly like one without. The pinned (superseded) versions they were
    // holding must NOT resurface in the recovered instance — its chains
    // collapse to length 1 — while the survivor process's pins stay frozen
    // and readable throughout every recovery of its log.
    let (vfs, db) = wal_db();
    for k in 0..4u64 {
        db.insert(k, k as i64 * 10);
    }
    let s0 = db.snapshot(); // pins the pre-history state
    let mut mid = None;
    for i in 0..6 {
        let t = db.begin();
        t.rmw(&(i % 4), |v| v + 1).unwrap();
        t.commit().unwrap();
        if i == 2 {
            mid = Some(db.snapshot()); // pins a mid-history epoch
        }
    }
    let mid = mid.unwrap();
    assert!(
        (0..4u64).map(|k| db.history(&k).len()).sum::<usize>() > 4,
        "the pins must be holding superseded versions for this test to bite"
    );

    let bytes = vfs.snapshot(WAL_PATH);
    let total = record_count(&bytes);
    for cut in 0..=total {
        let prefix = cut_at_record(&bytes, cut);
        if let Err(e) = check_crash_recovery(&prefix) {
            panic!("crash after record {cut}/{total} with open snapshots: {e}");
        }
        // Full-log cut: the recovered peer must agree with the survivor's
        // present, and must hold no memory of the pinned old versions.
        if cut == total {
            let fresh = Arc::new(MemVfs::new());
            fresh.install(WAL_PATH, prefix.clone());
            let config = DbConfig::builder().durability(Durability::Wal).build();
            let r = Db::<u64, i64>::recover_with_vfs(fresh, WAL_PATH, config).expect("recover");
            for k in 0..4u64 {
                assert_eq!(r.committed_value(&k), db.committed_value(&k));
                assert_eq!(r.history(&k).len(), 1, "pins must not survive a crash");
            }
            assert_eq!(r.stats().snapshot_pins_live, 0);
        }
    }
    // The survivor's pins never moved while its log was being recovered.
    assert_eq!(s0.read(&0), Some(0));
    assert_eq!(s0.read(&3), Some(30));
    assert_eq!(mid.read(&0), Some(1));
    assert_eq!(mid.read(&2), Some(21));
}

// ---- the multi-commit frame crash matrix ----
//
// The engine frames one commit per `Commit` record, but format 05 still
// decodes frames of several, as earlier engines wrote them: recovery must
// keep applying such a frame whole or not at all.

fn enc_k(k: u64) -> Vec<u8> {
    rnt_wal::encode_to_vec(&k)
}

fn enc_v(v: i64) -> Vec<u8> {
    rnt_wal::encode_to_vec(&v)
}

fn commit(action: u64, epoch: u64, writes: &[(u64, i64)]) -> CommitEntry {
    let writes = writes.iter().map(|&(k, v)| (enc_k(k), enc_v(v))).collect();
    CommitEntry { action, epoch, writes }
}

/// A handcrafted format-05 log whose centerpiece is a three-participant
/// commit frame (participant 1's write set is what a committed child
/// handed up), followed by a post-batch singleton commit. A transaction
/// in flight at the crash has no bytes here at all.
fn batch_records() -> Vec<Record> {
    let mut records: Vec<Record> = (0..6u64)
        .map(|k| Record::Write {
            action: INIT_ACTION,
            key: enc_k(k),
            version: enc_v(k as i64 * 10),
        })
        .collect();
    records.extend([
        Record::Commit {
            commits: vec![
                commit(0, 1, &[(0, 100)]),
                commit(1, 2, &[(1, 101)]),
                commit(2, 3, &[(2, 102)]),
            ],
        },
        Record::Commit { commits: vec![commit(4, 4, &[(3, 104)])] },
    ]);
    records
}

fn encode_log(records: &[Record]) -> Vec<u8> {
    let mut bytes = MAGIC.to_vec();
    for r in records {
        bytes.extend_from_slice(&frame(r));
    }
    bytes
}

fn recover_values(bytes: &[u8], keys: u64) -> Vec<Option<i64>> {
    let vfs = Arc::new(MemVfs::new());
    vfs.install(WAL_PATH, bytes.to_vec());
    let config = DbConfig::builder().durability(Durability::Wal).build();
    let db = Db::<u64, i64>::recover_with_vfs(vfs, WAL_PATH, config).expect("recover");
    (0..keys).map(|k| db.committed_value(&k)).collect()
}

/// A commit frame that coalesced more than one commit.
fn is_batch(r: &Record) -> bool {
    matches!(r, Record::Commit { commits } if commits.len() > 1)
}

/// Every record-boundary and every byte-offset cut of a batch-bearing log
/// passes the full recovery oracle — the PR-3 matrix extended across a
/// multi-commit batch.
#[test]
fn batch_log_every_crash_point_recovers() {
    let bytes = encode_log(&batch_records());
    let total = record_count(&bytes);
    for cut in 0..=total {
        let prefix = cut_at_record(&bytes, cut);
        if let Err(e) = check_crash_recovery(&prefix) {
            panic!("crash after record {cut}/{total}: {e}");
        }
    }
    for len in 0..=bytes.len() {
        if let Err(e) = check_crash_recovery(&bytes[..len]) {
            panic!("crash after byte {len}/{}: {e}", bytes.len());
        }
    }
}

/// The all-or-nothing obligation, stated directly on recovered values: a
/// cut anywhere *inside* the batch frame recovers NONE of the three
/// participants' effects; a cut at or past the frame end recovers ALL of
/// them. No crash point exists where the batch is partially applied.
#[test]
fn batch_is_all_or_nothing_at_every_byte() {
    let records = batch_records();
    let bytes = encode_log(&records);
    let offsets = record_offsets(&bytes);
    let idx = records.iter().position(is_batch).expect("the log has a batch");
    let (batch_start, batch_end) = (offsets[idx], offsets[idx + 1]);
    for cut in batch_start..batch_end {
        let got = recover_values(&bytes[..cut], 3);
        assert_eq!(
            got,
            vec![Some(0), Some(10), Some(20)],
            "cut {cut} bytes in (batch frame spans {batch_start}..{batch_end}): \
             a torn batch must leave every participant unapplied"
        );
    }
    let got = recover_values(&bytes[..batch_end], 3);
    assert_eq!(
        got,
        vec![Some(100), Some(101), Some(102)],
        "the intact frame must apply every participant"
    );
}

/// The same matrix over a log the *engine* wrote with its forces
/// overlapping: real threads commit optimistically under `WalFsync`, and
/// every one of them is sequenced — epoch reserved, frame appended —
/// while the others are parked in their forces on a closed disk. Each
/// commit is a frame of its own; every record boundary, and every byte
/// of every commit frame, must recover.
#[test]
fn engine_written_overlapping_forces_crash_matrix() {
    const THREADS: usize = 4;
    let vfs = GateVfs::closed();
    let config = DbConfig::builder()
        .cc_mode(CcMode::Optimistic)
        .policy(DeadlockPolicy::NoWait)
        .audit(true)
        .durability(Durability::WalFsync)
        .build();
    let db = Db::<u64, i64>::open_with_vfs(vfs.clone(), WAL_PATH, config).expect("open");
    for k in 0..THREADS as u64 {
        db.insert(k, k as i64 * 10);
    }
    let committing: Vec<_> = (0..THREADS as u64)
        .map(|k| {
            let db = db.clone();
            std::thread::spawn(move || db.run(|t| t.rmw(&k, |v| v + 100).map(drop)))
        })
        .collect();
    let overlapped = vfs.parks(THREADS);
    vfs.open();
    assert!(overlapped, "the forces never overlapped");
    for h in committing {
        h.join().unwrap().unwrap();
    }
    let stats = db.stats();
    assert_eq!(stats.wal_fsyncs, THREADS as u64, "one force per commit");

    let bytes = vfs.mem.snapshot(WAL_PATH);
    let (records, _) = scan(&bytes).expect("engine log scans");
    let frames = records.iter().filter(|r| matches!(r, Record::Commit { .. })).count();
    assert_eq!(frames, THREADS, "one frame per commit");
    assert!(!records.iter().any(is_batch), "no frame carries two commits");

    let total = record_count(&bytes);
    for cut in 0..=total {
        let prefix = cut_at_record(&bytes, cut);
        if let Err(e) = check_crash_recovery(&prefix) {
            panic!("crash after record {cut}/{total} of the engine log: {e}");
        }
    }
    // Byte sweep across every commit frame.
    let offsets = record_offsets(&bytes);
    let first = records.iter().position(|r| matches!(r, Record::Commit { .. })).expect("framed");
    for len in offsets[first]..=offsets[records.len()] {
        if let Err(e) = check_crash_recovery(&bytes[..len]) {
            panic!("crash {} bytes into the engine's commit frames: {e}", len - offsets[first]);
        }
    }
}

#[test]
fn driver_crash_faults_pass_the_recovery_oracle() {
    // Inject machine crashes into seeded chaos runs at varied record
    // counts: every run must still pass its oracle chain, which now ends
    // with recovery of the crash-cut log.
    let mut crashed_runs = 0;
    for seed in 0..12u64 {
        let config = ChaosConfig::seeded_wal(seed);
        let mut plan = FaultPlan::generate(
            seed,
            config.faults,
            config.horizon(),
            config.workers,
            config.max_depth + 1,
        );
        let at_step = 5 + (seed as usize % 20);
        let record = 10 + seed * 7;
        plan.faults.push(FaultEvent { at_step, kind: FaultKind::CrashAfterRecord { record } });
        plan.faults.sort_by_key(|f| f.at_step);
        let report = run_with_plan(&config, &plan);
        assert!(report.verdict.is_ok(), "seed {seed}: {:?}", report.verdict);
        if report.faults_applied.iter().any(|f| f.contains("crash-after-record")) {
            crashed_runs += 1;
            assert!(
                report.wal_records as u64 <= record + 1,
                "seed {seed}: {} records on disk after crash armed at {record}",
                report.wal_records
            );
        }
    }
    assert!(crashed_runs >= 6, "only {crashed_runs}/12 runs actually crashed");
}

#[test]
fn wal_mode_seed_sweep_passes() {
    // WAL-backed runs with the ordinary fault mix (no crash): the post-run
    // recovery oracle rides along on every run.
    for seed in 0..20u64 {
        let report = rnt_chaos::run(&ChaosConfig::seeded_wal(seed));
        assert!(report.verdict.is_ok(), "seed {seed}: {:?}", report.verdict);
        assert!(report.wal_records > 0, "seed {seed} logged nothing");
    }
}
