//! Differential validation of the ordered keyspace: range scans and
//! time-travel snapshots against the chaos reference interpreter.
//!
//! Three layers:
//!
//! 1. **Seeded sweeps** (fresh seed windows, disjoint from
//!    `snapshot_sweep.rs`): the snapshot walker's range re-reads,
//!    time-travel reopens, and quiescent full scans run against the full
//!    fault mix — in memory, WAL-backed, and with machine crashes spliced
//!    into the plan. Each WAL run ends in the recovery oracle, which now
//!    demands the rebuilt ordered index walk the reference state in key
//!    order and that `recover ∘ recover` rebuild the identical index.
//! 2. **Property tests**: for any random committed history,
//!    `Snapshot::range(a..b)` at any pinned epoch equals the reference
//!    interpreter's `state_at(epoch)` filtered to `[a, b)` in key order —
//!    live, and again after recovering the full log.
//! 3. **Batch publication**: under multithreaded group commit (optimistic
//!    commits under `WalFsync`, the ones staged), snapshots
//!    never observe a half-published transaction and never pin an epoch
//!    strictly inside a batch's epoch run.

use proptest::prelude::*;
use rnt_chaos::recovery::{check_crash_recovery, reference_trace, WAL_PATH};
use rnt_chaos::{run, run_with_plan, ChaosConfig, FaultEvent, FaultKind, FaultPlan};
use rnt_core::{CcMode, Db, DbConfig, DeadlockPolicy, Durability, Snapshot};
use rnt_sim::reference::ScriptOp;
use rnt_wal::{scan, MemVfs, Record};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

mod common;
use common::SlowVfs;

#[test]
fn range_seed_sweep_in_memory() {
    // 1000 seeds beyond snapshot_sweep's window: the walker's range
    // re-reads and time-travel reopens vs the full injector fault mix.
    for seed in 1000..2000u64 {
        let report = run(&ChaosConfig::seeded_snapshots(seed));
        assert!(report.verdict.is_ok(), "seed {seed}: {:?}", report.verdict);
    }
}

#[test]
fn range_seed_sweep_wal() {
    // 1000 WAL-backed seeds: adds the per-pin reference-trace epoch
    // cross-check and the recovery oracle's ordered-index obligations.
    for seed in 1000..2000u64 {
        let report = run(&ChaosConfig::seeded_wal_snapshots(seed));
        assert!(report.verdict.is_ok(), "seed {seed}: {:?}", report.verdict);
        assert!(report.wal_records > 0, "seed {seed} logged nothing");
    }
}

#[test]
fn range_runs_survive_machine_crashes() {
    // 200 seeds with an explicit machine crash spliced in while range-
    // scanning snapshots hold live pins; the cut log must recover with
    // the ordered index rebuilt identically on a second recovery.
    let mut crashed_runs = 0;
    for seed in 200..400u64 {
        let config = ChaosConfig::seeded_wal_snapshots(seed);
        let mut plan = FaultPlan::generate(
            seed,
            config.faults,
            config.horizon(),
            config.workers,
            config.max_depth + 1,
        );
        let at_step = 3 + (seed as usize % 25);
        let record = 8 + seed % 40;
        plan.faults.push(FaultEvent { at_step, kind: FaultKind::CrashAfterRecord { record } });
        plan.faults.sort_by_key(|f| f.at_step);
        let report = run_with_plan(&config, &plan);
        assert!(report.verdict.is_ok(), "seed {seed}: {:?}", report.verdict);
        if report.faults_applied.iter().any(|f| f.contains("crash-after-record")) {
            crashed_runs += 1;
        }
    }
    assert!(crashed_runs >= 100, "only {crashed_runs}/200 runs actually crashed");
}

fn op_strategy(keys: u64) -> impl Strategy<Value = ScriptOp> {
    prop_oneof![
        3 => Just(ScriptOp::Begin),
        2 => (0..keys).prop_map(ScriptOp::Read),
        4 => (0..keys, -9i64..10).prop_map(|(k, d)| ScriptOp::Add(k, d)),
        3 => (0..keys, -99i64..100).prop_map(|(k, v)| ScriptOp::Write(k, v)),
        3 => Just(ScriptOp::Commit),
        2 => Just(ScriptOp::Abort),
    ]
}

/// Run a script single-threaded against a WAL-backed engine, committing
/// everything left open at the end. A snapshot pinned at genesis keeps
/// every published epoch travelable. Returns the live database, the
/// genesis pin (dropping it would let GC raise the floor), and the log.
fn run_committed_script(
    keys: u64,
    script: &[ScriptOp],
) -> (Db<u64, i64>, Snapshot<u64, i64>, Vec<u8>) {
    let vfs = Arc::new(MemVfs::new());
    let config = DbConfig::builder()
        .policy(DeadlockPolicy::NoWait)
        .audit(true)
        .durability(Durability::Wal)
        .build();
    let db: Db<u64, i64> = Db::open_with_vfs(vfs.clone(), WAL_PATH, config).expect("open");
    for k in 0..keys {
        db.insert(k, k as i64 * 10);
    }
    let genesis = db.snapshot();
    let mut open: Vec<rnt_core::Txn<u64, i64>> = Vec::new();
    for op in script {
        match op {
            ScriptOp::Begin => {
                let txn = match open.last() {
                    None => db.begin(),
                    Some(parent) => match parent.child() {
                        Ok(c) => c,
                        Err(_) => continue,
                    },
                };
                open.push(txn);
            }
            ScriptOp::Read(k) => {
                if let Some(txn) = open.last() {
                    let _ = txn.read(k);
                }
            }
            ScriptOp::Add(k, d) => {
                if let Some(txn) = open.last() {
                    let _ = txn.rmw(k, |v| v.wrapping_add(*d));
                }
            }
            ScriptOp::Write(k, v) => {
                if let Some(txn) = open.last() {
                    let _ = txn.write(k, *v);
                }
            }
            ScriptOp::Commit => {
                if let Some(txn) = open.pop() {
                    let _ = txn.commit();
                }
            }
            ScriptOp::Abort => {
                if let Some(txn) = open.pop() {
                    txn.abort();
                }
            }
        }
    }
    while let Some(txn) = open.pop() {
        let _ = txn.commit();
    }
    let bytes = vfs.snapshot(WAL_PATH);
    (db, genesis, bytes)
}

/// The reference state at `epoch`, filtered to `[lo, hi)` in key order.
fn reference_window(
    trace: &rnt_chaos::recovery::ReferenceTrace,
    epoch: u64,
    lo: u64,
    hi: u64,
) -> Vec<(u64, i64)> {
    trace.state_at(epoch).range(lo..hi).map(|(&k, &v)| (k, v)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any committed history × every published epoch × a random window:
    /// the pinned snapshot's range walk equals the reference
    /// interpreter's epoch state filtered to the window, in key order.
    #[test]
    fn any_committed_history_ranges_match_the_reference(
        keys in 2u64..8,
        script in prop::collection::vec(op_strategy(7), 0..70),
        lo_pick in 0u64..8,
        span in 0u64..9,
    ) {
        let (db, genesis, bytes) = run_committed_script(keys, &script);
        let (records, _) = scan(&bytes).expect("live log scans clean");
        let trace = reference_trace(&records).expect("reference accepts the engine log");
        let lo = lo_pick % (keys + 1);
        let hi = (lo + span).min(keys + 1);
        for epoch in 0..=trace.max_epoch() {
            let snap = db.snapshot_at(epoch).expect("pinned-at-genesis epochs stay servable");
            prop_assert_eq!(snap.epoch(), epoch);
            prop_assert_eq!(
                snap.range(lo..hi),
                reference_window(&trace, epoch, lo, hi),
                "window [{}, {}) diverges at epoch {}", lo, hi, epoch
            );
            let full: Vec<(u64, i64)> =
                trace.state_at(epoch).iter().map(|(&k, &v)| (k, v)).collect();
            prop_assert_eq!(snap.range(..), full, "full scan diverges at epoch {}", epoch);
        }
        drop(genesis);

        // After recovering the full log the ordered index comes back:
        // a fresh snapshot's range walk equals the reference committed
        // state — and the crash oracle (any-prefix variant lives in
        // prop_recovery.rs) accepts the whole log too.
        let vfs = Arc::new(MemVfs::new());
        vfs.install(WAL_PATH, bytes.clone());
        let config = DbConfig::builder()
            .policy(DeadlockPolicy::NoWait)
            .audit(true)
            .durability(Durability::Wal)
            .build();
        let recovered: Db<u64, i64> =
            Db::recover_with_vfs(vfs, WAL_PATH, config).expect("recover");
        let expect: Vec<(u64, i64)> =
            trace.committed().range(lo..hi).map(|(&k, &v)| (k, v)).collect();
        prop_assert_eq!(recovered.snapshot().range(lo..hi), expect);
        if let Err(e) = check_crash_recovery(&bytes) {
            prop_assert!(false, "full-log recovery oracle: {e}");
        }
    }
}

#[test]
fn snapshots_never_observe_a_half_published_batch() {
    // Four writers own disjoint key stripes; each transaction rewrites
    // its whole stripe to one uniform stamp, and group commit coalesces
    // the publications that queue behind a slow force (optimistic commits
    // under `WalFsync` are the ones staged). Concurrent scanners assert every range walk sees each
    // stripe uniform (publication is atomic even inside a batch), and
    // that every pinned epoch re-opens via `snapshot_at`.
    const WRITERS: u64 = 4;
    const STRIPE: u64 = 4;
    const ROUNDS: i64 = 40;
    let vfs = Arc::new(SlowVfs::new(Duration::from_micros(500)));
    let config = DbConfig::builder()
        .cc_mode(CcMode::Optimistic)
        .policy(DeadlockPolicy::NoWait)
        .durability(Durability::WalFsync)
        .build();
    let db = Arc::new(Db::<u64, i64>::open_with_vfs(vfs.clone(), WAL_PATH, config).expect("open"));
    for k in 0..WRITERS * STRIPE {
        db.insert(k, 0);
    }
    let done = Arc::new(AtomicBool::new(false));
    // Each round's writers finish their writes before any commits: an
    // optimistic begin waits out a force held under the publish gate, so
    // only a transaction already begun can queue behind one.
    let round_start = Arc::new(Barrier::new(WRITERS as usize));
    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let (db, round_start) = (db.clone(), round_start.clone());
            std::thread::spawn(move || {
                for round in 1..=ROUNDS {
                    let stamp = w as i64 * 10_000 + round;
                    let t = db.begin();
                    for k in w * STRIPE..(w + 1) * STRIPE {
                        t.write(&k, stamp).expect("stripes are disjoint");
                    }
                    round_start.wait();
                    t.commit().expect("no conflicts across stripes");
                }
            })
        })
        .collect();
    let scanners: Vec<_> = (0..2)
        .map(|_| {
            let db = db.clone();
            let done = done.clone();
            std::thread::spawn(move || {
                let mut pinned = Vec::new();
                while !done.load(Ordering::Acquire) {
                    let snap = db.snapshot();
                    pinned.push(snap.epoch());
                    let all = snap.range(..);
                    assert_eq!(all.len(), (WRITERS * STRIPE) as usize);
                    assert!(all.windows(2).all(|w| w[0].0 < w[1].0), "key order");
                    for w in 0..WRITERS {
                        let stripe = snap.range(w * STRIPE..(w + 1) * STRIPE);
                        assert!(
                            stripe.windows(2).all(|p| p[0].1 == p[1].1),
                            "half-published stripe visible: {stripe:?}"
                        );
                    }
                    // The pinned epoch is re-openable and identical.
                    let again = db.snapshot_at(snap.epoch()).expect("live pin stays servable");
                    assert_eq!(again.range(..), all);
                }
                pinned
            })
        })
        .collect();
    for h in writers {
        h.join().unwrap();
    }
    done.store(true, Ordering::Release);
    let pinned: Vec<u64> = scanners.into_iter().flat_map(|h| h.join().unwrap()).collect();
    assert!(!pinned.is_empty());

    // Epoch runs published by one multi-commit frame are atomic: no
    // scanner may have pinned an epoch strictly inside one (the
    // watermark jumps from below the run to its last epoch).
    let bytes = vfs.mem.snapshot(WAL_PATH);
    let (records, _) = scan(&bytes).expect("live log scans clean");
    let mut frames = 0usize;
    for r in &records {
        if let Record::Commit { commits } = r {
            if commits.len() < 2 {
                continue;
            }
            frames += 1;
            let epochs: Vec<u64> = commits.iter().map(|c| c.epoch).collect();
            assert!(
                epochs.windows(2).all(|w| w[1] == w[0] + 1),
                "batch epochs not consecutive: {epochs:?}"
            );
            let (first, last) = (epochs[0], *epochs.last().unwrap());
            for &p in &pinned {
                assert!(
                    p < first || p >= last,
                    "snapshot pinned epoch {p} strictly inside batch run [{first}, {last}]"
                );
            }
        }
    }
    assert!(frames >= 1, "group commit never coalesced; batching untested");
    assert_eq!(db.epochs().watermark, WRITERS * ROUNDS as u64);
}
