//! The engine's internals — sharded registry, striped stats, snapshot
//! pin ring — through the public `Db` surface: a deterministic history
//! lands on the state a ten-line model says it must, the stats ledger
//! balances under concurrency (the striped fold loses nothing), and
//! snapshot pins taken under write churn are all released.

use rnt_core::{Db, DbConfig, DeadlockPolicy};
use std::sync::Arc;

fn db() -> Db<u64, i64> {
    Db::with_config(DbConfig::builder().policy(DeadlockPolicy::NoWait).build())
}

/// A deterministic single-threaded history commits to exactly the state
/// and the counters its engine-free model produces.
#[test]
fn deterministic_history_matches_its_model() {
    let db = db();
    for k in 0..64u64 {
        db.insert(k, 0);
    }
    // The model: aborted rounds leave the pre-image, the others add the
    // round number; (begun, committed, aborted, reads, writes) by shape.
    let mut model = [0i64; 64];
    let mut ledger = (0u64, 0u64, 0u64, 0u64, 0u64);
    for round in 0..10i64 {
        for k in 0..64u64 {
            if (k + round as u64).is_multiple_of(7) {
                // Aborted work must restore the pre-image.
                let t = db.begin();
                t.rmw(&k, |v| v + 1000).unwrap();
                t.abort();
                ledger = (ledger.0 + 1, ledger.1, ledger.2 + 1, ledger.3, ledger.4 + 1);
            } else {
                db.run(|t| {
                    let v = t.read(&k)?;
                    let c = t.child().unwrap();
                    c.rmw(&k, move |_| v + round)?;
                    c.commit()?;
                    Ok(())
                })
                .unwrap();
                model[k as usize] += round;
                ledger = (ledger.0 + 2, ledger.1 + 2, ledger.2, ledger.3 + 1, ledger.4 + 1);
            }
        }
    }
    let state: Vec<i64> = (0..64u64).map(|k| db.committed_value(&k).unwrap()).collect();
    assert_eq!(state, model, "committed state diverged from the model");
    let s = db.stats();
    assert_eq!(s.begun, s.committed + s.aborted, "ledger");
    assert!(s.reads > 0 && s.writes > 0, "op counters");
    assert_eq!((s.begun, s.committed, s.aborted, s.reads, s.writes), ledger, "counters");
}

/// Concurrent commits from many threads conserve the stats ledger: the
/// striped fold must lose nothing a single block would have counted.
#[test]
fn stats_conservation_under_concurrency() {
    let db = Arc::new(db());
    for k in 0..32u64 {
        db.insert(k, 0);
    }
    std::thread::scope(|s| {
        for w in 0..8u64 {
            let db = db.clone();
            s.spawn(move || {
                for i in 0..200u64 {
                    let k = (w * 31 + i) % 32;
                    db.run(|t| t.rmw(&k, |v| v + 1)).unwrap();
                }
            });
        }
    });
    let s = db.stats();
    assert_eq!(s.begun, s.committed + s.aborted, "ledger");
    assert_eq!(s.committed, 8 * 200, "every quota commit counted");
    let total: i64 = (0..32u64).map(|k| db.committed_value(&k).unwrap()).sum();
    assert_eq!(total, 8 * 200, "committed effects");
}

/// Snapshots opened under write churn stay consistent and release their
/// pins, whether they landed in the lock-free ring or fell back to the
/// locked table.
#[test]
fn snapshot_pins_release_under_churn() {
    let db = Arc::new(db());
    for k in 0..16u64 {
        db.insert(k, 0);
    }
    std::thread::scope(|s| {
        let writer = db.clone();
        s.spawn(move || {
            for i in 0..500i64 {
                writer.run(|t| t.rmw(&(i as u64 % 16), |v| v + 1)).unwrap();
            }
        });
        for _ in 0..4 {
            let reader = db.clone();
            s.spawn(move || {
                for _ in 0..200 {
                    let snap = reader.snapshot();
                    // A snapshot is a frozen epoch: re-reading a key
                    // must be stable no matter what the writer does.
                    let before = snap.read(&3);
                    let after = snap.read(&3);
                    assert_eq!(before, after, "snapshot drifted");
                }
            });
        }
    });
    // All pins released: a fresh snapshot sees the final state and
    // the epoch floor is free to advance past the churn.
    assert_eq!(db.stats().snapshot_pins_live, 0, "a pin outlived its snapshot");
    let snap = db.snapshot();
    let total: i64 = (0..16u64).map(|k| snap.read(&k).unwrap()).sum();
    assert_eq!(total, 500, "final state");
}
