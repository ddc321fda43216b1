//! Targeted-wakeup protocol integration tests: notify-driven progress
//! (no reliance on `wait_slice` polling), exact spurious/productive
//! wakeup accounting, orphaned-waiter wakeups, and `Db::run` forward
//! progress under wait-die.
//!
//! The tests configure a *huge* `wait_slice` so that any progress they
//! observe must come from a targeted notification — if a wakeup were
//! lost, the test would stall for seconds and the elapsed-time asserts
//! would fail.

use rnt_core::{Db, DbConfig, DeadlockPolicy, TxnError};
use std::time::{Duration, Instant};

/// A config where polling cannot masquerade as progress: a waiter that
/// misses its notification sleeps ~10 s, well inside its 30 s timeout.
fn notify_only() -> DbConfig {
    DbConfig::builder()
        .policy(DeadlockPolicy::Timeout(Duration::from_secs(30)))
        .wait_slice(Duration::from_secs(10))
        .build()
}

/// Lost-wakeup regression: many waiters pile up on ONE key while a chain
/// of writers churns it. Every waiter that records a conflict and parks
/// must observe the release — with the poll loop disabled, a single lost
/// wakeup costs 10 s and trips the deadline assert.
#[test]
fn release_wakes_all_waiters_on_the_key() {
    let db: Db<u64, i64> = Db::with_config(notify_only());
    db.insert(0, 0);
    let holder = db.begin();
    holder.write(&0, 1).unwrap();

    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..8 {
            let db = db.clone();
            scope.spawn(move || {
                // Blocks on the held key; woken only by a notification.
                let t = db.begin();
                assert_eq!(t.read(&0).unwrap(), 1);
                t.commit().unwrap();
            });
        }
        // Give the waiters time to conflict and park, then release.
        std::thread::sleep(Duration::from_millis(100));
        holder.commit().unwrap();
    });
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "waiters were not woken by the release (took {:?})",
        start.elapsed()
    );
    let s = db.stats();
    assert!(s.waits > 0, "waiters must actually have parked");
    assert!(s.wakeups_productive > 0, "release must register as productive wakeups");
}

/// Writer churn on one key: a queue of writers each holding briefly, with
/// waiters re-parking between grants. No schedule may lose a wakeup.
#[test]
fn writer_churn_single_key_converges() {
    let db: Db<u64, i64> = Db::with_config(notify_only());
    db.insert(0, 0);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..6 {
            let db = db.clone();
            scope.spawn(move || {
                for _ in 0..20 {
                    db.run(|t| t.rmw(&0, |v| v + 1)).unwrap();
                }
            });
        }
    });
    assert_eq!(db.committed_value(&0), Some(120));
    assert!(
        start.elapsed() < Duration::from_secs(8),
        "churn stalled — lost wakeup in the release path (took {:?})",
        start.elapsed()
    );
}

/// Spurious-wakeup accounting: 17 keys over the lock table's 16 shards,
/// so at least two keys share a shard, each key contended by its own pair
/// of threads. Targeted wakeups never wake another key's waiters, so with
/// polling disabled every recorded wakeup is productive and the spurious
/// counter stays at exactly zero.
#[test]
fn disjoint_keys_produce_no_spurious_wakeups() {
    const KEYS: u64 = 17;
    let db: Db<u64, i64> = Db::with_config(notify_only());
    for key in 0..KEYS {
        db.insert(key, 0);
    }
    std::thread::scope(|scope| {
        for key in 0..KEYS {
            for _ in 0..2 {
                let db = db.clone();
                scope.spawn(move || {
                    for _ in 0..50 {
                        db.run(|t| t.rmw(&key, |v| v + 1)).unwrap();
                    }
                });
            }
        }
    });
    for key in 0..KEYS {
        assert_eq!(db.committed_value(&key), Some(100));
    }
    let s = db.stats();
    assert_eq!(
        s.wakeups_spurious, 0,
        "targeted wakeups must not wake waiters of unrelated keys \
         (productive: {}, waits: {})",
        s.wakeups_productive, s.waits
    );
}

/// An orphaned waiter is woken by its ancestor's abort: the awaited key's
/// lock state never changes, so only the abort-side wakeup can save the
/// waiter from sleeping out the full 10 s slice.
#[test]
fn ancestor_abort_wakes_parked_descendant() {
    let db: Db<u64, i64> = Db::with_config(notify_only());
    db.insert(0, 0);
    let holder = db.begin();
    holder.write(&0, 1).unwrap();

    let parent = db.begin();
    let child = parent.child().unwrap();
    let start = Instant::now();
    let aborter = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(100));
        parent.abort();
    });
    // Parks on the held key; the only scheduled wakeup within 10 s is the
    // parent's abort making us an orphan.
    let err = child.read(&0).unwrap_err();
    assert_eq!(err, TxnError::Orphaned);
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "orphaned waiter slept through its ancestor's abort (took {:?})",
        start.elapsed()
    );
    aborter.join().unwrap();
    holder.commit().unwrap();
}

/// `Db::run` under wait-die: the younger transaction keeps dying while
/// the older holder works, then makes forward progress once the holder
/// commits — the retry loop plus targeted wakeups guarantee completion.
#[test]
fn db_run_wait_die_younger_makes_progress() {
    let db: Db<u64, i64> =
        Db::with_config(DbConfig::builder().policy(DeadlockPolicy::WaitDie).build());
    db.insert(0, 7);
    let holder = db.begin(); // older: smaller root id
    holder.write(&0, 42).unwrap();

    let worker = {
        let db = db.clone();
        std::thread::spawn(move || {
            // Every attempt begins a fresh (younger) transaction that dies
            // against the older holder; Db::run keeps retrying.
            db.run(|t| t.rmw(&0, |v| v + 1)).unwrap()
        })
    };
    std::thread::sleep(Duration::from_millis(100));
    holder.commit().unwrap();
    let seen = worker.join().unwrap();
    assert_eq!(seen, 42, "younger txn ran after the older holder committed");
    assert_eq!(db.committed_value(&0), Some(43));
    let s = db.stats();
    assert!(s.dies > 0, "younger transaction must have died at least once");
}
