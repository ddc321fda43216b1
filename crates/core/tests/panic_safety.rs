//! Panics in user closures: a `Db::run` or `Txn::run_child` body that
//! unwinds must leave nothing behind. The handles' `Drop`-abort is the
//! whole contract — locks released and pre-images restored (locking),
//! buffers discarded and the begin pin released (optimistic) — with and
//! without the group-commit sequencer in the commit path.

use rnt_core::{CcMode, Db, DbConfig, DeadlockPolicy};
use std::panic::{catch_unwind, AssertUnwindSafe};

fn arms() -> impl Iterator<Item = (CcMode, bool)> {
    [CcMode::Locking, CcMode::Optimistic]
        .into_iter()
        .flat_map(|mode| [false, true].map(|group_commit| (mode, group_commit)))
}

fn db(mode: CcMode, group_commit: bool) -> Db<u64, i64> {
    let db = Db::with_config(
        DbConfig::builder()
            .policy(DeadlockPolicy::NoWait)
            .cc_mode(mode)
            .group_commit(group_commit)
            .build(),
    );
    db.insert(0, 10);
    db.insert(1, 20);
    db
}

/// Nothing of the panicked transaction survives: under `NoWait` a single
/// attempt gets both keys at once, sees the pre-images, and commits; the
/// ledger balances and no snapshot pin is left.
fn assert_clean(db: &Db<u64, i64>, arm: (CcMode, bool)) {
    let seen = db
        .run_with_retries(0, |t| Ok((t.rmw(&0, |v| v + 1)?, t.rmw(&1, |v| v + 1)?)))
        .unwrap_or_else(|e| panic!("{arm:?}: keys not writable after the panic: {e}"));
    assert_eq!(seen, (10, 20), "{arm:?}: pre-images");
    assert_eq!((db.committed_value(&0), db.committed_value(&1)), (Some(11), Some(21)), "{arm:?}");
    let s = db.stats();
    assert_eq!(s.begun, s.committed + s.aborted, "{arm:?}: ledger");
    assert_eq!(s.aborted, s.begun - 1, "{arm:?}: everything but the probe aborted");
    assert_eq!(s.snapshot_pins_live, 0, "{arm:?}: leaked pin");
    assert_eq!(s.txns_resident, 0, "{arm:?}: an unwound tree was not retired");
}

#[test]
fn panic_in_a_run_body_aborts_the_transaction() {
    for arm in arms() {
        let db = db(arm.0, arm.1);
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            db.run(|t| {
                t.rmw(&0, |v| v + 100)?;
                panic!("user code failed after its write");
                #[allow(unreachable_code)]
                Ok(())
            })
        }));
        assert!(unwound.is_err(), "{arm:?}: the panic propagates");
        assert_clean(&db, arm);
    }
}

#[test]
fn panic_in_a_run_child_body_aborts_child_and_parent() {
    for arm in arms() {
        let db = db(arm.0, arm.1);
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            db.run(|t| {
                t.rmw(&0, |v| v + 100)?;
                t.run_child(0, |c| {
                    c.rmw(&1, |v| v + 100)?;
                    panic!("user code failed inside the subtransaction");
                    #[allow(unreachable_code)]
                    Ok(())
                })
            })
        }));
        assert!(unwound.is_err(), "{arm:?}: the panic propagates");
        assert_clean(&db, arm);
    }
}
