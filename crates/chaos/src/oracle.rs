//! The serializability oracle: replay the engine's [`AuditLog`] through
//! the AAT checker and assert the paper's correctness condition plus the
//! engine-level lock invariants.
//!
//! Checks, in order:
//!
//! 1. **Theorem 9** — the log reconstructs to a `(Universe, Aat)` pair
//!    whose committed permutation is rw-data-serializable, i.e. every
//!    access is version-compatible and the sibling-data order has no
//!    nontrivial cycles;
//! 2. **Orphan views** — no *live* (non-orphan) access ever saw a value
//!    other than its counterfactual expected value;
//! 3. **Lock invariants** — after an eager `lose-lock` pass, no lock is
//!    held by a dead transaction, every write stack is an ancestor chain
//!    (so version stacks restore correctly on abort), no holder box
//!    outlives its holders, and an optimistic database has no lock-table
//!    entry at all; at quiescence every lock-table entry is idle — `(key,
//!    base)`, no holders — and no transaction is resident
//!    (`txns_resident == 0`: every finished tree was retired).
//!
//! The oracle is sound mid-run: active transactions are simply excluded
//! from the committed permutation, so it may be invoked after every
//! injected fault, not just at quiescence.

use rnt_core::{AuditLog, Db};
use std::fmt::Debug;
use std::hash::Hash;

/// Check the Theorem-9 condition and orphan-view cleanliness on a log.
pub fn check_log(log: &AuditLog) -> Result<(), String> {
    let (universe, aat) =
        log.reconstruct().map_err(|e| format!("audit log does not reconstruct: {e:?}"))?;
    if !aat.perm().is_rw_data_serializable(&universe) {
        return Err("Theorem 9 violated: the committed permutation is not rw-data-serializable \
             (version incompatibility or a nontrivial sibling-data cycle)"
            .to_string());
    }
    let (_performs, _orphans, _anomalies, live) =
        log.orphan_view_anomalies().map_err(|e| format!("orphan-view replay failed: {e:?}"))?;
    if live != 0 {
        return Err(format!("{live} live access(es) saw an inconsistent value"));
    }
    Ok(())
}

/// Run the full oracle against a database: the audit-log checks above plus
/// the engine-level lock invariants (after an eager reap).
pub fn check<K, V>(db: &Db<K, V>) -> Result<(), String>
where
    K: Eq + Hash + Ord + Clone + Send + Sync + Debug + 'static,
    V: Clone + Hash + Send + Sync + 'static,
{
    let log = db.audit_log().ok_or("auditing is not enabled on this database")?;
    check_log(log)?;
    db.chaos_reap_all();
    let violations = db.chaos_lock_violations();
    if !violations.is_empty() {
        return Err(format!("lock invariants violated: {}", violations.join("; ")));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnt_core::{DbConfig, TxnError};

    #[test]
    fn clean_run_passes() {
        let db: Db<u64, i64> = Db::with_config(DbConfig::builder().audit(true).build());
        db.insert(0, 10);
        let t = db.begin();
        let c = t.child().unwrap();
        c.rmw(&0, |v| v + 1).unwrap();
        c.commit().unwrap();
        t.commit().unwrap();
        assert_eq!(check(&db), Ok(()));
    }

    #[test]
    fn mid_run_check_is_sound() {
        let db: Db<u64, i64> = Db::with_config(DbConfig::builder().audit(true).build());
        db.insert(0, 10);
        let t = db.begin();
        t.write(&0, 99).unwrap();
        // t is still active: the oracle must not flag the in-flight write.
        assert_eq!(check(&db), Ok(()));
        t.abort();
        assert_eq!(check(&db), Ok(()));
    }

    #[test]
    fn orphaned_subtree_is_tolerated() {
        let db: Db<u64, i64> = Db::with_config(DbConfig::builder().audit(true).build());
        db.insert(0, 10);
        let t = db.begin();
        let c = t.child().unwrap();
        c.write(&0, 5).unwrap();
        // Parent aborts under the live child: c is an orphan.
        t.abort();
        assert_eq!(c.read(&0), Err(TxnError::Orphaned));
        drop(c);
        assert_eq!(check(&db), Ok(()));
        assert_eq!(db.committed_value(&0), Some(10), "orphan version discarded");
    }

    #[test]
    fn audit_required() {
        let db: Db<u64, i64> = Db::new();
        db.insert(0, 0);
        assert!(check(&db).is_err());
    }
}
