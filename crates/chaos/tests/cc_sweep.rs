//! The cross-CC-mode differential suite: the same seeded chaos schedule
//! is run under pessimistic locking and under optimistic
//! first-committer-wins validation, and the two executions are compared.
//!
//! What "equal" can mean differs by seed class:
//!
//! 1. **Conflict-free seeds** — if the locking run hit zero lock
//!    conflicts *and* the optimistic run hit zero validation failures,
//!    the two executions took identical control flow (the injector
//!    faults fire on the same transaction ids at the same steps, and no
//!    contention verdict ever diverted a worker), so the final committed
//!    states must be identical — compared via `state_fingerprint`, which
//!    hashes only the surviving key/value pairs. Audit fingerprints and
//!    WAL bytes are *expected* to differ across modes (optimistic logs
//!    its writes at commit, locking at access), so they are not compared.
//! 2. **Every seed** — both runs must pass the full oracle stack:
//!    Theorem-9 serializability over the audit log, lock-table
//!    quiescence, and (for WAL runs, which include machine-crash faults)
//!    the crash-recovery oracle — the raw log must replay to the
//!    reference interpreter's committed state, both for the locking log
//!    and for the optimistic log, proving the two modes share one
//!    durable format.
//!
//! The proptest half checks first-committer-wins *soundness* directly:
//! any interleaving of top-level optimistic transactions, tracked with
//! their begin/commit epochs and footprints, must satisfy "a committed
//! transaction's footprint has no foreign commit strictly inside its
//! (begin, commit) window" — and every `Conflict` abort must be genuine
//! (some footprint key really was committed in the window). The final
//! state is cross-checked against the WAL reference interpreter live and
//! again after full-log recovery.

use proptest::prelude::*;
use rnt_chaos::recovery::{check_crash_recovery, reference_committed, WAL_PATH};
use rnt_chaos::{run, ChaosConfig};
use rnt_core::{CcMode, Db, DbConfig, DeadlockPolicy, Durability, ReadView, Txn, TxnError};
use rnt_wal::MemVfs;
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

/// Run one seed under both modes and compare. Returns whether the seed
/// was conflict-free (and therefore had its states compared).
fn differential(config: &ChaosConfig) -> bool {
    let seed = config.seed;
    let lock = run(config);
    let opt = run(&config.clone().optimistic());
    assert!(lock.verdict.is_ok(), "seed {seed} (locking): {:?}", lock.verdict);
    assert!(opt.verdict.is_ok(), "seed {seed} (optimistic): {:?}", opt.verdict);
    // Mode purity: optimistic transactions never contend on locks, and
    // locking transactions never fail validation.
    assert_eq!(opt.lock_conflicts, 0, "seed {seed}: optimistic run touched the lock manager");
    assert_eq!(lock.occ_conflicts, 0, "seed {seed}: locking run ran the validator");
    let conflict_free = lock.lock_conflicts == 0 && opt.occ_conflicts == 0;
    if conflict_free {
        assert_eq!(
            lock.state_fingerprint, opt.state_fingerprint,
            "seed {seed}: conflict-free run left different committed states across CC modes"
        );
        assert_eq!(
            (lock.commits, lock.aborts, lock.steps),
            (opt.commits, opt.aborts, opt.steps),
            "seed {seed}: conflict-free run diverged in counters across CC modes"
        );
    }
    conflict_free
}

/// ≥1000 in-memory seeds under both modes: every verdict passes, and
/// every conflict-free seed leaves the identical committed state.
#[test]
fn cc_modes_agree_across_1000_seeds() {
    let mut conflicted = 0usize;
    for seed in 0..1000u64 {
        if !differential(&ChaosConfig::seeded(seed)) {
            conflicted += 1;
        }
    }
    // The default 4-key workload must actually exercise contention —
    // otherwise the sweep proves nothing about conflicting schedules.
    assert!(conflicted > 0, "no seed produced a conflict: sweep too gentle");
}

/// WAL-backed seeds (whose fault plans include machine crashes): both
/// modes' logs must independently satisfy the crash-recovery oracle —
/// the one durable format serves both concurrency controls.
#[test]
fn cc_modes_agree_across_wal_and_crash_seeds() {
    for seed in 0..1000u64 {
        differential(&ChaosConfig::seeded_wal(seed));
    }
}

/// A low-contention sweep (wide keyspace, read-leaning) so conflict-free
/// seeds — where cross-mode state equality is actually owed and checked —
/// appear in bulk, not as a lucky accident.
#[test]
fn cc_modes_agree_on_low_contention_seeds() {
    let mut conflict_free = 0usize;
    for seed in 0..300u64 {
        let config = ChaosConfig { keys: 64, read_ratio: 0.75, ..ChaosConfig::seeded(seed) };
        if differential(&config) {
            conflict_free += 1;
        }
    }
    assert!(conflict_free > 0, "no conflict-free seed: the equality arm never ran");
}

/// Optimistic runs are as deterministic as locking ones: the same seed
/// reproduces the same audit fingerprint, WAL bytes, and final state.
#[test]
fn optimistic_runs_are_deterministic() {
    for seed in [0u64, 1, 7, 99, 12345] {
        let a = run(&ChaosConfig::seeded_wal(seed).optimistic());
        let b = run(&ChaosConfig::seeded_wal(seed).optimistic());
        assert!(a.verdict.is_ok(), "seed {seed}: {:?}", a.verdict);
        assert_eq!(a.fingerprint, b.fingerprint, "seed {seed}: audit trace diverged");
        assert_eq!(a.wal_hash, b.wal_hash, "seed {seed}: WAL bytes diverged");
        assert_eq!(a.state_fingerprint, b.state_fingerprint, "seed {seed}: state diverged");
        assert_eq!((a.commits, a.aborts, a.occ_conflicts), (b.commits, b.aborts, b.occ_conflicts));
    }
}

// ---------------------------------------------------------------------
// First-committer-wins soundness, property-based.
// ---------------------------------------------------------------------

/// One step of a multi-slot optimistic workload: up to `SLOTS` top-level
/// transactions are open at once, so their snapshot windows interleave
/// and commit-time validation has real foreign commits to catch.
#[derive(Clone, Debug)]
enum CcOp {
    Begin(usize),
    Read(usize, u64),
    Add(usize, u64, i64),
    /// Open a subtransaction under the slot, rmw one key, commit it —
    /// the child's write must merge into the parent's footprint.
    Nest(usize, u64, i64),
    Commit(usize),
    Abort(usize),
}

const SLOTS: usize = 3;
/// Keys seeded before the script runs; ops only ever touch these, so
/// every lock-free read and buffered rmw must succeed.
const KEYS: u64 = 4;

fn cc_op_strategy(keys: u64) -> impl Strategy<Value = CcOp> {
    prop_oneof![
        3 => (0..SLOTS).prop_map(CcOp::Begin),
        3 => (0..SLOTS, 0..keys).prop_map(|(s, k)| CcOp::Read(s, k)),
        4 => (0..SLOTS, 0..keys, -9i64..10).prop_map(|(s, k, d)| CcOp::Add(s, k, d)),
        2 => (0..SLOTS, 0..keys, -9i64..10).prop_map(|(s, k, d)| CcOp::Nest(s, k, d)),
        3 => (0..SLOTS).prop_map(CcOp::Commit),
        1 => (0..SLOTS).prop_map(CcOp::Abort),
    ]
}

/// A live top-level optimistic transaction plus the footprint the test
/// tracks independently of the engine.
struct Slot {
    txn: Txn<u64, i64>,
    begin: u64,
    writes: HashSet<u64>,
    reads: HashSet<u64>,
}

/// A committed transaction's validation-relevant summary.
struct CommittedTxn {
    begin: u64,
    commit: u64,
    footprint: HashSet<u64>,
}

/// An optimistic database on a fresh log: under `WalFsync` every commit
/// leaves the publish gate to force before it publishes.
fn fcw_db(durability: Durability) -> (Arc<MemVfs>, Db<u64, i64>) {
    let vfs = Arc::new(MemVfs::new());
    let config = DbConfig::builder()
        .cc_mode(CcMode::Optimistic)
        .policy(DeadlockPolicy::NoWait)
        .audit(true)
        .durability(durability)
        .build();
    let db = Db::open_with_vfs(vfs.clone(), WAL_PATH, config).expect("open");
    (vfs, db)
}

/// Drive the script, tracking every commit's epoch window and footprint;
/// assert first-committer-wins soundness plus conflict genuineness as we
/// go, then cross-check the final state against the reference
/// interpreter live and after recovery.
fn check_fcw(keys: u64, script: &[CcOp], durability: Durability) -> Result<(), TestCaseError> {
    let (vfs, db) = fcw_db(durability);
    for k in 0..keys {
        db.insert(k, k as i64 * 10);
    }
    let mut slots: Vec<Option<Slot>> = (0..SLOTS).map(|_| None).collect();
    let mut committed: Vec<CommittedTxn> = Vec::new();
    // Every committed epoch per key, in commit order.
    let mut per_key: BTreeMap<u64, Vec<u64>> = BTreeMap::new();

    let finish = |slot: Slot,
                  committed: &mut Vec<CommittedTxn>,
                  per_key: &mut BTreeMap<u64, Vec<u64>>|
     -> Result<(), TestCaseError> {
        let Slot { txn, begin, writes, reads } = slot;
        let footprint: HashSet<u64> = writes.union(&reads).copied().collect();
        match txn.commit() {
            Ok(()) => {
                // Single-threaded: the watermark right after a commit IS
                // its commit epoch.
                let commit = db.epochs().watermark;
                prop_assert!(commit > begin, "commit epoch {commit} not above begin {begin}");
                for k in &writes {
                    per_key.entry(*k).or_default().push(commit);
                }
                committed.push(CommittedTxn { begin, commit, footprint });
            }
            Err(TxnError::Conflict { begin_epoch, committed_epoch }) => {
                prop_assert_eq!(begin_epoch, begin, "Conflict reports a foreign begin epoch");
                // The abort must be genuine: some footprint key really
                // was committed after this transaction's snapshot.
                let newest = footprint
                    .iter()
                    .filter_map(|k| per_key.get(k).and_then(|v| v.last()).copied())
                    .max()
                    .unwrap_or(0);
                prop_assert!(
                    newest > begin,
                    "spurious Conflict: no footprint key committed after epoch {begin} \
                     (newest foreign commit {newest}, reported {committed_epoch})"
                );
            }
            Err(e) => prop_assert!(false, "unexpected commit error: {e}"),
        }
        Ok(())
    };

    for op in script {
        match op {
            CcOp::Begin(s) => {
                if slots[*s].is_none() {
                    let txn = db.begin();
                    let begin = ReadView::epoch(&txn);
                    slots[*s] =
                        Some(Slot { txn, begin, writes: HashSet::new(), reads: HashSet::new() });
                }
            }
            CcOp::Read(s, k) => {
                if let Some(slot) = slots[*s].as_mut() {
                    let v = slot.txn.read(k);
                    prop_assert!(v.is_ok(), "lock-free read of a seeded key failed: {v:?}");
                    slot.reads.insert(*k);
                }
            }
            CcOp::Add(s, k, d) => {
                if let Some(slot) = slots[*s].as_mut() {
                    let d = *d;
                    let v = slot.txn.rmw(k, move |v| v.wrapping_add(d));
                    prop_assert!(v.is_ok(), "buffered rmw of a seeded key failed: {v:?}");
                    slot.writes.insert(*k);
                }
            }
            CcOp::Nest(s, k, d) => {
                if let Some(slot) = slots[*s].as_mut() {
                    let d = *d;
                    let child = slot.txn.child().expect("child under a live optimistic txn");
                    child.rmw(k, move |v| v.wrapping_add(d)).expect("child rmw");
                    child.commit().expect("nested optimistic commit is merge-only");
                    slot.writes.insert(*k);
                }
            }
            CcOp::Commit(s) => {
                if let Some(slot) = slots[*s].take() {
                    finish(slot, &mut committed, &mut per_key)?;
                }
            }
            CcOp::Abort(s) => {
                if let Some(slot) = slots[*s].take() {
                    slot.txn.abort();
                }
            }
        }
    }
    for slot in slots.iter_mut() {
        if let Some(slot) = slot.take() {
            finish(slot, &mut committed, &mut per_key)?;
        }
    }

    // First-committer-wins soundness: no committed transaction's
    // footprint key carries a foreign commit strictly inside its
    // (begin, commit) snapshot window.
    for t in &committed {
        for k in &t.footprint {
            if let Some(epochs) = per_key.get(k) {
                for &e in epochs {
                    prop_assert!(
                        !(t.begin < e && e < t.commit),
                        "FCW violated: key {k} committed at epoch {e} inside another committed \
                         transaction's window ({}, {})",
                        t.begin,
                        t.commit
                    );
                }
            }
        }
    }

    // The live state must equal the reference interpreter's reading of
    // the optimistic log — one durable format, independently decoded.
    let bytes = vfs.snapshot(WAL_PATH);
    let (records, _) = rnt_wal::scan(&bytes).expect("clean log scans");
    let reference = reference_committed(&records).expect("reference accepts the optimistic log");
    for k in 0..keys {
        prop_assert_eq!(
            db.committed_value(&k),
            reference.get(&k).copied(),
            "live state diverges from the reference interpreter at key {}",
            k
        );
    }
    // And again through the engine's own replay plus the full recovery
    // oracle (differential, idempotence, lock invariants).
    if let Err(e) = check_crash_recovery(&bytes) {
        prop_assert!(false, "recovery oracle rejected the optimistic log: {e}");
    }
    let vfs2 = Arc::new(MemVfs::new());
    vfs2.install(WAL_PATH, bytes);
    let recovered: Db<u64, i64> = Db::recover_with_vfs(
        vfs2,
        WAL_PATH,
        DbConfig::builder().policy(DeadlockPolicy::NoWait).durability(Durability::Wal).build(),
    )
    .expect("recover");
    for k in 0..keys {
        prop_assert_eq!(
            recovered.committed_value(&k),
            db.committed_value(&k),
            "full-log recovery diverges from the live optimistic database at key {}",
            k
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any interleaving of overlapping top-level optimistic transactions
    /// upholds first-committer-wins, aborts only on genuine conflicts,
    /// and leaves a log both the reference interpreter and crash
    /// recovery agree with.
    #[test]
    fn first_committer_wins_is_sound(
        script in prop::collection::vec(cc_op_strategy(KEYS), 0..80),
    ) {
        check_fcw(KEYS, &script, Durability::Wal)?;
    }

    /// The same property with every commit forced, so every run leaves
    /// the publish gate before it publishes, and validation also probes
    /// the in-flight table: it must enforce the identical rule.
    #[test]
    fn first_committer_wins_is_sound_when_forced(
        script in prop::collection::vec(cc_op_strategy(KEYS), 0..80),
    ) {
        check_fcw(KEYS, &script, Durability::WalFsync)?;
    }
}
