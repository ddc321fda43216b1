//! Panics in user closures: a `Db::run` or `Txn::run_child` body that
//! unwinds must leave nothing behind. The handles' `Drop`-abort is the
//! whole contract — locks released and pre-images restored (locking),
//! buffers discarded and the begin pin released (optimistic) — in memory
//! and on a forced log, where every commit forces outside the publish
//! gate.
//!
//! Panics below the engine: a `Vfs` that unwinds out of a log force takes
//! down only the commit whose thread was forcing, and wedges nobody else;
//! a value encoder that unwinds out of a commit leaves no lock, pin or
//! transaction behind.

use rnt_core::{CcMode, Db, DbConfig, DeadlockPolicy, Durability, TxnError};
use rnt_wal::{MemVfs, Vfs, WalCodec, WalError};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const MODES: [CcMode; 2] = [CcMode::Locking, CcMode::Optimistic];

fn arms() -> impl Iterator<Item = (CcMode, Durability)> {
    MODES.into_iter().flat_map(|mode| [Durability::None, Durability::WalFsync].map(|d| (mode, d)))
}

fn db(mode: CcMode, durability: Durability) -> Db<u64, i64> {
    let config = DbConfig::builder()
        .policy(DeadlockPolicy::NoWait)
        .cc_mode(mode)
        .durability(durability)
        .build();
    let db = Db::open_with_vfs(Arc::new(MemVfs::new()), "panic.wal", config).unwrap();
    db.insert(0, 10);
    db.insert(1, 20);
    db
}

/// Nothing of the panicked transaction survives: under `NoWait` a single
/// attempt gets both keys at once, sees the pre-images, and commits; the
/// ledger balances and no snapshot pin is left.
fn assert_clean(db: &Db<u64, i64>, arm: (CcMode, Durability)) {
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

/// A [`MemVfs`] whose fsync number `nth` (0-based) panics.
struct PanickingVfs {
    mem: MemVfs,
    nth: u64,
    fsyncs: AtomicU64,
}

impl Vfs for PanickingVfs {
    fn append(&self, path: &str, data: &[u8]) -> Result<(), WalError> {
        self.mem.append(path, data)
    }
    fn fsync(&self, path: &str) -> Result<(), WalError> {
        if self.fsyncs.fetch_add(1, Ordering::SeqCst) == self.nth {
            panic!("the disk controller fell over");
        }
        self.mem.fsync(path)
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

/// How one commit in [`a_panicking_force_wedges_no_other_commit`] ended.
#[derive(Debug, PartialEq)]
enum Outcome {
    Acked,
    Wal,
    Panicked,
    Other(TxnError),
}

/// Four committers, five flat commits each on a key of their own, onto a
/// disk whose fourth fsync panics. The panic reaches only the caller
/// whose thread was forcing; every other commit returns — acked, or
/// `Wal` once the log is broken — and what the panicking run held is
/// released, so a later commit over every key reports `Wal` instead of
/// dying on a lock. The panicking run is still published at its turn,
/// in both modes: its write is in the committed state, and it leaves no
/// begin pin and no transaction behind.
#[test]
fn a_panicking_force_wedges_no_other_commit() {
    const COMMITTERS: u64 = 4;
    const COMMITS: u64 = 5;
    for mode in MODES {
        let vfs = Arc::new(PanickingVfs { mem: MemVfs::new(), nth: 3, fsyncs: AtomicU64::new(0) });
        let config = DbConfig::builder()
            .policy(DeadlockPolicy::NoWait)
            .cc_mode(mode)
            .durability(Durability::WalFsync)
            .build();
        let db: Db<u64, i64> = Db::open_with_vfs(vfs, "panic.wal", config).unwrap();
        for k in 0..COMMITTERS {
            db.insert(k, 0);
        }
        let (tx, rx) = std::sync::mpsc::channel();
        for k in 0..COMMITTERS {
            let (db, tx) = (db.clone(), tx.clone());
            std::thread::spawn(move || {
                for _ in 0..COMMITS {
                    let commit = || db.run_with_retries(0, |t| t.rmw(&k, |v| v + 1).map(drop));
                    let outcome = match catch_unwind(AssertUnwindSafe(commit)) {
                        Ok(Ok(())) => Outcome::Acked,
                        Ok(Err(TxnError::Wal { .. })) => Outcome::Wal,
                        Ok(Err(e)) => Outcome::Other(e),
                        Err(_) => Outcome::Panicked,
                    };
                    let _ = tx.send(outcome);
                }
            });
        }
        drop(tx);
        let outcomes: Vec<Outcome> = (0..COMMITTERS * COMMITS)
            .map(|_| {
                rx.recv_timeout(Duration::from_secs(20))
                    .unwrap_or_else(|_| panic!("{mode:?}: a commit never returned"))
            })
            .collect();
        let panicked = outcomes.iter().filter(|o| **o == Outcome::Panicked).count();
        assert_eq!(panicked, 1, "{mode:?}: {outcomes:?}");
        assert!(
            outcomes.iter().all(|o| matches!(o, Outcome::Acked | Outcome::Wal | Outcome::Panicked)),
            "{mode:?}: {outcomes:?}"
        );
        let published: i64 = (0..COMMITTERS).map(|k| db.committed_value(&k).unwrap()).sum();
        assert_eq!(published, (COMMITTERS * COMMITS) as i64, "{mode:?}: a write was not published");
        let s = db.stats();
        assert_eq!(s.snapshot_pins_live, 0, "{mode:?}: a begin pin left behind");
        assert_eq!(s.txns_resident, 0, "{mode:?}: a transaction left behind");
        let later = db.run_with_retries(0, |t| {
            (0..COMMITTERS).try_for_each(|k| t.rmw(&k, |v| v + 1).map(drop))
        });
        assert!(matches!(later, Err(TxnError::Wal { .. })), "{mode:?}: later commit got {later:?}");
    }
}

/// The value [`Touchy`]'s encoder refuses.
const POISON: i64 = 666;

/// A value whose log encoding panics on [`POISON`]: a user codec with a
/// bug, reached only when a commit frames its write set.
#[derive(Clone, Copy, Debug, Hash, PartialEq, Eq)]
struct Touchy(i64);

impl WalCodec for Touchy {
    fn encode(&self, out: &mut Vec<u8>) {
        assert_ne!(self.0, POISON, "the value encoder fell over");
        self.0.encode(out);
    }
    fn decode(bytes: &[u8]) -> Option<Self> {
        i64::decode(bytes).map(Touchy)
    }
}

/// A commit whose write set holds a value the encoder panics on, on a
/// forced log. The panic reaches the committer in both modes, and leaves
/// no begin pin, no transaction and no lock behind (a `NoWait` commit
/// over both keys gets every lock at once). The modes differ in what
/// the commit was when the encoder ran:
///
/// * **optimistic** — not yet committed: the frame is encoded before the
///   gate, so the unwind takes the loser sequence. The transaction is
///   aborted, nothing of it is published, and the log stays whole: the
///   next commit is acked and recovery replays it.
/// * **locking** — committed in the registry: its `Run` marks the log
///   broken from the run's epoch and still publishes the run at its
///   turn, so its writes are in the committed state, every later commit
///   reports `Wal`, and recovery finds only the seeds.
#[test]
fn a_panicking_value_encoder_leaves_nothing_behind() {
    for mode in MODES {
        let vfs = Arc::new(MemVfs::new());
        let config = DbConfig::builder()
            .policy(DeadlockPolicy::NoWait)
            .cc_mode(mode)
            .durability(Durability::WalFsync)
            .build();
        let db: Db<u64, Touchy> =
            Db::open_with_vfs(vfs.clone(), "panic.wal", config.clone()).unwrap();
        db.insert(0, Touchy(10));
        db.insert(1, Touchy(20));
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            db.run_with_retries(0, |t| {
                t.rmw(&0, |v| Touchy(v.0 + 1))?;
                t.write(&1, Touchy(POISON)).map(drop)
            })
        }));
        assert!(unwound.is_err(), "{mode:?}: the panic propagates");
        let s = db.stats();
        assert_eq!(s.begun, s.committed + s.aborted, "{mode:?}: ledger");
        assert_eq!(s.snapshot_pins_live, 0, "{mode:?}: a begin pin left behind");
        assert_eq!(s.txns_resident, 0, "{mode:?}: a transaction left behind");
        assert_eq!(db.layout_violations(), Vec::<String>::new(), "{mode:?}");
        let state = |db: &Db<u64, Touchy>| (db.committed_value(&0), db.committed_value(&1));
        let published = match mode {
            CcMode::Optimistic => (Touchy(10), Touchy(20)),
            CcMode::Locking => (Touchy(11), Touchy(POISON)),
        };
        assert_eq!(state(&db), (Some(published.0), Some(published.1)), "{mode:?}");
        let bump = |v: &Touchy| Touchy(v.0 + 1);
        let later = db.run_with_retries(0, |t| Ok((t.rmw(&0, bump)?, t.rmw(&1, bump)?)));
        let recovered = Db::<u64, Touchy>::recover_with_vfs(vfs, "panic.wal", config).unwrap();
        match mode {
            CcMode::Optimistic => {
                assert_eq!((s.committed, s.aborted), (0, 1), "{mode:?}: the loser sequence ran");
                assert_eq!(later, Ok(published), "{mode:?}: every lock free");
                let acked = (Some(Touchy(11)), Some(Touchy(21)));
                assert_eq!(state(&recovered), acked, "{mode:?}: the log went on");
            }
            CcMode::Locking => {
                assert_eq!((s.committed, s.aborted), (1, 0), "{mode:?}: the run published");
                assert!(matches!(later, Err(TxnError::Wal { .. })), "{mode:?}: got {later:?}");
                let seeds = (Some(Touchy(10)), Some(Touchy(20)));
                assert_eq!(state(&recovered), seeds, "{mode:?}: the log broke at the run");
            }
        }
    }
}
