//! The deterministic chaos driver: seeded logical workers running
//! randomized nested-transaction workloads against [`rnt_core::Db`] on a
//! single thread, with a fault schedule injected between steps.
//!
//! Determinism contract: the whole run — workload, interleaving, faults,
//! audit log, verdict — is a pure function of [`ChaosConfig`] (and thus of
//! its seed). The driver only uses non-blocking conflict policies
//! ([`DeadlockPolicy::NoWait`] and [`DeadlockPolicy::Timeout`] bounded at
//! `Duration::ZERO`), so no wall-clock waiting can reorder anything;
//! every conflict resolves immediately into a deterministic victim kill
//! or timeout — the single-threaded analogue of deadlock-policy victim
//! selection.
//! Thread-interleaving perturbation is modeled by the seeded scheduler
//! choosing which logical worker advances at each step, plus injector
//! faults that flip the winner of lock races on the sharded lock table.

use crate::oracle;
use crate::recovery;
use crate::schedule::{FaultEvent, FaultKind, FaultPlan};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rnt_core::chaos::{AccessFault, Injector};
use rnt_core::{
    CcMode, Db, DbConfig, DeadlockPolicy, Durability, ReadView, Snapshot, Txn, TxnError, TxnId,
};
use rnt_wal::faults::record_count;
use rnt_wal::MemVfs;
use std::collections::{BTreeMap, HashSet};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Configuration of one chaos run. Everything is derived from `seed`; the
/// remaining knobs size the workload.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// The seed: same seed ⇒ identical schedule, faults, log and verdict.
    pub seed: u64,
    /// Logical workers interleaved by the seeded scheduler.
    pub workers: usize,
    /// Top-level transactions each worker runs.
    pub txns_per_worker: usize,
    /// Maximum open-subtransaction depth below a top-level transaction.
    pub max_depth: usize,
    /// Operation budget per top-level transaction.
    pub ops_per_txn: usize,
    /// Keys seeded into the store.
    pub keys: u64,
    /// Fraction of operations that are reads (the rest are rmw).
    pub read_ratio: f64,
    /// Number of faults scheduled over the run.
    pub faults: usize,
    /// Safety bound on scheduler steps.
    pub max_steps: usize,
    /// Run the oracle after every applied fault (always at quiescence).
    pub check_after_each_fault: bool,
    /// Run against a write-ahead-logged database (an in-memory [`MemVfs`]
    /// file at [`recovery::WAL_PATH`]). Enables
    /// [`FaultKind::CrashAfterRecord`] and adds the post-run recovery
    /// oracle: whatever bytes the (possibly crashed) log holds at the end
    /// must recover to the reference interpreter's committed state.
    pub wal: bool,
    /// Interleave lock-free snapshot readers with the workers: the seeded
    /// schedule opens/reads/drops [`rnt_core::Snapshot`]s between steps and
    /// asserts every pinned view stays frozen at the state captured when it
    /// was opened (for WAL runs, additionally cross-checked against the
    /// reference trace's state at the pinned epoch). Off by default so
    /// pre-existing seed fingerprints stay comparable.
    pub snapshots: bool,
    /// Force the log before acking each top-level commit
    /// ([`Durability::WalFsync`] instead of [`Durability::Wal`];
    /// meaningful with `wal`). An optimistic run then stages every commit
    /// through the group-commit sequencer. The driver is single-threaded,
    /// so every batch is a singleton and — because singleton batches log
    /// a plain `Commit` record — the WAL bytes, audit log and verdict
    /// must be *identical* to the same seed run without the force. The
    /// differential suite asserts exactly that.
    pub fsync: bool,
    /// Concurrency-control mode the database runs under. `Locking` is the
    /// historical default (so pre-existing seed fingerprints stay
    /// comparable); `Optimistic` runs the same seeded schedule against the
    /// first-committer-wins validator — commit-time `Conflict` aborts
    /// instead of lock conflicts. The cross-mode differential suite runs
    /// every seed under both and compares the final committed states.
    pub cc_mode: CcMode,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 0,
            workers: 3,
            txns_per_worker: 2,
            max_depth: 3,
            ops_per_txn: 8,
            keys: 4,
            read_ratio: 0.5,
            faults: 4,
            max_steps: 10_000,
            check_after_each_fault: true,
            wal: false,
            snapshots: false,
            fsync: false,
            cc_mode: CcMode::Locking,
        }
    }
}

impl ChaosConfig {
    /// A config differing from default only in its seed.
    pub fn seeded(seed: u64) -> Self {
        ChaosConfig { seed, ..ChaosConfig::default() }
    }

    /// [`ChaosConfig::seeded`] with the write-ahead log and the post-run
    /// recovery oracle enabled.
    pub fn seeded_wal(seed: u64) -> Self {
        ChaosConfig { wal: true, ..ChaosConfig::seeded(seed) }
    }

    /// [`ChaosConfig::seeded`] with interleaved snapshot readers.
    pub fn seeded_snapshots(seed: u64) -> Self {
        ChaosConfig { snapshots: true, ..ChaosConfig::seeded(seed) }
    }

    /// [`ChaosConfig::seeded_wal`] with interleaved snapshot readers (the
    /// full oracle: faulty writers, crash points, epoch cross-checks).
    pub fn seeded_wal_snapshots(seed: u64) -> Self {
        ChaosConfig { snapshots: true, ..ChaosConfig::seeded_wal(seed) }
    }

    /// [`ChaosConfig::seeded_wal`] with every top-level commit forced
    /// (the differential suite's staged side, in optimistic mode).
    pub fn seeded_wal_fsync(seed: u64) -> Self {
        ChaosConfig { fsync: true, ..ChaosConfig::seeded_wal(seed) }
    }

    /// The same schedule under optimistic (first-committer-wins)
    /// concurrency control — the cross-mode differential suite's other
    /// side.
    pub fn optimistic(self) -> Self {
        ChaosConfig { cc_mode: CcMode::Optimistic, ..self }
    }

    /// The deadlock policy this seed runs under: both are non-blocking, so
    /// the single-threaded driver stays deterministic.
    pub fn policy(&self) -> DeadlockPolicy {
        if self.seed.is_multiple_of(2) {
            DeadlockPolicy::NoWait
        } else {
            DeadlockPolicy::Timeout(Duration::ZERO)
        }
    }

    /// The step horizon faults are spread over.
    pub fn horizon(&self) -> usize {
        self.workers * self.txns_per_worker * (self.ops_per_txn + self.max_depth + 4)
    }
}

/// An oracle or invariant failure, with the step it was detected at.
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosFailure {
    /// Scheduler step at which the failure was detected.
    pub step: usize,
    /// Human-readable description from the oracle.
    pub detail: String,
}

impl std::fmt::Display for ChaosFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "step {}: {}", self.step, self.detail)
    }
}

/// The outcome of one chaos run.
#[derive(Clone, Debug)]
pub struct ChaosReport {
    /// The seed the run was derived from.
    pub seed: u64,
    /// Scheduler steps executed.
    pub steps: usize,
    /// Faults that actually fired (some scheduled faults are no-ops, e.g.
    /// aborting a depth the worker never reached).
    pub faults_applied: Vec<String>,
    /// Committed / aborted top-level-or-nested transaction counts.
    pub commits: u64,
    /// Aborts (including orphan cleanup and fault-forced aborts).
    pub aborts: u64,
    /// Audit records produced.
    pub audit_records: usize,
    /// Order-sensitive hash of the audit log and fault trace: equal
    /// fingerprints ⇔ identical schedules.
    pub fingerprint: u64,
    /// Whole WAL records on (simulated) disk at the end of a WAL-backed
    /// run — after any injected crash cut (0 for in-memory runs).
    pub wal_records: usize,
    /// FNV-1a over the raw WAL bytes on (simulated) disk (0 for in-memory
    /// runs). Equal hashes ⇔ byte-identical logs — the differential
    /// suite's strongest equivalence: a single-threaded optimistic run
    /// staged through the group-commit pipeline must log the *same bytes*
    /// as one retiring directly, because singleton batches emit plain
    /// `Commit` records.
    pub wal_hash: u64,
    /// FNV-1a over the final committed state (key/value pairs in key
    /// order). Unlike [`ChaosReport::fingerprint`] and
    /// [`ChaosReport::wal_hash`] — which encode record *ordering* and so
    /// legitimately differ across CC modes — this hashes only what the
    /// run left behind, so a conflict-free seed must produce the same
    /// value under `Locking` and `Optimistic`.
    pub state_fingerprint: u64,
    /// Lock-manager conflicts the run hit (zero in optimistic mode, where
    /// transactions never contend on locks).
    pub lock_conflicts: u64,
    /// Optimistic validation failures at commit (zero in locking mode).
    /// `lock_conflicts == 0 && occ_conflicts == 0` ⇔ the schedule was
    /// conflict-free, which is when cross-mode state equality is owed.
    pub occ_conflicts: u64,
    /// `Ok(())` iff every oracle check passed.
    pub verdict: Result<(), ChaosFailure>,
}

/// The armable injector the driver installs into the engine: one-shot
/// per-transaction fault triggers consumed at the next hook call.
#[derive(Default)]
pub struct ChaosInjector {
    die: Mutex<HashSet<TxnId>>,
    timeout: Mutex<HashSet<TxnId>>,
    fail_child: Mutex<HashSet<TxnId>>,
}

impl ChaosInjector {
    fn arm_die(&self, t: TxnId) {
        self.die.lock().unwrap().insert(t);
    }
    fn arm_timeout(&self, t: TxnId) {
        self.timeout.lock().unwrap().insert(t);
    }
    fn arm_fail_child(&self, t: TxnId) {
        self.fail_child.lock().unwrap().insert(t);
    }
}

impl Injector for ChaosInjector {
    fn before_access(&self, t: TxnId, _shard: usize) -> AccessFault {
        if self.die.lock().unwrap().remove(&t) {
            return AccessFault::Die;
        }
        if self.timeout.lock().unwrap().remove(&t) {
            return AccessFault::Timeout;
        }
        AccessFault::Proceed
    }

    fn fail_begin_child(&self, parent: TxnId) -> bool {
        self.fail_child.lock().unwrap().remove(&parent)
    }
}

/// One logical worker: a top-level transaction plus its stack of open
/// subtransactions (innermost last), advanced one operation per step.
struct Worker {
    rng: StdRng,
    top: Option<Txn<u64, i64>>,
    stack: Vec<Txn<u64, i64>>,
    remaining_txns: usize,
    ops_left: usize,
}

impl Worker {
    fn new(seed: u64, index: usize, txns: usize) -> Worker {
        let mix = seed.wrapping_add((index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        Worker {
            rng: StdRng::seed_from_u64(mix),
            top: None,
            stack: Vec::new(),
            remaining_txns: txns,
            ops_left: 0,
        }
    }

    fn finished(&self) -> bool {
        self.remaining_txns == 0 && self.top.is_none() && self.stack.is_empty()
    }

    /// The deepest open transaction's id (for arming injector faults).
    fn deepest_id(&self) -> Option<TxnId> {
        self.stack.last().or(self.top.as_ref()).map(|t| t.id())
    }

    /// Drop the deepest open handle (aborting it): the response to an
    /// orphaned or killed subtransaction.
    fn drop_deepest(&mut self) {
        if self.stack.pop().is_none() {
            self.top = None;
        }
    }

    /// Advance this worker by one operation.
    fn step(&mut self, db: &Db<u64, i64>, cfg: &ChaosConfig) {
        let Some(_) = self.top.as_ref() else {
            // Leftover stack handles under a gone top are orphans: poke one
            // (exercising the orphan error path), then drop-abort it.
            if let Some(orphan) = self.stack.pop() {
                let key = self.rng.gen_range(0..cfg.keys.max(1));
                let _ = orphan.read(&key);
                drop(orphan);
                return;
            }
            if self.remaining_txns > 0 {
                self.remaining_txns -= 1;
                self.ops_left = cfg.ops_per_txn;
                self.top = Some(db.begin());
            }
            return;
        };

        if self.ops_left == 0 {
            // Close phase: commit inside-out, then the top.
            if let Some(child) = self.stack.pop() {
                let _ = child.commit();
            } else if let Some(top) = self.top.take() {
                let _ = top.commit();
            }
            return;
        }
        self.ops_left -= 1;

        let roll: f64 = self.rng.gen_range(0.0..1.0);
        if roll < 0.25 && self.stack.len() < cfg.max_depth {
            // Open a subtransaction under the deepest handle.
            let parent = self.stack.last().unwrap_or_else(|| self.top.as_ref().expect("top set"));
            match parent.child() {
                Ok(child) => self.stack.push(child),
                Err(e) => self.handle_error(e),
            }
            return;
        }
        if roll < 0.35 && !self.stack.is_empty() {
            // Commit the deepest subtransaction.
            let child = self.stack.pop().expect("non-empty");
            if let Err(e) = child.commit() {
                self.handle_error(e);
            }
            return;
        }
        if roll < 0.40 && !self.stack.is_empty() {
            // Voluntarily abort the deepest subtransaction (the resilient
            // path: siblings and ancestors are unaffected).
            self.stack.pop().expect("non-empty").abort();
            return;
        }
        // A data operation on the deepest handle.
        let key = self.rng.gen_range(0..cfg.keys.max(1));
        let read = self.rng.gen_range(0.0..1.0) < cfg.read_ratio;
        let handle = self.stack.last().unwrap_or_else(|| self.top.as_ref().expect("top set"));
        let result = if read {
            handle.read(&key).map(|_| ())
        } else {
            handle.rmw(&key, |v| v + 1).map(|_| ())
        };
        if let Err(e) = result {
            self.handle_error(e);
        }
    }

    fn handle_error(&mut self, e: TxnError) {
        match e {
            // Orphaned / dead handles: unwind the deepest one.
            TxnError::Orphaned | TxnError::NotActive => self.drop_deepest(),
            // Contention verdicts (victim kill, timeout): abort the deepest
            // and let the enclosing transaction carry on — resilience.
            e if e.is_retryable() => {
                if let Some(child) = self.stack.pop() {
                    child.abort();
                } else if let Some(top) = self.top.take() {
                    top.abort();
                }
            }
            // Nothing else should surface from this workload.
            other => panic!("unexpected engine error in chaos driver: {other}"),
        }
    }

    /// Abort-and-drop everything still open (end-of-run cleanup).
    fn teardown(&mut self) {
        self.stack.clear();
        self.top = None;
        self.remaining_txns = 0;
    }
}

/// Apply one fault. Returns a description if it actually fired.
fn apply_fault(
    fault: &FaultEvent,
    db: &Db<u64, i64>,
    injector: &ChaosInjector,
    workers: &mut [Worker],
    vfs: Option<&Arc<MemVfs>>,
) -> Option<String> {
    let n = workers.len();
    match &fault.kind {
        FaultKind::ForcedAbort { worker, depth } => {
            let w = &mut workers[*worker % n];
            if *depth == 0 {
                let top = w.top.take()?;
                let id = top.id();
                top.abort();
                Some(format!("forced-abort top {id:?} ({} orphaned)", w.stack.len()))
            } else if *depth <= w.stack.len() {
                // Abort a mid-tree handle; deeper handles stay in the stack
                // as live orphan handles the worker will trip over.
                let victim = w.stack.remove(*depth - 1);
                let id = victim.id();
                victim.abort();
                Some(format!("forced-abort depth {depth} {id:?}"))
            } else {
                None
            }
        }
        FaultKind::OrphanParent { worker } => {
            let w = &mut workers[*worker % n];
            if w.stack.is_empty() {
                return None;
            }
            let top = w.top.take()?;
            let id = top.id();
            let orphans = w.stack.len();
            top.abort();
            Some(format!("orphan-parent {id:?} ({orphans} live children orphaned)"))
        }
        FaultKind::LoseLock => {
            db.chaos_reap_all();
            Some("lose-lock (eager reap of all shards)".to_string())
        }
        FaultKind::VictimKill { worker } => {
            let id = workers[*worker % n].deepest_id()?;
            injector.arm_die(id);
            Some(format!("victim-kill armed for {id:?}"))
        }
        FaultKind::ShardStall { worker } => {
            let id = workers[*worker % n].deepest_id()?;
            injector.arm_timeout(id);
            Some(format!("shard-stall armed for {id:?}"))
        }
        FaultKind::BeginChildFail { worker } => {
            let id = workers[*worker % n].deepest_id()?;
            injector.arm_fail_child(id);
            Some(format!("begin-child-fail armed for {id:?}"))
        }
        FaultKind::CrashAfterRecord { record } => {
            let vfs = vfs?;
            if vfs.crashed() {
                return None; // the machine only dies once
            }
            let on_disk = record_count(&vfs.snapshot(recovery::WAL_PATH)) as u64;
            vfs.arm_crash(record.saturating_sub(on_disk), 0);
            Some(format!("crash-after-record {record} armed ({on_disk} already on disk)"))
        }
    }
}

/// An open snapshot pin paired with the committed state captured when it
/// was opened — the state it must keep answering with until dropped.
type PinnedSnap = (Snapshot<u64, i64>, BTreeMap<u64, i64>);

/// The committed state, key by key — what a snapshot opened *now* must
/// keep returning forever (the driver is single-threaded, so no commit
/// can land between the pin and this capture).
fn committed_state(db: &Db<u64, i64>, keys: u64) -> BTreeMap<u64, i64> {
    (0..keys.max(1)).filter_map(|k| db.committed_value(&k).map(|v| (k, v))).collect()
}

/// Full key-ordered scan through any read surface — the oracle's single
/// implementation against the unified [`ReadView`] API, so the snapshot
/// and transactional surfaces are checked by literally the same code.
fn full_scan<R: ReadView<u64, i64>>(view: &R) -> Result<Vec<(u64, i64)>, String> {
    view.scan_all().map_err(|e| format!("range scan through read view failed: {e}"))
}

/// One seeded snapshot-schedule step: sometimes open a snapshot (capturing
/// the state it must stay frozen at, and for live WAL runs cross-checking
/// that state against the reference trace at the pinned epoch), sometimes
/// re-read a pinned snapshot against its capture — point reads and
/// key-ordered range scans — sometimes re-open its epoch by time travel,
/// sometimes drop one.
fn step_snapshots(
    config: &ChaosConfig,
    db: &Db<u64, i64>,
    vfs: Option<&Arc<MemVfs>>,
    rng: &mut StdRng,
    snaps: &mut Vec<PinnedSnap>,
) -> Result<(), String> {
    let roll: f64 = rng.gen_range(0.0..1.0);
    if roll < 0.15 && snaps.len() < 3 {
        let snap = db.snapshot();
        let expected = committed_state(db, config.keys);
        if let Some(vfs) = vfs {
            // Cross-check against the independent interpreter: the state
            // the log proves was committed at the pinned epoch must be
            // exactly what the engine pinned. Skipped once the simulated
            // disk has died — the in-memory engine keeps running, so the
            // log is legitimately behind.
            if !vfs.crashed() {
                let (records, _) = rnt_wal::scan(&vfs.snapshot(recovery::WAL_PATH))
                    .map_err(|e| format!("snapshot cross-check scan: {e}"))?;
                let trace = recovery::reference_trace(&records)
                    .map_err(|e| format!("snapshot cross-check trace: {e}"))?;
                let at_epoch = trace.state_at(snap.epoch());
                if at_epoch != expected {
                    return Err(format!(
                        "snapshot at epoch {} disagrees with the reference trace: \
                         engine {expected:?}, trace {at_epoch:?}",
                        snap.epoch()
                    ));
                }
            }
        }
        snaps.push((snap, expected));
    } else if roll < 0.50 && !snaps.is_empty() {
        let (snap, expected) = &snaps[rng.gen_range(0..snaps.len())];
        if rng.gen_bool(0.5) {
            let key = rng.gen_range(0..config.keys.max(1));
            let got = snap.read(&key);
            if got != expected.get(&key).copied() {
                return Err(format!(
                    "pinned snapshot (epoch {}) moved at key {key}: read {got:?}, pinned {:?}",
                    snap.epoch(),
                    expected.get(&key)
                ));
            }
        } else {
            // A key-ordered range walk over the pinned view must equal the
            // captured state filtered to the bounds — same freshness rule
            // as a point read, checked across keys at once.
            let a = rng.gen_range(0..config.keys.max(1));
            let b = rng.gen_range(0..=config.keys.max(1));
            let (lo, hi) = (a.min(b), a.max(b));
            let got = snap.range(lo..hi);
            let expect: Vec<(u64, i64)> = expected.range(lo..hi).map(|(k, v)| (*k, *v)).collect();
            if got != expect {
                return Err(format!(
                    "pinned snapshot (epoch {}) range {lo}..{hi} moved: scanned {got:?}, \
                     pinned {expect:?}",
                    snap.epoch()
                ));
            }
        }
    } else if roll < 0.58 && !snaps.is_empty() {
        // Time travel back to a live pin's epoch: the pin keeps the epoch
        // at or above the retained floor, so `snapshot_at` must succeed,
        // and the re-opened view must reproduce the original capture.
        let (snap, expected) = &snaps[rng.gen_range(0..snaps.len())];
        let again = db.snapshot_at(snap.epoch()).map_err(|e| {
            format!("time travel to live-pinned epoch {} refused: {e}", snap.epoch())
        })?;
        let got = full_scan(&again)?;
        let expect: Vec<(u64, i64)> = expected.iter().map(|(k, v)| (*k, *v)).collect();
        if got != expect {
            return Err(format!(
                "time-travel snapshot at epoch {} disagrees with the original capture: \
                 scanned {got:?}, pinned {expect:?}",
                again.epoch()
            ));
        }
    } else if roll < 0.65 && !snaps.is_empty() {
        let i = rng.gen_range(0..snaps.len());
        snaps.swap_remove(i);
    }
    Ok(())
}

/// Teardown obligations of the snapshot schedule: the full oracle passes
/// while the still-open snapshots pin (so none sits below the retained
/// floor), every one of them re-verifies in full, and once all pins drop,
/// epoch GC must collapse every chain back to length 1 with counters
/// conserving.
fn finish_snapshots(
    config: &ChaosConfig,
    db: &Db<u64, i64>,
    snaps: Vec<PinnedSnap>,
) -> Result<(), String> {
    oracle::check(db)?;
    for (snap, expected) in &snaps {
        for k in 0..config.keys.max(1) {
            let got = snap.read(&k);
            if got != expected.get(&k).copied() {
                return Err(format!(
                    "snapshot (epoch {}) diverged by teardown at key {k}: read {got:?}, \
                     pinned {:?}",
                    snap.epoch(),
                    expected.get(&k)
                ));
            }
        }
        // The full ordered walk must agree with the capture too — one
        // scan covering every key the point loop just checked, exercising
        // the index merge instead of per-key chain lookups.
        let scanned = full_scan(snap)?;
        let expect: Vec<(u64, i64)> = expected.iter().map(|(k, v)| (*k, *v)).collect();
        if scanned != expect {
            return Err(format!(
                "snapshot (epoch {}) range walk diverged by teardown: scanned {scanned:?}, \
                 pinned {expect:?}",
                snap.epoch()
            ));
        }
    }
    drop(snaps);
    // At quiescence the *transactional* read surface must see the same
    // keyspace: the unified-API check — the same `full_scan` the snapshot
    // checks above used, now through a locked transaction.
    let committed: Vec<(u64, i64)> = committed_state(db, config.keys).into_iter().collect();
    let scanned = db
        .run(|t| ReadView::range(t, ..))
        .map_err(|e| format!("teardown transactional scan failed: {e}"))?;
    if scanned != committed {
        return Err(format!(
            "transactional range walk at quiescence disagrees with committed state: \
             scanned {scanned:?}, committed {committed:?}"
        ));
    }
    let stats = db.stats();
    if stats.snapshot_pins_live != 0 {
        return Err(format!("{} pins still live after teardown", stats.snapshot_pins_live));
    }
    let mut held = 0u64;
    for k in 0..config.keys.max(1) {
        let chain = db.history(&k);
        held += chain.len() as u64;
        if chain.len() != 1 {
            return Err(format!("chain for key {k} not reclaimed after all snapshots dropped"));
        }
    }
    if stats.versions_created - stats.versions_reclaimed != held {
        return Err(format!(
            "version conservation violated: created {} - reclaimed {} != held {held}",
            stats.versions_created, stats.versions_reclaimed
        ));
    }
    Ok(())
}

/// FNV-1a over a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// FNV-1a over the audit log and the applied-fault trace.
fn fingerprint(db: &Db<u64, i64>, applied: &[String]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    if let Some(log) = db.audit_log() {
        for record in log.records() {
            eat(format!("{record:?}").as_bytes());
        }
    }
    for line in applied {
        eat(line.as_bytes());
    }
    h
}

/// Run a chaos schedule derived entirely from `config.seed`.
pub fn run(config: &ChaosConfig) -> ChaosReport {
    let plan = FaultPlan::generate(
        config.seed,
        config.faults,
        config.horizon(),
        config.workers,
        config.max_depth + 1,
    );
    run_with_plan(config, &plan)
}

/// Run a chaos workload with an explicit fault plan (the shrinker's entry
/// point; [`run`] is `run_with_plan` with the seed-derived plan).
pub fn run_with_plan(config: &ChaosConfig, plan: &FaultPlan) -> ChaosReport {
    let db_config = DbConfig::builder()
        .policy(config.policy())
        .cc_mode(config.cc_mode)
        .audit(true)
        .durability(match (config.wal, config.fsync) {
            (false, _) => Durability::None,
            (true, false) => Durability::Wal,
            (true, true) => Durability::WalFsync,
        })
        .build();
    let (vfs, db): (Option<Arc<MemVfs>>, Db<u64, i64>) = if config.wal {
        let vfs = Arc::new(MemVfs::new());
        let db = Db::open_with_vfs(vfs.clone(), recovery::WAL_PATH, db_config)
            .expect("a fresh MemVfs log cannot fail to open");
        (Some(vfs), db)
    } else {
        (None, Db::with_config(db_config))
    };
    for k in 0..config.keys.max(1) {
        db.insert(k, k as i64 * 100);
    }
    let injector = Arc::new(ChaosInjector::default());
    db.chaos_set_injector(Some(injector.clone()));

    let mut workers: Vec<Worker> = (0..config.workers.max(1))
        .map(|i| Worker::new(config.seed, i, config.txns_per_worker))
        .collect();
    let mut sched = StdRng::seed_from_u64(config.seed ^ 0x5_C4ED);

    let mut applied: Vec<String> = Vec::new();
    let mut verdict: Result<(), ChaosFailure> = Ok(());
    let mut next_fault = 0;
    let mut step = 0;

    // Open snapshot pins, each with the committed state captured at pin
    // time — the state it must keep answering with until dropped.
    let mut snaps: Vec<PinnedSnap> = Vec::new();
    let mut snap_rng = StdRng::seed_from_u64(config.seed ^ 0x5AAB_5EED);

    'run: while step < config.max_steps {
        while next_fault < plan.faults.len() && plan.faults[next_fault].at_step <= step {
            let fault = &plan.faults[next_fault];
            next_fault += 1;
            if let Some(desc) = apply_fault(fault, &db, &injector, &mut workers, vfs.as_ref()) {
                applied.push(format!("step {step}: {desc}"));
                if config.check_after_each_fault {
                    if let Err(detail) = oracle::check(&db) {
                        verdict = Err(ChaosFailure { step, detail });
                        break 'run;
                    }
                }
            }
        }
        if config.snapshots {
            if let Err(detail) =
                step_snapshots(config, &db, vfs.as_ref(), &mut snap_rng, &mut snaps)
            {
                verdict = Err(ChaosFailure { step, detail });
                break 'run;
            }
        }
        let live: Vec<usize> =
            workers.iter().enumerate().filter(|(_, w)| !w.finished()).map(|(i, _)| i).collect();
        if live.is_empty() {
            break;
        }
        let w = live[sched.gen_range(0..live.len())];
        workers[w].step(&db, config);
        step += 1;
    }

    for w in &mut workers {
        w.teardown();
    }
    if verdict.is_ok() && config.snapshots {
        if let Err(detail) = finish_snapshots(config, &db, std::mem::take(&mut snaps)) {
            verdict = Err(ChaosFailure { step, detail });
        }
    }
    drop(snaps);
    if verdict.is_ok() {
        // Quiescence: every handle is closed; the full oracle must pass and
        // every lock table must have drained.
        if let Err(detail) = oracle::check(&db) {
            verdict = Err(ChaosFailure { step, detail });
        }
    }
    let mut wal_records = 0;
    let mut wal_hash = 0;
    if let Some(vfs) = &vfs {
        let bytes = vfs.snapshot(recovery::WAL_PATH);
        wal_records = record_count(&bytes);
        wal_hash = fnv1a(&bytes);
        if verdict.is_ok() {
            // Whatever reached the (possibly crash-cut) disk must recover
            // to the reference interpreter's committed state.
            if let Err(detail) = recovery::check_crash_recovery(&bytes) {
                verdict = Err(ChaosFailure { step, detail: format!("recovery oracle: {detail}") });
            }
        }
    }

    let stats = db.stats();
    let mut state_hash: u64 = 0xcbf2_9ce4_8422_2325;
    for (k, v) in committed_state(&db, config.keys) {
        state_hash ^= fnv1a(format!("{k}={v};").as_bytes());
        state_hash = state_hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    ChaosReport {
        seed: config.seed,
        steps: step,
        faults_applied: applied.clone(),
        commits: stats.committed,
        aborts: stats.aborted,
        audit_records: db.audit_log().map(|l| l.len()).unwrap_or(0),
        fingerprint: fingerprint(&db, &applied),
        wal_records,
        wal_hash,
        state_fingerprint: state_hash,
        lock_conflicts: stats.conflicts,
        occ_conflicts: stats.occ_conflicts,
        verdict,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_run_completes_and_passes() {
        let report = run(&ChaosConfig::seeded(1));
        assert!(report.verdict.is_ok(), "{:?}", report.verdict);
        assert!(report.steps > 0);
        assert!(report.audit_records > 0);
    }

    #[test]
    fn same_seed_same_fingerprint() {
        for seed in [0, 1, 7, 99, 12345] {
            let a = run(&ChaosConfig::seeded(seed));
            let b = run(&ChaosConfig::seeded(seed));
            assert_eq!(a.fingerprint, b.fingerprint, "seed {seed} diverged");
            assert_eq!(a.steps, b.steps);
            assert_eq!(a.faults_applied, b.faults_applied);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = run(&ChaosConfig::seeded(2));
        let b = run(&ChaosConfig::seeded(3));
        assert_ne!(a.fingerprint, b.fingerprint);
    }

    #[test]
    fn injector_faults_fire() {
        // Over a modest seed sweep, every fault kind must fire at least
        // once — the schedule space actually exercises all six.
        let mut seen_kinds: HashSet<&'static str> = HashSet::new();
        for seed in 0..60 {
            let report = run(&ChaosConfig { faults: 6, ..ChaosConfig::seeded(seed) });
            assert!(report.verdict.is_ok(), "seed {seed}: {:?}", report.verdict);
            for line in &report.faults_applied {
                for tag in [
                    "forced-abort",
                    "orphan-parent",
                    "lose-lock",
                    "victim-kill",
                    "shard-stall",
                    "begin-child-fail",
                ] {
                    if line.contains(tag) {
                        seen_kinds.insert(tag);
                    }
                }
            }
        }
        assert_eq!(seen_kinds.len(), 6, "only saw {seen_kinds:?}");
    }
}
