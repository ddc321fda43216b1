//! The crash-recovery oracle: an independent reference interpreter over
//! raw WAL records, plus the end-to-end checks every crash point must
//! pass.
//!
//! The engine's own replay ([`rnt_core::Db::recover`]) reuses the engine's
//! seeding, chain and lock-table machinery, so a bug shared by the forward
//! path and replay would cancel out there. This module interprets the
//! *raw record stream* with none of that machinery — each commit frame's
//! write set laid over a plain map at its epoch — and demands the
//! recovered database agree with it. [`check_crash_recovery`] bundles the
//! full post-crash obligation:
//!
//! 1. **Differential**: the recovered committed state equals the reference
//!    interpreter's, key by key;
//! 2. **Prefix soundness**: uncommitted and in-flight writes are absent
//!    (the reference only applies effects whose top-level commit frame
//!    survived the cut — Lemma 7's `perm` boundary);
//! 3. **Lock invariants**: the recovered engine passes the chaos lock
//!    oracle (no dead holders, write stacks are ancestor chains, lock
//!    tables drain at quiescence);
//! 4. **Accounting**: `recovered_commits` equals the commit frames in
//!    the surviving prefix;
//! 5. **Idempotence**: recovering the recovered log changes nothing —
//!    `recover ∘ recover ≡ recover`, byte-for-byte.

use crate::oracle;
use rnt_core::{Db, DbConfig, DeadlockPolicy, Durability};
use rnt_wal::{scan, MemVfs, Record, Tail, WalCodec, INIT_ACTION};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The log path WAL-backed chaos runs write to (inside a [`MemVfs`]).
pub const WAL_PATH: &str = "chaos.wal";

/// What a successful [`check_crash_recovery`] saw.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Whole records in the surviving prefix.
    pub records: usize,
    /// Whether the prefix ended in a torn (partially written) record.
    pub torn: bool,
    /// Top-level commits the engine redid (commit frames replayed).
    pub recovered_commits: u64,
}

fn dec_u64(bytes: &[u8], what: &str) -> Result<u64, String> {
    <u64 as WalCodec>::decode(bytes).ok_or_else(|| format!("undecodable {what}"))
}

fn dec_i64(bytes: &[u8], what: &str) -> Result<i64, String> {
    <i64 as WalCodec>::decode(bytes).ok_or_else(|| format!("undecodable {what}"))
}

/// The reference interpreter's full output: the committed state *indexed
/// by commit epoch*, so the snapshot oracle can ask "what was the
/// committed state at epoch `e`?" and compare it against a pinned
/// [`rnt_core::Snapshot`].
#[derive(Clone, Debug, Default)]
pub struct ReferenceTrace {
    /// Genesis state: checkpoint snapshot entries plus init writes. These
    /// are epoch-0 (or pre-checkpoint) values, visible at every epoch.
    base: BTreeMap<u64, i64>,
    /// Each top-level commit's write set, keyed by the epoch its commit
    /// frame carries.
    commits: BTreeMap<u64, BTreeMap<u64, i64>>,
}

impl ReferenceTrace {
    /// The committed state as of `epoch`: base plus every commit ≤ it.
    pub fn state_at(&self, epoch: u64) -> BTreeMap<u64, i64> {
        let mut state = self.base.clone();
        for writes in self.commits.range(..=epoch).map(|(_, w)| w) {
            state.extend(writes.iter().map(|(&k, &v)| (k, v)));
        }
        state
    }

    /// The final committed state (every epoch applied).
    pub fn committed(&self) -> BTreeMap<u64, i64> {
        self.state_at(u64::MAX)
    }

    /// The highest commit epoch in the trace (0 if none).
    pub fn max_epoch(&self) -> u64 {
        self.commits.keys().next_back().copied().unwrap_or(0)
    }
}

/// Interpret a record stream with plain maps: seeds and the checkpoint
/// form the base, and each commit frame lays its write set over it at its
/// epoch. Frames must carry strictly increasing epochs in log order, and
/// each write set must name seeded keys in ascending key order. Returns
/// the full epoch-indexed trace; the committed state is
/// [`ReferenceTrace::committed`] — what a crash immediately after the last
/// record must preserve, and nothing more.
pub fn reference_trace(records: &[Record]) -> Result<ReferenceTrace, String> {
    let mut trace = ReferenceTrace::default();
    let mut last_epoch = 0u64;
    for (i, record) in records.iter().enumerate() {
        match record {
            Record::Checkpoint { epoch, snapshot } => {
                if i != 0 {
                    return Err(format!("checkpoint at record {i}, not at log start"));
                }
                last_epoch = *epoch;
                for (kb, e, vb) in snapshot {
                    if *e > *epoch {
                        return Err(format!(
                            "checkpoint entry epoch {e} above the checkpoint watermark {epoch}"
                        ));
                    }
                    trace
                        .base
                        .insert(dec_u64(kb, "checkpoint key")?, dec_i64(vb, "checkpoint value")?);
                }
            }
            Record::Write { action, key, version } => {
                if *action != INIT_ACTION {
                    return Err(format!("record {i}: write by {action} outside a commit frame"));
                }
                trace.base.insert(dec_u64(key, "init key")?, dec_i64(version, "init value")?);
            }
            // Only top-level commits reach the log, each with a fresh,
            // strictly increasing epoch — the engine serializes
            // publication, so the log must prove it did. A frame is
            // atomic: a torn one never reaches `scan`'s output.
            Record::Commit { action, epoch, writes } => {
                if *epoch <= last_epoch {
                    return Err(format!(
                        "record {i}: commit epoch {epoch} not above the last ({last_epoch})"
                    ));
                }
                last_epoch = *epoch;
                let mut effects = BTreeMap::new();
                for (kb, vb) in writes {
                    let k = dec_u64(kb, "key")?;
                    if !trace.base.contains_key(&k) {
                        return Err(format!("record {i}: {action} writes unseeded key {k}"));
                    }
                    if effects.last_key_value().is_some_and(|(&last, _)| last >= k) {
                        return Err(format!("record {i}: write set of {action} not in key order"));
                    }
                    effects.insert(k, dec_i64(vb, "value")?);
                }
                trace.commits.insert(*epoch, effects);
            }
        }
    }
    Ok(trace)
}

/// The final committed state of a record stream (see [`reference_trace`]).
pub fn reference_committed(records: &[Record]) -> Result<BTreeMap<u64, i64>, String> {
    reference_trace(records).map(|t| t.committed())
}

fn recovery_config() -> DbConfig {
    DbConfig::builder()
        .policy(DeadlockPolicy::NoWait)
        .audit(true)
        .durability(Durability::Wal)
        .build()
}

fn recover_from(bytes: &[u8]) -> Result<(Arc<MemVfs>, Db<u64, i64>), String> {
    let vfs = Arc::new(MemVfs::new());
    vfs.install(WAL_PATH, bytes.to_vec());
    let db = Db::recover_with_vfs(vfs.clone(), WAL_PATH, recovery_config())
        .map_err(|e| format!("recovery failed: {e}"))?;
    Ok((vfs, db))
}

/// Run the full recovery oracle against the raw bytes a crash left behind
/// (any prefix of a live log, torn or clean). See the module docs for the
/// five obligations checked.
pub fn check_crash_recovery(bytes: &[u8]) -> Result<RecoveryReport, String> {
    let (records, tail) = scan(bytes).map_err(|e| format!("scan: {e}"))?;
    let trace = reference_trace(&records)?;
    let expected = trace.committed();
    let commits = records.iter().filter(|r| matches!(r, Record::Commit { .. })).count() as u64;

    let (vfs, db) = recover_from(bytes)?;
    for (k, v) in &expected {
        let got = db.committed_value(k);
        if got != Some(*v) {
            return Err(format!(
                "recovered state diverges from reference at key {k}: engine {got:?}, \
                 reference {v}"
            ));
        }
    }
    oracle::check(&db).map_err(|e| format!("post-recovery oracle: {e}"))?;

    // MVCC obligations. A fresh snapshot of the recovered database must
    // equal the reference's committed state — no crashed snapshot pin
    // survives recovery, so nothing may block it or resurrect aborted
    // data.
    let snap = db.snapshot();
    for (k, v) in &expected {
        let got = snap.read(k);
        if got != Some(*v) {
            return Err(format!(
                "post-recovery snapshot diverges at key {k}: snapshot {got:?}, reference {v}"
            ));
        }
    }
    // The rebuilt ordered index must walk the reference state in key
    // order: recovery replays chain appends through the same primitive
    // the live engine publishes with, so index membership and order come
    // back identical — checked differentially, not assumed.
    let scanned = snap.range(..);
    let reference: Vec<(u64, i64)> = expected.iter().map(|(k, v)| (*k, *v)).collect();
    if scanned != reference {
        return Err(format!(
            "post-recovery range walk diverges from the reference state: scanned {scanned:?}, \
             reference {reference:?}"
        ));
    }
    // Time travel across the crash boundary is honest: replay compacts
    // chains (no pins are live during recovery), so every pre-crash epoch
    // is either servable-and-consistent or a typed Pruned refusal — and
    // the floor itself must always be servable.
    let bounds = db.epochs();
    match db.snapshot_at(bounds.oldest_retained) {
        Ok(at_floor) => {
            if at_floor.range(..) != scanned {
                // With chains compacted to single versions, the floor
                // view and the fresh snapshot must coincide.
                return Err(format!(
                    "snapshot at the retained floor {} disagrees with the fresh snapshot",
                    bounds.oldest_retained
                ));
            }
        }
        Err(e) => return Err(format!("retained floor {} unservable: {e}", bounds.oldest_retained)),
    }
    drop(snap);
    // With no pins, every recovered chain must have collapsed to exactly
    // its committed value, and the version counters must conserve.
    let mut held = 0u64;
    for (k, v) in &expected {
        let chain = db.history(k);
        held += chain.len() as u64;
        if chain.len() != 1 {
            return Err(format!("recovered chain for key {k} not reclaimed: {chain:?}"));
        }
        if chain[0].1 != *v {
            return Err(format!(
                "recovered chain head for key {k} is {}, reference {v}",
                chain[0].1
            ));
        }
    }
    let stats = db.stats();
    if stats.versions_created - stats.versions_reclaimed != held {
        return Err(format!(
            "version conservation violated after recovery: created {} - reclaimed {} != held {held}",
            stats.versions_created, stats.versions_reclaimed
        ));
    }
    if db.epochs().watermark < trace.max_epoch() {
        return Err(format!(
            "recovered epoch watermark {} below the log's max commit epoch {}",
            db.epochs().watermark,
            trace.max_epoch()
        ));
    }
    let recovered_commits = db.stats().recovered_commits;
    if recovered_commits != commits {
        return Err(format!(
            "recovered_commits miscounts: stat {recovered_commits}, {commits} commit frames"
        ));
    }

    // recover ∘ recover ≡ recover: the checkpointed log recovers to the
    // same state and rewrites to the same bytes.
    let after_first = vfs.snapshot(WAL_PATH);
    let (vfs2, db2) = recover_from(&after_first)?;
    for (k, v) in &expected {
        if db2.committed_value(k) != Some(*v) {
            return Err(format!("second recovery diverges at key {k}"));
        }
        if db2.history(k) != db.history(k) {
            return Err(format!("second recovery rebuilds a different chain for key {k}"));
        }
    }
    if db2.epochs().watermark != db.epochs().watermark {
        return Err("second recovery lands on a different epoch watermark".into());
    }
    if db2.snapshot().range(..) != db.snapshot().range(..) {
        return Err("second recovery rebuilds a different ordered index".into());
    }
    if vfs2.snapshot(WAL_PATH) != after_first {
        return Err("second recovery rewrote a different log: recovery is not idempotent".into());
    }

    Ok(RecoveryReport {
        records: records.len(),
        torn: matches!(tail, Tail::Torn(_)),
        recovered_commits,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn commit(action: u64, epoch: u64, writes: &[(u64, i64)]) -> Record {
        let writes = writes.iter().map(|&(k, v)| (enc(k), enc_v(v))).collect();
        Record::Commit { action, epoch, writes }
    }

    fn seeds() -> Vec<Record> {
        (0..3)
            .map(|k| Record::Write { action: INIT_ACTION, key: enc(k), version: enc_v(10) })
            .collect()
    }

    #[test]
    fn reference_applies_commit_frames_at_their_epochs() {
        let mut records = seeds();
        records.push(commit(1, 1, &[(0, 99)]));
        records.push(commit(2, 2, &[(1, 5), (2, 6)]));
        records.push(commit(3, 3, &[]));
        let trace = reference_trace(&records).unwrap();
        assert_eq!(trace.state_at(0).get(&0), Some(&10));
        assert_eq!(trace.state_at(1).get(&0), Some(&99));
        assert_eq!(trace.state_at(1).get(&2), Some(&10));
        assert_eq!(trace.committed(), BTreeMap::from([(0, 99), (1, 5), (2, 6)]));
        assert_eq!(trace.max_epoch(), 3);
    }

    #[test]
    fn reference_rejects_malformed_commits() {
        let bad = [
            (commit(1, 0, &[]), "not above"),
            (commit(1, 1, &[(7, 1)]), "unseeded"),
            (commit(1, 1, &[(2, 1), (1, 1)]), "key order"),
        ];
        for (frame, why) in bad {
            let mut records = seeds();
            records.push(frame);
            let err = reference_trace(&records).unwrap_err();
            assert!(err.contains(why), "{err}");
        }
        let mut records = seeds();
        records.push(Record::Write { action: 4, key: enc(0), version: enc_v(1) });
        assert!(reference_trace(&records).unwrap_err().contains("outside a commit frame"));
    }

    #[test]
    fn oracle_passes_on_a_live_log() {
        let vfs = Arc::new(MemVfs::new());
        let db: Db<u64, i64> = Db::open_with_vfs(vfs.clone(), WAL_PATH, recovery_config()).unwrap();
        db.insert(0, 5);
        let t = db.begin();
        t.rmw(&0, |v| v * 2).unwrap();
        t.commit().unwrap();
        let hang = db.begin();
        hang.rmw(&0, |v| v + 1).unwrap(); // in flight at the "crash"
        let report = check_crash_recovery(&vfs.snapshot(WAL_PATH)).unwrap();
        assert_eq!(report.recovered_commits, 1);
        assert_eq!(report.records, 2, "one seed, one commit frame, nothing of `hang`");
        assert!(!report.torn);
        drop(hang);
    }

    fn enc(k: u64) -> Vec<u8> {
        rnt_wal::encode_to_vec(&k)
    }

    fn enc_v(v: i64) -> Vec<u8> {
        rnt_wal::encode_to_vec(&v)
    }
}
