//! Engine counters, cheap enough to leave on in benchmarks.
//!
//! Counters are *striped*: [`Stats`] holds a power-of-two array of
//! cache-line-isolated [`StatsBlock`]s and each thread bumps its own
//! stripe (picked once per thread, round-robin), so commits on different
//! cores stop bouncing a shared counter line. [`Stats::snapshot`] folds
//! the stripes into the same [`StatsSnapshot`] totals a single block
//! would produce — every conservation identity over the snapshot is
//! unaffected by striping (unit-tested against a one-stripe instance).

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Default stripe count (power of two). Sixteen blocks cover typical core
/// counts; threads beyond that share stripes round-robin, which only
/// costs contention, never correctness.
const DEFAULT_STRIPES: usize = 16;

/// One stripe of monotonic event counters.
///
/// `align(128)` keeps a whole block (20 × 8 = 160 bytes, rounded up to
/// 256) on cache lines no other stripe touches, so cross-core false
/// sharing between stripes is impossible even with adjacent-line
/// prefetching.
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct StatsBlock {
    /// Transactions begun (top-level + nested).
    pub begun: AtomicU64,
    /// Transactions committed.
    pub committed: AtomicU64,
    /// Transactions aborted.
    pub aborted: AtomicU64,
    /// Read operations completed.
    pub reads: AtomicU64,
    /// Write/rmw operations completed.
    pub writes: AtomicU64,
    /// Lock conflicts encountered (before any waiting).
    pub conflicts: AtomicU64,
    /// Wait episodes (a conflict that led to sleeping).
    pub waits: AtomicU64,
    /// Wait-die deaths issued.
    pub dies: AtomicU64,
    /// Deadlocks detected.
    pub deadlocks: AtomicU64,
    /// Lock-wait timeouts.
    pub timeouts: AtomicU64,
    /// Wakeups after which the awaited key's lock state had changed
    /// (a targeted `release-lock` notification did its job).
    pub wakeups_productive: AtomicU64,
    /// Wakeups with the awaited key's lock state unchanged: a
    /// [`DeadlockPolicy::WaitDie`](crate::DeadlockPolicy::WaitDie) or
    /// [`Detect`](crate::DeadlockPolicy::Detect) waiter's 2 ms fallback
    /// re-check expiring, or a
    /// [`Timeout`](crate::DeadlockPolicy::Timeout) waiter reaching its
    /// deadline (at most one per timed-out wait). Zero when per-key
    /// notifications drive progress.
    pub wakeups_spurious: AtomicU64,
    /// Release-path notifications issued to waiters.
    pub notifies: AtomicU64,
    /// Total time spent blocked on lock waits, in nanoseconds.
    pub wait_nanos: AtomicU64,
    /// Records appended to the write-ahead log: one per seed and one per
    /// commit frame (excludes checkpoint rewrites, which replace records
    /// rather than add them).
    pub wal_appends: AtomicU64,
    /// Fsyncs issued for top-level commit durability.
    pub wal_fsyncs: AtomicU64,
    /// Top-level commits crash recovery redid (commit entries replayed).
    pub recovered_commits: AtomicU64,
    /// Reads served from a pinned snapshot (lock-free: these never touch
    /// the lock tables, so they add nothing to `reads`/`conflicts`/`waits`).
    pub snapshot_reads: AtomicU64,
    /// Range scans started through any read view (snapshot walks of the
    /// ordered index, plus locked transactional range reads).
    pub range_scans: AtomicU64,
    /// Optimistic (first-committer-wins) validation failures at commit:
    /// a footprint key had a committed version newer than the begin
    /// snapshot, so the transaction aborted with [`Conflict`] instead of
    /// publishing. The optimistic counterpart of `conflicts` (which
    /// counts lock-manager conflicts and stays zero in optimistic mode).
    ///
    /// [`Conflict`]: crate::TxnError::Conflict
    pub occ_conflicts: AtomicU64,
}

/// Striped monotonic event counters for one database.
#[derive(Debug)]
pub struct Stats {
    stripes: Box<[StatsBlock]>,
}

impl Default for Stats {
    fn default() -> Self {
        Self::striped(DEFAULT_STRIPES)
    }
}

/// Every thread gets a process-wide ordinal on first counter bump; a
/// `Stats` instance maps it onto its own stripe array with a mask, so
/// instances with different stripe counts coexist.
static NEXT_THREAD_ORDINAL: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD_ORDINAL: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn thread_ordinal() -> usize {
    THREAD_ORDINAL.with(|c| {
        let mut v = c.get();
        if v == usize::MAX {
            v = NEXT_THREAD_ORDINAL.fetch_add(1, Ordering::Relaxed);
            c.set(v);
        }
        v
    })
}

impl Stats {
    /// Counters striped over `n` blocks (rounded up to a power of two).
    fn striped(n: usize) -> Self {
        let n = n.max(1).next_power_of_two();
        Stats { stripes: (0..n).map(|_| StatsBlock::default()).collect() }
    }

    /// Number of stripes (a power of two).
    #[cfg(test)]
    fn stripe_count(&self) -> usize {
        self.stripes.len()
    }

    /// The calling thread's stripe.
    #[inline]
    fn block(&self) -> &StatsBlock {
        // Single stripe: skip the thread-local dance entirely.
        if self.stripes.len() == 1 {
            return &self.stripes[0];
        }
        &self.stripes[thread_ordinal() & (self.stripes.len() - 1)]
    }

    /// Increment one counter on the calling thread's stripe.
    #[inline]
    pub(crate) fn bump(&self, field: impl FnOnce(&StatsBlock) -> &AtomicU64) {
        field(self.block()).fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n` to one counter on the calling thread's stripe.
    #[inline]
    pub(crate) fn add(&self, field: impl FnOnce(&StatsBlock) -> &AtomicU64, n: u64) {
        field(self.block()).fetch_add(n, Ordering::Relaxed);
    }

    /// Take a consistent-enough snapshot: each counter is the fold (sum)
    /// of its per-stripe cells, each cell read atomically.
    pub fn snapshot(&self) -> StatsSnapshot {
        let mut snap = StatsSnapshot::default();
        for b in self.stripes.iter() {
            snap.begun += b.begun.load(Ordering::Relaxed);
            snap.committed += b.committed.load(Ordering::Relaxed);
            snap.aborted += b.aborted.load(Ordering::Relaxed);
            snap.reads += b.reads.load(Ordering::Relaxed);
            snap.writes += b.writes.load(Ordering::Relaxed);
            snap.conflicts += b.conflicts.load(Ordering::Relaxed);
            snap.waits += b.waits.load(Ordering::Relaxed);
            snap.dies += b.dies.load(Ordering::Relaxed);
            snap.deadlocks += b.deadlocks.load(Ordering::Relaxed);
            snap.timeouts += b.timeouts.load(Ordering::Relaxed);
            snap.wakeups_productive += b.wakeups_productive.load(Ordering::Relaxed);
            snap.wakeups_spurious += b.wakeups_spurious.load(Ordering::Relaxed);
            snap.notifies += b.notifies.load(Ordering::Relaxed);
            snap.wait_nanos += b.wait_nanos.load(Ordering::Relaxed);
            snap.wal_appends += b.wal_appends.load(Ordering::Relaxed);
            snap.wal_fsyncs += b.wal_fsyncs.load(Ordering::Relaxed);
            snap.recovered_commits += b.recovered_commits.load(Ordering::Relaxed);
            snap.snapshot_reads += b.snapshot_reads.load(Ordering::Relaxed);
            snap.range_scans += b.range_scans.load(Ordering::Relaxed);
            snap.occ_conflicts += b.occ_conflicts.load(Ordering::Relaxed);
        }
        snap
    }
}

/// A plain snapshot of [`Stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Transactions begun.
    pub begun: u64,
    /// Transactions committed.
    pub committed: u64,
    /// Transactions aborted.
    pub aborted: u64,
    /// Read operations completed.
    pub reads: u64,
    /// Write operations completed.
    pub writes: u64,
    /// Lock conflicts encountered.
    pub conflicts: u64,
    /// Wait episodes.
    pub waits: u64,
    /// Wait-die deaths.
    pub dies: u64,
    /// Deadlocks detected.
    pub deadlocks: u64,
    /// Lock-wait timeouts.
    pub timeouts: u64,
    /// Wakeups that observed a changed lock state on the awaited key.
    pub wakeups_productive: u64,
    /// Wakeups that observed an unchanged lock state (a fallback
    /// re-check or a deadline expiring).
    pub wakeups_spurious: u64,
    /// Release-path notifications issued.
    pub notifies: u64,
    /// Total lock-wait time in nanoseconds.
    pub wait_nanos: u64,
    /// Records appended to the write-ahead log.
    pub wal_appends: u64,
    /// Fsyncs issued for top-level commit durability.
    pub wal_fsyncs: u64,
    /// Top-level commits crash recovery redid (commit entries replayed).
    pub recovered_commits: u64,
    /// Reads served from a pinned snapshot (lock-free).
    pub snapshot_reads: u64,
    /// Range scans started through any read view.
    pub range_scans: u64,
    /// Always 0: every top-level commit frames, forces and publishes on
    /// its own, and nothing batches commits. Kept only because the
    /// benchmark harness under `benchmark/` still reads it; no engine
    /// code or test may.
    pub commits_batched: u64,
    /// Always 0, for the same reason as `commits_batched`.
    pub commit_batches: u64,
    /// Optimistic validation failures at commit (first-committer-wins
    /// losers, each surfaced as a retryable `Conflict`).
    pub occ_conflicts: u64,
    /// Committed versions ever appended to the MVCC chains (top-level
    /// commit publications plus seeds).
    pub versions_created: u64,
    /// Superseded versions reclaimed by epoch-based GC. Conservation:
    /// `versions_created - versions_reclaimed` equals the number of
    /// versions currently held across all chains.
    pub versions_reclaimed: u64,
    /// Snapshots currently holding an epoch pin (a gauge, not monotonic).
    pub snapshot_pins_live: u64,
    /// Transactions the registry still holds (a gauge): the members of
    /// every tree some handle is still open on. Zero once every handle
    /// has dropped.
    pub txns_resident: u64,
}

impl StatsSnapshot {
    /// Net committed transactions.
    pub fn commits_minus_aborts(&self) -> i64 {
        self.committed as i64 - self.aborted as i64
    }

    /// The WAL append-conservation total: in a log-enabled run with no
    /// checkpoint rewrite, every seeded key appends one init record and
    /// every commit frame one record — so `wal_appends` must equal this
    /// sum for `inserts` keys and `top_level_commits` committed top-level
    /// transactions (`committed` cannot say: it counts nested commits
    /// too). Begins, writes, nested commits and aborts append nothing.
    pub fn wal_appends_expected(&self, inserts: u64, top_level_commits: u64) -> u64 {
        inserts + top_level_commits
    }

    /// Mean blocked time per wait episode, in microseconds (0 if none).
    pub fn avg_wait_micros(&self) -> f64 {
        if self.waits == 0 {
            0.0
        } else {
            self.wait_nanos as f64 / 1_000.0 / self.waits as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_bumps() {
        let s = Stats::default();
        s.bump(|b| &b.begun);
        s.bump(|b| &b.begun);
        s.bump(|b| &b.deadlocks);
        let snap = s.snapshot();
        assert_eq!(snap.begun, 2);
        assert_eq!(snap.deadlocks, 1);
        assert_eq!(snap.commits_minus_aborts(), 0);
    }

    #[test]
    fn wal_counters_snapshot_and_conservation() {
        let s = Stats::default();
        // 3 init records and 4 commit frames.
        for _ in 0..7 {
            s.bump(|b| &b.wal_appends);
        }
        s.bump(|b| &b.wal_fsyncs);
        s.add(|b| &b.recovered_commits, 4);
        let snap = s.snapshot();
        assert_eq!(snap.wal_appends, 7);
        assert_eq!(snap.wal_fsyncs, 1);
        assert_eq!(snap.recovered_commits, 4);
        assert_eq!(snap.wal_appends_expected(3, 4), snap.wal_appends);
    }

    #[test]
    fn stripe_count_rounds_to_power_of_two() {
        assert_eq!(Stats::striped(1).stripe_count(), 1);
        assert_eq!(Stats::striped(3).stripe_count(), 4);
        assert_eq!(Stats::striped(16).stripe_count(), 16);
        assert_eq!(Stats::striped(0).stripe_count(), 1);
    }

    #[test]
    fn blocks_are_cache_line_isolated() {
        assert_eq!(std::mem::align_of::<StatsBlock>() % 128, 0);
        assert_eq!(std::mem::size_of::<StatsBlock>() % 128, 0);
    }

    /// Fold-equivalence: the same bump sequence applied to a striped and a
    /// single-block instance produces identical snapshots, even when the
    /// bumps come from many threads (cross-thread visibility of stripes).
    #[test]
    fn striped_fold_matches_single_block_across_threads() {
        let striped = std::sync::Arc::new(Stats::striped(8));
        let single = std::sync::Arc::new(Stats::striped(1));
        let threads = 8;
        let per_thread = 1000u64;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let striped = striped.clone();
                let single = single.clone();
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        striped.bump(|b| &b.committed);
                        single.bump(|b| &b.committed);
                        if i % 3 == 0 {
                            striped.add(|b| &b.wait_nanos, i);
                            single.add(|b| &b.wait_nanos, i);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(striped.snapshot(), single.snapshot());
        assert_eq!(striped.snapshot().committed, threads as u64 * per_thread);
    }
}
