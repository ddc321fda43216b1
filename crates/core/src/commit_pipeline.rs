//! The group-commit sequencer: stages finished top-level commits from
//! many threads and lets one **leader** retire them as a batch.
//!
//! The paper's Lemma 7 requires the log be forced before a top-level
//! commit becomes visible — it does *not* require one force per commit.
//! The sequencer exploits that: every staged commit in a batch shares one
//! WAL append + fsync and one publish-mutex acquisition (a contiguous
//! epoch run), amortizing the two measured serial bottlenecks of the
//! commit path across the batch.
//!
//! # Protocol (leader with handoff)
//!
//! A committing thread *stages* its commit into a FIFO queue. If no
//! leader is active, it becomes the leader itself; otherwise it parks
//! until its result is posted. The leader optionally waits up to
//! `max_batch_wait` for the queue to reach `max_batch`, drains a batch,
//! releases the pipeline lock, processes the batch (WAL + fsync + epoch
//! publication — supplied by the caller), posts every participant's
//! result, and repeats until its own commit has been retired. When the
//! leader steps down it wakes everyone, so a parked stager whose result
//! is still pending takes over leadership (handoff) — no thread ever
//! depends on another thread *arriving*, which keeps the protocol live
//! under a single-threaded deterministic scheduler.

use crate::registry::TxnId;
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

/// Fallback re-check bound for a parked stager. Notifications (results
/// posted, leadership released) are what actually drive progress; the
/// bound only caps the cost of a lost race, mirroring the engine's
/// wait-slice idiom.
const STAGER_WAIT_SLICE: Duration = Duration::from_millis(2);

/// One staged top-level commit, queued until a leader retires it.
///
/// `P` is the mode-specific payload: the locking engine stages the key
/// set whose locks the commit holds; the optimistic engine stages its
/// whole validation footprint (begin epoch, buffered writes, read set,
/// buffered audit records) so the leader can validate and publish — or
/// abort — each participant under one publish-gate acquisition.
pub(crate) struct StagedCommit<P> {
    /// The committing transaction.
    pub txn: TxnId,
    /// Mode-specific commit payload.
    pub payload: P,
}

struct PipelineState<P, R> {
    /// Staged commits in ticket order: tickets are handed out and pushed
    /// under one lock and the queue is drained from the front, so the
    /// front's ticket is always `next_seq - queue.len()`.
    queue: VecDeque<StagedCommit<P>>,
    /// Posted results, by ticket.
    results: HashMap<u64, R>,
    leader_active: bool,
    /// True only while the leader is parked inside its batch window.
    /// Stagers notify only then, and only on the arrival that fills the
    /// batch — an unconditional notify would wake every parked stager
    /// on every arrival (a thundering herd that serializes through the
    /// scheduler on small hosts).
    leader_waiting: bool,
    next_seq: u64,
}

/// The sequencer shared by all committing threads of one database.
pub(crate) struct CommitPipeline<P, R> {
    state: Mutex<PipelineState<P, R>>,
    /// Wakes parked stagers (results posted / leadership released) and a
    /// leader waiting out `max_batch_wait` (new arrivals).
    cv: Condvar,
}

impl<P, R: Clone> CommitPipeline<P, R> {
    pub fn new() -> Self {
        CommitPipeline {
            state: Mutex::new(PipelineState {
                queue: VecDeque::new(),
                results: HashMap::new(),
                leader_active: false,
                leader_waiting: false,
                next_seq: 0,
            }),
            cv: Condvar::new(),
        }
    }

    /// Stage one finished top-level commit and block until a batch
    /// containing it has been durably retired; returns its result.
    ///
    /// `process` retires one drained batch — append + force + publish —
    /// and returns one result per participant, in batch order. It runs
    /// outside the pipeline lock (so staging never blocks behind an
    /// fsync) on whichever thread holds leadership at the time.
    pub fn stage(
        &self,
        txn: TxnId,
        payload: P,
        max_batch: usize,
        max_batch_wait: Duration,
        process: impl Fn(Vec<StagedCommit<P>>) -> Vec<R>,
    ) -> R {
        let max_batch = max_batch.max(1);
        let mut state = self.state.lock();
        let seq = state.next_seq;
        state.next_seq += 1;
        state.queue.push_back(StagedCommit { txn, payload });
        // Wake a leader parked in its batch window only when this arrival
        // *fills* the batch — below that the leader sleeps to its deadline
        // regardless, and a notify per arrival would drag every parked
        // stager through the scheduler only to re-park.
        if state.leader_waiting && state.queue.len() >= max_batch {
            self.cv.notify_all();
        }
        loop {
            if let Some(result) = state.results.remove(&seq) {
                return result;
            }
            if !state.leader_active {
                state.leader_active = true;
                // Lead until our own commit is retired. We may retire
                // batches that do not contain us first (our entry can sit
                // deeper than `max_batch` in the queue).
                loop {
                    if !max_batch_wait.is_zero() {
                        let deadline = Instant::now() + max_batch_wait;
                        state.leader_waiting = true;
                        while state.queue.len() < max_batch {
                            let now = Instant::now();
                            if now >= deadline {
                                break;
                            }
                            self.cv.wait_for(&mut state, deadline - now);
                        }
                        state.leader_waiting = false;
                    }
                    let take = state.queue.len().min(max_batch);
                    let first = state.next_seq - state.queue.len() as u64;
                    let batch: Vec<StagedCommit<P>> = state.queue.drain(..take).collect();
                    debug_assert!(!batch.is_empty(), "leader with an empty queue");
                    drop(state);
                    let results = process(batch);
                    debug_assert_eq!(results.len(), take, "one result per participant");
                    state = self.state.lock();
                    state.results.extend((first..).zip(results));
                    if let Some(result) = state.results.remove(&seq) {
                        state.leader_active = false;
                        // Release the lock *before* waking the batch: a
                        // notify under the mutex makes every woken stager
                        // immediately block on it again (two context
                        // switches per waiter). The wake also hands
                        // leadership to any stager queued behind this
                        // batch, so nobody stays parked leaderless.
                        drop(state);
                        self.cv.notify_all();
                        return result;
                    }
                    // Our own commit sat deeper than this batch: wake its
                    // participants and keep leading. (Rare path — holding
                    // the lock across the notify is fine here.)
                    self.cv.notify_all();
                }
            }
            // A leader is processing (possibly our batch): park until
            // results land or leadership frees up.
            self.cv.wait_for(&mut state, STAGER_WAIT_SLICE);
        }
    }

    /// Commits currently staged and not yet retired (test introspection).
    #[cfg(test)]
    pub fn queued(&self) -> usize {
        self.state.lock().queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn retire_all(batch: Vec<StagedCommit<()>>) -> Vec<Result<(), ()>> {
        batch.iter().map(|_| Ok(())).collect()
    }

    #[test]
    fn solo_stager_leads_itself() {
        let p: CommitPipeline<(), Result<(), ()>> = CommitPipeline::new();
        let out = p.stage(TxnId(1), (), 8, Duration::ZERO, retire_all);
        assert_eq!(out, Ok(()));
        assert_eq!(p.queued(), 0);
    }

    #[test]
    fn many_threads_all_retire() {
        let p: Arc<CommitPipeline<(), Result<(), ()>>> = Arc::new(CommitPipeline::new());
        let batches = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for t in 0..16u64 {
            let p = p.clone();
            let batches = batches.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..25 {
                    let out =
                        p.stage(TxnId(t * 100 + i), (), 4, Duration::from_micros(50), |batch| {
                            batches.fetch_add(1, Ordering::Relaxed);
                            assert!(batch.len() <= 4, "batch over max_batch");
                            retire_all(batch)
                        });
                    assert_eq!(out, Ok(()));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(p.queued(), 0, "conservation: staged = retired");
        // 400 commits in batches of ≤4 takes at least 100 batches; any
        // batching at all takes fewer than 400.
        assert!(batches.load(Ordering::Relaxed) >= 100);
    }

    #[test]
    fn results_reach_the_right_stager() {
        let p: Arc<CommitPipeline<(), Result<u64, ()>>> = Arc::new(CommitPipeline::new());
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let p = p.clone();
            handles.push(std::thread::spawn(move || {
                // Result = the staging transaction's id: each stager must
                // get its own back, never a batchmate's.
                let out = p.stage(TxnId(t), (), 8, Duration::from_micros(200), |b| {
                    b.iter().map(|s| Ok(s.txn.0)).collect()
                });
                assert_eq!(out, Ok(t));
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn zero_wait_never_blocks_on_arrivals() {
        // max_batch 64 but nobody else ever stages: with a zero window the
        // solo stager must retire immediately instead of waiting for 63
        // peers that will never come.
        let p: CommitPipeline<(), Result<(), ()>> = CommitPipeline::new();
        let out = p.stage(TxnId(9), (), 64, Duration::ZERO, retire_all);
        assert_eq!(out, Ok(()));
    }
}
