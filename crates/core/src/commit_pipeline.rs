//! The group-commit sequencer: stages finished top-level commits from
//! many threads and lets one **leader** retire them as a batch.
//!
//! The paper's Lemma 7 requires the log be forced before a top-level
//! commit becomes visible — it does *not* require one force per commit.
//! Only a commit whose publication forces *under* the publish gate gains
//! by waiting for company: an optimistic commit under
//! `Durability::WalFsync` with a log attached, which validates, logs,
//! forces and publishes in one gate hold. Those commits are staged here,
//! and every commit in a batch shares that one gate hold, one commit
//! frame, one fsync and one contiguous epoch run. Every other top-level
//! commit holds the gate for no force, and retires directly.
//!
//! # Protocol (leader with handoff)
//!
//! A committing thread *stages* its commit into a FIFO queue. If no
//! leader is active **and its own entry is still queued**, it becomes
//! the leader; otherwise it parks until its result is posted. The leader
//! optionally waits up to `max_batch_wait` for the queue to reach
//! `max_batch`, drains a batch, releases the pipeline lock and runs the
//! caller's `retire` step on it. Then it steps down and posts every
//! participant's result. Batches form from the commits that queue while
//! a leader retires the batch ahead of them. A thread retires one batch
//! per leadership, so a leader whose own commit sat deeper than
//! `max_batch` retires the batch it drained and then competes for
//! leadership again, like any queued stager.
//!
//! No thread ever depends on another thread *arriving*, which keeps the
//! protocol live under a single-threaded deterministic scheduler. And no
//! thread is left waiting on one that unwound: if `retire` panics, a
//! guard releases leadership and posts the pipeline's `unwound` result
//! to every batchmate.

use crate::registry::TxnId;
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, VecDeque};
use std::ops::Range;
use std::time::{Duration, Instant};

/// Fallback re-check bound for a parked stager. Notifications (results
/// posted, leadership released) are what actually drive progress; the
/// bound only caps the cost of a lost race, mirroring the engine's
/// wait-slice idiom.
const STAGER_WAIT_SLICE: Duration = Duration::from_millis(2);

/// One staged top-level commit, queued until a leader retires it.
///
/// `P` is the payload the leader retires: the optimistic engine stages
/// its whole validation footprint (begin epoch, buffered writes, read
/// set, buffered audit records), so the leader can validate and publish
/// — or abort — each participant under one publish-gate acquisition.
pub(crate) struct StagedCommit<P> {
    /// The committing transaction.
    pub txn: TxnId,
    /// What the leader retires.
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

impl<P, R> PipelineState<P, R> {
    /// Whether ticket `seq` is still waiting in the queue (not drained).
    fn queued(&self, seq: u64) -> bool {
        seq >= self.next_seq - self.queue.len() as u64
    }
}

/// The sequencer shared by all committing threads of one database.
pub(crate) struct CommitPipeline<P, R> {
    state: Mutex<PipelineState<P, R>>,
    /// Wakes parked stagers (results posted / leadership released) and a
    /// leader waiting out `max_batch_wait` (new arrivals).
    cv: Condvar,
    /// The result a batchmate hears when its batch's retirement unwound.
    unwound: R,
}

/// One leadership's unwind guard, forgotten once the batch retired.
/// Dropped — `retire` panicked — it steps down and posts `unwound` to
/// every batchmate, so nobody parks forever on a thread that is gone.
struct Tenure<'a, P, R: Clone> {
    pipeline: &'a CommitPipeline<P, R>,
    /// The drained batch's tickets.
    batch: Range<u64>,
    /// The unwinding thread's own ticket: nobody waits for its result.
    own: u64,
}

impl<P, R: Clone> Drop for Tenure<'_, P, R> {
    fn drop(&mut self) {
        let mut state = self.pipeline.state.lock();
        state.leader_active = false;
        let unwound = &self.pipeline.unwound;
        for seq in self.batch.clone().filter(|&s| s != self.own) {
            state.results.insert(seq, unwound.clone());
        }
        drop(state);
        self.pipeline.cv.notify_all();
    }
}

impl<P, R: Clone> CommitPipeline<P, R> {
    /// An empty pipeline whose batchmates hear `unwound` when the thread
    /// retiring their batch panics.
    pub fn new(unwound: R) -> Self {
        CommitPipeline {
            state: Mutex::new(PipelineState {
                queue: VecDeque::new(),
                results: HashMap::new(),
                leader_active: false,
                leader_waiting: false,
                next_seq: 0,
            }),
            cv: Condvar::new(),
            unwound,
        }
    }

    /// Stage one finished top-level commit and block until a batch
    /// containing it has been durably retired; returns its result.
    ///
    /// The thread that led when the batch was drained runs `retire` on
    /// it, outside the pipeline lock (so staging never blocks behind an
    /// fsync) and holding leadership throughout; `retire` returns one
    /// result per participant, in batch order.
    pub fn stage(
        &self,
        txn: TxnId,
        payload: P,
        max_batch: usize,
        max_batch_wait: Duration,
        retire: impl Fn(Vec<StagedCommit<P>>) -> Vec<R>,
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
            // Only a stager whose entry is still queued may lead: one whose
            // batch was drained waits for the thread retiring it.
            if !state.leader_active && state.queued(seq) {
                state.leader_active = true;
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
                let batch_seqs = first..first + take as u64;
                let tenure = Tenure { pipeline: self, batch: batch_seqs.clone(), own: seq };
                let results = retire(batch);
                std::mem::forget(tenure);
                debug_assert_eq!(results.len(), take, "one result per participant");
                state = self.state.lock();
                state.leader_active = false;
                state.results.extend(batch_seqs.zip(results));
                // Release the lock *before* waking the batch: a notify
                // under the mutex makes every woken stager immediately
                // block on it again (two context switches per waiter).
                let mine = state.results.remove(&seq);
                drop(state);
                self.cv.notify_all();
                if let Some(result) = mine {
                    return result;
                }
                // Our own commit sat deeper than this batch: compete for
                // leadership again (or find it retired by someone else).
                state = self.state.lock();
                continue;
            }
            // A leader is retiring a batch, ours or one ahead of it: park
            // until results land or leadership frees up.
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
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;

    type Batch = Vec<StagedCommit<()>>;

    fn retire_all(batch: Batch) -> Vec<Result<(), ()>> {
        batch.iter().map(|_| Ok(())).collect()
    }

    fn pipeline<R: Clone>(unwound: R) -> Arc<CommitPipeline<(), R>> {
        Arc::new(CommitPipeline::new(unwound))
    }

    #[test]
    fn solo_stager_leads_itself() {
        let p = pipeline(Err(()));
        let out = p.stage(TxnId(1), (), 8, Duration::ZERO, retire_all);
        assert_eq!(out, Ok(()));
        assert_eq!(p.queued(), 0);
    }

    #[test]
    fn many_threads_all_retire() {
        let p = pipeline(Err(()));
        let batches = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for t in 0..16u64 {
            let p = p.clone();
            let batches = batches.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..25 {
                    let retire = |batch: Batch| {
                        batches.fetch_add(1, Ordering::Relaxed);
                        assert!(batch.len() <= 4, "batch over max_batch");
                        retire_all(batch)
                    };
                    let out = p.stage(TxnId(t * 100 + i), (), 4, Duration::from_micros(50), retire);
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
        let p = pipeline(Err(()));
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
        let p = pipeline(Err(()));
        let out = p.stage(TxnId(9), (), 64, Duration::ZERO, retire_all);
        assert_eq!(out, Ok(()));
    }

    /// A leader whose `retire` panics takes only itself down: its
    /// batchmates hear the `unwound` result, and the pipeline keeps
    /// retiring later commits.
    #[test]
    fn an_unwinding_leader_releases_its_batchmates() {
        let p = pipeline(Err("unwound"));
        let armed = Arc::new(AtomicBool::new(true));
        let handles: Vec<_> = (0..3u64)
            .map(|t| {
                let (p, armed) = (p.clone(), armed.clone());
                std::thread::spawn(move || {
                    catch_unwind(AssertUnwindSafe(|| {
                        let retire = |b: Batch| {
                            assert!(!armed.swap(false, Ordering::SeqCst), "retiring failed");
                            vec![Ok(()); b.len()]
                        };
                        // The window only closes on a full batch of three.
                        p.stage(TxnId(t), (), 3, Duration::from_secs(10), retire)
                    }))
                })
            })
            .collect();
        let outcomes: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(outcomes.iter().filter(|o| o.is_err()).count(), 1, "one leader panicked");
        for o in outcomes.into_iter().flatten() {
            assert_eq!(o, Err("unwound"));
        }
        let later = p.stage(TxnId(9), (), 3, Duration::ZERO, |b| vec![Ok(()); b.len()]);
        assert_eq!(later, Ok(()), "leadership was released");
        assert_eq!(p.queued(), 0);
    }
}
