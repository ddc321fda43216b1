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
//! leader is active, it becomes the leader; otherwise it parks until its
//! result is posted. The leader drains the whole queue, its own commit
//! included, releases the pipeline lock and runs the caller's `retire`
//! step on the batch. Then it steps down and posts every participant's
//! result. There is no batch size and no batch window: batches form only
//! from the commits that queue while a leader retires the batch ahead of
//! them, so the queue is bounded by the number of committing threads and
//! a solo committer never waits for company.
//!
//! No thread ever depends on another thread *arriving*, which keeps the
//! protocol live under a single-threaded deterministic scheduler. And no
//! thread is left waiting on one that unwound: if `retire` panics, a
//! guard releases leadership and posts the pipeline's `unwound` result
//! to every batchmate.

use crate::locking::WAIT_SLICE;
use crate::registry::TxnId;
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::ops::Range;

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
    /// under one lock and the queue is drained whole, so its first
    /// ticket is always `next_seq - queue.len()`.
    queue: Vec<StagedCommit<P>>,
    /// Posted results, by ticket.
    results: HashMap<u64, R>,
    leader_active: bool,
    next_seq: u64,
}

/// The sequencer shared by all committing threads of one database.
pub(crate) struct CommitPipeline<P, R> {
    state: Mutex<PipelineState<P, R>>,
    /// Wakes parked stagers: results posted, leadership released.
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
                queue: Vec::new(),
                results: HashMap::new(),
                leader_active: false,
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
        retire: impl Fn(Vec<StagedCommit<P>>) -> Vec<R>,
    ) -> R {
        let mut state = self.state.lock();
        let seq = state.next_seq;
        state.next_seq += 1;
        state.queue.push(StagedCommit { txn, payload });
        // A drained commit's leader stays active until it posts that
        // commit's result, so a stager that finds no leader and no result
        // is still queued, and may lead.
        while state.leader_active {
            // A leader is retiring a batch, ours or one ahead of it: park
            // until results land or leadership frees up.
            self.cv.wait_for(&mut state, WAIT_SLICE);
            if let Some(result) = state.results.remove(&seq) {
                return result;
            }
        }
        state.leader_active = true;
        let batch_seqs = state.next_seq - state.queue.len() as u64..state.next_seq;
        let batch = std::mem::take(&mut state.queue);
        drop(state);
        let tenure = Tenure { pipeline: self, batch: batch_seqs.clone(), own: seq };
        let results = retire(batch);
        std::mem::forget(tenure);
        debug_assert_eq!(results.len(), batch_seqs.clone().count(), "one result per participant");
        let mut state = self.state.lock();
        state.leader_active = false;
        state.results.extend(batch_seqs.zip(results));
        let mine = state.results.remove(&seq).expect("a leader retires its own commit");
        // Release the lock *before* waking the batch: a notify under the
        // mutex makes every woken stager immediately block on it again
        // (two context switches per waiter).
        drop(state);
        self.cv.notify_all();
        mine
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
    use std::sync::atomic::{AtomicU64, Ordering};
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
        let out = p.stage(TxnId(1), (), retire_all);
        assert_eq!(out, Ok(()));
        assert_eq!(p.queued(), 0);
    }

    #[test]
    fn many_threads_all_retire() {
        let p = pipeline(Err(()));
        let retired = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for t in 0..16u64 {
            let p = p.clone();
            let retired = retired.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..25 {
                    let retire = |batch: Batch| {
                        retired.fetch_add(batch.len() as u64, Ordering::Relaxed);
                        retire_all(batch)
                    };
                    let out = p.stage(TxnId(t * 100 + i), (), retire);
                    assert_eq!(out, Ok(()));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(p.queued(), 0, "conservation: staged = retired");
        assert_eq!(retired.load(Ordering::Relaxed), 400, "conservation: staged = retired");
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
                let out = p.stage(TxnId(t), (), |b| b.iter().map(|s| Ok(s.txn.0)).collect());
                assert_eq!(out, Ok(t));
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    /// A leader whose `retire` panics takes only itself down: its
    /// batchmates hear the `unwound` result, and the pipeline keeps
    /// retiring later commits. The first leader drains only itself and
    /// holds its retirement until the other two are queued behind it, so
    /// the second leader drains both and panics.
    #[test]
    fn an_unwinding_leader_releases_its_batchmates() {
        let p = pipeline(Err("unwound"));
        let retirements = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..3u64)
            .map(|t| {
                let (p, retirements) = (p.clone(), retirements.clone());
                std::thread::spawn(move || {
                    catch_unwind(AssertUnwindSafe(|| {
                        let retire = |b: Batch| {
                            if retirements.fetch_add(1, Ordering::SeqCst) == 0 {
                                while p.queued() < 2 {
                                    std::thread::yield_now();
                                }
                                return vec![Ok(()); b.len()];
                            }
                            assert_eq!(b.len(), 2, "the second leader drains both waiters");
                            panic!("retiring failed");
                        };
                        p.stage(TxnId(t), (), retire)
                    }))
                })
            })
            .collect();
        let outcomes: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(outcomes.iter().filter(|o| o.is_err()).count(), 1, "one leader panicked");
        let mut heard: Vec<_> = outcomes.into_iter().flatten().collect();
        heard.sort();
        assert_eq!(heard, vec![Ok(()), Err("unwound")], "the batchmate hears `unwound`");
        let later = p.stage(TxnId(9), (), |b| vec![Ok(()); b.len()]);
        assert_eq!(later, Ok(()), "leadership was released");
        assert_eq!(p.queued(), 0);
    }
}
