//! Single-threaded probes: the uncontended cost of one public function of
//! one layer, over a fixed number of iterations, as the median of
//! [`REPS`] repetitions on fresh state. Each is the floor of the span that
//! contains it.

use crate::disk::ModelDisk;
use crate::gen::Rng;
use crate::hist::median;
use crate::trace::NoTrace;
use crate::workload::{DurableCommit, Workload};
use rnt_cluster::Partition;
use rnt_core::{LockState, Registry, TxnId};
use rnt_mvcc::MvccStore;
use rnt_wal::{frame, scan, MemVfs, Record, StdVfs, Vfs, Wal};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Repetitions per probe.
pub const REPS: usize = 5;

/// Median over [`REPS`] repetitions of the nanoseconds `timed` takes on a
/// fresh `setup()`, divided by `per`.
fn probe<S>(per: usize, mut setup: impl FnMut() -> S, mut timed: impl FnMut(&mut S)) -> f64 {
    let reps: Vec<f64> = (0..REPS)
        .map(|_| {
            let mut state = setup();
            let t0 = Instant::now();
            timed(&mut state);
            t0.elapsed().as_nanos() as f64 / per as f64
        })
        .collect();
    median(&reps)
}

fn write_record(i: u64) -> Record {
    Record::Write { action: i, key: i.to_le_bytes().to_vec(), version: i.to_le_bytes().to_vec() }
}

const MVCC_KEYS: u64 = 65_536;

fn loaded_store() -> MvccStore<u64, u64> {
    let store = MvccStore::new(16);
    for k in 0..MVCC_KEYS {
        store.append(&k, rnt_mvcc::GENESIS_EPOCH, 0);
    }
    store
}

/// Run every engine-independent probe; `div` scales the iteration counts
/// down (smoke mode).
pub fn layer_probes(div: usize, out_dir: &std::path::Path) -> Vec<(&'static str, f64)> {
    let n = 100_000 / div;
    let mut out = Vec::new();

    // Registry: ids are dense from 0, so `tops` are 0..n.
    out.push((
        "core.registry.begin_top_ns",
        probe(n, Registry::new, |r| {
            (0..n).for_each(|_| {
                black_box(r.begin_top());
            })
        }),
    ));
    let with_tops = || {
        let r = Registry::new();
        let tops: Vec<TxnId> = (0..n).map(|_| r.begin_top()).collect();
        (r, tops)
    };
    out.push((
        "core.registry.begin_child_ns",
        probe(n, with_tops, |(r, tops)| {
            for t in tops.iter() {
                black_box(r.begin_child(*t)).expect("the parent is active");
            }
        }),
    ));
    out.push((
        "core.registry.status_ns",
        probe(n, with_tops, |(r, tops)| {
            for t in tops.iter() {
                black_box(r.status(*t));
            }
        }),
    ));

    // Lock manager: one fresh object per top-level transaction.
    let with_locks = || {
        let (r, tops) = with_tops();
        let states: Vec<LockState<u64>> = (0..n).map(|_| LockState::new(0)).collect();
        (r, tops, states)
    };
    out.push((
        "core.lock.try_read_ns",
        probe(n, with_locks, |(r, tops, states)| {
            for (s, t) in states.iter_mut().zip(tops.iter()) {
                black_box(s.try_read(*t, r).is_ok());
            }
        }),
    ));
    out.push((
        "core.lock.try_write_ns",
        probe(n, with_locks, |(r, tops, states)| {
            for (s, t) in states.iter_mut().zip(tops.iter()) {
                black_box(s.try_write(*t, r, |v| v + 1).is_ok());
            }
        }),
    ));
    out.push((
        "core.lock.commit_to_parent_ns",
        probe(
            n,
            || {
                let (r, tops, mut states) = with_locks();
                for (s, t) in states.iter_mut().zip(tops.iter()) {
                    s.try_write(*t, &r, |v| v + 1).expect("a fresh object has no holder");
                }
                (r, tops, states)
            },
            |(r, tops, states)| {
                for (s, t) in states.iter_mut().zip(tops.iter()) {
                    s.commit_to_parent(*t, None, r);
                }
            },
        ),
    ));

    // MVCC store.
    out.push((
        "mvcc.store.pin_unpin_ns",
        probe(n, loaded_store, |s| (0..n).for_each(|_| s.unpin(black_box(s.pin())))),
    ));
    let with_keys = || (loaded_store(), Rng::new(7, 0));
    out.push((
        "mvcc.store.read_at_ns",
        probe(n, with_keys, |(s, rng)| {
            for _ in 0..n {
                black_box(s.read_at(&(rng.below(MVCC_KEYS as u32) as u64), 0));
            }
        }),
    ));
    let scans = n / 50;
    out.push((
        "mvcc.store.range_at_64_us",
        probe(scans, with_keys, |(s, rng)| {
            for _ in 0..scans {
                let start = rng.below(MVCC_KEYS as u32 - 64) as u64;
                black_box(s.range_at(start..start + 64, 0));
            }
        }) / 1e3,
    ));
    out.push((
        "mvcc.store.publish_append_ns",
        probe(n, with_keys, |(s, rng)| {
            for _ in 0..n {
                let ticket = s.begin_publish();
                s.append(&(rng.below(MVCC_KEYS as u32) as u64), ticket.epoch(), 1);
            }
        }),
    ));

    // WAL.
    out.push((
        "wal.log.frame_ns",
        probe(n, || (), |()| (0..n as u64).for_each(|i| drop(black_box(frame(&write_record(i)))))),
    ));
    let mem_log = || {
        let vfs = Arc::new(MemVfs::new());
        (Wal::open(vfs.clone(), "probe.wal").expect("MemVfs never fails"), vfs)
    };
    out.push((
        "wal.log.append_mem_ns",
        probe(n, mem_log, |(wal, _)| {
            (0..n as u64).for_each(|i| wal.append(&write_record(i)).expect("MemVfs never fails"));
        }),
    ));
    let log_bytes = {
        let (mut wal, vfs) = mem_log();
        (0..n as u64).for_each(|i| wal.append(&write_record(i)).expect("MemVfs never fails"));
        vfs.snapshot("probe.wal")
    };
    let scan_ns = probe(1, || (), |()| drop(black_box(scan(&log_bytes).expect("intact log"))));
    out.push((
        "wal.log.scan_mb_per_s",
        log_bytes.len() as f64 / (1 << 20) as f64 / (scan_ns / 1e9),
    ));

    // The sandbox's own disk, for comparison with ModelDisk's fixed latency.
    let fsyncs = (20 / div).max(1);
    std::fs::create_dir_all(out_dir).expect("the output directory is creatable");
    let path = out_dir.join("probe-fsync.wal");
    let path = path.to_str().expect("the output path is UTF-8");
    out.push((
        "wal.vfs.real_fsync_us",
        probe(fsyncs, StdVfs::new, |vfs| {
            for _ in 0..fsyncs {
                vfs.append(path, &[0u8; 64]).expect("the output directory is writable");
                vfs.fsync(path).expect("the output directory is writable");
            }
        }) / 1e3,
    ));
    let _ = std::fs::remove_file(path);

    let partition = Partition::new(2);
    out.push((
        "cluster.partition.home_ns",
        probe(
            n,
            || (),
            |()| {
                (0..n as u64).for_each(|k| {
                    black_box(partition.home(&k));
                })
            },
        ),
    ));
    out
}

/// Recovery probes on a log of a fixed number of `durable-commit`
/// transactions, written single-threaded to a disk with free fsyncs:
/// `(core.recover.replay_ms, core.recover.checkpoint_ms)`.
pub fn recovery_probes(div: usize) -> [(&'static str, f64); 2] {
    let txns = 20_000 / div;
    let w = DurableCommit::on(Arc::new(ModelDisk::default()));
    let inputs = DurableCommit::inputs(7, 0, txns);
    for i in 0..txns {
        w.attempt(inputs.get(i), &mut NoTrace).expect("a lone client meets no conflict");
    }
    let (db, disk) = w.parts();
    let image = disk.durable_image();
    let replay = probe(
        1,
        || image.clone(),
        |image| {
            black_box(DurableCommit::replay(std::mem::take(image)).expect("intact log"));
        },
    );
    // Each checkpoint rewrites the log as one snapshot record; the first
    // also discards the history, the later ones only the previous snapshot.
    let checkpoint = probe(1, || (), |()| db.checkpoint().expect("ModelDisk never fails"));
    [("core.recover.replay_ms", replay / 1e6), ("core.recover.checkpoint_ms", checkpoint / 1e6)]
}
