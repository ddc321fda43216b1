//! Scanners, appenders and a first-contact seeder on one store at once.
//!
//! The store's locks nest map → chain → dirty set (see the module docs of
//! `store.rs`); this drives every path that takes them together — ordered
//! walks, publish-path appends that dirty and collapse chains, quiescent
//! sweeps from `unpin`, and the map's exclusive lock from a seeder — and
//! finishing at all is the no-deadlock check. Every scan through a live
//! pin must be the state at the pinned epoch, in key order.

use rnt_mvcc::{MvccStore, GENESIS_EPOCH};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;

/// Keys each appender rewrites, all in one commit, with the commit epoch
/// as the value — so at any epoch a group's keys are equal, and the
/// newest group value *is* the epoch.
const GROUP: u64 = 4;
const APPENDERS: u64 = 2;
const SCANNERS: usize = 2;
const SCANS: usize = 2_000;
const SEEDS: u64 = 2_000;
/// Group keys sit `STRIDE` apart and seeded keys `SEED_GAP` apart, off
/// the stride, so fresh keys land all through the scanned keyspace.
const STRIDE: u64 = 1_000;
const SEED_GAP: u64 = APPENDERS * GROUP * STRIDE / SEEDS;

fn group_key(appender: u64, i: u64) -> u64 {
    (appender * GROUP + i) * STRIDE
}

#[test]
fn scans_at_a_live_pin_are_the_pinned_state_under_appends_and_seeding() {
    let store: MvccStore<u64, i64> = MvccStore::new(0);
    for a in 0..APPENDERS {
        for i in 0..GROUP {
            store.append(&group_key(a, i), GENESIS_EPOCH, 0);
        }
    }
    let stop = AtomicBool::new(false);
    let scanned = AtomicU64::new(0);
    let start = Barrier::new(APPENDERS as usize + SCANNERS + 1);
    std::thread::scope(|scope| {
        for a in 0..APPENDERS {
            let (store, stop, start) = (&store, &stop, &start);
            scope.spawn(move || {
                start.wait();
                while !stop.load(Ordering::Relaxed) {
                    let publish = store.begin_publish();
                    for i in 0..GROUP {
                        store.append(&group_key(a, i), publish.epoch(), publish.epoch() as i64);
                    }
                }
            });
        }
        // First contact of fresh keys between the groups' keys — the only
        // taker of the map's exclusive lock — paced by the scanners'
        // progress so that seeding spans the whole run.
        let seeder = {
            let (store, stop, start, scanned) = (&store, &stop, &start, &scanned);
            scope.spawn(move || {
                start.wait();
                for n in 0..SEEDS {
                    while scanned.load(Ordering::Relaxed) * SEEDS < n * (SCANNERS * SCANS) as u64
                        && !stop.load(Ordering::Relaxed)
                    {
                        std::thread::yield_now();
                    }
                    store.append(&(n * SEED_GAP + 1), GENESIS_EPOCH, -1);
                }
            })
        };
        let scanners: Vec<_> = (0..SCANNERS)
            .map(|_| {
                let (store, start, scanned) = (&store, &start, &scanned);
                scope.spawn(move || {
                    start.wait();
                    for _ in 0..SCANS {
                        let pin = store.pin();
                        let rows = store.range_at(.., pin);
                        assert!(rows.windows(2).all(|w| w[0].0 < w[1].0), "scan out of key order");
                        let value_of = |key: u64| {
                            rows.binary_search_by_key(&key, |&(k, _)| k).map(|i| rows[i].1)
                        };
                        let mut newest = 0;
                        for a in 0..APPENDERS {
                            let first = value_of(group_key(a, 0)).expect("a live pin lost a key");
                            for i in 1..GROUP {
                                assert_eq!(
                                    value_of(group_key(a, i)),
                                    Ok(first),
                                    "torn commit at {pin}"
                                );
                            }
                            newest = newest.max(first);
                        }
                        assert_eq!(newest as u64, pin, "scan is not the state at its pin");
                        assert!(rows.iter().all(|&(k, v)| k % STRIDE == 0 || v == -1));
                        assert!(store.max_epoch_in(..) >= Some(pin));
                        scanned.fetch_add(1, Ordering::Relaxed);
                        store.unpin(pin);
                    }
                })
            })
            .collect();
        // Stop the appenders, and the seeder's wait for scanner progress,
        // before surfacing any panic, or the scope would wait on them
        // forever.
        let mut joined: Vec<_> = scanners.into_iter().map(|h| h.join()).collect();
        stop.store(true, Ordering::Relaxed);
        joined.push(seeder.join());
        for outcome in joined {
            outcome.expect("a scanner or the seeder panicked");
        }
    });
    assert_eq!(store.keys_in(..).len() as u64, APPENDERS * GROUP + SEEDS);
    assert_eq!(store.counters().pins_live, 0);
    store.unpin(store.pin()); // quiescent release: settle + sweep
    assert_eq!(store.total_versions(), APPENDERS * GROUP + SEEDS, "chains collapse");
}

/// Appenders, a pinning scanner and a pin churner that triggers sweeps,
/// on four threads. Every chain spills and collapses many times over and
/// spill buffers pass between chains through the spare list. The layout
/// check holds at every point a sweep is not running, and once the pins
/// drop the store holds one version per key, as if none had been taken.
#[test]
fn spills_collapse_and_recycle_under_a_pin_and_sweep_storm() {
    const KEYS: u64 = 512;
    const WINDOW: u64 = 32;
    let store: MvccStore<u64, u64> = MvccStore::new(0);
    for k in 0..KEYS {
        store.append(&k, GENESIS_EPOCH, 0);
    }
    let stop = AtomicBool::new(false);
    let start = Barrier::new(4);
    std::thread::scope(|scope| {
        for a in 0..2u64 {
            let (store, stop, start) = (&store, &stop, &start);
            scope.spawn(move || {
                start.wait();
                let mut n = a;
                while !stop.load(Ordering::Relaxed) {
                    // Each commit writes its epoch to two keys.
                    let publish = store.begin_publish();
                    for key in [n * 7 % KEYS, n * 13 % KEYS + 1] {
                        store.append(&(key % KEYS), publish.epoch(), publish.epoch());
                    }
                    n += 2;
                }
            });
        }
        let scanner = {
            let (store, start) = (&store, &start);
            scope.spawn(move || {
                start.wait();
                for i in 0..2_000u64 {
                    let pin = store.pin();
                    let lo = i * WINDOW % KEYS;
                    let rows = store.range_at(lo..lo + WINDOW, pin);
                    assert_eq!(rows.len() as u64, WINDOW.min(KEYS - lo), "a live pin lost a key");
                    for &(key, value) in &rows {
                        // A value is the epoch that wrote it (or 0, the
                        // seed): never above the pin, and a point read
                        // through the same pin agrees.
                        assert!(value <= pin, "key {key} shows {value} above pin {pin}");
                        let point = store.read_at(&key, pin);
                        assert_eq!(point, Some(value), "key {key}");
                    }
                    store.unpin(pin);
                }
            })
        };
        let churner = {
            let (store, start) = (&store, &start);
            scope.spawn(move || {
                start.wait();
                for i in 0..20_000u32 {
                    let pin = store.pin();
                    store.unpin(pin);
                    if i % 2_000 == 0 {
                        // Takes the publish lock: no sweep and no
                        // publish-path append is mid-way.
                        assert_eq!(store.layout_violations(), Vec::<String>::new());
                    }
                }
            })
        };
        let joined = [scanner.join(), churner.join()];
        stop.store(true, Ordering::Relaxed);
        for outcome in joined {
            outcome.expect("the scanner or the churner panicked");
        }
    });
    assert_eq!(store.counters().pins_live, 0);
    store.unpin(store.pin()); // quiescent release: settle + sweep
    let c = store.counters();
    assert_eq!(c.created - c.reclaimed, store.total_versions(), "conservation");
    assert_eq!(store.total_versions(), KEYS, "every chain collapsed to its head");
    assert!(store.chains().iter().all(|(_, chain)| chain.len() == 1));
    assert_eq!(store.layout_violations(), Vec::<String>::new());
}
