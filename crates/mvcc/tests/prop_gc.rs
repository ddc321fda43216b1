//! Property tests for epoch-based reclamation.
//!
//! Over random workloads of publishes, pins, reads, and unpins:
//!
//! * **safety** — a read through a live pin always returns the committed
//!   state at the pinned epoch (so no version a live snapshot resolves to
//!   was ever reclaimed);
//! * **liveness** — once every pin drops, every chain shrinks back to
//!   length 1;
//! * **conservation** — `created - reclaimed` equals the number of
//!   versions currently held, at every step;
//! * **layout** — no empty spill buffer, no long chain missing from the
//!   dirty set, no spare list over its cap, at every step;
//! * **ordered keyspace** — `range_at`, `keys_in` and `max_epoch_in` agree
//!   with a shadow `BTreeMap` over arbitrary bounds, including keys that
//!   first enter the store through a publish.

use proptest::prelude::*;
use rnt_mvcc::{MvccStore, GENESIS_EPOCH};
use std::collections::BTreeMap;

const KEYS: u64 = 6;

#[derive(Clone, Debug)]
enum Op {
    /// Commit a batch of writes (key, value) at the next epoch.
    Publish(Vec<(u64, i64)>),
    /// Open a snapshot (pin the watermark, capture the expected state).
    Pin,
    /// Read `key` through live pin `idx % live`, checking the shadow.
    Read { pin: usize, key: u64 },
    /// Range-scan `[lo, hi)` through live pin `idx % live`, checking the
    /// shadow filtered to the bounds in key order; and check the key set
    /// and the newest write epoch in the same bounds.
    RangeRead { pin: usize, lo: u64, hi: u64 },
    /// Drop live pin `idx % live`.
    Unpin(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => proptest::collection::vec((0..KEYS, -1000i64..1000), 1..4).prop_map(Op::Publish),
        2 => Just(Op::Pin),
        4 => (0usize..64, 0..KEYS).prop_map(|(pin, key)| Op::Read { pin, key }),
        2 => (0usize..64, 0..KEYS, 0..=KEYS).prop_map(|(pin, lo, hi)| Op::RangeRead { pin, lo, hi }),
        2 => (0usize..64).prop_map(Op::Unpin),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn gc_is_safe_live_and_conservative(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        let store: MvccStore<u64, i64> = MvccStore::new(4);
        // Shadow of the committed state, updated at each publish, and of
        // the epoch each key was last written at.
        let mut committed: BTreeMap<u64, i64> = BTreeMap::new();
        let mut written_at: BTreeMap<u64, u64> = BTreeMap::new();
        // Odd keys are not seeded: their first contact is a publish.
        for k in (0..KEYS).step_by(2) {
            store.append(&k, GENESIS_EPOCH, 0);
            committed.insert(k, 0);
            written_at.insert(k, GENESIS_EPOCH);
        }
        // Live pins with the state captured when they were taken.
        let mut pins: Vec<(u64, BTreeMap<u64, i64>)> = Vec::new();

        for op in ops {
            match op {
                Op::Publish(batch) => {
                    // One version per key per epoch: last write wins.
                    let merged: BTreeMap<u64, i64> = batch.into_iter().collect();
                    let publish = store.begin_publish();
                    for (k, v) in merged {
                        committed.insert(k, v);
                        written_at.insert(k, publish.epoch());
                        store.append(&k, publish.epoch(), v);
                    }
                }
                Op::Pin => {
                    let epoch = store.pin();
                    pins.push((epoch, committed.clone()));
                }
                Op::Read { pin, key } => {
                    if !pins.is_empty() {
                        let (epoch, shadow) = &pins[pin % pins.len()];
                        // Safety: the pinned view never moves.
                        prop_assert_eq!(
                            store.read_at(&key, *epoch),
                            shadow.get(&key).copied(),
                            "pinned read diverged from the state at pin time"
                        );
                    }
                }
                Op::RangeRead { pin, lo, hi } => {
                    let hi = hi.max(lo); // empty, not inverted
                    prop_assert_eq!(
                        store.keys_in(lo..hi),
                        committed.range(lo..hi).map(|(k, _)| *k).collect::<Vec<_>>(),
                        "key set in bounds diverged from the shadow"
                    );
                    prop_assert_eq!(
                        store.max_epoch_in(lo..hi),
                        written_at.range(lo..hi).map(|(_, e)| *e).max(),
                        "newest write epoch in bounds diverged from the shadow"
                    );
                    if !pins.is_empty() {
                        let (epoch, shadow) = &pins[pin % pins.len()];
                        let expect: Vec<(u64, i64)> =
                            shadow.range(lo..hi).map(|(k, v)| (*k, *v)).collect();
                        // The ordered walk over the pinned view matches the
                        // shadow filtered to the bounds, in key order.
                        prop_assert_eq!(
                            store.range_at(lo..hi, *epoch),
                            expect,
                            "pinned range diverged from the state at pin time"
                        );
                    }
                }
                Op::Unpin(idx) => {
                    if !pins.is_empty() {
                        let (epoch, _) = pins.swap_remove(idx % pins.len());
                        store.unpin(epoch);
                    }
                }
            }
            // Conservation and the store's layout hold at every step.
            let c = store.counters();
            prop_assert_eq!(c.created - c.reclaimed, store.total_versions());
            prop_assert_eq!(c.pins_live, pins.len() as u64);
            prop_assert_eq!(store.layout_violations(), Vec::<String>::new());
        }

        // Re-verify every surviving pin after the full workload.
        for (epoch, shadow) in &pins {
            for k in 0..KEYS {
                prop_assert_eq!(store.read_at(&k, *epoch), shadow.get(&k).copied());
            }
        }

        // Liveness: drop everything; chains collapse to length 1.
        for (epoch, _) in pins.drain(..) {
            store.unpin(epoch);
        }
        for (key, chain) in store.chains() {
            prop_assert_eq!(chain.len(), 1, "chain for {} not reclaimed: {:?}", key, chain);
            prop_assert_eq!(chain[0].1, committed[&key]);
        }
        let c = store.counters();
        prop_assert_eq!(c.created - c.reclaimed, committed.len() as u64);
        prop_assert_eq!(c.pins_live, 0);
    }
}
