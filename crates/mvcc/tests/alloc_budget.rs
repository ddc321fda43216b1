//! What the store allocates, counted by a wrapping global allocator: a
//! committed version costs its B-tree entry and its slab slot and nothing
//! else, and a pinned commit reuses a recycled spill buffer instead of
//! allocating one.
//!
//! One `#[test]` in its own binary, because the counters are global to
//! the process and libtest would otherwise run other tests beside it.

use rnt_mvcc::{MvccStore, GENESIS_EPOCH};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

struct Counting;

/// Allocations made, and bytes currently allocated.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded to `System` unchanged; the counters
// only observe it.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        LIVE.fetch_add(layout.size() as u64, Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        LIVE.fetch_add(new_size as u64, Relaxed);
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

const KEYS: u64 = 65_536;

#[test]
fn committed_versions_cost_their_slot_and_pinned_commits_recycle() {
    // Seeding, then one unpinned commit to every key.
    let live_before = LIVE.load(Relaxed);
    let store: MvccStore<u64, u64> = MvccStore::new(0);
    for k in 0..KEYS {
        store.append(&k, GENESIS_EPOCH, k);
    }
    let allocs_before = ALLOCS.load(Relaxed);
    let publish = store.begin_publish();
    for k in 0..KEYS {
        store.append(&k, publish.epoch(), k + 1);
    }
    drop(publish);
    let appends_allocs = ALLOCS.load(Relaxed) - allocs_before;
    let per_key = (LIVE.load(Relaxed) - live_before) as f64 / KEYS as f64;
    assert_eq!(appends_allocs, 0, "an unpinned append overwrites the head in place");
    // A B-tree leaf holds 11 entries of an 8-byte key and a 4-byte chain
    // id, 152 bytes with its header, and every leaf but the root keeps at
    // least 5: at most 31 bytes per key, plus the much rarer internal
    // nodes. The chain itself is one 32-byte slab slot, and the slab
    // allocates whole segments of 1,024 slots, which 65,536 keys fill
    // exactly. A `Vec`'s first push reserves room for four versions, so
    // a buffer per key would take the total far past this bound.
    assert!(per_key <= 64.0, "{per_key:.1} bytes per key: more than a map entry and a slot");
    assert_eq!(store.total_versions(), KEYS);

    // Publish -> unpin -> re-pin, with the pin held across each commit.
    let commit = |i: u64| {
        let pin = store.pin();
        let publish = store.begin_publish();
        store.append(&(i * 97 % KEYS), publish.epoch(), i);
        drop(publish);
        store.unpin(pin);
    };
    for i in 0..1_000 {
        commit(i);
    }
    let allocs_before = ALLOCS.load(Relaxed);
    let commits = 10_000;
    for i in 0..commits {
        commit(i);
    }
    let allocs = ALLOCS.load(Relaxed) - allocs_before;
    // Each commit spills one chain and its unpin's sweep collapses it,
    // so a buffer allocated per spill would cost at least one allocation
    // per commit; recycled ones cost none once warm.
    assert!(allocs * 100 < commits, "{commits} pinned commits allocated {allocs} times");
    assert_eq!(store.total_versions(), KEYS);
}
