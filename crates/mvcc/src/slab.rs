//! An append-only slab: slots addressed by a dense `u32` index, each
//! written once, in index order, and then shared unchanged until the
//! slab drops.
//!
//! Slots live in fixed-size segments that never move, found through a
//! directory of segment pointers. A read is two dependent loads and no
//! lock; a push serializes on the slab's own mutex. When the directory
//! fills, a copy twice its size replaces it, and the old one is kept
//! until the slab drops, since a reader may still be indexing it. The
//! retired directories add up to less than the current one, so the slab
//! costs its slots, rounded up to one segment, plus a pointer per
//! segment twice over at most.
//!
//! **The invariant every `unsafe` block here rests on:** exactly the
//! slots `0..len` are initialized. A push writes its slot (after
//! installing the slot's segment in the directory, and the directory in
//! `dir`) *before* it stores `len` with `Release`; a read loads `len`
//! with `Acquire` and refuses any index at or above it. A written slot is
//! never written again, and nothing is freed before `drop`, which holds
//! `&mut self`.

use parking_lot::Mutex;
use std::mem::MaybeUninit;
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicU32, Ordering};

/// Slots per segment, as a power of two.
const SEG_BITS: u32 = 10;
const SEG: usize = 1 << SEG_BITS;

/// Segment pointers the first directory has room for.
const FIRST_DIR: usize = 4;

/// Aligned to a pair of cache lines of its own: every read loads `len`
/// and `dir`, so a neighbour written on every access (the store's map
/// lock) would turn each read into a cache miss.
#[repr(align(128))]
pub(crate) struct Slab<T> {
    /// The current directory: the first element of an array of segment
    /// pointers, one per `SEG` slots.
    dir: AtomicPtr<AtomicPtr<T>>,
    /// Slots written: exactly `0..len` are initialized.
    len: AtomicU32,
    /// Every directory allocated, the current one last (empty until the
    /// first push). Pushes serialize on this lock.
    dirs: Mutex<Vec<*mut [AtomicPtr<T>]>>,
}

// SAFETY: the slab owns its `T`s — moved in by `push`, dropped by `drop` —
// and hands out only `&T`, so it may move to another thread when `T` may,
// and be shared when `T` may be both moved and shared. Its raw pointers
// are its own allocations, reached only through the invariant above.
unsafe impl<T: Send> Send for Slab<T> {}
unsafe impl<T: Send + Sync> Sync for Slab<T> {}

impl<T> Slab<T> {
    pub(crate) fn new() -> Self {
        Slab {
            dir: AtomicPtr::new(ptr::null_mut()),
            len: AtomicU32::new(0),
            dirs: Mutex::default(),
        }
    }

    /// Slots written so far.
    pub(crate) fn len(&self) -> u32 {
        self.len.load(Ordering::Acquire)
    }

    /// The slot at `index`. Panics if it has not been written.
    pub(crate) fn get(&self, index: u32) -> &T {
        let len = self.len();
        assert!(index < len, "slab slot {index} read before it was written ({len} written)");
        let i = index as usize;
        // Relaxed: the Acquire above ordered every store made before the
        // push of `index` published it, the directory's among them; a later
        // directory is a copy that holds every pointer this one did.
        let dir = self.dir.load(Ordering::Relaxed);
        // SAFETY: `index < len`, so slot `index` is initialized, and its
        // segment's pointer is in `dir` (the invariant). Nothing is freed
        // before `drop`, and a written slot is never written again, so the
        // shared reference aliases no write.
        unsafe {
            let segment = (*dir.add(i >> SEG_BITS)).load(Ordering::Relaxed);
            &*segment.add(i & (SEG - 1))
        }
    }

    /// Write `value` into the next slot and return its index.
    pub(crate) fn push(&self, value: T) -> u32 {
        let mut dirs = self.dirs.lock();
        // Only pushes store `len`, and they hold `dirs`.
        let index = self.len.load(Ordering::Relaxed);
        assert!(index < u32::MAX, "slab full: {index} slots");
        let (segment, slot) = (index as usize >> SEG_BITS, index as usize & (SEG - 1));
        let mut dir = self.dir.load(Ordering::Relaxed);
        if slot == 0 {
            let cap = dirs.last().map_or(0, |d| d.len());
            if segment == cap {
                dir = self.grow_dir(&mut dirs, segment);
            }
            let fresh = Box::into_raw(Box::<[T]>::new_uninit_slice(SEG)).cast::<T>();
            // SAFETY: `segment < cap` of the current directory, which only
            // pushes (serialized by `dirs`) ever write.
            unsafe { (*dir.add(segment)).store(fresh, Ordering::Relaxed) };
        }
        // SAFETY: the segment is installed (here or by an earlier push),
        // and slot `index` is at or above `len`: no reader can reach it
        // until the `Release` store below, and no push wrote it before.
        unsafe { (*dir.add(segment)).load(Ordering::Relaxed).add(slot).write(value) };
        self.len.store(index + 1, Ordering::Release);
        index
    }

    /// Replace the directory, full at `used` segments, with one twice its
    /// size holding the same pointers, and return it.
    fn grow_dir(&self, dirs: &mut Vec<*mut [AtomicPtr<T>]>, used: usize) -> *mut AtomicPtr<T> {
        let old = self.dir.load(Ordering::Relaxed);
        let grown: Box<[AtomicPtr<T>]> = (0..(2 * used).max(FIRST_DIR))
            .map(|i| {
                // SAFETY: `i < used`, the old directory's full length.
                let segment = if i < used {
                    unsafe { (*old.add(i)).load(Ordering::Relaxed) }
                } else {
                    ptr::null_mut()
                };
                AtomicPtr::new(segment)
            })
            .collect();
        let grown = Box::into_raw(grown);
        dirs.push(grown);
        let grown = grown.cast::<AtomicPtr<T>>();
        self.dir.store(grown, Ordering::Relaxed);
        grown
    }
}

impl<T> Drop for Slab<T> {
    fn drop(&mut self) {
        let len = *self.len.get_mut() as usize;
        let dir = *self.dir.get_mut();
        // SAFETY: `&mut self`, so no reader or push is left. Exactly the
        // slots `0..len` are initialized, and they fill
        // `len.div_ceil(SEG)` segments, each from `Box::into_raw` of `SEG`
        // slots; every directory came from `Box::into_raw` too.
        unsafe {
            for segment in 0..len.div_ceil(SEG) {
                let base = (*dir.add(segment)).load(Ordering::Relaxed);
                let written = (len - segment * SEG).min(SEG);
                ptr::drop_in_place(ptr::slice_from_raw_parts_mut(base, written));
                let slots = ptr::slice_from_raw_parts_mut(base.cast::<MaybeUninit<T>>(), SEG);
                drop(Box::from_raw(slots));
            }
            for &dir in self.dirs.get_mut().iter() {
                drop(Box::from_raw(dir));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    #[test]
    fn slots_keep_their_index_across_segments_and_directory_growth() {
        let slab = Slab::new();
        let n = (2 * FIRST_DIR + 1) * SEG + 3;
        for i in 0..n {
            assert_eq!(slab.push(i as u64), i as u32);
        }
        assert_eq!(slab.len(), n as u32);
        assert!((0..n as u32).all(|i| *slab.get(i) == i as u64));
    }

    #[test]
    #[should_panic(expected = "read before it was written")]
    fn an_unwritten_slot_is_refused() {
        let slab = Slab::new();
        slab.push(1u64);
        slab.get(1);
    }

    #[test]
    fn drop_drops_every_written_slot_once() {
        let counter = Arc::new(AtomicUsize::new(0));
        struct Counted(Arc<AtomicUsize>);
        impl Drop for Counted {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let slab = Slab::new();
        for _ in 0..SEG + 1 {
            slab.push(Counted(Arc::clone(&counter)));
        }
        drop(slab);
        assert_eq!(counter.load(Ordering::Relaxed), SEG + 1);
    }

    #[test]
    fn readers_see_every_published_slot_while_pushes_grow_the_slab() {
        let slab = Slab::new();
        let n = 4 * SEG as u32;
        std::thread::scope(|scope| {
            scope.spawn(|| (0..n).for_each(|i| assert_eq!(slab.push(u64::from(i) * 3), i)));
            scope.spawn(|| {
                let mut seen = 0;
                while seen < n {
                    let len = slab.len();
                    assert!((seen..len).all(|i| *slab.get(i) == u64::from(i) * 3));
                    seen = len;
                }
            });
        });
    }
}
