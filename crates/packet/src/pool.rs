//! Pooled packet-buffer arena.
//!
//! [`PacketPool`] is a slab of fixed-size buffer slots with a locked
//! free list, mirroring the DMA descriptor rings RouteBricks leans on:
//! the NIC (here, a source element) grabs a slot, the dataplane moves a
//! lightweight handle (slot index + pool ref) from element to element and
//! across SPSC rings, and dropping the last handle recycles the slot
//! instead of freeing it. This removes the per-packet `Vec` allocation
//! and the memmove that `Packet::from_slice` otherwise pays on every
//! ingress packet.
//!
//! Ownership is per-worker by construction: each ingress element owns its
//! own pool (and `Element::replicate` hands every core a fresh one), so
//! the free list's lock is uncontended, and batching pays for it once a
//! burst rather than once a packet: a handle refills a cache of slot
//! indices under one lock and allocates from it touching nothing shared,
//! and a [`FreeBatch`] returns a transmitted batch under one lock. Any
//! thread may still free a slot (an egress core, the merger, a spent
//! ring's drain); a single drop takes the lock once.

use std::cell::{RefCell, UnsafeCell};
use std::mem::MaybeUninit;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::buf::{DEFAULT_HEADROOM, DEFAULT_TAILROOM};

/// Default slot size: room for a full 1518-byte Ethernet frame plus the
/// default headroom and tailroom, rounded up to a power of two.
pub const DEFAULT_SLOT_SIZE: usize = 2048;

/// Default number of slots in a pool when the caller gives no size.
///
/// Large enough that a drop-tail [`Queue`](../../rb_click/elements/queue)
/// at its default capacity (1000) plus in-flight batches never exhaust
/// the pool in steady state.
pub const DEFAULT_POOL_SLOTS: usize = 4096;

/// Index of a [`PoolSlot`] whose slot a [`FreeBatch`] already queued
/// (never a real slot: an arena has fewer than `u32::MAX` of them).
const NIL: u32 = u32::MAX;

/// Upper bound on a handle's allocation cache and on a [`FreeBatch`].
/// Sized like the caches of production packet frameworks (and glibc's
/// tcache): big enough to amortize the free list's lock across a burst,
/// small enough that one handle's cache cannot starve the arena's others.
const CACHE_CAP: usize = 64;

/// Snapshot of a pool's counters, surfaced through `RunStats`/`MtReport`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Identity of the arena this snapshot was taken from (the shared
    /// allocation's address), or 0 for an aggregate of several arenas.
    /// Consumers that may see the same arena through multiple handles
    /// (e.g. replicated elements sharing a pool) dedupe on this.
    pub arena: u64,
    /// Total slots in the arena.
    pub slots: usize,
    /// Bytes per slot.
    pub slot_size: usize,
    /// Successful slot allocations.
    pub allocs: u64,
    /// Slots returned to the free list.
    pub recycles: u64,
    /// Slots returned through a [`FreeBatch`] — a subset of `recycles`
    /// that took the free list's lock once a batch, not once a slot.
    pub bulk_recycles: u64,
    /// Allocation attempts that found the free list empty.
    pub exhausted: u64,
    /// Buffers deflected to heap storage (frame larger than a slot, or an
    /// infallible constructor hit an exhausted pool).
    pub heap_fallbacks: u64,
    /// Slots currently handed out.
    pub in_use: usize,
    /// High-water mark of `in_use`, as the handles see it when they flush.
    pub peak_in_use: usize,
}

impl PoolStats {
    /// Accumulates another pool's counters into this snapshot (slot
    /// geometry keeps the first non-zero values; peaks are summed because
    /// the pools are assumed to be disjoint arenas — dedupe shared arenas
    /// with [`PoolStats::merge_max`] first). The aggregate loses arena
    /// identity (`arena = 0`).
    pub fn absorb(&mut self, other: &PoolStats) {
        if self.slots == 0 {
            self.slot_size = other.slot_size;
        }
        self.arena = 0;
        self.slots += other.slots;
        self.allocs += other.allocs;
        self.recycles += other.recycles;
        self.bulk_recycles += other.bulk_recycles;
        self.exhausted += other.exhausted;
        self.heap_fallbacks += other.heap_fallbacks;
        self.in_use += other.in_use;
        self.peak_in_use += other.peak_in_use;
    }

    /// Reconciles two snapshots of the *same* arena by keeping the
    /// field-wise maximum: each handle's snapshot can lag the others
    /// (local caches flush lazily), so the larger value is the fresher
    /// observation of each monotone counter.
    pub fn merge_max(&mut self, other: &PoolStats) {
        debug_assert_eq!(self.arena, other.arena, "merge_max needs one arena");
        self.allocs = self.allocs.max(other.allocs);
        self.recycles = self.recycles.max(other.recycles);
        self.bulk_recycles = self.bulk_recycles.max(other.bulk_recycles);
        self.exhausted = self.exhausted.max(other.exhausted);
        self.heap_fallbacks = self.heap_fallbacks.max(other.heap_fallbacks);
        self.in_use = self.in_use.max(other.in_use);
        self.peak_in_use = self.peak_in_use.max(other.peak_in_use);
    }

    /// Folds a collection of per-handle snapshots into one aggregate:
    /// snapshots of the same arena are deduplicated (field-wise max),
    /// then the distinct arenas are summed. This is the safe way to total
    /// pool counters when elements may share arenas (replicas handed the
    /// same pool, or an explicit `attach_pools` fan-out).
    pub fn aggregate<'a>(snapshots: impl IntoIterator<Item = &'a PoolStats>) -> PoolStats {
        let mut arenas: Vec<PoolStats> = Vec::new();
        for snap in snapshots {
            match arenas
                .iter_mut()
                .find(|s| s.arena != 0 && s.arena == snap.arena)
            {
                Some(existing) => existing.merge_max(snap),
                None => arenas.push(*snap),
            }
        }
        let mut total = PoolStats::default();
        for arena in &arenas {
            total.absorb(arena);
        }
        total
    }
}

/// The shared arena: one contiguous slab and the free list of its slots.
struct PoolInner {
    storage: Box<[UnsafeCell<u8>]>,
    slot_size: usize,
    slots: usize,
    list: Mutex<FreeList>,
}

/// The arena's free slot indices and every counter, all under one lock.
/// The stack is LIFO: the slot freed last, still in cache, goes out next.
#[derive(Default)]
struct FreeList {
    free: Vec<u32>,
    /// Allocations the handles have flushed (see `LocalCache::flush`).
    allocs: u64,
    recycles: u64,
    bulk_recycles: u64,
    exhausted: u64,
    heap_fallbacks: u64,
    peak_in_use: usize,
}

// SAFETY: the slab is only ever accessed through `PoolSlot`s, and the
// free list (behind its lock) hands each slot index to exactly one
// `PoolSlot` at a time; distinct slots cover disjoint byte ranges, so no
// two threads alias the same bytes mutably.
unsafe impl Sync for PoolInner {}

impl PoolInner {
    /// Locks the free list. Nothing under the lock can panic half way (no
    /// push outgrows the stack's room for every slot), so poison is moot.
    fn list(&self) -> MutexGuard<'_, FreeList> {
        self.list.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn slot_range(&self, index: u32) -> *mut u8 {
        debug_assert!((index as usize) < self.slots);
        // SAFETY: index is bounds-checked above; the resulting pointer stays
        // inside the slab allocation.
        unsafe { self.storage.as_ptr().add(index as usize * self.slot_size) as *mut u8 }
    }
}

/// Per-handle state: slot indices taken off the free list in bulk, the
/// allocations made since the last flush and the in-use count it read.
/// An allocation touches nothing shared (the mempool-cache discipline).
#[derive(Default)]
struct LocalCache {
    free: Vec<u32>,
    allocs: u64,
    base: u64,
}

/// A count as `usize`: exact where `usize` has 64 bits, and held at
/// `usize::MAX` where a count outgrows a narrower one.
fn saturating_usize(count: u64) -> usize {
    usize::try_from(count).unwrap_or(usize::MAX)
}

impl LocalCache {
    /// Folds this handle's allocations into the locked counters. Between
    /// flushes the handle sees no free, so the peak keeps `base + allocs`
    /// and the count now: it over-reads by the frees the window missed and
    /// under-reads by other handles' allocations not yet flushed.
    fn flush(&mut self, list: &mut FreeList) {
        list.allocs += self.allocs;
        let live = list.allocs.saturating_sub(list.recycles);
        let seen = (self.base + self.allocs).max(live);
        list.peak_in_use = list.peak_in_use.max(saturating_usize(seen));
        self.allocs = 0;
        self.base = live;
    }
}

/// A recyclable packet arena handing out fixed-size [`PoolSlot`]s.
///
/// Cloning the pool is cheap (an `Arc` bump) and shares the same arena,
/// but each clone allocates through its own cache; use one pool (or
/// clone) per worker for uncontended allocation.
pub struct PacketPool {
    inner: Arc<PoolInner>,
    local: RefCell<LocalCache>,
}

impl Clone for PacketPool {
    fn clone(&self) -> Self {
        PacketPool {
            inner: Arc::clone(&self.inner),
            local: RefCell::new(LocalCache::default()),
        }
    }
}

impl Drop for PacketPool {
    fn drop(&mut self) {
        let local = self.local.get_mut();
        if local.allocs > 0 || !local.free.is_empty() {
            let mut list = self.inner.list();
            local.flush(&mut list);
            // Never-allocated indices go back for the arena's other handles.
            list.free.append(&mut local.free);
        }
    }
}

impl PacketPool {
    /// Creates an arena of `slots` buffers of `slot_size` bytes each.
    ///
    /// # Panics
    ///
    /// Panics when `slots` is 0, exceeds `u32::MAX - 1`, `slot_size`
    /// cannot hold the default headroom and tailroom plus one payload
    /// byte, or `slots * slot_size` overflows.
    pub fn new(slots: usize, slot_size: usize) -> PacketPool {
        assert!(slots > 0, "packet pool needs at least one slot");
        let count = u32::try_from(slots)
            .ok()
            .filter(|&count| count < u32::MAX)
            .expect("packet pool slot count must fit in a u32 index");
        assert!(
            slot_size > DEFAULT_HEADROOM + DEFAULT_TAILROOM,
            "slot_size {slot_size} cannot hold headroom {DEFAULT_HEADROOM} \
             + tailroom {DEFAULT_TAILROOM} + payload"
        );
        let bytes = slots
            .checked_mul(slot_size)
            .expect("arena size overflows usize");
        // A zeroed allocation, not a written one: the allocator hands a
        // slab this size out as untouched zero pages, so an arena costs
        // page faults only for the slots it actually hands out.
        let zeroed: *mut [u8] = Box::into_raw(vec![0u8; bytes].into_boxed_slice());
        // SAFETY: `UnsafeCell<u8>` is `repr(transparent)` over `u8` — same
        // size, alignment and validity (every byte value, zero included) —
        // so the cast keeps the slice length and every element is
        // initialised. `zeroed` came from `Box::into_raw`, is owned by
        // nothing else, and its allocation was made with the layout of
        // `[u8; bytes]`, which is the layout `Box<[UnsafeCell<u8>]>` of the
        // same length frees it with.
        let storage = unsafe { Box::from_raw(zeroed as *mut [UnsafeCell<u8>]) };
        PacketPool {
            inner: Arc::new(PoolInner {
                storage,
                slot_size,
                slots,
                // Slot 0 on top, and room for every slot: no free reallocates.
                list: Mutex::new(FreeList {
                    free: (0..count).rev().collect(),
                    ..FreeList::default()
                }),
            }),
            local: RefCell::new(LocalCache::default()),
        }
    }

    /// Creates an arena with the default slot geometry.
    pub fn with_defaults() -> PacketPool {
        PacketPool::new(DEFAULT_POOL_SLOTS, DEFAULT_SLOT_SIZE)
    }

    /// Bytes per slot.
    pub fn slot_size(&self) -> usize {
        self.inner.slot_size
    }

    /// Total slots in the arena.
    pub fn slots(&self) -> usize {
        self.inner.slots
    }

    /// Slots handed out (allocations minus recycles, saturating at 0), as
    /// [`PacketPool::stats`] reads them: other live handles' allocs lag.
    pub fn in_use(&self) -> usize {
        self.stats().in_use
    }

    /// Pops a slot off this handle's cache, refilling it from the free
    /// list when empty, or records an exhaustion event.
    pub fn try_slot(&self) -> Option<PoolSlot> {
        let mut local = self.local.borrow_mut();
        let index = local.free.pop().or_else(|| self.refill(&mut local))?;
        local.allocs += 1;
        Some(PoolSlot {
            inner: Arc::clone(&self.inner),
            index,
        })
    }

    /// Under one lock, flushes the local allocation count and moves a
    /// bounded batch of indices off the free list, then pops one. The
    /// bound keeps half the arena (at least) visible to other handles — a
    /// transient clone (e.g. `Packet::clone`) must still find free slots.
    fn refill(&self, local: &mut LocalCache) -> Option<u32> {
        let mut list = self.inner.list();
        local.flush(&mut list);
        let cap = CACHE_CAP.min(self.inner.slots / 2).max(1);
        let from = list.free.len().saturating_sub(cap);
        local.free.extend(list.free.drain(from..));
        let index = local.free.pop();
        if index.is_none() {
            list.exhausted += 1;
        }
        index
    }

    /// Records a buffer deflected to heap storage (slot overflow or an
    /// infallible constructor hitting an empty free list).
    pub(crate) fn note_heap_fallback(&self) {
        self.inner.list().heap_fallbacks += 1;
    }

    /// Snapshots the pool counters after flushing this handle; other live
    /// clones' allocations may lag until their caches refill or drop.
    pub fn stats(&self) -> PoolStats {
        let mut list = self.inner.list();
        self.local.borrow_mut().flush(&mut list);
        PoolStats {
            arena: Arc::as_ptr(&self.inner) as u64,
            slots: self.inner.slots,
            slot_size: self.inner.slot_size,
            allocs: list.allocs,
            recycles: list.recycles,
            bulk_recycles: list.bulk_recycles,
            exhausted: list.exhausted,
            heap_fallbacks: list.heap_fallbacks,
            in_use: saturating_usize(list.allocs.saturating_sub(list.recycles)),
            peak_in_use: list.peak_in_use,
        }
    }

    /// Returns `true` when `other` shares this pool's arena.
    pub fn same_arena(&self, other: &PacketPool) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

impl core::fmt::Debug for PacketPool {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("PacketPool")
            .field("slots", &self.inner.slots)
            .field("slot_size", &self.inner.slot_size)
            .field("in_use", &self.in_use())
            .finish()
    }
}

/// Exclusive ownership of one arena slot; the slot returns to the
/// free list when the handle drops.
pub struct PoolSlot {
    inner: Arc<PoolInner>,
    index: u32,
}

impl PoolSlot {
    /// Bytes in the slot.
    #[inline]
    pub fn len(&self) -> usize {
        self.inner.slot_size
    }

    /// Returns `true` when the slot holds zero bytes (never, by
    /// construction — pools reject a zero slot size).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The slot's bytes. Contents are whatever the previous occupant left
    /// behind — callers must overwrite before exposing them.
    #[inline]
    pub fn bytes(&self) -> &[u8] {
        // SAFETY: this PoolSlot exclusively owns slot `index`; the range is
        // disjoint from every other live slot.
        unsafe { std::slice::from_raw_parts(self.inner.slot_range(self.index), self.len()) }
    }

    /// The slot's bytes, mutably.
    #[inline]
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        let len = self.len();
        // SAFETY: exclusive ownership as above, plus `&mut self`.
        unsafe { std::slice::from_raw_parts_mut(self.inner.slot_range(self.index), len) }
    }

    /// The pool this slot came from (a fresh handle with an empty cache).
    pub fn pool(&self) -> PacketPool {
        PacketPool {
            inner: Arc::clone(&self.inner),
            local: RefCell::new(LocalCache::default()),
        }
    }
}

impl Drop for PoolSlot {
    fn drop(&mut self) {
        // A `FreeBatch` that queued the index leaves only the `Arc` to drop.
        if self.index != NIL {
            let mut list = self.inner.list();
            list.free.push(self.index);
            list.recycles += 1;
        }
    }
}

/// Queues up to `CACHE_CAP` [`PoolSlot`]s of one arena in an inline array
/// and returns them to its free list under **one** lock, not one lock per
/// slot: the transmit-side analogue of the cache refill, so a drain freeing
/// a `kp`-packet batch locks once and allocates nothing. A foreign slot or
/// a full array flushes first; dropping the batch flushes the rest.
pub struct FreeBatch {
    /// The first queued slot, its index moved to `indices`: its `Arc`
    /// keeps the arena alive until the flush, at no extra reference count.
    first: Option<PoolSlot>,
    /// The first `count` hold queued indices; the rest were never
    /// written, so creating a batch writes nothing but the two fields.
    indices: [MaybeUninit<u32>; CACHE_CAP],
    count: usize,
}

impl Default for FreeBatch {
    fn default() -> FreeBatch {
        FreeBatch::new()
    }
}

impl FreeBatch {
    /// Creates an empty batch.
    pub fn new() -> FreeBatch {
        FreeBatch {
            first: None,
            indices: [const { MaybeUninit::uninit() }; CACHE_CAP],
            count: 0,
        }
    }

    /// Slots currently queued and awaiting the flush.
    pub fn pending(&self) -> usize {
        self.count
    }

    /// Queues a slot (flushing first when the slot belongs to a different
    /// arena than the queued ones, or the array is full).
    pub fn push(&mut self, mut slot: PoolSlot) {
        let same = matches!(&self.first, Some(first) if Arc::ptr_eq(&first.inner, &slot.inner));
        if !same || self.count == CACHE_CAP {
            self.flush();
        }
        self.indices[self.count].write(slot.index);
        self.count += 1;
        // The index is queued: dropping the slot only releases its `Arc`.
        slot.index = NIL;
        if self.first.is_none() {
            self.first = Some(slot);
        }
    }

    /// Returns the queued slots to their free list (one lock); no-op if empty.
    pub fn flush(&mut self) {
        if let Some(first) = self.first.take() {
            let queued = self.indices[..self.count].iter().map(|index| {
                // SAFETY: `push` wrote each of the first `count` indices
                // and `count` returns to 0 here, before any is read again.
                unsafe { index.assume_init() }
            });
            let mut list = first.inner.list();
            list.free.extend(queued);
            list.recycles += self.count as u64;
            list.bulk_recycles += self.count as u64;
            self.count = 0;
        }
    }
}

impl Drop for FreeBatch {
    fn drop(&mut self) {
        self.flush();
    }
}

impl core::fmt::Debug for FreeBatch {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("FreeBatch")
            .field("pending", &self.count)
            .finish()
    }
}

impl core::fmt::Debug for PoolSlot {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("PoolSlot")
            .field("index", &self.index)
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_recycle_on_drop() {
        let pool = PacketPool::new(2, 256);
        let a = pool.try_slot().expect("slot 0");
        let b = pool.try_slot().expect("slot 1");
        assert!(pool.try_slot().is_none());
        assert_eq!(pool.stats().exhausted, 1);
        assert_eq!(pool.in_use(), 2);
        drop(a);
        let c = pool.try_slot().expect("recycled slot");
        drop(b);
        drop(c);
        let s = pool.stats();
        assert_eq!(s.allocs, 3);
        assert_eq!(s.recycles, 3);
        assert_eq!(s.in_use, 0);
        assert_eq!(s.peak_in_use, 2);
    }

    #[test]
    fn slot_bytes_are_writable_and_isolated() {
        let pool = PacketPool::new(2, 256);
        let mut a = pool.try_slot().unwrap();
        let mut b = pool.try_slot().unwrap();
        a.bytes_mut().fill(0xaa);
        b.bytes_mut().fill(0xbb);
        assert!(a.bytes().iter().all(|&x| x == 0xaa));
        assert!(b.bytes().iter().all(|&x| x == 0xbb));
    }

    /// The zero-on-demand slab changes where the arena's memory comes
    /// from, nothing else: geometry, zero fill, slot disjointness and
    /// every counter after a forwarding-shaped workload (32 rounds of a
    /// 32-slot burst, half recycled in bulk) are what the written slab
    /// gave.
    #[test]
    fn zeroed_slab_keeps_geometry_and_counters() {
        let pool = PacketPool::new(1024, 2048);
        assert_eq!(pool.inner.storage.len(), 1024 * 2048);
        for round in 0..32u8 {
            let mut slots: Vec<_> = (0..32).map(|_| pool.try_slot().unwrap()).collect();
            for (i, slot) in (0u8..).zip(slots.iter_mut()) {
                assert_eq!(slot.len(), 2048);
                if round == 0 {
                    assert!(slot.bytes().iter().all(|&b| b == 0), "fresh slot is zeroed");
                }
                slot.bytes_mut().fill(i + 1);
            }
            for (i, slot) in (0u8..).zip(slots.iter()) {
                assert!(slot.bytes().iter().all(|&b| b == i + 1), "slots alias");
            }
            let mut batch = FreeBatch::new();
            for (i, slot) in slots.into_iter().enumerate() {
                if i % 2 == 0 {
                    batch.push(slot);
                } else {
                    drop(slot);
                }
            }
        }
        let expect = PoolStats {
            arena: pool.stats().arena,
            slots: 1024,
            slot_size: 2048,
            allocs: 1024,
            recycles: 1024,
            bulk_recycles: 512,
            exhausted: 0,
            heap_fallbacks: 0,
            in_use: 0,
            // The true peak is one burst, 32. The handle sees frees only
            // when it flushes at a refill, and each 64-slot refill feeds
            // two bursts, so the second burst reads on top of the first.
            peak_in_use: 64,
        };
        assert_eq!(pool.stats(), expect);
        assert!(pool.stats().peak_in_use >= 32, "a peak below the true one");
    }

    /// The `PacketPool` invariant under threads: no slot is handed out
    /// twice while live, and the totals are exact. The allocating thread
    /// stamps each slot with its grant number; the consumer checks the
    /// stamp and frees alternately one by one and through a `FreeBatch`,
    /// while a third thread reads the counters through its own handle.
    #[test]
    fn cross_thread_recycle_feeds_allocator() {
        const GRANTS: u32 = 10_000;
        let pool = PacketPool::new(64, 256);
        let (tx, rx) = std::sync::mpsc::channel::<(u32, PoolSlot)>();
        let consumer = std::thread::spawn(move || {
            // Egress-side recycle, on another thread.
            let mut batch = FreeBatch::new();
            for (grant, slot) in rx {
                assert_eq!(
                    slot.bytes()[..4],
                    grant.to_le_bytes(),
                    "slot of grant {grant} handed out twice"
                );
                if grant % 2 == 0 {
                    batch.push(slot);
                } else {
                    drop(slot);
                }
                if batch.pending() == 8 {
                    batch.flush();
                }
            }
        });
        let (done, running) = std::sync::mpsc::channel::<()>();
        let observer = {
            let pool = pool.clone();
            std::thread::spawn(move || {
                let mut last = PoolStats::default();
                while running.try_recv() == Err(std::sync::mpsc::TryRecvError::Empty) {
                    let s = pool.stats();
                    assert!(s.in_use <= 64 && pool.in_use() <= 64, "{s:?}");
                    assert!(
                        s.recycles >= last.recycles && s.allocs >= last.allocs,
                        "{s:?}"
                    );
                    assert!(s.recycles <= u64::from(GRANTS) && s.bulk_recycles <= s.recycles);
                    last = s;
                    std::thread::yield_now();
                }
            })
        };
        // Allocate far more slots than the pool holds; progress requires the
        // consumer's recycles to land back on the free list.
        let mut granted = 0u32;
        let mut spins = 0u64;
        while granted < GRANTS {
            match pool.try_slot() {
                Some(mut slot) => {
                    slot.bytes_mut()[..4].copy_from_slice(&granted.to_le_bytes());
                    tx.send((granted, slot)).unwrap();
                    granted += 1;
                }
                None => {
                    spins += 1;
                    assert!(spins < 500_000_000, "free list never refilled");
                    std::thread::yield_now();
                }
            }
        }
        drop(tx);
        consumer.join().unwrap();
        drop(done);
        observer.join().unwrap();
        let s = pool.stats();
        assert_eq!(s.allocs, 10_000);
        assert_eq!(s.recycles, 10_000);
        assert_eq!(s.bulk_recycles, 5_000);
        assert_eq!(s.in_use, 0);
        assert_eq!(pool.in_use(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_slots_rejected() {
        let _ = PacketPool::new(0, 256);
    }

    #[test]
    #[should_panic(expected = "cannot hold headroom")]
    fn tiny_slot_size_rejected() {
        let _ = PacketPool::new(4, 64);
    }

    #[test]
    fn free_batch_recycles_with_one_splice() {
        let pool = PacketPool::new(8, 256);
        let mut batch = FreeBatch::new();
        for _ in 0..6 {
            batch.push(pool.try_slot().unwrap());
        }
        assert_eq!(batch.pending(), 6);
        batch.flush();
        assert_eq!(batch.pending(), 0);
        let s = pool.stats();
        assert_eq!(s.allocs, 6);
        assert_eq!(s.recycles, 6, "a batch flush must count as recycles");
        assert_eq!(s.bulk_recycles, 6);
        assert_eq!(s.in_use, 0);
        // Every slot is allocatable again.
        let again: Vec<_> = (0..8).map(|_| pool.try_slot().unwrap()).collect();
        assert_eq!(again.len(), 8);
    }

    #[test]
    fn free_batch_flushes_on_drop_and_arena_switch() {
        let a = PacketPool::new(4, 256);
        let b = PacketPool::new(4, 256);
        let mut batch = FreeBatch::new();
        batch.push(a.try_slot().unwrap());
        batch.push(a.try_slot().unwrap());
        // Foreign arena: the a-chain must flush before b's chain starts.
        batch.push(b.try_slot().unwrap());
        assert_eq!(a.stats().recycles, 2);
        assert_eq!(batch.pending(), 1);
        drop(batch);
        assert_eq!(b.stats().recycles, 1);
        assert_eq!(a.stats().bulk_recycles, 2);
        assert_eq!(b.stats().bulk_recycles, 1);
    }

    #[test]
    fn bulk_and_single_recycles_interleave() {
        // The recycle count must stay exact when batch flushes and
        // per-slot drops mix.
        let pool = PacketPool::new(16, 256);
        for round in 0..50 {
            let slots: Vec<_> = (0..10).map(|_| pool.try_slot().unwrap()).collect();
            let mut batch = FreeBatch::new();
            for (i, slot) in slots.into_iter().enumerate() {
                if i % 2 == 0 {
                    batch.push(slot);
                } else {
                    drop(slot);
                }
            }
            drop(batch);
            let s = pool.stats();
            assert_eq!(s.recycles, (round + 1) * 10);
            assert_eq!(s.in_use, 0);
        }
        assert_eq!(pool.stats().bulk_recycles, 50 * 5);
    }

    #[test]
    fn aggregate_dedupes_shared_arenas() {
        let pool = PacketPool::new(8, 256);
        let clone = pool.clone();
        let other = PacketPool::new(4, 256);
        let s = pool.try_slot().unwrap();
        drop(s);
        let _live = other.try_slot().unwrap();
        let snaps = [pool.stats(), clone.stats(), other.stats()];
        assert_eq!(snaps[0].arena, snaps[1].arena);
        assert_ne!(snaps[0].arena, snaps[2].arena);
        let total = PoolStats::aggregate(snaps.iter());
        // The shared arena is counted once, not twice.
        assert_eq!(total.slots, 12);
        assert_eq!(total.allocs, 2);
        assert_eq!(total.recycles, 1);
        assert_eq!(total.in_use, 1);
        // Naive absorb double-counts — the bug aggregate() exists to fix.
        let mut naive = PoolStats::default();
        for snap in &snaps {
            naive.absorb(snap);
        }
        assert_eq!(naive.slots, 20);
    }

    #[test]
    fn absorb_sums_counters() {
        let a = PacketPool::new(4, 256);
        let b = PacketPool::new(8, 256);
        let _s1 = a.try_slot().unwrap();
        let s2 = b.try_slot().unwrap();
        drop(s2);
        let mut agg = PoolStats::default();
        agg.absorb(&a.stats());
        agg.absorb(&b.stats());
        assert_eq!(agg.slots, 12);
        assert_eq!(agg.allocs, 2);
        assert_eq!(agg.recycles, 1);
        assert_eq!(agg.in_use, 1);
    }

    // The largest pool, `u32::MAX - 1` slots, would allocate its arena:
    // only the first count past it is checked, before any allocation.
    #[test]
    #[should_panic(expected = "fit in a u32 index")]
    fn slot_count_past_a_u32_index_is_refused() {
        let _ = PacketPool::new(usize::try_from(u32::MAX).unwrap(), 2048);
    }
}
