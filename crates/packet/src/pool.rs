//! Pooled packet-buffer arena.
//!
//! [`PacketPool`] is a slab of fixed-size buffer slots with a lock-free
//! free-list, mirroring the DMA descriptor rings RouteBricks leans on:
//! the NIC (here, a source element) grabs a slot, the dataplane moves a
//! lightweight handle (slot index + pool ref) from element to element and
//! across SPSC rings, and dropping the last handle recycles the slot
//! instead of freeing it. This removes the per-packet `Vec` allocation
//! and the memmove that `Packet::from_slice` otherwise pays on every
//! ingress packet.
//!
//! Ownership is per-worker by construction: each ingress element owns its
//! own pool (and `Element::replicate` hands every core a fresh one), so
//! the allocation path is uncontended. The only cross-core traffic is the
//! recycle push when an egress core drops a handle, which is a single CAS
//! on the free-list head — the same discipline as the paper's lock-free
//! descriptor rings.

use std::cell::{RefCell, UnsafeCell};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

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

/// Sentinel index terminating the free-list.
const NIL: u32 = u32::MAX;

/// Upper bound on a pool handle's local allocation cache. Sized like the
/// caches of production packet frameworks (and glibc's tcache): big enough
/// to amortize the free-list CAS across a burst, small enough that slots
/// parked in one handle's cache cannot starve the arena's other handles.
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
    /// Slots returned to the free-list.
    pub recycles: u64,
    /// Slots returned through a [`FreeBatch`] chain splice — a subset of
    /// `recycles` that paid one CAS per batch instead of one per slot.
    pub bulk_recycles: u64,
    /// Allocation attempts that found the free-list empty.
    pub exhausted: u64,
    /// Buffers deflected to heap storage (frame larger than a slot, or an
    /// infallible constructor hit an exhausted pool).
    pub heap_fallbacks: u64,
    /// Slots currently handed out.
    pub in_use: usize,
    /// High-water mark of `in_use`.
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

/// The shared arena: one contiguous slab plus a Treiber-stack free-list.
///
/// The free-list head packs a 32-bit ABA tag with the 32-bit slot index so
/// that concurrent pop/push (an egress core recycling while the ingress
/// core allocates) cannot resurrect a stale head.
struct PoolInner {
    storage: Box<[UnsafeCell<u8>]>,
    slot_size: usize,
    slots: usize,
    /// Free-list head: `(tag << 32) | index`, `NIL` when empty. The tag is
    /// bumped by every push and left alone by takes, so besides defeating
    /// ABA it counts cumulative pushes mod 2^32 — recycles ride the CAS
    /// the free path already pays, costing zero extra RMW per packet.
    free_head: AtomicU64,
    /// Per-slot next pointer for the free-list.
    next: Box<[AtomicU32]>,
    allocs: AtomicU64,
    /// 64-bit extension of the push tag: `observe_pushes` folds tag deltas
    /// in here. Reclaim observes at least once per `CACHE_CAP` allocations,
    /// so a tag wrap between observations is impossible in practice.
    pushes_committed: AtomicU64,
    /// Tag value as of the last `observe_pushes`.
    last_push_tag: AtomicU32,
    /// Pushes that returned never-allocated indices from a dropped
    /// handle's cache — list maintenance, not recycles.
    cache_returns: AtomicU64,
    /// Slots returned through `push_free_chain` (bulk splices).
    bulk_recycled: AtomicU64,
    exhausted: AtomicU64,
    heap_fallbacks: AtomicU64,
    /// High-water mark of live slots. Maintained with a plain
    /// load/compare/store (not `fetch_max`) so the allocation path carries
    /// no read-modify-write op for it; under concurrent cross-core
    /// recycling the mark may overshoot by the number of in-flight
    /// recycles, which is fine for a statistic.
    peak_in_use: AtomicUsize,
}

// SAFETY: the slab is only ever accessed through `PoolSlot`s, and the
// free-list guarantees each live slot index is handed out to exactly one
// `PoolSlot` at a time; distinct slots cover disjoint byte ranges, so no
// two threads alias the same bytes mutably.
unsafe impl Sync for PoolInner {}

impl PoolInner {
    /// Detaches up to `max` slots from the free-list with one CAS,
    /// appending their indices to `out`. Bulk reclaim amortizes the pop
    /// CAS across every taken slot, which is what keeps the per-allocation
    /// fast path free of atomic read-modify-write instructions.
    ///
    /// The chain is walked optimistically while other threads may mutate
    /// the list; the final CAS revalidates the packed ABA tag (bumped by
    /// every push and take), so a stale walk only ever costs a retry —
    /// stale `next` reads are still in-bounds indices, never garbage.
    fn take_free(&self, max: usize, out: &mut Vec<u32>) {
        let start = out.len();
        let mut head = self.free_head.load(Ordering::Acquire);
        loop {
            out.truncate(start);
            let mut index = (head & u64::from(u32::MAX)) as u32;
            if index == NIL {
                return;
            }
            while index != NIL && out.len() - start < max {
                out.push(index);
                index = self.next[index as usize].load(Ordering::Relaxed);
            }
            // Keep the tag: only pushes bump it. A head index can only
            // recur via a push (takes strictly remove), so any ABA hazard
            // still flips the tag and fails this compare.
            let replacement = (head & !u64::from(u32::MAX)) | u64::from(index);
            match self.free_head.compare_exchange_weak(
                head,
                replacement,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return,
                Err(observed) => head = observed,
            }
        }
    }

    fn push_free(&self, index: u32) {
        let mut head = self.free_head.load(Ordering::Relaxed);
        loop {
            self.next[index as usize].store((head & u64::from(u32::MAX)) as u32, Ordering::Relaxed);
            let tag = (head >> 32).wrapping_add(1);
            let replacement = (tag << 32) | u64::from(index);
            match self.free_head.compare_exchange_weak(
                head,
                replacement,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return,
                Err(observed) => head = observed,
            }
        }
    }

    /// Splices a pre-linked chain of `count` slots (`chain_head` →
    /// `…` → `chain_tail`, linked through `next` by the caller, who owns
    /// every slot in it) onto the free-list with **one** CAS. The tag
    /// advances by `count` so the tag-as-push-counter arithmetic in
    /// `observe_pushes` stays exact — a chain of N slots is N pushes that
    /// shared a single read-modify-write.
    fn push_free_chain(&self, chain_head: u32, chain_tail: u32, count: u32) {
        debug_assert!(count > 0);
        let mut head = self.free_head.load(Ordering::Relaxed);
        loop {
            self.next[chain_tail as usize]
                .store((head & u64::from(u32::MAX)) as u32, Ordering::Relaxed);
            let tag = ((head >> 32) as u32).wrapping_add(count);
            let replacement = (u64::from(tag) << 32) | u64::from(chain_head);
            match self.free_head.compare_exchange_weak(
                head,
                replacement,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => break,
                Err(observed) => head = observed,
            }
        }
        self.bulk_recycled
            .fetch_add(u64::from(count), Ordering::Relaxed);
    }

    /// Folds the free-list tag (pushes mod 2^32) into the 64-bit committed
    /// push count and returns the total. Concurrent observers serialize on
    /// `last_push_tag`; a racing reader can transiently see the count a
    /// delta short, which quiesces as soon as pushes stop.
    fn observe_pushes(&self) -> u64 {
        loop {
            let last = self.last_push_tag.load(Ordering::Relaxed);
            let tag_now = (self.free_head.load(Ordering::Acquire) >> 32) as u32;
            let delta = tag_now.wrapping_sub(last);
            if delta == 0 {
                return self.pushes_committed.load(Ordering::Relaxed);
            }
            if self
                .last_push_tag
                .compare_exchange(last, tag_now, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return self
                    .pushes_committed
                    .fetch_add(u64::from(delta), Ordering::Relaxed)
                    + u64::from(delta);
            }
        }
    }

    /// Exact recycle count: observed pushes minus cache give-backs.
    fn recycles(&self) -> u64 {
        self.observe_pushes()
            .saturating_sub(self.cache_returns.load(Ordering::Relaxed))
    }

    /// Cheap recycle estimate for hot-path statistics: skips the tag fold,
    /// so it may lag true recycles by the unobserved window.
    fn recycles_approx(&self) -> u64 {
        self.pushes_committed
            .load(Ordering::Relaxed)
            .saturating_sub(self.cache_returns.load(Ordering::Relaxed))
    }

    fn slot_range(&self, index: u32) -> *mut u8 {
        debug_assert!((index as usize) < self.slots);
        // SAFETY: index is bounds-checked above; the resulting pointer stays
        // inside the slab allocation.
        unsafe { self.storage.as_ptr().add(index as usize * self.slot_size) as *mut u8 }
    }
}

/// Per-instance allocation state: a stash of free slot indices taken from
/// the shared free-list in bulk, plus a local allocation count flushed to
/// the shared counter on reclaim and drop. Keeping both non-atomic makes
/// the allocation fast path free of read-modify-write instructions — the
/// mempool-cache discipline of high-speed packet I/O frameworks.
#[derive(Default)]
struct LocalCache {
    free: Vec<u32>,
    allocs: u64,
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
        if local.allocs > 0 {
            self.inner.allocs.fetch_add(local.allocs, Ordering::Relaxed);
        }
        // Hand cached (never-allocated) indices back so other clones of
        // this arena keep their full capacity. Counting them first keeps
        // the recycle arithmetic (pushes - returns) from transiently
        // overcounting for a racing observer.
        self.inner
            .cache_returns
            .fetch_add(local.free.len() as u64, Ordering::Relaxed);
        for index in local.free.drain(..) {
            self.inner.push_free(index);
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
        assert!(
            slots < u32::MAX as usize,
            "packet pool slot count must fit in a u32 index"
        );
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
        // Chain every slot onto the free-list: i -> i+1 -> ... -> NIL.
        let next = (0..slots)
            .map(|i| AtomicU32::new(if i + 1 == slots { NIL } else { (i + 1) as u32 }))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        PacketPool {
            inner: Arc::new(PoolInner {
                storage,
                slot_size,
                slots,
                free_head: AtomicU64::new(0),
                next,
                allocs: AtomicU64::new(0),
                pushes_committed: AtomicU64::new(0),
                last_push_tag: AtomicU32::new(0),
                cache_returns: AtomicU64::new(0),
                bulk_recycled: AtomicU64::new(0),
                exhausted: AtomicU64::new(0),
                heap_fallbacks: AtomicU64::new(0),
                peak_in_use: AtomicUsize::new(0),
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

    /// Slots currently handed out (allocations minus recycles; transient
    /// overcounts are possible while a cross-core recycle is mid-flight).
    pub fn in_use(&self) -> usize {
        let allocs = self.inner.allocs.load(Ordering::Relaxed) + self.local.borrow().allocs;
        allocs.saturating_sub(self.inner.recycles()) as usize
    }

    /// Pops a slot off this instance's cache (refilling it from the shared
    /// free-list in bulk when empty), or records an exhaustion event.
    pub fn try_slot(&self) -> Option<PoolSlot> {
        let mut local = self.local.borrow_mut();
        let index = match local.free.pop() {
            Some(index) => index,
            None => {
                self.reclaim(&mut local);
                match local.free.pop() {
                    Some(index) => index,
                    None => {
                        self.inner.exhausted.fetch_add(1, Ordering::Relaxed);
                        return None;
                    }
                }
            }
        };
        local.allocs += 1;
        let allocs = self.inner.allocs.load(Ordering::Relaxed) + local.allocs;
        let live = allocs.saturating_sub(self.inner.recycles_approx()) as usize;
        if live > self.inner.peak_in_use.load(Ordering::Relaxed) {
            self.inner.peak_in_use.store(live, Ordering::Relaxed);
        }
        Some(PoolSlot {
            inner: Arc::clone(&self.inner),
            index,
        })
    }

    /// Refills the local cache: flushes the local allocation count (so
    /// other clones' snapshots stay fresh) and takes a bounded batch of
    /// slots off the shared free-list in one CAS. The bound keeps half the
    /// arena (at least) visible to other handles of the same pool — a
    /// transient clone (e.g. `Packet::clone`) must still find free slots.
    fn reclaim(&self, local: &mut LocalCache) {
        if local.allocs > 0 {
            self.inner.allocs.fetch_add(local.allocs, Ordering::Relaxed);
            local.allocs = 0;
        }
        // Observing here keeps the peak statistic fresh and bounds the
        // unobserved tag window to well under one wrap.
        self.inner.observe_pushes();
        let cap = CACHE_CAP.min(self.inner.slots / 2).max(1);
        self.inner.take_free(cap, &mut local.free);
    }

    /// Records a buffer deflected to heap storage (slot overflow or an
    /// infallible constructor hitting an empty free-list).
    pub(crate) fn note_heap_fallback(&self) {
        self.inner.heap_fallbacks.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshots the pool counters. Allocations made through other live
    /// clones of this pool may lag until their caches refill or drop.
    pub fn stats(&self) -> PoolStats {
        let allocs = self.inner.allocs.load(Ordering::Relaxed) + self.local.borrow().allocs;
        let recycles = self.inner.recycles();
        PoolStats {
            arena: Arc::as_ptr(&self.inner) as u64,
            slots: self.inner.slots,
            slot_size: self.inner.slot_size,
            allocs,
            recycles,
            bulk_recycles: self.inner.bulk_recycled.load(Ordering::Relaxed),
            exhausted: self.inner.exhausted.load(Ordering::Relaxed),
            heap_fallbacks: self.inner.heap_fallbacks.load(Ordering::Relaxed),
            in_use: allocs.saturating_sub(recycles) as usize,
            peak_in_use: self.inner.peak_in_use.load(Ordering::Relaxed),
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
/// free-list when the handle drops.
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
        // The push CAS bumps the free-list tag, which *is* the recycle
        // counter — the whole free path is this CAS plus the Arc release.
        self.inner.push_free(self.index);
    }
}

/// Collects [`PoolSlot`]s into a pre-linked chain and splices the whole
/// chain back onto its arena's free-list with **one** CAS, instead of the
/// one-CAS-per-slot that dropping each slot individually costs. This is
/// the transmit-side analogue of the allocator's bulk `take_free`: a
/// drain element freeing a `kp`-packet batch pays one atomic
/// read-modify-write for the batch.
///
/// Slots from different arenas can be pushed freely — a foreign slot
/// flushes the current chain and starts a new one. Dropping the batch
/// flushes whatever remains.
#[derive(Default)]
pub struct FreeBatch {
    arena: Option<Arc<PoolInner>>,
    head: u32,
    tail: u32,
    count: u32,
}

impl FreeBatch {
    /// Creates an empty batch.
    pub fn new() -> FreeBatch {
        FreeBatch::default()
    }

    /// Slots currently chained and awaiting the splice.
    pub fn pending(&self) -> usize {
        self.count as usize
    }

    /// Adds a slot to the chain (flushing first when the slot belongs to
    /// a different arena than the chain under construction).
    pub fn push(&mut self, slot: PoolSlot) {
        // Disassemble without running Drop (which would push the slot
        // individually — the very CAS this type exists to amortize).
        let slot = std::mem::ManuallyDrop::new(slot);
        // SAFETY: `slot` is ManuallyDrop, so the Arc read here is the only
        // owner transfer; the original is never dropped.
        let inner = unsafe { std::ptr::read(&slot.inner) };
        let index = slot.index;
        match &self.arena {
            Some(arena) if Arc::ptr_eq(arena, &inner) => {
                // Extend the chain: new slot becomes the head.
                inner.next[index as usize].store(self.head, Ordering::Relaxed);
                self.head = index;
                self.count += 1;
                // `inner` drops here; `self.arena` already keeps one ref.
            }
            Some(_) => {
                self.flush();
                self.start(inner, index);
            }
            None => self.start(inner, index),
        }
    }

    fn start(&mut self, inner: Arc<PoolInner>, index: u32) {
        self.arena = Some(inner);
        self.head = index;
        self.tail = index;
        self.count = 1;
    }

    /// Splices the pending chain onto its arena's free-list (one CAS) and
    /// resets the batch. No-op when empty.
    pub fn flush(&mut self) {
        if let Some(arena) = self.arena.take() {
            if self.count > 0 {
                arena.push_free_chain(self.head, self.tail, self.count);
            }
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
            for (i, slot) in slots.iter_mut().enumerate() {
                assert_eq!(slot.len(), 2048);
                if round == 0 {
                    assert!(slot.bytes().iter().all(|&b| b == 0), "fresh slot is zeroed");
                }
                slot.bytes_mut().fill(i as u8 + 1);
            }
            for (i, slot) in slots.iter().enumerate() {
                assert!(
                    slot.bytes().iter().all(|&b| b == i as u8 + 1),
                    "slots alias"
                );
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
            // Two bursts: the hot-path peak skips the recycle fold
            // (`recycles_approx`), so it lags by one unobserved round.
            peak_in_use: 64,
        };
        assert_eq!(pool.stats(), expect);
    }

    #[test]
    fn cross_thread_recycle_feeds_allocator() {
        let pool = PacketPool::new(64, 256);
        let (tx, rx) = std::sync::mpsc::channel::<PoolSlot>();
        let consumer = std::thread::spawn(move || {
            // Drop every slot on another thread (egress-side recycle).
            for slot in rx {
                drop(slot);
            }
        });
        // Allocate far more slots than the pool holds; progress requires the
        // consumer's recycles to land back on the free-list.
        let mut granted = 0u32;
        let mut spins = 0u64;
        while granted < 10_000 {
            match pool.try_slot() {
                Some(slot) => {
                    granted += 1;
                    tx.send(slot).unwrap();
                }
                None => {
                    spins += 1;
                    assert!(spins < 500_000_000, "free-list never refilled");
                    std::thread::yield_now();
                }
            }
        }
        drop(tx);
        consumer.join().unwrap();
        let s = pool.stats();
        assert_eq!(s.allocs, 10_000);
        assert_eq!(s.recycles, 10_000);
        assert_eq!(s.in_use, 0);
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
        assert_eq!(s.recycles, 6, "chain splice must count as recycles");
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
        // The tag-as-push-counter arithmetic must stay exact when chain
        // splices and per-slot drops mix.
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
}
