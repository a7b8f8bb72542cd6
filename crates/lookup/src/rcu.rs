//! Lock-free FIB publication: RCU-style epoch reclamation over
//! [`Dir24_8`] snapshots.
//!
//! RouteBricks evaluates forwarding over a *static* full table; a
//! production router additionally absorbs continuous BGP churn. The
//! requirement (shared by the parallel-NF literature in PAPERS.md) is
//! that the read path stay wait-free: worker cores must never take a
//! lock, spin, or even dirty a shared cache line per packet while the
//! control plane installs routes.
//!
//! The scheme here is classic read-copy-update with per-reader epoch
//! announcement, hand-rolled because the vendored crossbeam subset has
//! no `epoch` module:
//!
//! * The live FIB is a [`Dir24_8`] snapshot behind an `AtomicPtr` (the
//!   writer holds its `Arc`; readers hold none), tagged with a
//!   monotonically increasing **generation**.
//! * Writers ([`RouteControl`]) mutate a private [`DynamicDir24_8`]
//!   under a mutex (control plane only — never on the packet path),
//!   then *publish*: clone its page directories into the new snapshot
//!   (8,192 + a few hundred `Arc` bumps, no entry copied), swap the
//!   pointer, bump the generation and retire the replaced snapshot. A
//!   snapshot and the working table share every 4 KiB page no update
//!   touched since: the working table copies a page on its first write
//!   after a publish, and writes in place a page no snapshot holds. The
//!   FIB is one table plus the pages the last publish touched.
//! * Readers ([`FibReader`]) *pin* once per batch: announce the current
//!   generation in their own cache-line-padded epoch slot, re-check the
//!   generation, and dereference the pointer for the whole batch. One
//!   uncontended store + two loads per batch of packets; unpinning is a
//!   single store of the [`QUIESCENT`] sentinel.
//! * A retired snapshot is freed once every announced (non-quiescent)
//!   epoch has advanced to at least its retire generation — the grace
//!   period. A publish checks the epochs once, right after the swap:
//!   with no reader inside the snapshot it replaced, that one goes at
//!   once, and its unshared pages become the writer's spares for the next
//!   copies. Otherwise it waits for the next publish or
//!   [`RouteControl::try_reclaim`]: a publish never waits for a reader,
//!   and there is no background thread. A stalled reader costs the pages
//!   rewritten after its snapshot, not a table.
//!
//! Why this is safe (the grace-period argument): a reader that still
//! holds a pointer retired at generation `g` must have loaded it before
//! the swap, therefore its announced epoch — stored and re-validated
//! *before* the pointer load, with `SeqCst` ordering on both sides —
//! is at most `g - 1 < g`, and it blocks reclamation until it unpins or
//! re-pins at a newer generation. The writer writes in place only a page
//! whose `Arc` it holds alone: none a snapshot still holds.

use crate::dynamic::DynamicDir24_8;
use crate::table::RouteTable;
use crate::{Dir24_8, LookupError, NextHop, Prefix};
use crossbeam::utils::CachePadded;
use parking_lot::Mutex;
use std::cell::Cell;
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Epoch-slot value meaning "this reader is not inside a read-side
/// critical section".
const QUIESCENT: u64 = u64::MAX;

/// Default size of the epoch-slot array (upper bound on concurrently
/// live [`FibReader`]s; slots are recycled on drop).
pub const DEFAULT_MAX_READERS: usize = 64;

/// One route update for the churn stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteUpdate {
    /// Install (or replace) `prefix → hop`.
    Announce(Prefix, NextHop),
    /// Withdraw `prefix`.
    Withdraw(Prefix),
}

/// Control-plane state, touched only under the writer mutex.
struct WriterState {
    /// Authoritative table with incremental update support: the live
    /// snapshot's contents plus the unpublished updates.
    rib: DynamicDir24_8,
    /// The live snapshot, which `current` points into.
    live: Arc<Dir24_8>,
    /// Replaced snapshots a reader may still be inside, tagged with the
    /// generation that replaced them, oldest first.
    retired: Vec<(u64, Arc<Dir24_8>)>,
    installs: u64,
    withdrawals: u64,
    publishes: u64,
    reclaimed: u64,
}

/// State shared between all readers and the writer.
struct RcuShared {
    /// Generation of the snapshot in `current`.
    gen: AtomicU64,
    /// The live snapshot, owned by the writer's `live`.
    current: AtomicPtr<Dir24_8>,
    /// Per-reader epoch announcements, cache-line padded so pinning
    /// never bounces another reader's line.
    epochs: Box<[CachePadded<AtomicU64>]>,
    /// Bump allocator for epoch slots (falls back to `free_slots`).
    next_slot: AtomicUsize,
    /// Recycled epoch slots of dropped readers.
    free_slots: Mutex<Vec<usize>>,
    writer: Mutex<WriterState>,
}

/// Counters describing the lifecycle of an [`RcuFib`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RcuStats {
    /// Generation of the currently published snapshot.
    pub generation: u64,
    /// Routes installed (announcements applied) since creation.
    pub installs: u64,
    /// Routes withdrawn since creation.
    pub withdrawals: u64,
    /// Snapshots published.
    pub publishes: u64,
    /// Publishes that shared every untouched page with the snapshot they
    /// replaced: all of them, since a snapshot is a page directory. Kept
    /// beside `publishes` for the readers that compare the two.
    pub delta_publishes: u64,
    /// Replaced snapshots a reader was still inside when last checked,
    /// not yet freed: 0 or 1 while readers pin per batch. Each holds only
    /// the pages rewritten after it.
    pub pending_retired: usize,
    /// Replaced snapshots freed after a full grace period.
    pub reclaimed: u64,
}

/// A concurrently updatable FIB: wait-free batched reads over immutable
/// [`Dir24_8`] snapshots, mutations through [`RouteControl`].
///
/// Cloning the handle is cheap; [`RcuFib::reader`] and
/// [`RcuFib::control`] mint the two roles.
#[derive(Clone)]
pub struct RcuFib {
    shared: Arc<RcuShared>,
}

impl RcuFib {
    /// Builds an RCU FIB whose first published snapshot is compiled from
    /// `initial`, with room for [`DEFAULT_MAX_READERS`] concurrent
    /// readers. The FIB's RIB is one clone of `initial`; a caller done with
    /// the table hands it over uncopied through
    /// [`RcuFib::with_max_readers`].
    ///
    /// # Errors
    ///
    /// As [`DynamicDir24_8::from_table`]: unencodable hops, or more
    /// spilled /24s than [`crate::dir24_8::MAX_SEGMENTS`].
    pub fn new(initial: &RouteTable) -> Result<RcuFib, LookupError> {
        RcuFib::with_max_readers(initial.clone(), DEFAULT_MAX_READERS)
    }

    /// Builds an RCU FIB from `initial`, which becomes the writer's RIB
    /// without a copy, with room for `max_readers` concurrent readers.
    /// The first snapshot shares every page of the working table: the
    /// FIB holds one table.
    ///
    /// # Errors
    ///
    /// As [`RcuFib::new`].
    pub fn with_max_readers(
        initial: RouteTable,
        max_readers: usize,
    ) -> Result<RcuFib, LookupError> {
        assert!(max_readers > 0, "need at least one reader slot");
        let rib = DynamicDir24_8::from_table(initial)?;
        let live = Arc::new(rib.snapshot());
        let epochs: Vec<CachePadded<AtomicU64>> = (0..max_readers)
            .map(|_| CachePadded::new(AtomicU64::new(QUIESCENT)))
            .collect();
        Ok(RcuFib {
            shared: Arc::new(RcuShared {
                gen: AtomicU64::new(0),
                current: AtomicPtr::new(Arc::as_ptr(&live).cast_mut()),
                epochs: epochs.into_boxed_slice(),
                next_slot: AtomicUsize::new(0),
                free_slots: Mutex::new(Vec::new()),
                writer: Mutex::new(WriterState {
                    rib,
                    live,
                    retired: Vec::new(),
                    installs: 0,
                    withdrawals: 0,
                    publishes: 0,
                    reclaimed: 0,
                }),
            }),
        })
    }

    /// Mints a reader with its own epoch slot.
    ///
    /// # Panics
    ///
    /// Panics when more than `max_readers` readers are alive at once.
    pub fn reader(&self) -> FibReader {
        FibReader::new(Arc::clone(&self.shared))
    }

    /// Mints the writer handle (any number may exist; they serialize on
    /// the writer mutex).
    pub fn control(&self) -> RouteControl {
        RouteControl {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Generation of the currently published snapshot.
    pub fn generation(&self) -> u64 {
        self.shared.gen.load(Ordering::SeqCst)
    }

    /// Lifecycle counters (takes the writer lock briefly).
    pub fn stats(&self) -> RcuStats {
        stats_of(&self.shared)
    }
}

fn stats_of(shared: &RcuShared) -> RcuStats {
    let w = shared.writer.lock();
    RcuStats {
        generation: shared.gen.load(Ordering::SeqCst),
        installs: w.installs,
        withdrawals: w.withdrawals,
        publishes: w.publishes,
        delta_publishes: w.publishes,
        pending_retired: w.retired.len(),
        reclaimed: w.reclaimed,
    }
}

impl std::fmt::Debug for RcuFib {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RcuFib")
            .field("generation", &self.generation())
            .finish_non_exhaustive()
    }
}

fn alloc_slot(shared: &RcuShared) -> usize {
    if let Some(slot) = shared.free_slots.lock().pop() {
        return slot;
    }
    let slot = shared.next_slot.fetch_add(1, Ordering::Relaxed);
    assert!(
        slot < shared.epochs.len(),
        "too many concurrent FIB readers (capacity {})",
        shared.epochs.len()
    );
    slot
}

/// A per-core read handle: one epoch slot plus the shared state.
///
/// Not `Sync` (the pin protocol assumes one thread per slot); move it
/// into the worker, or [`FibReader::fork`] a sibling with its own slot.
pub struct FibReader {
    shared: Arc<RcuShared>,
    slot: usize,
    pinned: Cell<bool>,
}

impl FibReader {
    fn new(shared: Arc<RcuShared>) -> FibReader {
        let slot = alloc_slot(&shared);
        shared.epochs[slot].store(QUIESCENT, Ordering::SeqCst);
        FibReader {
            shared,
            slot,
            pinned: Cell::new(false),
        }
    }

    /// Mints another reader over the same FIB with a fresh epoch slot
    /// (what element replication uses).
    ///
    /// # Panics
    ///
    /// Panics when the reader capacity is exhausted.
    pub fn fork(&self) -> FibReader {
        FibReader::new(Arc::clone(&self.shared))
    }

    /// Enters a read-side critical section and returns a guard borrowing
    /// the current snapshot. One pin amortizes over a whole packet
    /// batch; the writer cannot reclaim the snapshot until the guard
    /// drops.
    ///
    /// # Panics
    ///
    /// Panics on nested pins from the same reader (one slot holds one
    /// epoch).
    pub fn pin(&self) -> FibGuard<'_> {
        assert!(!self.pinned.get(), "FibReader pinned twice");
        let epoch = &self.shared.epochs[self.slot];
        let snapshot = loop {
            // Announce the generation we are about to read, then confirm
            // it is still current. SeqCst on both sides puts the
            // announcement before the writer's post-publish epoch scan
            // in the single total order whenever the confirmation saw
            // the pre-publish generation (see module docs).
            let gen = self.shared.gen.load(Ordering::SeqCst);
            epoch.store(gen, Ordering::SeqCst);
            if self.shared.gen.load(Ordering::SeqCst) == gen {
                // An acquire load cannot be reordered before the SeqCst
                // confirmation above, so the pointer we see was current
                // no earlier than the announced generation.
                break self.shared.current.load(Ordering::Acquire);
            }
            // A publish raced the announcement; re-announce at the new
            // generation. No bound needed: at most one retry per
            // concurrent publish, and publishes are control-plane rate.
        };
        self.pinned.set(true);
        FibGuard {
            reader: self,
            snapshot,
        }
    }

    /// The generation this reader would pin right now.
    pub fn generation(&self) -> u64 {
        self.shared.gen.load(Ordering::SeqCst)
    }
}

impl Drop for FibReader {
    fn drop(&mut self) {
        self.shared.epochs[self.slot].store(QUIESCENT, Ordering::SeqCst);
        self.shared.free_slots.lock().push(self.slot);
    }
}

impl std::fmt::Debug for FibReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FibReader")
            .field("slot", &self.slot)
            .field("pinned", &self.pinned.get())
            .finish()
    }
}

/// An active read-side critical section; dereferences to the pinned
/// [`Dir24_8`] snapshot.
pub struct FibGuard<'a> {
    reader: &'a FibReader,
    snapshot: *const Dir24_8,
}

impl std::ops::Deref for FibGuard<'_> {
    type Target = Dir24_8;

    fn deref(&self) -> &Dir24_8 {
        // SAFETY: the snapshot was loaded under an announced epoch no
        // newer than its own generation; the writer frees a snapshot only
        // after every announced epoch reaches the generation that replaced
        // it, which cannot happen before this guard drops (the epoch slot
        // is reset in `FibGuard::drop`), and writes only pages no snapshot
        // holds.
        unsafe { &*self.snapshot }
    }
}

impl Drop for FibGuard<'_> {
    fn drop(&mut self) {
        self.reader.pinned.set(false);
        self.reader.shared.epochs[self.reader.slot].store(QUIESCENT, Ordering::SeqCst);
    }
}

/// The control-plane handle: buffers incremental updates into the
/// private [`DynamicDir24_8`] and publishes immutable snapshots.
#[derive(Clone)]
pub struct RouteControl {
    shared: Arc<RcuShared>,
}

impl RouteControl {
    /// Installs (or replaces) a route in the *unpublished* working
    /// table. Readers see nothing until [`RouteControl::publish`].
    ///
    /// # Errors
    ///
    /// As [`DynamicDir24_8::insert`]: unencodable hops, or a prefix longer
    /// than /24 that would spill a /24 past
    /// [`crate::dir24_8::MAX_SEGMENTS`]. A refused route changes nothing.
    pub fn insert(&self, prefix: Prefix, hop: NextHop) -> Result<(), LookupError> {
        let mut w = self.shared.writer.lock();
        w.rib.insert(prefix, hop)?;
        w.installs += 1;
        Ok(())
    }

    /// Withdraws a route from the working table; returns its hop if it
    /// existed.
    pub fn remove(&self, prefix: &Prefix) -> Option<NextHop> {
        let mut w = self.shared.writer.lock();
        let hop = w.rib.remove(prefix);
        if hop.is_some() {
            w.withdrawals += 1;
        }
        hop
    }

    /// Applies a batch of updates to the working table without
    /// publishing — the natural grain for BGP-style churn, since one
    /// publish, and one copy of each page touched, serves the batch.
    ///
    /// # Errors
    ///
    /// Returns the first [`LookupError`]; earlier updates in the batch
    /// remain applied (and unpublished).
    pub fn apply(&self, updates: &[RouteUpdate]) -> Result<(), LookupError> {
        let mut w = self.shared.writer.lock();
        for u in updates {
            match *u {
                RouteUpdate::Announce(prefix, hop) => {
                    w.rib.insert(prefix, hop)?;
                    w.installs += 1;
                }
                RouteUpdate::Withdraw(ref prefix) => {
                    if w.rib.remove(prefix).is_some() {
                        w.withdrawals += 1;
                    }
                }
            }
        }
        Ok(())
    }

    /// Publishes the working table as a new immutable snapshot, which
    /// shares its pages, and returns its generation. Never waits: the
    /// replaced snapshot, and any retired before it, go once no reader is
    /// inside them, now or at a later publish or
    /// [`RouteControl::try_reclaim`].
    pub fn publish(&self) -> u64 {
        let mut w = self.shared.writer.lock();
        self.publish_locked(&mut w)
    }

    /// [`RouteControl::apply`] + [`RouteControl::publish`] in one writer
    /// critical section.
    ///
    /// # Errors
    ///
    /// As [`RouteControl::apply`]; nothing is published on error.
    pub fn apply_and_publish(&self, updates: &[RouteUpdate]) -> Result<u64, LookupError> {
        self.apply(updates)?;
        Ok(self.publish())
    }

    fn publish_locked(&self, w: &mut WriterState) -> u64 {
        let next = Arc::new(w.rib.snapshot());
        self.shared
            .current
            .store(Arc::as_ptr(&next).cast_mut(), Ordering::Release);
        // The store precedes the generation bump, so any reader that
        // confirms the *new* generation is guaranteed to load the new
        // pointer (see the pin loop).
        let new_gen = self.shared.gen.fetch_add(1, Ordering::SeqCst) + 1;
        let replaced = std::mem::replace(&mut w.live, next);
        w.retired.push((new_gen, replaced));
        w.publishes += 1;
        self.reclaim_locked(w);
        new_gen
    }

    /// The oldest epoch any reader has announced; [`QUIESCENT`] readers
    /// don't count, and with none pinned this is `QUIESCENT` itself.
    fn oldest_epoch(&self) -> u64 {
        let slots = self
            .shared
            .next_slot
            .load(Ordering::SeqCst)
            .min(self.shared.epochs.len());
        self.shared.epochs[..slots]
            .iter()
            .map(|slot| slot.load(Ordering::SeqCst))
            .min()
            .unwrap_or(QUIESCENT)
    }

    /// Attempts reclamation without publishing (useful after the last
    /// readers went quiescent); returns the number of snapshots freed
    /// in total so far.
    pub fn try_reclaim(&self) -> u64 {
        let mut w = self.shared.writer.lock();
        self.reclaim_locked(&mut w);
        w.reclaimed
    }

    /// Frees the retired snapshots whose grace period has passed, keeping
    /// the pages the working table no longer shares as its spares.
    fn reclaim_locked(&self, w: &mut WriterState) {
        // A snapshot retired at generation g is safe once every pinned
        // reader announced an epoch ≥ g (it then must have loaded a
        // pointer at least as new as g's). Retire generations ascend.
        let oldest = self.oldest_epoch();
        let done = w
            .retired
            .partition_point(|&(retire_gen, _)| retire_gen <= oldest);
        for (_, snapshot) in w.retired.drain(..done) {
            w.reclaimed += 1;
            // `current` never points at a retired snapshot, and readers
            // hold no `Arc`: the writer's reference is the only one.
            if let Some(snapshot) = Arc::into_inner(snapshot) {
                w.rib.recycle(snapshot);
            }
        }
    }

    /// Lifecycle counters (takes the writer lock briefly).
    pub fn stats(&self) -> RcuStats {
        stats_of(&self.shared)
    }

    /// Routes currently in the *working* table (published + unpublished
    /// updates).
    pub fn route_count(&self) -> usize {
        self.shared.writer.lock().rib.routes().len()
    }

    /// Generation of the currently published snapshot.
    pub fn generation(&self) -> u64 {
        self.shared.gen.load(Ordering::SeqCst)
    }
}

impl std::fmt::Debug for RouteControl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RouteControl")
            .field("generation", &self.generation())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LpmLookup;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn a(s: &str) -> u32 {
        u32::from(s.parse::<std::net::Ipv4Addr>().unwrap())
    }

    fn base_table() -> RouteTable {
        let mut t = RouteTable::new();
        t.insert(p("0.0.0.0/0"), 0);
        t.insert(p("10.0.0.0/8"), 1);
        t
    }

    #[test]
    fn updates_invisible_until_publish() {
        let fib = RcuFib::new(&base_table()).unwrap();
        let reader = fib.reader();
        let ctl = fib.control();
        ctl.insert(p("10.1.0.0/16"), 7).unwrap();
        assert_eq!(reader.pin().lookup(a("10.1.2.3")), Some(1), "unpublished");
        let g = ctl.publish();
        assert_eq!(g, 1);
        assert_eq!(reader.pin().lookup(a("10.1.2.3")), Some(7), "published");
    }

    #[test]
    fn pinned_reader_keeps_its_snapshot() {
        let fib = RcuFib::new(&base_table()).unwrap();
        let reader = fib.reader();
        let ctl = fib.control();
        let guard = reader.pin();
        ctl.insert(p("10.0.0.0/8"), 9).unwrap();
        ctl.publish();
        // The pinned guard still sees the generation it announced.
        assert_eq!(guard.lookup(a("10.2.2.2")), Some(1));
        drop(guard);
        assert_eq!(reader.pin().lookup(a("10.2.2.2")), Some(9));
    }

    #[test]
    fn grace_period_blocks_then_allows_reclamation() {
        let fib = RcuFib::new(&base_table()).unwrap();
        let reader = fib.reader();
        let ctl = fib.control();
        let guard = reader.pin();
        ctl.insert(p("10.9.0.0/16"), 3).unwrap();
        ctl.publish();
        assert_eq!(fib.stats().pending_retired, 1, "guard blocks reclamation");
        assert_eq!(ctl.try_reclaim(), 0);
        drop(guard);
        assert_eq!(
            ctl.try_reclaim(),
            1,
            "quiescent reader frees the old snapshot"
        );
        assert_eq!(fib.stats().pending_retired, 0);
    }

    #[test]
    fn batched_updates_and_stats() {
        let fib = RcuFib::new(&base_table()).unwrap();
        let ctl = fib.control();
        let updates = vec![
            RouteUpdate::Announce(p("192.168.0.0/16"), 4),
            RouteUpdate::Announce(p("192.168.7.0/24"), 5),
            RouteUpdate::Withdraw(p("10.0.0.0/8")),
            RouteUpdate::Withdraw(p("172.16.0.0/12")), // Not present.
        ];
        let g = ctl.apply_and_publish(&updates).unwrap();
        assert_eq!(g, 1);
        let reader = fib.reader();
        assert_eq!(reader.pin().lookup(a("192.168.7.9")), Some(5));
        assert_eq!(
            reader.pin().lookup(a("10.1.1.1")),
            Some(0),
            "fell to default"
        );
        let stats = fib.stats();
        assert_eq!(stats.installs, 2);
        assert_eq!(stats.withdrawals, 1);
        assert_eq!(stats.publishes, 1);
        assert_eq!(ctl.route_count(), 3);
    }

    #[test]
    fn reader_slots_recycle_on_drop() {
        let table = base_table();
        let fib = RcuFib::with_max_readers(table, 2).unwrap();
        let r1 = fib.reader();
        let r2 = r1.fork();
        drop(r1);
        let r3 = fib.reader(); // Reuses r1's slot; must not panic.
        drop((r2, r3));
        let _ = fib.reader();
    }

    #[test]
    #[should_panic(expected = "too many concurrent FIB readers")]
    fn reader_capacity_is_enforced() {
        let fib = RcuFib::with_max_readers(base_table(), 1).unwrap();
        let _r1 = fib.reader();
        let _r2 = fib.reader();
    }

    #[test]
    #[should_panic(expected = "pinned twice")]
    fn nested_pin_is_rejected() {
        let fib = RcuFib::new(&base_table()).unwrap();
        let reader = fib.reader();
        let _g1 = reader.pin();
        let _g2 = reader.pin();
    }

    #[test]
    fn segment_overflow_is_refused_at_build_and_on_insert() {
        use crate::dir24_8::MAX_SEGMENTS;
        use crate::sweep::tests::one_25_per_24;
        assert!(matches!(
            RcuFib::new(&one_25_per_24(MAX_SEGMENTS + 1)),
            Err(LookupError::TooManySegments)
        ));
        let fib = RcuFib::new(&one_25_per_24(MAX_SEGMENTS)).unwrap();
        let ctl = fib.control();
        let extra = Prefix::new(u32::try_from(MAX_SEGMENTS << 8).unwrap(), 26);
        assert_eq!(ctl.insert(extra, 3), Err(LookupError::TooManySegments));
        assert_eq!(
            ctl.apply(&[RouteUpdate::Announce(extra, 3)]),
            Err(LookupError::TooManySegments)
        );
        assert_eq!(fib.stats().installs, 0);
        assert_eq!(ctl.route_count(), MAX_SEGMENTS);
        ctl.publish();
        assert_eq!(fib.reader().pin().lookup(extra.first()), None);
    }

    #[test]
    fn delta_publishes_match_full_recompile() {
        // Many small publish rounds, each recycling the snapshot it
        // replaced as the next working table; every published snapshot
        // must be indistinguishable from a full recompile of the
        // mirrored RIB.
        use crate::gen::{addresses_within, generate_table, TableGenConfig};
        let table = generate_table(&TableGenConfig {
            routes: 3_000,
            long_fraction: 0.1,
            ..Default::default()
        });
        let fib = RcuFib::new(&table).unwrap();
        let reader = fib.reader();
        let ctl = fib.control();
        let mut mirror = table.clone();
        let routes: Vec<(Prefix, NextHop)> = table.iter().map(|(p, h)| (*p, *h)).collect();
        for round in 0..40u16 {
            let mut updates = Vec::new();
            for k in 0..25usize {
                let (prefix, hop) = routes[(usize::from(round) * 37 + k * 13) % routes.len()];
                if (usize::from(round) + k) % 3 == 0 {
                    updates.push(RouteUpdate::Withdraw(prefix));
                    mirror.remove(&prefix);
                } else {
                    let hop = (hop + round) % 16;
                    updates.push(RouteUpdate::Announce(prefix, hop));
                    mirror.insert(prefix, hop);
                }
            }
            ctl.apply_and_publish(&updates).unwrap();
            let reference = Dir24_8::compile(&mirror).unwrap();
            let guard = reader.pin();
            for addr in addresses_within(&table, 500, u64::from(round)) {
                assert_eq!(
                    guard.lookup(addr),
                    reference.lookup(addr),
                    "round {round}, addr {addr:#010x}"
                );
            }
        }
        let stats = fib.stats();
        assert_eq!(stats.publishes, 40);
        assert_eq!(
            stats.delta_publishes, stats.publishes,
            "no guard outlives a round, so every publish recycles"
        );
    }

    /// Distinct pages, by `Arc::as_ptr`.
    #[derive(Debug)]
    struct Census {
        /// Across the writer's tables and spares, the live snapshot and
        /// the retired snapshots.
        alive: usize,
        /// The live snapshot's: one table.
        table: usize,
        /// The live snapshot's that the writer's tables no longer share:
        /// the pages the unpublished updates replaced.
        replaced: usize,
        /// The writer's spares.
        spares: usize,
    }

    impl RcuFib {
        fn census(&self) -> Census {
            use std::collections::HashSet;
            let w = self.shared.writer.lock();
            let writer: HashSet<_> = w.rib.tables().page_ptrs().collect();
            let live: HashSet<_> = w.live.page_ptrs().collect();
            let mut alive: HashSet<_> = writer.union(&live).copied().collect();
            alive.extend(w.rib.spare_ptrs());
            for (_, snapshot) in &w.retired {
                alive.extend(snapshot.page_ptrs());
            }
            Census {
                alive: alive.len(),
                table: live.len(),
                replaced: live.difference(&writer).count(),
                spares: w.rib.spare_ptrs().count(),
            }
        }
    }

    /// A `routes`-route RIB and `updates` churn updates over it. rb-workload
    /// links this crate's non-test build, whose types differ from the ones
    /// under test: prefixes cross over as (address, length).
    fn churned(routes: usize, updates: usize) -> (RouteTable, Vec<RouteUpdate>) {
        let full = rb_workload::rib_full_table(routes, 11);
        let config = rb_workload::ChurnConfig {
            updates,
            ..Default::default()
        };
        let stream = rb_workload::churn_stream(&full, &config)
            .into_iter()
            .map(|update| match update {
                rb_workload::RouteUpdate::Announce(p, hop) => {
                    RouteUpdate::Announce(Prefix::new(p.addr(), p.len()), hop)
                }
                rb_workload::RouteUpdate::Withdraw(p) => {
                    RouteUpdate::Withdraw(Prefix::new(p.addr(), p.len()))
                }
            })
            .collect();
        let table = full
            .iter()
            .map(|(p, h)| (Prefix::new(p.addr(), p.len()), *h))
            .collect();
        (table, stream)
    }

    #[test]
    fn steady_churn_keeps_one_table_plus_the_pages_it_touched() {
        // A reader on its own thread pins once per 32-lookup batch while
        // the writer publishes 60 slices of updates. After each publish the
        // pages alive are one table, the writer's spares (no more than one
        // publish replaced) and the pages of a snapshot the reader was
        // still inside: within one table plus twice the most pages a
        // publish touched, while at most one snapshot is retired.
        use crate::gen::{addresses_within, generate_table, TableGenConfig};
        use std::sync::atomic::AtomicBool;
        let table = generate_table(&TableGenConfig {
            routes: 3_000,
            long_fraction: 0.1,
            ..Default::default()
        });
        let fib = RcuFib::new(&table).unwrap();
        let ctl = fib.control();
        let reader = fib.reader();
        let addrs = addresses_within(&table, 32, 5);
        let routes: Vec<(Prefix, NextHop)> = table.iter().map(|(p, h)| (*p, *h)).collect();
        let stop = AtomicBool::new(false);
        // Asserted once the reader has stopped, so a failure cannot leave
        // it spinning and the scope waiting on it.
        let rounds: Vec<(usize, Census, RcuStats)> = std::thread::scope(|scope| {
            let stop = &stop;
            scope.spawn(move || {
                let mut hops = [None; 32];
                while !stop.load(Ordering::Relaxed) {
                    reader.pin().lookup_batch(&addrs, &mut hops);
                }
            });
            let rounds = (0..60u16)
                .map(|round| {
                    let updates: Vec<RouteUpdate> = (0..25)
                        .map(|k| {
                            let (prefix, hop) =
                                routes[(usize::from(round) * 31 + k * 7) % routes.len()];
                            if (usize::from(round) + k) % 4 == 0 {
                                RouteUpdate::Withdraw(prefix)
                            } else {
                                RouteUpdate::Announce(prefix, (hop + round) % 16)
                            }
                        })
                        .collect();
                    ctl.apply(&updates).unwrap();
                    let touched = fib.census().replaced;
                    ctl.publish();
                    (touched, fib.census(), ctl.stats())
                })
                .collect();
            stop.store(true, Ordering::Relaxed);
            rounds
        });
        let most = rounds.iter().map(|(touched, ..)| *touched).max().unwrap();
        assert!(most > 0, "every slice rewrites some page");
        for (round, (_, census, stats)) in rounds.iter().enumerate() {
            assert_eq!(stats.delta_publishes, stats.publishes, "round {round}");
            // A reader preempted inside one batch holds every snapshot
            // published meanwhile, each costing one publish's pages.
            let held = 1 + stats.pending_retired.max(1);
            assert!(
                census.alive <= census.table + held * most,
                "round {round}: {census:?}, {stats:?}, most touched {most}"
            );
        }
        ctl.try_reclaim();
        let census = fib.census();
        assert_eq!(fib.stats().pending_retired, 0);
        assert_eq!(census.replaced, 0, "the writer shares every live page");
        assert_eq!(census.alive, census.table + census.spares, "{census:?}");
        assert!(census.spares <= most, "{census:?}, most touched {most}");
    }

    #[test]
    fn stalled_guard_keeps_only_the_pages_it_alone_holds() {
        // A guard held across a 1,000-update publish, first on another
        // thread, then on the publishing thread itself: the publish
        // returns at once (the guard is released only after it), the guard
        // reads its own snapshot, and that snapshot, retired, holds just
        // the pages the publish replaced. Once the guard unpins,
        // `try_reclaim` frees it and one table is left.
        use std::sync::mpsc;
        let (table, churn) = churned(4_000, 2_000);
        let probe = a("10.77.1.1");
        // Each slice ends by moving the probe, so its hop says which
        // snapshot a lookup read.
        let slice = |k: usize, hop: NextHop| {
            let mut updates = churn[k * 1_000..(k + 1) * 1_000 - 1].to_vec();
            updates.push(RouteUpdate::Announce(Prefix::new(probe, 32), hop));
            updates
        };
        let fib = RcuFib::new(&table).unwrap();
        let ctl = fib.control();
        let retired_costs_what_it_touched = |touched: usize| {
            let census = fib.census();
            assert_eq!(fib.stats().pending_retired, 1);
            assert!(touched > 0);
            assert_eq!(census.replaced, 0, "{census:?}");
            assert_eq!(
                census.alive - census.table - census.spares,
                touched,
                "the retired snapshot's own pages: {census:?}"
            );
        };
        let one_table_is_left = |touched: usize| {
            let census = fib.census();
            assert_eq!(fib.stats().pending_retired, 0);
            assert_eq!(census.alive, census.table + census.spares, "{census:?}");
            assert!(census.spares <= touched, "{census:?}");
        };

        let reader = fib.reader();
        let before = reader.pin().lookup(probe);
        assert_ne!(before, Some(1_000));
        let (pinned_tx, pinned_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let touched = std::thread::scope(|scope| {
            let stalled = scope.spawn(move || {
                let guard = reader.pin();
                pinned_tx.send(()).unwrap();
                release_rx.recv().unwrap();
                guard.lookup(probe)
            });
            pinned_rx.recv().unwrap();
            ctl.apply(&slice(0, 1_000)).unwrap();
            let touched = fib.census().replaced;
            ctl.publish();
            retired_costs_what_it_touched(touched);
            release_tx.send(()).unwrap();
            assert_eq!(stalled.join().unwrap(), before, "the guard's own hop");
            touched
        });
        assert_eq!(ctl.try_reclaim(), 1);
        one_table_is_left(touched);

        let reader = fib.reader();
        let guard = reader.pin();
        ctl.apply(&slice(1, 1_001)).unwrap();
        let touched = fib.census().replaced;
        ctl.publish();
        assert_eq!(guard.lookup(probe), Some(1_000), "the guard's own hop");
        retired_costs_what_it_touched(touched);
        drop(guard);
        assert_eq!(ctl.try_reclaim(), 2);
        one_table_is_left(touched);
        assert_eq!(reader.pin().lookup(probe), Some(1_001));
        let stats = fib.stats();
        assert_eq!((stats.publishes, stats.delta_publishes), (2, 2));
    }

    #[test]
    fn concurrent_churn_yields_consistent_lookups() {
        // Readers hammer lookups while the writer flips one prefix's hop
        // between two values, publishing every flip. Every lookup must
        // return one of the values ever published for its address —
        // a torn or freed snapshot would surface as a wild hop or a
        // crash under ASAN-like allocator reuse.
        let fib = RcuFib::new(&base_table()).unwrap();
        let ctl = fib.control();
        let readers: Vec<FibReader> = (0..4).map(|_| fib.reader()).collect();
        let addr = a("10.77.1.1");
        std::thread::scope(|scope| {
            for reader in readers {
                scope.spawn(move || {
                    for _ in 0..20_000 {
                        let guard = reader.pin();
                        let hop = guard.lookup(addr).expect("always covered");
                        assert!(hop == 1 || hop == 21 || hop == 22, "torn hop {hop}");
                    }
                });
            }
            scope.spawn(move || {
                for i in 0..500u16 {
                    ctl.insert(p("10.77.0.0/16"), 21 + i % 2).unwrap();
                    ctl.publish();
                }
            });
        });
        let stats = fib.stats();
        assert_eq!(stats.publishes, 500);
        // Once everything is quiescent one reclaim pass frees all but
        // the live snapshot.
        assert_eq!(fib.control().try_reclaim(), 500);
        assert_eq!(fib.stats().pending_retired, 0);
    }
}
