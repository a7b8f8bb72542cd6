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
//! * The live FIB is an [`Dir24_8`] snapshot behind an `AtomicPtr`
//!   (holding one `Arc` reference), tagged with a monotonically
//!   increasing **generation**.
//! * Writers ([`RouteControl`]) mutate a private [`DynamicDir24_8`]
//!   under a mutex (control plane only — never on the packet path),
//!   then *publish*: snapshot the tables, swap the pointer, bump the
//!   generation, and retire the old snapshot tagged with the generation
//!   that replaced it. Snapshots are built by patching a reclaimed
//!   predecessor with the slots dirtied since its generation whenever
//!   one is available — O(changed entries), not a 32 MiB clone per
//!   publish — falling back to the full clone otherwise.
//! * Readers ([`FibReader`]) *pin* once per batch: announce the current
//!   generation in their own cache-line-padded epoch slot, re-check the
//!   generation, and dereference the pointer for the whole batch. One
//!   uncontended store + two loads per batch of packets; unpinning is a
//!   single store of the [`QUIESCENT`] sentinel.
//! * A retired snapshot is reclaimed once every announced (non-
//!   quiescent) epoch has advanced to at least its retire generation —
//!   the grace period. Reclamation piggybacks on publish (and
//!   [`RouteControl::try_reclaim`]), so there is no background thread.
//!
//! Why this is safe (the grace-period argument): a reader that still
//! holds a pointer retired at generation `g` must have loaded it before
//! the swap, therefore its announced epoch — stored and re-validated
//! *before* the pointer load, with `SeqCst` ordering on both sides —
//! is at most `g - 1 < g`, and it blocks reclamation until it unpins
//! or re-pins at a newer generation.

use crate::dynamic::{DirtyDelta, DynamicDir24_8};
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
    /// Authoritative table with incremental update support; snapshots
    /// are cloned from it at publish time.
    rib: DynamicDir24_8,
    /// Retired snapshots awaiting their grace period, tagged with the
    /// generation at which they were replaced.
    retired: Vec<(u64, Arc<Dir24_8>)>,
    /// A reclaimed snapshot's buffers, tagged with the generation whose
    /// state they still hold — the next publish patches them with the
    /// missed deltas instead of cloning 32 MiB.
    spare: Option<(u64, Vec<u16>, Vec<u16>)>,
    /// Dirty sets by consuming generation: entry `(g, d)` holds the
    /// slots that changed between snapshots `g - 1` and `g`.
    dirty_log: Vec<(u64, DirtyDelta)>,
    installs: u64,
    withdrawals: u64,
    publishes: u64,
    delta_publishes: u64,
    reclaimed: u64,
}

/// State shared between all readers and the writer.
struct RcuShared {
    /// Generation of the snapshot in `current`.
    gen: AtomicU64,
    /// The live snapshot; holds one `Arc<Dir24_8>` reference
    /// (`Arc::into_raw`).
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

impl Drop for RcuShared {
    fn drop(&mut self) {
        let ptr = *self.current.get_mut();
        // SAFETY: `current` always holds exactly one owned Arc reference
        // (installed by `new` or `publish_locked`); no readers can exist
        // here because every `FibReader`/`RouteControl` holds an
        // `Arc<RcuShared>`.
        unsafe { drop(Arc::from_raw(ptr)) };
    }
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
    /// Publishes that patched a recycled snapshot (copying only the
    /// changed slots) instead of cloning the full table.
    pub delta_publishes: u64,
    /// Retired snapshots still waiting out their grace period.
    pub pending_retired: usize,
    /// Retired snapshots reclaimed after a full grace period.
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
    /// readers.
    ///
    /// # Errors
    ///
    /// As [`DynamicDir24_8::from_table`]: unencodable hops, or more
    /// spilled /24s than [`crate::dir24_8::MAX_SEGMENTS`].
    pub fn new(initial: &RouteTable) -> Result<RcuFib, LookupError> {
        RcuFib::with_max_readers(initial, DEFAULT_MAX_READERS)
    }

    /// [`RcuFib::new`] with an explicit epoch-slot capacity.
    ///
    /// # Errors
    ///
    /// As [`RcuFib::new`].
    pub fn with_max_readers(
        initial: &RouteTable,
        max_readers: usize,
    ) -> Result<RcuFib, LookupError> {
        assert!(max_readers > 0, "need at least one reader slot");
        // One address-ordered sweep builds the working table, with an
        // empty dirty set: the first snapshot below copies it whole.
        let rib = DynamicDir24_8::from_table(initial)?;
        let first = Arc::new(rib.snapshot());
        // Prime the spare with a second clone (construction is off the
        // hot path) so even the very first publish is delta-patched —
        // otherwise it pays the one full-table clone while traffic flows.
        let (spare24, spare_long) = rib.snapshot().into_parts();
        let epochs: Vec<CachePadded<AtomicU64>> = (0..max_readers)
            .map(|_| CachePadded::new(AtomicU64::new(QUIESCENT)))
            .collect();
        Ok(RcuFib {
            shared: Arc::new(RcuShared {
                gen: AtomicU64::new(0),
                current: AtomicPtr::new(Arc::into_raw(first) as *mut Dir24_8),
                epochs: epochs.into_boxed_slice(),
                next_slot: AtomicUsize::new(0),
                free_slots: Mutex::new(Vec::new()),
                writer: Mutex::new(WriterState {
                    rib,
                    retired: Vec::new(),
                    spare: Some((0, spare24, spare_long)),
                    dirty_log: Vec::new(),
                    installs: 0,
                    withdrawals: 0,
                    publishes: 0,
                    delta_publishes: 0,
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
        delta_publishes: w.delta_publishes,
        pending_retired: w.retired.len(),
        reclaimed: w.reclaimed,
    }
}

/// Builds the snapshot a publish will install: patch the recycled spare
/// with the deltas it missed when possible, otherwise clone the full
/// working table.
fn snapshot_for_publish(w: &mut WriterState) -> Dir24_8 {
    if let Some((spare_gen, tbl24, tbl_long)) = w.spare.take() {
        // The spare needs every delta consumed after its generation;
        // the log holds consecutive generations, so covering the first
        // needed label means covering them all.
        let covered = w
            .dirty_log
            .first()
            .is_some_and(|(label, _)| *label <= spare_gen + 1);
        if covered {
            let mut merged = DirtyDelta::default();
            for (label, delta) in &w.dirty_log {
                if *label > spare_gen {
                    merged.merge(delta);
                }
            }
            if !merged.overflow() {
                w.delta_publishes += 1;
                return w.rib.patch_snapshot(tbl24, tbl_long, &merged);
            }
        }
        // Too stale or too much churn since: the buffers are dropped and
        // the next reclaim donates a fresh spare.
    }
    w.rib.snapshot()
}

/// Drops dirty-log entries nothing can need anymore: the spare (and any
/// retired snapshot that may yet become the spare) only ever replays
/// deltas newer than its own generation.
fn prune_dirty_log(w: &mut WriterState) {
    let mut needed_from = u64::MAX;
    if let Some((spare_gen, ..)) = &w.spare {
        needed_from = needed_from.min(spare_gen + 1);
    }
    for (retire_gen, _) in &w.retired {
        // Reclaimed at `retire_gen`, this snapshot would become a spare
        // of generation `retire_gen - 1`, needing labels ≥ `retire_gen`.
        needed_from = needed_from.min(*retire_gen);
    }
    w.dirty_log.retain(|(label, _)| *label >= needed_from);
    // Churn far outpacing reclamation (e.g. a reader pinned for a long
    // stretch): cap the log rather than grow without bound; a spare that
    // then lacks coverage falls back to a full clone.
    const LOG_CAP: usize = 16;
    if w.dirty_log.len() > LOG_CAP {
        let cut = w.dirty_log.len() - LOG_CAP;
        w.dirty_log.drain(..cut);
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
        // newer than its own generation; the writer retires a snapshot
        // only after every announced epoch reaches the generation that
        // replaced it, which cannot happen before this guard drops
        // (the epoch slot is reset in `FibGuard::drop`).
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
    /// publish amortizes the snapshot clone over the whole batch.
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

    /// Publishes the working table as a new immutable snapshot and
    /// returns its generation. Retires the previous snapshot and
    /// reclaims any whose grace period has passed.
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
        let consuming_gen = self.shared.gen.load(Ordering::SeqCst) + 1;
        let delta = w.rib.take_dirty();
        w.dirty_log.push((consuming_gen, delta));
        let next = Arc::new(snapshot_for_publish(w));
        let next_ptr = Arc::into_raw(next) as *mut Dir24_8;
        let old_ptr = self.shared.current.swap(next_ptr, Ordering::AcqRel);
        // The swap precedes the generation bump, so any reader that
        // confirms the *new* generation is guaranteed to load the new
        // pointer (see the pin loop).
        let new_gen = self.shared.gen.fetch_add(1, Ordering::SeqCst) + 1;
        // SAFETY: `old_ptr` came out of `current`, which held one owned
        // Arc reference; we take that reference back and park it in
        // `retired` until the grace period passes, keeping the
        // allocation alive for in-flight readers.
        let old = unsafe { Arc::from_raw(old_ptr as *const Dir24_8) };
        w.retired.push((new_gen, old));
        w.publishes += 1;
        self.reclaim_locked(w);
        new_gen
    }

    /// Attempts reclamation without publishing (useful after the last
    /// readers went quiescent); returns the number of snapshots freed
    /// in total so far.
    pub fn try_reclaim(&self) -> u64 {
        let mut w = self.shared.writer.lock();
        self.reclaim_locked(&mut w);
        w.reclaimed
    }

    fn reclaim_locked(&self, w: &mut WriterState) {
        if w.retired.is_empty() {
            return;
        }
        // The oldest epoch any reader has announced; QUIESCENT readers
        // don't constrain reclamation.
        let slots = self
            .shared
            .next_slot
            .load(Ordering::SeqCst)
            .min(self.shared.epochs.len());
        let mut min_epoch = u64::MAX;
        for slot in &self.shared.epochs[..slots] {
            let e = slot.load(Ordering::SeqCst);
            if e != QUIESCENT {
                min_epoch = min_epoch.min(e);
            }
        }
        // A snapshot retired at generation g is safe once every pinned
        // reader announced an epoch ≥ g (it then must have loaded a
        // pointer at least as new as g's). The freshest reclaimed
        // snapshot's buffers become the spare for delta-patched reuse.
        let mut kept = Vec::with_capacity(w.retired.len());
        for (retire_gen, arc) in w.retired.drain(..) {
            if retire_gen > min_epoch {
                kept.push((retire_gen, arc));
                continue;
            }
            w.reclaimed += 1;
            // A retired snapshot published at `retire_gen - 1` still
            // holds that generation's state.
            let snap_gen = retire_gen - 1;
            let fresher = w.spare.as_ref().is_none_or(|(g, ..)| *g < snap_gen);
            if fresher {
                if let Ok(snap) = Arc::try_unwrap(arc) {
                    let (tbl24, tbl_long) = snap.into_parts();
                    w.spare = Some((snap_gen, tbl24, tbl_long));
                }
            }
        }
        w.retired = kept;
        prune_dirty_log(w);
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
        let fib = RcuFib::with_max_readers(&table, 2).unwrap();
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
        let fib = RcuFib::with_max_readers(&base_table(), 1).unwrap();
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
        let extra = Prefix::new((MAX_SEGMENTS as u32) << 8, 26);
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
        // Many small publish rounds so snapshots cycle through the spare
        // and get delta-patched; every published snapshot must be
        // indistinguishable from a full recompile of the mirrored RIB.
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
        for round in 0..40usize {
            let mut updates = Vec::new();
            for k in 0..25usize {
                let (prefix, hop) = routes[(round * 37 + k * 13) % routes.len()];
                if (round + k) % 3 == 0 {
                    updates.push(RouteUpdate::Withdraw(prefix));
                    mirror.remove(&prefix);
                } else {
                    let hop = (hop + round as u16) % 16;
                    updates.push(RouteUpdate::Announce(prefix, hop));
                    mirror.insert(prefix, hop);
                }
            }
            ctl.apply_and_publish(&updates).unwrap();
            let reference = Dir24_8::compile(&mirror).unwrap();
            let guard = reader.pin();
            for addr in addresses_within(&table, 500, round as u64) {
                assert_eq!(
                    guard.lookup(addr),
                    reference.lookup(addr),
                    "round {round}, addr {addr:#010x}"
                );
            }
        }
        let stats = fib.stats();
        assert_eq!(stats.publishes, 40);
        assert!(
            stats.delta_publishes >= 30,
            "spare recycling should carry steady-state publishes, got {} of {}",
            stats.delta_publishes,
            stats.publishes
        );
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
