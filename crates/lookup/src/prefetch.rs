//! Portable software-prefetch shim.
//!
//! The batched lookup path issues explicit prefetches for the `TBL24`
//! (and, when spilled, `TBLlong`) cache lines of every destination in a
//! batch *before* resolving any of them, so the DRAM accesses of a
//! full-table FIB overlap instead of serialising — the same
//! memory-level-parallelism trick the paper's batching applies to NIC
//! descriptor rings, applied to the lookup structure itself. The tables
//! are paged (see [`crate::dir24_8`]): a prefetch first reads the page's
//! pointer from the page directory, 64 KiB for `TBL24`, which stays in
//! cache, so only the entry's own line is a miss to hide.
//!
//! On x86_64 this lowers to `prefetcht0`; elsewhere it is a no-op, so the
//! batch pipeline stays portable and the differential tests cover both
//! shapes.

/// Hints the CPU to pull the cache line containing `p` into all cache
/// levels. Never faults: a prefetch of an invalid address is ignored by
/// the hardware, though callers here only ever pass in-bounds element
/// pointers.
#[inline(always)]
pub fn prefetch_read<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `_mm_prefetch` is a hint; it performs no load and cannot
    // fault regardless of the pointer's validity.
    unsafe {
        core::arch::x86_64::_mm_prefetch(p as *const i8, core::arch::x86_64::_MM_HINT_T0);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// Prefetches element `idx` of `slice` (no-op when out of bounds, so
/// speculative index math cannot fault).
#[inline(always)]
pub fn prefetch_slice<T>(slice: &[T], idx: usize) {
    if let Some(e) = slice.get(idx) {
        prefetch_read(e as *const T);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetch_is_a_pure_hint() {
        let v = vec![1u16; 1024];
        prefetch_slice(&v, 0);
        prefetch_slice(&v, 1023);
        prefetch_slice(&v, 1024); // Out of bounds: must not fault.
        prefetch_slice::<u16>(&[], 0);
        prefetch_read(v.as_ptr());
    }
}
