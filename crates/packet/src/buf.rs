//! Owned packet buffers with headroom and tailroom.
//!
//! [`PacketBuf`] follows the `sk_buff`/Click convention: a packet lives in
//! the middle of a larger allocation so that headers can be pushed (tunnel
//! encapsulation, VLB tags) or pulled (decapsulation) without copying the
//! payload. The IPsec path is the deepest user: `IpsecEncap` pushes 44
//! bytes in front of the inner datagram (outer IPv4 20 + SPI/sequence 8 +
//! IV 16, the Ethernet header rewritten at the new head), puts the ESP
//! padding, trailer and ICV behind it and encrypts it where it lies;
//! `IpsecDecap` pulls and trims back onto it.
//!
//! Storage is either a private heap `Vec` (the historical path) or a
//! recycled slot borrowed from a [`PacketPool`] arena. Pooled buffers make
//! the packet itself a lightweight handle — moving it between elements,
//! batches, and SPSC rings moves a slot index and two offsets, never the
//! frame bytes — and dropping it recycles the slot instead of freeing
//! memory. Pooled buffers that outgrow their slot are promoted to heap
//! storage transparently (counted as a `heap_fallback` in the pool stats),
//! so deep encapsulation degrades gracefully rather than failing.

use crate::pool::{PacketPool, PoolSlot};
use crate::{PacketError, Result};

/// Default bytes of headroom reserved in front of a freshly created packet.
///
/// The deepest encapsulation any RouteBricks application performs is the
/// ESP tunnel's 44-byte push (outer IPv4 + SPI/sequence + IV; the Ethernet
/// header moves, it does not grow), so one tunnel hop fits in a fresh
/// buffer's 64 bytes and a second one takes the promote-to-heap path.
pub const DEFAULT_HEADROOM: usize = 64;

/// Default bytes of tailroom reserved behind a freshly created packet.
///
/// ESP puts padding, a 2-byte trailer and a 12-byte ICV behind the payload;
/// 64 bytes covers the worst case (15 + 2 + 12 = 29) with room to spare.
pub const DEFAULT_TAILROOM: usize = 64;

/// Backing storage for a [`PacketBuf`].
enum Storage {
    /// A private heap allocation, freed on drop.
    Heap(Vec<u8>),
    /// A borrowed arena slot, recycled to its pool on drop.
    Pooled(PoolSlot),
}

impl Storage {
    #[inline]
    fn bytes(&self) -> &[u8] {
        match self {
            Storage::Heap(v) => v,
            Storage::Pooled(s) => s.bytes(),
        }
    }

    #[inline]
    fn bytes_mut(&mut self) -> &mut [u8] {
        match self {
            Storage::Heap(v) => v,
            Storage::Pooled(s) => s.bytes_mut(),
        }
    }

    #[inline]
    fn len(&self) -> usize {
        match self {
            Storage::Heap(v) => v.len(),
            Storage::Pooled(s) => s.len(),
        }
    }
}

/// An owned packet buffer with headroom and tailroom.
///
/// The live packet contents occupy `storage[head..tail]`. [`push`] and
/// [`pull`] move the head edge; [`put`] and [`trim`] move the tail edge.
/// All four are O(1) on the happy path. Heap-backed buffers never
/// reallocate and return [`PacketError::NoRoom`] when they run out of
/// room; pool-backed buffers instead promote themselves to a heap copy
/// with fresh room, so elements never see a slot-size failure.
///
/// [`push`]: PacketBuf::push
/// [`pull`]: PacketBuf::pull
/// [`put`]: PacketBuf::put
/// [`trim`]: PacketBuf::trim
pub struct PacketBuf {
    storage: Storage,
    head: usize,
    tail: usize,
}

impl PacketBuf {
    /// Creates a heap buffer holding a copy of `data`, with default room.
    ///
    /// # Examples
    ///
    /// ```
    /// let buf = rb_packet::PacketBuf::from_slice(&[1, 2, 3]);
    /// assert_eq!(buf.data(), &[1, 2, 3]);
    /// ```
    pub fn from_slice(data: &[u8]) -> Self {
        Self::with_room(data, DEFAULT_HEADROOM, DEFAULT_TAILROOM)
    }

    /// Creates a heap buffer holding a copy of `data` with explicit room.
    pub fn with_room(data: &[u8], headroom: usize, tailroom: usize) -> Self {
        let mut storage = vec![0u8; headroom + data.len() + tailroom];
        storage[headroom..headroom + data.len()].copy_from_slice(data);
        PacketBuf {
            storage: Storage::Heap(storage),
            head: headroom,
            tail: headroom + data.len(),
        }
    }

    /// Creates a zero-filled heap buffer of `len` live bytes with default
    /// room.
    pub fn zeroed(len: usize) -> Self {
        let storage = vec![0u8; DEFAULT_HEADROOM + len + DEFAULT_TAILROOM];
        PacketBuf {
            storage: Storage::Heap(storage),
            head: DEFAULT_HEADROOM,
            tail: DEFAULT_HEADROOM + len,
        }
    }

    /// Creates a pooled buffer holding a copy of `data` with default room,
    /// or `None` when the pool is exhausted (recorded in the pool stats so
    /// the caller can count the drop).
    ///
    /// Frames too large for a slot fall back to heap storage — that case
    /// always succeeds and is counted as a `heap_fallback`.
    pub fn try_from_slice_in(pool: &PacketPool, data: &[u8]) -> Option<Self> {
        let mut buf = Self::try_uninit_in(pool, data.len())?;
        buf.data_mut().copy_from_slice(data);
        Some(buf)
    }

    /// Creates a pooled buffer holding a copy of `data` with default room,
    /// deflecting to heap storage when the pool is exhausted (counted as a
    /// `heap_fallback`).
    pub fn from_slice_in(pool: &PacketPool, data: &[u8]) -> Self {
        match Self::try_from_slice_in(pool, data) {
            Some(buf) => buf,
            None => {
                pool.note_heap_fallback();
                Self::from_slice(data)
            }
        }
    }

    /// Creates a pooled buffer with `len` live bytes of *unspecified*
    /// content (whatever the slot's previous occupant left) and default
    /// room, or `None` when the pool is exhausted. The caller must
    /// overwrite all `len` bytes before exposing the packet.
    ///
    /// This is the single-copy construction path: packet builders write
    /// headers and payload directly into the slot instead of assembling a
    /// temporary `Vec` and copying it in.
    pub fn try_uninit_in(pool: &PacketPool, len: usize) -> Option<Self> {
        let needed = DEFAULT_HEADROOM + len + DEFAULT_TAILROOM;
        if needed > pool.slot_size() {
            // Slot-overflow fallback: count it and serve from the heap.
            pool.note_heap_fallback();
            return Some(Self::zeroed(len));
        }
        let slot = pool.try_slot()?;
        Some(PacketBuf {
            storage: Storage::Pooled(slot),
            head: DEFAULT_HEADROOM,
            tail: DEFAULT_HEADROOM + len,
        })
    }

    /// Returns `true` when the buffer borrows an arena slot (as opposed to
    /// owning a heap allocation).
    #[inline]
    pub fn is_pooled(&self) -> bool {
        matches!(self.storage, Storage::Pooled(_))
    }

    /// Returns the live packet contents.
    #[inline]
    pub fn data(&self) -> &[u8] {
        &self.storage.bytes()[self.head..self.tail]
    }

    /// Returns the live packet contents mutably.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [u8] {
        let (head, tail) = (self.head, self.tail);
        &mut self.storage.bytes_mut()[head..tail]
    }

    /// Returns the number of live bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.tail - self.head
    }

    /// Returns `true` when the buffer holds no live bytes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.head == self.tail
    }

    /// Returns the bytes of headroom currently available.
    #[inline]
    pub fn headroom(&self) -> usize {
        self.head
    }

    /// Returns the bytes of tailroom currently available.
    #[inline]
    pub fn tailroom(&self) -> usize {
        self.storage.len() - self.tail
    }

    /// Copies the live bytes into a fresh heap allocation with the given
    /// room, releasing the arena slot (if any) back to its pool. Used when
    /// a pooled packet outgrows its slot.
    fn promote_to_heap(&mut self, headroom: usize, tailroom: usize) {
        let len = self.len();
        let mut storage = vec![0u8; headroom + len + tailroom];
        storage[headroom..headroom + len].copy_from_slice(self.data());
        if let Storage::Pooled(slot) = &self.storage {
            slot.pool().note_heap_fallback();
        }
        self.storage = Storage::Heap(storage);
        self.head = headroom;
        self.tail = headroom + len;
    }

    /// Extends the packet at the front by `n` bytes and returns the new
    /// prefix for the caller to fill in.
    ///
    /// Pool-backed buffers that lack headroom are promoted to a heap copy
    /// with room for the request (the slot recycles immediately), so this
    /// only fails for heap buffers.
    ///
    /// # Errors
    ///
    /// Returns [`PacketError::NoRoom`] when the buffer is heap-backed and
    /// fewer than `n` bytes of headroom remain.
    pub fn push(&mut self, n: usize) -> Result<&mut [u8]> {
        if n > self.head {
            if !self.is_pooled() {
                return Err(PacketError::NoRoom {
                    needed: n,
                    available: self.head,
                });
            }
            self.promote_to_heap(n.max(DEFAULT_HEADROOM), self.tailroom());
        }
        self.head -= n;
        let head = self.head;
        Ok(&mut self.storage.bytes_mut()[head..head + n])
    }

    /// Removes `n` bytes from the front of the packet.
    ///
    /// # Errors
    ///
    /// Returns [`PacketError::Truncated`] when the packet is shorter than
    /// `n` bytes.
    pub fn pull(&mut self, n: usize) -> Result<()> {
        if n > self.len() {
            return Err(PacketError::Truncated {
                needed: n,
                available: self.len(),
            });
        }
        self.head += n;
        Ok(())
    }

    /// Extends the packet at the back by `n` bytes and returns the new
    /// suffix for the caller to fill in.
    ///
    /// Pool-backed buffers that lack tailroom are promoted to a heap copy
    /// with room for the request (the slot recycles immediately), so this
    /// only fails for heap buffers.
    ///
    /// # Errors
    ///
    /// Returns [`PacketError::NoRoom`] when the buffer is heap-backed and
    /// fewer than `n` bytes of tailroom remain.
    pub fn put(&mut self, n: usize) -> Result<&mut [u8]> {
        if n > self.tailroom() {
            if !self.is_pooled() {
                return Err(PacketError::NoRoom {
                    needed: n,
                    available: self.tailroom(),
                });
            }
            self.promote_to_heap(self.headroom(), n.max(DEFAULT_TAILROOM));
        }
        let start = self.tail;
        self.tail += n;
        let tail = self.tail;
        Ok(&mut self.storage.bytes_mut()[start..tail])
    }

    /// Removes `n` bytes from the back of the packet.
    ///
    /// # Errors
    ///
    /// Returns [`PacketError::Truncated`] when the packet is shorter than
    /// `n` bytes.
    pub fn trim(&mut self, n: usize) -> Result<()> {
        if n > self.len() {
            return Err(PacketError::Truncated {
                needed: n,
                available: self.len(),
            });
        }
        self.tail -= n;
        Ok(())
    }

    /// Consumes the buffer, queueing a pooled slot on `batch` so the free
    /// list's lock is taken once for the whole batch; a heap buffer
    /// is simply dropped. Use at bulk drop points (transmit, discard)
    /// where many buffers die together.
    pub fn recycle_into(self, batch: &mut crate::pool::FreeBatch) {
        if let Storage::Pooled(slot) = self.storage {
            batch.push(slot);
        }
    }

    /// Consumes the buffer and returns the live bytes as a `Vec`.
    pub fn into_vec(self) -> Vec<u8> {
        match self.storage {
            Storage::Heap(mut v) => {
                v.truncate(self.tail);
                v.drain(..self.head);
                v
            }
            Storage::Pooled(slot) => slot.bytes()[self.head..self.tail].to_vec(),
        }
    }
}

impl Clone for PacketBuf {
    /// Clones the buffer, preserving head/tail offsets. A pooled buffer
    /// clones into a fresh slot from the same arena when one is free, and
    /// deflects to the heap (counted as a `heap_fallback`) otherwise, so
    /// cloning never fails and never aliases the original slot.
    fn clone(&self) -> Self {
        match &self.storage {
            Storage::Heap(v) => PacketBuf {
                storage: Storage::Heap(v.clone()),
                head: self.head,
                tail: self.tail,
            },
            Storage::Pooled(slot) => {
                let pool = slot.pool();
                let storage = match pool.try_slot() {
                    Some(mut fresh) => {
                        fresh.bytes_mut()[self.head..self.tail]
                            .copy_from_slice(&slot.bytes()[self.head..self.tail]);
                        Storage::Pooled(fresh)
                    }
                    None => {
                        pool.note_heap_fallback();
                        let mut v = vec![0u8; slot.len()];
                        v[self.head..self.tail]
                            .copy_from_slice(&slot.bytes()[self.head..self.tail]);
                        Storage::Heap(v)
                    }
                };
                PacketBuf {
                    storage,
                    head: self.head,
                    tail: self.tail,
                }
            }
        }
    }
}

impl core::fmt::Debug for PacketBuf {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("PacketBuf")
            .field("len", &self.len())
            .field("headroom", &self.headroom())
            .field("tailroom", &self.tailroom())
            .field("pooled", &self.is_pooled())
            .finish()
    }
}

impl AsRef<[u8]> for PacketBuf {
    fn as_ref(&self) -> &[u8] {
        self.data()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::PacketPool;

    #[test]
    fn from_slice_round_trips() {
        let buf = PacketBuf::from_slice(b"hello");
        assert_eq!(buf.data(), b"hello");
        assert_eq!(buf.len(), 5);
        assert!(!buf.is_empty());
        assert!(!buf.is_pooled());
    }

    #[test]
    fn push_prepends_bytes() {
        let mut buf = PacketBuf::from_slice(b"payload");
        buf.push(3).unwrap().copy_from_slice(b"hdr");
        assert_eq!(buf.data(), b"hdrpayload");
    }

    #[test]
    fn pull_strips_prefix() {
        let mut buf = PacketBuf::from_slice(b"hdrpayload");
        buf.pull(3).unwrap();
        assert_eq!(buf.data(), b"payload");
    }

    #[test]
    fn put_appends_bytes() {
        let mut buf = PacketBuf::from_slice(b"data");
        buf.put(4).unwrap().copy_from_slice(b"tail");
        assert_eq!(buf.data(), b"datatail");
    }

    #[test]
    fn trim_strips_suffix() {
        let mut buf = PacketBuf::from_slice(b"datatail");
        buf.trim(4).unwrap();
        assert_eq!(buf.data(), b"data");
    }

    #[test]
    fn push_beyond_headroom_fails() {
        let mut buf = PacketBuf::with_room(b"x", 2, 0);
        let err = buf.push(3).unwrap_err();
        assert!(matches!(
            err,
            PacketError::NoRoom {
                needed: 3,
                available: 2
            }
        ));
    }

    #[test]
    fn put_beyond_tailroom_fails() {
        let mut buf = PacketBuf::with_room(b"x", 0, 2);
        let err = buf.put(3).unwrap_err();
        assert!(matches!(
            err,
            PacketError::NoRoom {
                needed: 3,
                available: 2
            }
        ));
    }

    #[test]
    fn pull_beyond_len_fails() {
        let mut buf = PacketBuf::from_slice(b"ab");
        assert!(buf.pull(3).is_err());
    }

    #[test]
    fn trim_beyond_len_fails() {
        let mut buf = PacketBuf::from_slice(b"ab");
        assert!(buf.trim(3).is_err());
    }

    #[test]
    fn zeroed_is_all_zero() {
        let buf = PacketBuf::zeroed(16);
        assert_eq!(buf.len(), 16);
        assert!(buf.data().iter().all(|&b| b == 0));
    }

    #[test]
    fn into_vec_returns_live_bytes_only() {
        let mut buf = PacketBuf::from_slice(b"abcdef");
        buf.pull(1).unwrap();
        buf.trim(1).unwrap();
        assert_eq!(buf.into_vec(), b"bcde");
    }

    #[test]
    fn push_then_pull_is_identity() {
        let mut buf = PacketBuf::from_slice(b"core");
        buf.push(8).unwrap().copy_from_slice(b"12345678");
        buf.pull(8).unwrap();
        assert_eq!(buf.data(), b"core");
    }

    #[test]
    fn pooled_from_slice_round_trips() {
        let pool = PacketPool::new(4, 512);
        let buf = PacketBuf::try_from_slice_in(&pool, b"hello").unwrap();
        assert!(buf.is_pooled());
        assert_eq!(buf.data(), b"hello");
        assert_eq!(buf.headroom(), DEFAULT_HEADROOM);
        drop(buf);
        assert_eq!(pool.stats().recycles, 1);
    }

    #[test]
    fn pooled_push_pull_match_heap() {
        let pool = PacketPool::new(4, 512);
        let mut pooled = PacketBuf::try_from_slice_in(&pool, b"payload").unwrap();
        let mut heap = PacketBuf::from_slice(b"payload");
        pooled.push(3).unwrap().copy_from_slice(b"hdr");
        heap.push(3).unwrap().copy_from_slice(b"hdr");
        assert_eq!(pooled.data(), heap.data());
        pooled.pull(5).unwrap();
        heap.pull(5).unwrap();
        pooled.put(2).unwrap().copy_from_slice(b"zz");
        heap.put(2).unwrap().copy_from_slice(b"zz");
        pooled.trim(1).unwrap();
        heap.trim(1).unwrap();
        assert_eq!(pooled.data(), heap.data());
    }

    #[test]
    fn exhausted_pool_yields_none_and_counts() {
        let pool = PacketPool::new(1, 512);
        let first = PacketBuf::try_from_slice_in(&pool, b"a").unwrap();
        assert!(PacketBuf::try_from_slice_in(&pool, b"b").is_none());
        assert_eq!(pool.stats().exhausted, 1);
        drop(first);
        assert!(PacketBuf::try_from_slice_in(&pool, b"c").is_some());
    }

    #[test]
    fn oversize_frame_falls_back_to_heap() {
        let pool = PacketPool::new(2, 256);
        let big = vec![0x42u8; 400];
        let buf = PacketBuf::try_from_slice_in(&pool, &big).unwrap();
        assert!(!buf.is_pooled());
        assert_eq!(buf.data(), &big[..]);
        assert_eq!(pool.stats().heap_fallbacks, 1);
        assert_eq!(pool.stats().allocs, 0);
    }

    #[test]
    fn from_slice_in_deflects_on_exhaustion() {
        let pool = PacketPool::new(1, 512);
        let _hold = pool.try_slot().unwrap();
        let buf = PacketBuf::from_slice_in(&pool, b"overflow");
        assert!(!buf.is_pooled());
        assert_eq!(buf.data(), b"overflow");
        let s = pool.stats();
        assert_eq!(s.exhausted, 1);
        assert_eq!(s.heap_fallbacks, 1);
    }

    #[test]
    fn pooled_push_past_slot_promotes_to_heap() {
        let pool = PacketPool::new(2, 256);
        let mut buf = PacketBuf::try_from_slice_in(&pool, b"deep").unwrap();
        // Exceed the 64-byte slot headroom: promotes instead of erroring.
        let hdr = buf.push(100).unwrap();
        hdr.fill(0x11);
        assert!(!buf.is_pooled());
        assert_eq!(buf.len(), 104);
        assert_eq!(&buf.data()[100..], b"deep");
        assert_eq!(pool.stats().heap_fallbacks, 1);
        // The slot went back to the pool immediately.
        assert_eq!(pool.stats().in_use, 0);
    }

    #[test]
    fn pooled_put_past_slot_promotes_to_heap() {
        let pool = PacketPool::new(2, 256);
        let mut buf = PacketBuf::try_from_slice_in(&pool, b"x").unwrap();
        let tail = buf.put(300).unwrap();
        tail.fill(0x22);
        assert!(!buf.is_pooled());
        assert_eq!(buf.len(), 301);
        assert_eq!(pool.stats().heap_fallbacks, 1);
    }

    #[test]
    fn clone_uses_fresh_slot_or_heap() {
        let pool = PacketPool::new(2, 512);
        let mut orig = PacketBuf::try_from_slice_in(&pool, b"original").unwrap();
        orig.push(2).unwrap().copy_from_slice(b"eh");
        let cloned = orig.clone();
        assert!(cloned.is_pooled());
        assert_eq!(cloned.data(), orig.data());
        assert_eq!(cloned.headroom(), orig.headroom());
        // Pool now empty: next clone deflects to heap but is byte-identical.
        let heap_clone = orig.clone();
        assert!(!heap_clone.is_pooled());
        assert_eq!(heap_clone.data(), orig.data());
        // Mutating the clone leaves the original untouched.
        let mut cloned = cloned;
        cloned.data_mut()[0] = b'X';
        assert_eq!(&orig.data()[..2], b"eh");
    }

    #[test]
    fn pooled_into_vec_returns_live_bytes() {
        let pool = PacketPool::new(2, 512);
        let mut buf = PacketBuf::try_from_slice_in(&pool, b"abcdef").unwrap();
        buf.pull(1).unwrap();
        buf.trim(1).unwrap();
        assert_eq!(buf.into_vec(), b"bcde");
        assert_eq!(pool.stats().in_use, 0);
    }
}
