//! Cache entries and their keys.

use rmatc_rma::WindowId;
use std::sync::Arc;

/// Key identifying one cached remote region: which window, which target rank, and
/// which `[offset, offset + len)` element range. This mirrors CLaMPI's indexing of
/// gets by their `(window, target, displacement, size)` tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct EntryKey {
    /// Window the get targeted.
    pub window: WindowId,
    /// Target rank of the get.
    pub target: usize,
    /// Element offset within the target's exposed region.
    pub offset: usize,
    /// Number of elements.
    pub len: usize,
}

impl EntryKey {
    /// Creates a key.
    pub fn new(window: WindowId, target: usize, offset: usize, len: usize) -> Self {
        Self {
            window,
            target,
            offset,
            len,
        }
    }

    /// Hash-table slot for this key given `slots` total slots. A simple multiplicative
    /// hash is sufficient and deterministic across runs.
    pub fn slot(&self, slots: usize) -> usize {
        debug_assert!(slots > 0);
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for v in [
            self.window.0,
            self.target as u64,
            self.offset as u64,
            self.len as u64,
        ] {
            h ^= v;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        (h % slots as u64) as usize
    }
}

/// One cached entry: the transferred data plus the bookkeeping needed for victim
/// selection (placement in the buffer, recency, application score).
#[derive(Debug, Clone)]
pub struct Entry<T> {
    /// The key this entry answers.
    pub key: EntryKey,
    /// Cached data. The shared slice is the *same allocation* the RMA transfer
    /// landed in — inserting is a refcount bump, and hits hand out further
    /// bumps — so the payload is copied exactly once, off the wire.
    pub data: Arc<[T]>,
    /// Start address of the entry in the simulated memory buffer.
    pub addr: usize,
    /// Size in bytes occupied in the memory buffer.
    pub bytes: usize,
    /// Logical timestamp of the last access (for LRU).
    pub last_access: u64,
    /// Application-defined score; `0.0` when the application passes none.
    pub user_score: f64,
    /// Integrity stamp of the transfer this entry retains, computed at the
    /// source window when fault injection is enabled; `None` on fault-free
    /// runs (verification is skipped entirely).
    pub checksum: Option<u64>,
    /// Number of accesses this entry has served, counting the insert itself
    /// (the frequency term of the LFU and GDSF eviction policies).
    pub hits: u64,
    /// Policy-private scalar maintained by the active
    /// [`EvictionPolicy`](crate::policy::EvictionPolicy) (GDSF stores its
    /// priority `H` here); `0.0` for policies that do not use it.
    pub priority: f64,
}

impl<T> Entry<T> {
    /// Borrow-free snapshot of the fields eviction policies may consult.
    pub fn view(&self) -> crate::policy::EntryView {
        crate::policy::EntryView {
            bytes: self.bytes,
            addr: self.addr,
            last_access: self.last_access,
            user_score: self.user_score,
            hits: self.hits,
            priority: self.priority,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(offset: usize) -> EntryKey {
        EntryKey::new(WindowId(3), 1, offset, 10)
    }

    #[test]
    fn keys_compare_by_all_fields() {
        assert_eq!(key(5), key(5));
        assert_ne!(key(5), key(6));
        assert_ne!(key(5), EntryKey::new(WindowId(4), 1, 5, 10));
        assert_ne!(key(5), EntryKey::new(WindowId(3), 2, 5, 10));
    }

    #[test]
    fn slot_is_stable_and_in_range() {
        for slots in [1usize, 7, 64, 1023] {
            for off in 0..100 {
                let s = key(off).slot(slots);
                assert!(s < slots);
                assert_eq!(s, key(off).slot(slots));
            }
        }
    }

    #[test]
    fn slot_distributes_keys() {
        // With a reasonable table size, 1000 distinct keys should not all collide.
        let slots = 256;
        let mut used = std::collections::HashSet::new();
        for off in 0..1000 {
            used.insert(key(off).slot(slots));
        }
        assert!(
            used.len() > slots / 2,
            "hash too degenerate: {} slots used",
            used.len()
        );
    }
}
