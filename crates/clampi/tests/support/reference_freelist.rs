//! The `BTreeMap` free list the cache used before its bitmap allocator,
//! kept verbatim as the reference the differential tests compare against.
//! It tracks free regions by start address: first-fit allocation,
//! coalescing on free, and an ordered-map search per query.

use std::collections::BTreeMap;

/// Allocator over a simulated buffer of `capacity` bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FreeList {
    capacity: usize,
    /// start address → length of the free region.
    free: BTreeMap<usize, usize>,
}

impl FreeList {
    /// Creates a free list covering an empty buffer of `capacity` bytes.
    pub fn new(capacity: usize) -> Self {
        let mut free = BTreeMap::new();
        if capacity > 0 {
            free.insert(0, capacity);
        }
        Self { capacity, free }
    }

    /// Buffer capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total free bytes (possibly fragmented).
    pub fn total_free(&self) -> usize {
        self.free.values().sum()
    }

    /// Size of the largest contiguous free region.
    pub fn largest_free(&self) -> usize {
        self.free.values().copied().max().unwrap_or(0)
    }

    /// Number of disjoint free regions; more regions at the same total free space
    /// means more external fragmentation.
    pub fn fragments(&self) -> usize {
        self.free.len()
    }

    /// External fragmentation metric in `[0, 1]`: `1 - largest_free / total_free`.
    pub fn fragmentation(&self) -> f64 {
        let total = self.total_free();
        if total == 0 {
            return 0.0;
        }
        1.0 - self.largest_free() as f64 / total as f64
    }

    /// Allocates `size` bytes with first-fit. Returns the start address, or `None`
    /// if no single free region is large enough (even if the total free space is).
    pub fn allocate(&mut self, size: usize) -> Option<usize> {
        if size == 0 {
            return Some(0);
        }
        let addr = self
            .free
            .iter()
            .find(|(_, &len)| len >= size)
            .map(|(&addr, _)| addr)?;
        let len = self.free.remove(&addr).expect("region disappeared");
        if len > size {
            self.free.insert(addr + size, len - size);
        }
        Some(addr)
    }

    /// Frees the region `[addr, addr + size)`, coalescing with adjacent free regions.
    pub fn free(&mut self, addr: usize, size: usize) {
        if size == 0 {
            return;
        }
        assert!(addr + size <= self.capacity, "free out of buffer bounds");
        // Coalesce with the predecessor if it ends exactly at `addr`.
        let mut start = addr;
        let mut len = size;
        if let Some((&prev_addr, &prev_len)) = self.free.range(..addr).next_back() {
            assert!(
                prev_addr + prev_len <= addr,
                "double free / overlap detected"
            );
            if prev_addr + prev_len == addr {
                self.free.remove(&prev_addr);
                start = prev_addr;
                len += prev_len;
            }
        }
        // Coalesce with the successor if it starts exactly at the end.
        if let Some((&next_addr, &next_len)) = self.free.range(addr..).next() {
            assert!(addr + size <= next_addr, "double free / overlap detected");
            if addr + size == next_addr {
                self.free.remove(&next_addr);
                len += next_len;
            }
        }
        self.free.insert(start, len);
    }

    /// Whether the bytes adjacent to `[addr, addr + size)` (on either side) are free.
    /// Used by the positional eviction score: evicting an entry that touches free
    /// space merges regions and reduces fragmentation.
    pub fn adjacency_to_free(&self, addr: usize, size: usize) -> (bool, bool) {
        let before = self
            .free
            .range(..addr)
            .next_back()
            .map(|(&a, &l)| a + l == addr)
            .unwrap_or(false);
        let after = self.free.contains_key(&(addr + size));
        (before, after)
    }

    /// Grows the buffer to `new_capacity` bytes, making the added tail region
    /// available without disturbing existing allocations. Used by the adaptive
    /// heuristic when it enlarges the memory buffer (which, unlike growing the hash
    /// table, does not require flushing the cache).
    pub fn grow(&mut self, new_capacity: usize) {
        assert!(
            new_capacity >= self.capacity,
            "cannot shrink the buffer with grow()"
        );
        if new_capacity == self.capacity {
            return;
        }
        let added = new_capacity - self.capacity;
        let old_capacity = self.capacity;
        self.capacity = new_capacity;
        self.free(old_capacity, added);
    }

    /// Resets the free list to a (possibly larger) empty buffer.
    pub fn reset(&mut self, capacity: usize) {
        self.capacity = capacity;
        self.free.clear();
        if capacity > 0 {
            self.free.insert(0, capacity);
        }
    }
}
