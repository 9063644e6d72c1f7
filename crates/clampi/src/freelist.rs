//! Free-region manager for the cache's memory buffer.
//!
//! CLaMPI stores variable-size entries in one contiguous buffer and tracks its
//! free regions in an AVL tree. Allocating and freeing entries leaves the free
//! space externally fragmented (many small holes), which the positional
//! eviction score counteracts by favouring victims next to free space.
//!
//! Every entry of one cache has the same element type, so its size is a whole
//! number of elements and, with first fit from address 0, every entry starts
//! on a whole element. The buffer is therefore tracked in *cells* of one
//! element each (`size_of::<T>()` bytes when that is a power of two, one byte
//! otherwise):
//!
//! * a bitmap holds one bit per cell, set while the cell is free;
//! * a segment tree with one leaf per 64-bit bitmap word stores, for the
//!   cells under each node, the free run at its start, the free run at its
//!   end and the longest free run inside it.
//!
//! [`FreeList::allocate`] descends the tree to the lowest free run of at
//! least the requested number of cells, [`FreeList::free`] sets bits and
//! updates the tree paths above them, [`FreeList::adjacency_to_free`] is two
//! bit tests and [`FreeList::total_free`] is a counter. Both updates cost
//! O(words touched + log n).
//!
//! The allocator stays *exact first fit*: it returns the lowest address of a
//! free region large enough, the same address an ordered map of regions
//! searched from the front returns (the free list this one replaced, kept as
//! the reference in `tests/support/reference_freelist.rs`). That is a
//! correctness requirement, not a detail: the positional score depends on
//! where entries sit, so any other placement rule (best fit, size classes)
//! would change which victims the cache picks.
//!
//! When the capacity is not a whole number of cells, the bytes after the last
//! whole cell can never hold an entry. They stay one free region that merges
//! with the last free cells, exactly as in a byte-granular free list, so
//! [`FreeList::total_free`], [`FreeList::largest_free`] and
//! [`FreeList::fragments`] report the same numbers.

/// Free-run summary of the cells under one tree node, counted in cells.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Runs {
    /// Free cells at the node's start.
    prefix: u32,
    /// Free cells at the node's end.
    suffix: u32,
    /// Longest free run inside the node.
    max: u32,
}

impl Runs {
    fn of_word(word: u64) -> Self {
        Self {
            prefix: word.trailing_ones(),
            suffix: word.leading_ones(),
            max: longest_run(word),
        }
    }

    /// Summary of two adjacent nodes of `half` cells each.
    fn join(left: Runs, right: Runs, half: u32) -> Self {
        Self {
            prefix: if left.prefix == half {
                half + right.prefix
            } else {
                left.prefix
            },
            suffix: if right.suffix == half {
                half + left.suffix
            } else {
                right.suffix
            },
            max: left.max.max(right.max).max(left.suffix + right.prefix),
        }
    }
}

/// Length of the longest run of set bits in `word`.
fn longest_run(mut word: u64) -> u32 {
    if word == u64::MAX {
        return 64;
    }
    let mut best = 0;
    while word != 0 {
        word >>= word.trailing_zeros();
        let run = word.trailing_ones();
        best = best.max(run);
        word >>= run;
    }
    best
}

/// Lowest bit position at which `k` (in `1..=64`) consecutive set bits of
/// `word` start, if any.
fn first_run(word: u64, k: u32) -> Option<u32> {
    // After each step bit `p` of `m` is set iff bits `p..p + len` of `word`
    // all are; doubling `len` takes O(log k) steps.
    let mut m = word;
    let mut len = 1;
    while len < k {
        let step = len.min(k - len);
        m &= m >> step;
        len += step;
    }
    (m != 0).then(|| m.trailing_zeros())
}

/// Largest run tree the allocator supports: `u32` run lengths, with room to
/// add two of them.
const MAX_TREE_CELLS: usize = 1 << 31;

/// Allocator over a simulated buffer of `capacity` bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FreeList {
    /// Buffer capacity in bytes.
    capacity: usize,
    /// Base-2 logarithm of the cell size in bytes.
    shift: u32,
    /// Whole cells in the buffer (`capacity >> shift`).
    cells: usize,
    /// Free whole cells. The partial tail after them is always free and is
    /// counted apart.
    free_cells: usize,
    /// One bit per cell, set while the cell is free; bits past `cells` stay
    /// clear so no run reaches past the buffer.
    bits: Vec<u64>,
    /// Implicit segment tree over `bits`: node 1 is the root, node `i` has
    /// children `2i` and `2i + 1`, and word `w` is leaf `leaves + w`.
    tree: Vec<Runs>,
    /// Leaf count, a power of two `>= bits.len()`.
    leaves: usize,
}

impl FreeList {
    /// Creates a free list covering an empty buffer of `capacity` bytes with
    /// byte granularity.
    pub fn new(capacity: usize) -> Self {
        Self::with_cell_size(capacity, 1)
    }

    /// Creates a free list over `capacity` bytes whose allocations are whole
    /// multiples of `cell_bytes` (the element size of the cached data). A
    /// cell size that is not a power of two falls back to one byte.
    pub fn with_cell_size(capacity: usize, cell_bytes: usize) -> Self {
        let shift = if cell_bytes.is_power_of_two() {
            cell_bytes.trailing_zeros()
        } else {
            0
        };
        let mut fl = Self {
            capacity: 0,
            shift,
            cells: 0,
            free_cells: 0,
            bits: Vec::new(),
            tree: Vec::new(),
            leaves: 0,
        };
        fl.reset(capacity);
        fl
    }

    /// Buffer capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Size of one cell in bytes: every allocation is a whole number of them.
    pub fn cell_bytes(&self) -> usize {
        1 << self.shift
    }

    /// Total free bytes (possibly fragmented).
    pub fn total_free(&self) -> usize {
        (self.free_cells << self.shift) + self.tail_bytes()
    }

    /// Size of the largest contiguous free region.
    pub fn largest_free(&self) -> usize {
        let runs = (self.tree[1].max as usize) << self.shift;
        match self.tail_bytes() {
            0 => runs,
            tail => runs.max((self.trailing_free_cells() << self.shift) + tail),
        }
    }

    /// Number of disjoint free regions; more regions at the same total free space
    /// means more external fragmentation.
    pub fn fragments(&self) -> usize {
        let mut count = 0;
        let mut carry = 0u64;
        for &word in &self.bits {
            // A run starts at every free cell whose predecessor is not free.
            count += (word & !((word << 1) | carry)).count_ones() as usize;
            carry = word >> 63;
        }
        if self.tail_bytes() > 0 && self.trailing_free_cells() == 0 {
            count += 1;
        }
        count
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
    ///
    /// # Panics
    ///
    /// If `size` is not a whole number of cells.
    pub fn allocate(&mut self, size: usize) -> Option<usize> {
        if size == 0 {
            return Some(0);
        }
        self.assert_whole_cells(size);
        let k = size >> self.shift;
        if k > self.tree[1].max as usize {
            return None;
        }
        let start = self.first_fit(k as u32);
        let (lo, hi) = self.set_cells(start, k, false);
        self.refresh(lo, hi);
        self.free_cells -= k;
        Some(start << self.shift)
    }

    /// Frees the region `[addr, addr + size)`, coalescing with adjacent free regions.
    ///
    /// # Panics
    ///
    /// If the region leaves the buffer, is not whole cells, or any of its
    /// cells is already free (a double free or an overlap).
    pub fn free(&mut self, addr: usize, size: usize) {
        if size == 0 {
            return;
        }
        assert!(addr + size <= self.capacity, "free out of buffer bounds");
        self.assert_whole_cells(addr);
        self.assert_whole_cells(size);
        let (start, count) = (addr >> self.shift, size >> self.shift);
        let end = start + count;
        for w in start / 64..end.div_ceil(64) {
            assert!(
                self.bits[w] & range_mask(w, start, end) == 0,
                "double free / overlap detected"
            );
        }
        let (lo, hi) = self.set_cells(start, count, true);
        self.refresh(lo, hi);
        self.free_cells += count;
    }

    /// Whether the bytes adjacent to the live allocation `[addr, addr + size)`
    /// (on either side) are free. Used by the positional eviction score:
    /// evicting an entry that touches free space merges regions and reduces
    /// fragmentation.
    pub fn adjacency_to_free(&self, addr: usize, size: usize) -> (bool, bool) {
        let start = addr >> self.shift;
        let end = (addr + size) >> self.shift;
        let before = start > 0 && self.is_free(start - 1);
        let after = if end < self.cells {
            self.is_free(end)
        } else {
            // Past the last whole cell only the always-free tail remains.
            addr + size < self.capacity
        };
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
        let old_cells = self.cells;
        self.capacity = new_capacity;
        self.cells = new_capacity >> self.shift;
        self.bits.resize(self.cells.div_ceil(64), 0);
        let added = self.cells - old_cells;
        self.free_cells += added;
        if added == 0 {
            return;
        }
        let (lo, hi) = self.set_cells(old_cells, added, true);
        if self.bits.len() > self.leaves {
            self.rebuild();
        } else {
            self.refresh(lo, hi);
        }
    }

    /// Resets the free list to a (possibly larger) empty buffer.
    pub fn reset(&mut self, capacity: usize) {
        self.capacity = capacity;
        self.cells = capacity >> self.shift;
        self.free_cells = self.cells;
        self.bits = vec![0; self.cells.div_ceil(64)];
        if self.cells > 0 {
            self.set_cells(0, self.cells, true);
        }
        self.rebuild();
    }

    fn tail_bytes(&self) -> usize {
        self.capacity - (self.cells << self.shift)
    }

    fn is_free(&self, cell: usize) -> bool {
        self.bits[cell / 64] >> (cell % 64) & 1 != 0
    }

    fn assert_whole_cells(&self, bytes: usize) {
        assert!(
            bytes & (self.cell_bytes() - 1) == 0,
            "free list regions must be whole {}-byte cells",
            self.cell_bytes()
        );
    }

    /// Free cells that end at the last whole cell.
    fn trailing_free_cells(&self) -> usize {
        let mut run = 0;
        let mut end = self.cells;
        while end > 0 {
            let w = (end - 1) / 64;
            let valid = end - w * 64;
            let ones = (self.bits[w] << (64 - valid)).leading_ones() as usize;
            run += ones;
            if ones < valid {
                break;
            }
            end = w * 64;
        }
        run
    }

    /// Lowest cell at which `k` free cells start; the root must have a run
    /// of at least `k`.
    fn first_fit(&self, k: u32) -> usize {
        let (mut node, mut base, mut half) = (1, 0, self.leaves * 32);
        while node < self.leaves {
            let (left, right) = (self.tree[2 * node], self.tree[2 * node + 1]);
            if left.max >= k {
                node *= 2;
            } else if left.suffix + right.prefix >= k {
                // The run that crosses the middle starts inside the left half.
                return base + half - left.suffix as usize;
            } else {
                node = 2 * node + 1;
                base += half;
            }
            half /= 2;
        }
        let pos = first_run(self.bits[node - self.leaves], k).expect("the run tree promised a run");
        base + pos as usize
    }

    /// Sets (`free`) or clears the bits of cells `[start, start + count)`,
    /// `count > 0`, and returns the first and last word touched.
    fn set_cells(&mut self, start: usize, count: usize, free: bool) -> (usize, usize) {
        let end = start + count;
        let (lo, hi) = (start / 64, (end - 1) / 64);
        for w in lo..=hi {
            let mask = range_mask(w, start, end);
            if free {
                self.bits[w] |= mask;
            } else {
                self.bits[w] &= !mask;
            }
        }
        (lo, hi)
    }

    /// Recomputes the leaves of words `lo..=hi` and every ancestor above them.
    fn refresh(&mut self, lo: usize, hi: usize) {
        for w in lo..=hi {
            let word = self.bits.get(w).copied().unwrap_or(0);
            self.tree[self.leaves + w] = Runs::of_word(word);
        }
        let (mut lo, mut hi, mut half) = ((self.leaves + lo) / 2, (self.leaves + hi) / 2, 64);
        while lo >= 1 {
            for i in lo..=hi {
                self.tree[i] = Runs::join(self.tree[2 * i], self.tree[2 * i + 1], half);
            }
            lo /= 2;
            hi /= 2;
            half *= 2;
        }
    }

    /// Sizes the tree for the current bitmap and recomputes every node.
    fn rebuild(&mut self) {
        self.leaves = self.bits.len().next_power_of_two();
        assert!(
            self.leaves * 64 <= MAX_TREE_CELLS,
            "buffer of {} cells exceeds the free list's {MAX_TREE_CELLS}-cell limit",
            self.cells
        );
        self.tree = vec![Runs::default(); 2 * self.leaves];
        self.refresh(0, self.leaves - 1);
    }
}

/// The bits of word `w` that fall in cells `[start, end)`.
fn range_mask(w: usize, start: usize, end: usize) -> u64 {
    let first = start.saturating_sub(w * 64).min(64);
    let last = (end - w * 64).min(64);
    let upto = |n: usize| if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
    upto(last) & !upto(first)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_buffer_is_one_big_region() {
        let fl = FreeList::new(1024);
        assert_eq!(fl.total_free(), 1024);
        assert_eq!(fl.largest_free(), 1024);
        assert_eq!(fl.fragments(), 1);
        assert_eq!(fl.fragmentation(), 0.0);
    }

    #[test]
    fn allocate_first_fit_and_split() {
        let mut fl = FreeList::new(100);
        assert_eq!(fl.allocate(30), Some(0));
        assert_eq!(fl.allocate(30), Some(30));
        assert_eq!(fl.total_free(), 40);
        assert_eq!(fl.allocate(50), None);
        assert_eq!(fl.allocate(40), Some(60));
        assert_eq!(fl.total_free(), 0);
        assert_eq!(fl.allocate(1), None);
    }

    #[test]
    fn zero_sized_allocations_always_succeed() {
        let mut fl = FreeList::new(0);
        assert_eq!(fl.allocate(0), Some(0));
        assert_eq!(fl.allocate(1), None);
    }

    #[test]
    fn free_coalesces_with_neighbours() {
        let mut fl = FreeList::new(100);
        let a = fl.allocate(20).unwrap();
        let b = fl.allocate(20).unwrap();
        let c = fl.allocate(20).unwrap();
        assert_eq!((a, b, c), (0, 20, 40));
        fl.free(a, 20);
        fl.free(c, 20);
        // Free regions: [0,20), [40,100) → fragmented.
        assert_eq!(fl.fragments(), 2);
        assert!(fl.fragmentation() > 0.0);
        fl.free(b, 20);
        // Everything coalesces back into one region.
        assert_eq!(fl.fragments(), 1);
        assert_eq!(fl.total_free(), 100);
        assert_eq!(fl.largest_free(), 100);
    }

    #[test]
    fn fragmentation_prevents_large_allocation_despite_total_space() {
        let mut fl = FreeList::new(90);
        let a = fl.allocate(30).unwrap();
        let _b = fl.allocate(30).unwrap();
        let c = fl.allocate(30).unwrap();
        fl.free(a, 30);
        fl.free(c, 30);
        assert_eq!(fl.total_free(), 60);
        // 60 bytes are free but not contiguous.
        assert_eq!(fl.allocate(60), None);
        assert_eq!(fl.largest_free(), 30);
    }

    #[test]
    fn adjacency_to_free_detects_mergeable_entries() {
        let mut fl = FreeList::new(100);
        let a = fl.allocate(20).unwrap(); // [0,20)
        let b = fl.allocate(20).unwrap(); // [20,40)
        let _c = fl.allocate(20).unwrap(); // [40,60)
        fl.free(a, 20);
        // Entry b has free space before it (region [0,20)) and none after.
        assert_eq!(fl.adjacency_to_free(b, 20), (true, false));
        // Entry c has free space after it (tail region [60,100)) and none before.
        assert_eq!(fl.adjacency_to_free(40, 20), (false, true));
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn overlapping_free_is_detected() {
        let mut fl = FreeList::new(100);
        let a = fl.allocate(40).unwrap();
        fl.free(a, 40);
        fl.free(a + 10, 10);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn a_single_free_cell_inside_the_region_is_an_overlap() {
        let mut fl = FreeList::with_cell_size(4096, 4);
        let a = fl.allocate(1024).unwrap();
        let b = fl.allocate(4).unwrap();
        fl.free(b, 4);
        // Cells 0..256 are allocated, cell 256 is free: freeing 0..257 must
        // fail even though the word holding cell 256 is mostly allocated.
        fl.free(a, 1028);
    }

    #[test]
    #[should_panic(expected = "out of buffer bounds")]
    fn free_past_the_buffer_is_detected() {
        let mut fl = FreeList::new(64);
        fl.free(60, 8);
    }

    #[test]
    fn reset_restores_an_empty_buffer() {
        let mut fl = FreeList::new(50);
        fl.allocate(20).unwrap();
        fl.reset(200);
        assert_eq!(fl.capacity(), 200);
        assert_eq!(fl.total_free(), 200);
        assert_eq!(fl.fragments(), 1);
    }

    #[test]
    fn grow_extends_the_tail_and_coalesces() {
        let mut fl = FreeList::new(64);
        let a = fl.allocate(64).unwrap();
        fl.grow(128);
        assert_eq!(fl.capacity(), 128);
        assert_eq!(fl.total_free(), 64);
        assert_eq!(fl.allocate(64), Some(64));
        fl.free(a, 64);
        fl.grow(256);
        // Tail [128,256) coalesces with nothing; [0,64) is separate.
        assert_eq!(fl.total_free(), 192);
    }

    #[test]
    #[should_panic(expected = "cannot shrink")]
    fn grow_rejects_shrinking() {
        let mut fl = FreeList::new(64);
        fl.grow(32);
    }

    #[test]
    fn allocation_after_free_reuses_space() {
        let mut fl = FreeList::new(64);
        let a = fl.allocate(64).unwrap();
        assert_eq!(fl.allocate(1), None);
        fl.free(a, 64);
        assert_eq!(fl.allocate(64), Some(0));
    }

    #[test]
    fn partial_tail_cell_is_one_free_region_merging_with_the_last_cells() {
        // The perfbench offsets buffer: 1,013 16-byte pairs plus 7 bytes.
        let mut fl = FreeList::with_cell_size(16_215, 16);
        assert_eq!(fl.cell_bytes(), 16);
        assert_eq!((fl.largest_free(), fl.fragments()), (16_215, 1));
        let all = fl.allocate(1_013 * 16).unwrap();
        assert_eq!(all, 0);
        // Only the 7-byte tail is left, and no cell fits in it.
        assert_eq!(
            (fl.total_free(), fl.largest_free(), fl.fragments()),
            (7, 7, 1)
        );
        assert_eq!(fl.allocate(16), None);
        assert_eq!(fl.adjacency_to_free(0, 1_013 * 16), (false, true));
        // Freeing the last cell merges it with the tail.
        fl.free(1_012 * 16, 16);
        assert_eq!(
            (fl.total_free(), fl.largest_free(), fl.fragments()),
            (23, 23, 1)
        );
        assert_eq!(fl.allocate(16), Some(1_012 * 16));
    }

    #[test]
    fn first_fit_finds_runs_that_cross_words_and_subtrees() {
        let mut fl = FreeList::with_cell_size(4 * 1024, 4); // 1,024 cells, 16 words
        let mut addrs = Vec::new();
        while let Some(a) = fl.allocate(4) {
            addrs.push(a);
        }
        assert_eq!(addrs.len(), 1024);
        // Free cells 100..140 (crossing words 1 and 2) and 500..600 (crossing
        // the middle of the tree), plus a short run first.
        for cell in (10..12).chain(100..140).chain(500..600) {
            fl.free(cell * 4, 4);
        }
        assert_eq!(fl.fragments(), 3);
        assert_eq!(fl.largest_free(), 100 * 4);
        assert_eq!(fl.allocate(2 * 4), Some(10 * 4));
        assert_eq!(fl.allocate(30 * 4), Some(100 * 4));
        assert_eq!(fl.allocate(50 * 4), Some(500 * 4));
        assert_eq!(fl.allocate(60 * 4), None);
        assert_eq!(fl.allocate(50 * 4), Some(550 * 4));
        assert_eq!(fl.total_free(), 10 * 4);
    }

    #[test]
    #[should_panic(expected = "whole 4-byte cells")]
    fn allocations_must_be_whole_cells() {
        FreeList::with_cell_size(64, 4).allocate(6);
    }

    #[test]
    fn non_power_of_two_cells_fall_back_to_bytes() {
        let mut fl = FreeList::with_cell_size(100, 12);
        assert_eq!(fl.cell_bytes(), 1);
        assert_eq!(fl.allocate(12), Some(0));
        assert_eq!(fl.allocate(12), Some(12));
    }

    #[test]
    fn word_helpers_find_runs() {
        assert_eq!(longest_run(0), 0);
        assert_eq!(longest_run(u64::MAX), 64);
        assert_eq!(longest_run(0b1110_1111_0011), 4);
        assert_eq!(longest_run(u64::MAX << 1), 63);
        assert_eq!(first_run(0b1110_1111_0011, 3), Some(4));
        assert_eq!(first_run(0b1110_1111_0011, 2), Some(0));
        assert_eq!(first_run(0b1110_1111_0011, 5), None);
        assert_eq!(first_run(u64::MAX, 64), Some(0));
        assert_eq!(first_run(u64::MAX << 1, 64), None);
        assert_eq!(range_mask(0, 3, 5), 0b11000);
        assert_eq!(range_mask(1, 3, 200), u64::MAX);
        assert_eq!(range_mask(1, 70, 72), 0b1100_0000);
    }
}
