//! Property-based tests of the CLaMPI reproduction: the free-region manager never
//! loses or double-books space and places every region exactly where the
//! reference first-fit free list does, and the cache behaves like a correct (if
//! bounded) memoisation of the window under arbitrary access patterns and
//! configurations.

mod support;

use proptest::prelude::*;
use rmatc_clampi::freelist::FreeList;
use rmatc_clampi::{CachedWindow, ClampiConfig, ConsistencyMode, ScorePolicy};
use rmatc_rma::{Endpoint, NetworkModel, Window};
use support::reference_freelist::FreeList as ReferenceFreeList;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn freelist_conserves_bytes(capacity in 1usize..4096,
                                sizes in prop::collection::vec(1usize..128, 1..64)) {
        let mut fl = FreeList::new(capacity);
        let mut allocated: Vec<(usize, usize)> = Vec::new();
        for size in sizes {
            if let Some(addr) = fl.allocate(size) {
                // No overlap with existing allocations.
                for &(a, s) in &allocated {
                    prop_assert!(addr + size <= a || a + s <= addr,
                        "allocation [{addr},{}) overlaps [{a},{})", addr + size, a + s);
                }
                allocated.push((addr, size));
            }
            let used: usize = allocated.iter().map(|&(_, s)| s).sum();
            prop_assert_eq!(fl.total_free() + used, capacity);
            prop_assert!(fl.largest_free() <= fl.total_free());
        }
        // Free everything (in insertion order) and verify full coalescing.
        for (addr, size) in allocated.drain(..) {
            fl.free(addr, size);
        }
        prop_assert_eq!(fl.total_free(), capacity);
        prop_assert!(fl.fragments() <= 1);
    }

    /// The bitmap allocator against the `BTreeMap` free list it replaced:
    /// element sizes of 1, 4, 8 and 16 bytes over capacities that need not be
    /// whole elements, random allocations and frees, then a final `grow`.
    /// Every address, every live region's free neighbours and every summary
    /// must agree.
    #[test]
    fn freelist_matches_the_reference_first_fit(
        elem_idx in 0usize..4,
        capacity in 0usize..3000,
        ops in prop::collection::vec((0u32..3, 1usize..40, any::<usize>()), 1..300),
        grow_by in 0usize..600,
    ) {
        let elem = [1usize, 4, 8, 16][elem_idx];
        let mut fl = FreeList::with_cell_size(capacity, elem);
        let mut reference = ReferenceFreeList::new(capacity);
        let mut live: Vec<(usize, usize)> = Vec::new();
        let check = |fl: &FreeList, reference: &ReferenceFreeList, live: &[(usize, usize)]|
            -> Result<(), TestCaseError> {
            prop_assert_eq!(fl.total_free(), reference.total_free());
            prop_assert_eq!(fl.largest_free(), reference.largest_free());
            prop_assert_eq!(fl.fragments(), reference.fragments());
            for &(addr, size) in live {
                prop_assert_eq!(
                    fl.adjacency_to_free(addr, size),
                    reference.adjacency_to_free(addr, size),
                    "neighbours of [{}, {})", addr, addr + size
                );
            }
            Ok(())
        };
        for (kind, elems, pick) in ops {
            if kind == 0 && !live.is_empty() {
                let (addr, size) = live.swap_remove(pick % live.len());
                fl.free(addr, size);
                reference.free(addr, size);
            } else {
                let size = elems * elem;
                let got = fl.allocate(size);
                prop_assert_eq!(got, reference.allocate(size), "allocate({})", size);
                if let Some(addr) = got {
                    live.push((addr, size));
                }
            }
            check(&fl, &reference, &live)?;
        }
        fl.grow(capacity + grow_by);
        reference.grow(capacity + grow_by);
        check(&fl, &reference, &live)?;
        // The grown tail must be reachable exactly as the reference reaches it.
        for elems in [1usize, 7, 32] {
            let got = fl.allocate(elems * elem);
            prop_assert_eq!(got, reference.allocate(elems * elem));
            if let Some(addr) = got {
                live.push((addr, elems * elem));
            }
        }
        check(&fl, &reference, &live)?;
    }

    #[test]
    fn cached_window_is_a_transparent_memoisation(
        accesses in prop::collection::vec((0usize..64, 1usize..16), 1..300),
        capacity in 32usize..4096,
        slots in 1usize..128,
        use_scores in any::<bool>(),
        mode_transparent in any::<bool>(),
    ) {
        // Exposed data: rank 1 exposes 128 known values.
        let window = Window::from_parts(vec![Vec::new(), (0..128u32).map(|x| x * 7).collect()]);
        let mut cfg = ClampiConfig::always_cache(capacity, slots);
        if use_scores {
            cfg = cfg.with_application_scores();
        }
        if mode_transparent {
            cfg.mode = ConsistencyMode::Transparent;
        }
        let mut cached = CachedWindow::new(window, cfg);
        let mut ep = Endpoint::new(0, 2, NetworkModel::aries());
        ep.lock_all();
        for (i, (offset, len)) in accesses.into_iter().enumerate() {
            let offset = offset.min(128 - len.min(128));
            let got = cached
                .get_scored(&mut ep, 1, offset, len, len as f64)
                .expect("no faults injected")
                .to_vec();
            let expected: Vec<u32> = (offset..offset + len).map(|x| x as u32 * 7).collect();
            prop_assert_eq!(got, expected, "access {}", i);
            if i % 17 == 0 {
                cached.end_epoch();
            }
        }
        ep.unlock_all();
        let stats = cached.stats();
        prop_assert_eq!(stats.lookups(), stats.hits + stats.misses);
        prop_assert!(stats.reconciles(), "{:?}", stats);
        if mode_transparent {
            // Transparent mode can only hit within an epoch, never across flushes.
            prop_assert!(stats.flushes > 0 || stats.lookups() < 17);
        }
        let _ = ScorePolicy::LruPositional;
    }

    #[test]
    fn table_size_one_still_works(accesses in prop::collection::vec(0usize..32, 1..100)) {
        // The degenerate single-slot table turns every distinct key into a conflict;
        // data correctness must be unaffected.
        let window = Window::from_parts(vec![Vec::new(), (0..64u32).collect()]);
        let mut cached = CachedWindow::new(window, ClampiConfig::always_cache(1024, 1));
        let mut ep = Endpoint::new(0, 2, NetworkModel::zero());
        ep.lock_all();
        for offset in accesses {
            let got = cached.get(&mut ep, 1, offset, 1).expect("no faults injected");
            prop_assert_eq!(got[0], offset as u32);
        }
        ep.unlock_all();
        prop_assert!(cached.cache().len() <= 1);
        prop_assert!(cached.stats().reconciles(), "{:?}", cached.stats());
    }
}
