//! Cache statistics: the quantities plotted in Figures 7 and 8 of the paper
//! (miss rates, compulsory misses) plus the counters the adaptive heuristic observes.

/// Counters kept by one CLaMPI cache instance.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CacheStats {
    /// Lookups that found the requested region in the cache.
    pub hits: u64,
    /// Lookups that did not (for any reason).
    pub misses: u64,
    /// Misses on keys never requested before — unavoidable ("compulsory") misses,
    /// shown as the grey area in Figures 7 and 8.
    pub compulsory_misses: u64,
    /// Evictions performed because the memory buffer had no suitable free region.
    pub capacity_evictions: u64,
    /// Evictions performed because the hash-table slot was already occupied.
    pub conflict_evictions: u64,
    /// Misses whose data could not be inserted (e.g. entry larger than the buffer).
    pub uncacheable: u64,
    /// Bytes served from the cache.
    pub bytes_from_cache: u64,
    /// Bytes fetched over the network (misses).
    pub bytes_from_network: u64,
    /// Number of times the cache was flushed (epoch closures in transparent mode,
    /// adaptive resizes, or user flushes).
    pub flushes: u64,
    /// Number of adaptive resizes of the hash table.
    pub table_resizes: u64,
    /// Number of adaptive resizes of the memory buffer.
    pub capacity_resizes: u64,
    /// Entries removed because their data failed checksum verification.
    pub invalidations: u64,
    /// Bytes freed by policy-chosen evictions (capacity and conflict victims;
    /// flushes and invalidations are not victim selections and do not count).
    /// Together with `bytes_from_network` this attributes byte churn to the
    /// active eviction policy in the policy-shootout bench.
    pub evicted_bytes: u64,
    /// Inserts the eviction policy refused to admit (the paper-score
    /// admission rule, counted within `uncacheable`, which keeps its
    /// pre-policy-layer meaning of "miss whose data was not stored").
    pub admission_rejections: u64,
    /// Decoded (logical) bytes represented by the compressed rows transferred
    /// on adjacency misses — what a plain-storage run would have moved for the
    /// same reads. Zero unless the window stores compressed rows
    /// (`GraphStorage::Compressed` in `rmatc-core`).
    pub logical_bytes: u64,
    /// Stored (compressed) bytes actually transferred and cached for those
    /// same rows. Together with `logical_bytes` this measures the compression
    /// win end to end: entries occupy `stored_bytes` of cache capacity while
    /// standing in for `logical_bytes` of adjacency data.
    pub stored_bytes: u64,
}

impl CacheStats {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit rate in `[0, 1]`; `0` when no lookups happened.
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups() as f64
        }
    }

    /// Miss rate in `[0, 1]`.
    pub fn miss_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.misses as f64 / self.lookups() as f64
        }
    }

    /// Miss rate in parts per million, rounded — an integer form stable enough
    /// for deterministic benchmark metric rows and threshold gates.
    pub fn miss_rate_ppm(&self) -> u64 {
        (self.miss_rate() * 1e6).round() as u64
    }

    /// Fraction of lookups that are compulsory misses — the floor below which no
    /// cache configuration can push the miss rate.
    pub fn compulsory_miss_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.compulsory_misses as f64 / self.lookups() as f64
        }
    }

    /// The conservation identities every cache maintains at every point:
    /// `compulsory_misses ≤ misses` (a first request is a miss),
    /// `admission_rejections ≤ uncacheable` (a rejected insert is one kind of
    /// miss whose data was not stored) and `evicted_bytes ≤
    /// bytes_from_network` (only inserted bytes can be evicted, and every
    /// inserted byte came off the network). `lookups = hits + misses` holds by
    /// construction of [`CacheStats::lookups`].
    pub fn reconciles(&self) -> bool {
        self.compulsory_misses <= self.misses
            && self.admission_rejections <= self.uncacheable
            && self.evicted_bytes <= self.bytes_from_network
    }

    /// Total evictions.
    pub fn evictions(&self) -> u64 {
        self.capacity_evictions + self.conflict_evictions
    }

    /// Logical-to-stored ratio of the compressed rows that moved through the
    /// cache (`1.0` when nothing compressed was recorded — a plain-storage
    /// run neither wins nor loses).
    pub fn compression_ratio(&self) -> f64 {
        if self.stored_bytes == 0 {
            1.0
        } else {
            self.logical_bytes as f64 / self.stored_bytes as f64
        }
    }

    /// Records one compressed row moving through the cache: `logical` decoded
    /// bytes stored as `stored` compressed bytes.
    pub fn record_compression(&mut self, logical: u64, stored: u64) {
        self.logical_bytes += logical;
        self.stored_bytes += stored;
    }

    /// Merges another set of counters into this one.
    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.compulsory_misses += other.compulsory_misses;
        self.capacity_evictions += other.capacity_evictions;
        self.conflict_evictions += other.conflict_evictions;
        self.uncacheable += other.uncacheable;
        self.bytes_from_cache += other.bytes_from_cache;
        self.bytes_from_network += other.bytes_from_network;
        self.flushes += other.flushes;
        self.table_resizes += other.table_resizes;
        self.capacity_resizes += other.capacity_resizes;
        self.invalidations += other.invalidations;
        self.evicted_bytes += other.evicted_bytes;
        self.admission_rejections += other.admission_rejections;
        self.logical_bytes += other.logical_bytes;
        self.stored_bytes += other.stored_bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_handle_zero_lookups() {
        let s = CacheStats::default();
        assert_eq!(s.hit_rate(), 0.0);
        assert_eq!(s.miss_rate(), 0.0);
        assert_eq!(s.compulsory_miss_rate(), 0.0);
    }

    #[test]
    fn rates_sum_to_one() {
        let s = CacheStats {
            hits: 30,
            misses: 70,
            compulsory_misses: 20,
            ..Default::default()
        };
        assert!((s.hit_rate() + s.miss_rate() - 1.0).abs() < 1e-12);
        assert!((s.compulsory_miss_rate() - 0.2).abs() < 1e-12);
        assert_eq!(s.lookups(), 100);
    }

    #[test]
    fn reconciles_checks_each_identity() {
        let ok = CacheStats {
            misses: 5,
            compulsory_misses: 5,
            uncacheable: 2,
            admission_rejections: 2,
            bytes_from_network: 64,
            evicted_bytes: 64,
            ..Default::default()
        };
        assert!(ok.reconciles());
        assert!(CacheStats::default().reconciles());
        for broken in [
            CacheStats {
                compulsory_misses: 6,
                ..ok.clone()
            },
            CacheStats {
                admission_rejections: 3,
                ..ok.clone()
            },
            CacheStats {
                evicted_bytes: 65,
                ..ok.clone()
            },
        ] {
            assert!(!broken.reconciles(), "{broken:?}");
        }
    }

    #[test]
    fn evictions_sum_both_kinds() {
        let s = CacheStats {
            capacity_evictions: 3,
            conflict_evictions: 4,
            ..Default::default()
        };
        assert_eq!(s.evictions(), 7);
    }

    #[test]
    fn merge_adds_all_counters() {
        let mut a = CacheStats {
            hits: 1,
            misses: 2,
            bytes_from_cache: 10,
            ..Default::default()
        };
        let b = CacheStats {
            hits: 5,
            misses: 1,
            bytes_from_network: 3,
            flushes: 1,
            evicted_bytes: 7,
            admission_rejections: 2,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.hits, 6);
        assert_eq!(a.misses, 3);
        assert_eq!(a.bytes_from_cache, 10);
        assert_eq!(a.bytes_from_network, 3);
        assert_eq!(a.flushes, 1);
        assert_eq!(a.evicted_bytes, 7);
        assert_eq!(a.admission_rejections, 2);
    }

    #[test]
    fn compression_ratio_defaults_to_one_and_accumulates() {
        let mut s = CacheStats::default();
        assert_eq!(s.compression_ratio(), 1.0, "plain runs record nothing");
        s.record_compression(1024, 256);
        s.record_compression(1024, 256);
        assert_eq!(s.logical_bytes, 2048);
        assert_eq!(s.stored_bytes, 512);
        assert!((s.compression_ratio() - 4.0).abs() < 1e-12);
        let mut merged = CacheStats::default();
        merged.merge(&s);
        assert_eq!(merged.logical_bytes, 2048);
        assert_eq!(merged.stored_bytes, 512);
    }
}
