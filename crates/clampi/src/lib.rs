//! Reproduction of CLaMPI — a software caching layer for MPI RMA — extended with
//! application-defined scores, as used by the paper.
//!
//! CLaMPI (Di Girolamo, Vella, Hoefler, IPDPS'17) transparently caches data
//! retrieved through `MPI_Get`. The original is a C library layered over MPI
//! profiling hooks; it is reimplemented here from the description in Section II-F
//! and III-B of the paper on top of the [`rmatc_rma`] substrate:
//!
//! * **Variable-size entries.** Applications issue arbitrary-size gets, so the cache
//!   manages a byte buffer of fixed capacity with a free-region manager
//!   ([`freelist::FreeList`]) and an index ([`cache::Clampi`]) keyed by
//!   `(window, target rank, offset, length)`.
//! * **Hash-table index with conflicts.** The index has a fixed number of slots;
//!   two different regions hashing to the same slot is a *conflict* and triggers the
//!   eviction procedure, exactly like running out of buffer space does.
//! * **Eviction by weighted scores.** The default victim selection is LRU weighted
//!   by a positional score that prefers evicting entries whose removal merges free
//!   regions (reducing external fragmentation). The paper's extension adds an
//!   *application-defined score* — for LCC, the degree of the cached vertex — which
//!   protects entries that are likely to be reused ([`config::ScorePolicy`]).
//! * **Consistency modes.** `Transparent` flushes at every epoch closure,
//!   `AlwaysCache` never flushes (the graph is read-only during LCC computation),
//!   and `UserDefined` leaves flushing to the application.
//! * **Adaptive tuning.** An optional heuristic observes misses, conflicts and
//!   evictions and resizes the hash table (flushing the cache, as the paper warns)
//!   or the memory buffer.
//!
//! The integration point is [`CachedWindow`], which wraps an RMA [`rmatc_rma::Window`]
//! and intercepts gets exactly where CLaMPI's PMPI layer would: on a hit it charges
//! the local access cost, on a miss it issues the real RMA get, waits for it, and
//! inserts the result.
//!
//! Reads are zero-copy end to end: entries store the transfer buffer itself
//! (`Arc<[T]>` — an insert is a refcount bump, never a payload clone), reads
//! resolve to a borrowed [`RowRef`] view of wherever the row already lives,
//! and [`CachedWindow::get_fused`] lets callers compute over the data in
//! place — or, on a miss, *during* the transfer (the copy+intersect kernel of
//! `rmatc-core`). Cache hits and local-rank reads perform no heap
//! allocations; a miss performs exactly one.
//!
//! # Paper map
//!
//! | Module | Paper location | What it reproduces |
//! |---|---|---|
//! | [`cached_window`] | Fig. 3 steps 5–6; §II-F | Get interception: lookup before the network, insert after the miss |
//! | [`cache`] | §III-B | The cache proper: slot index, weighted victim selection, admission control |
//! | [`policy`] | §III-B (generalized) | Pluggable eviction policies: the paper's score rule plus LRU/LFU/GDSF |
//! | [`sharded`] | beyond the paper | Lock-sharded concurrent cache backing multi-threaded ranks |
//! | [`sharded_window`] | beyond the paper | Concurrent get interception shared by a rank's worker threads, with split probe/admit reads for the pipelined path |
//! | [`entry`] | §III-B1 | `(window, target, offset, len)` keys and the slot hash |
//! | [`freelist`] | §II-F / §III-B | Variable-size entry storage with first-fit allocation and coalescing |
//! | [`config`] | §II-F, §III-B1 | Consistency modes, score policies, and the hash-table sizing rules |
//! | [`row`] | this reproduction | The zero-copy read views ([`RowRef`]) |
//! | [`adaptive`] | §II-F (CLaMPI) | The adaptive resizing heuristic (observe, grow table / grow buffer) |
//! | [`stats`] | Figs. 7–8 | Hit/miss/compulsory counters the evaluation plots |

pub mod adaptive;
pub mod cache;
pub mod cached_window;
pub mod config;
pub mod entry;
pub mod freelist;
pub mod policy;
pub mod row;
pub mod sharded;
pub mod sharded_window;
pub mod stats;

pub use cache::{CacheInsertOutcome, Clampi};
pub use cached_window::CachedWindow;
pub use config::{ClampiConfig, ConsistencyMode, ScorePolicy};
pub use entry::EntryKey;
pub use policy::{AnyPolicy, EntryView, EvictionPolicy, EvictionPolicyKind, PolicyContext};
pub use row::RowRef;
pub use sharded::ShardedClampi;
pub use sharded_window::{CacheProbe, ShardedCachedWindow};
pub use stats::CacheStats;
