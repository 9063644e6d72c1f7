//! Layer replays. Each one drives a single layer through its public functions
//! with the exact access stream the distributed edge visitor generates, so a
//! layer's cost is measured from outside the program:
//!
//! * the cache layer: every rank's offsets and adjacency reads, in visit
//!   order, through `Clampi::lookup` / `Clampi::insert` with the resolved
//!   per-window `ClampiConfig` and the pipeline's window ids as keys;
//! * the transfer layer: the gets the pipeline issues (every remote read
//!   without a cache, the cache replay's misses with one) through
//!   `Endpoint::get_map` with no cache;
//! * the kernel layer: sequential `LocalLcc` over the same graph and storage.

use crate::measure::ns_since;
use crate::trace::Tracer;
use rmatc_clampi::{CacheStats, Clampi, EntryKey};
use rmatc_core::distributed::config::ResolvedCaches;
use rmatc_core::distributed::GraphWindows;
use rmatc_core::{DistConfig, LocalConfig, LocalLcc, ScoreMode};
use rmatc_graph::partition::PartitionedGraph;
use rmatc_graph::{CsrGraph, GraphStorage};
use rmatc_rma::{Endpoint, NetworkModel, Window, WindowId};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// The window ids the next `GraphWindows::build_with` will assign: offsets
/// first, then adjacencies. Window ids come from a process-global counter, and
/// the cache's slot hash mixes them in, so a replay only reproduces the
/// pipeline's cache behaviour when it keys entries with the pipeline's ids.
pub fn next_window_ids() -> (WindowId, WindowId) {
    let probe = Window::<u8>::from_parts(Vec::new()).id().0;
    (WindowId(probe + 1), WindowId(probe + 2))
}

/// One remote row read: `(target rank, local index of the row on it)`.
pub type RemoteRead = (usize, usize);

/// Every rank's remote reads in the order the edge visitor issues them: for
/// each owned vertex `u`, for each neighbour `v` owned elsewhere. `DistLcc`
/// and `DistJaccard` walk edges in the same order, so the stream is shared.
pub fn edge_stream(pg: &PartitionedGraph) -> Vec<Vec<RemoteRead>> {
    (0..pg.ranks())
        .map(|rank| {
            let part = &pg.partitions[rank];
            let mut reads = Vec::new();
            for local in 0..part.local_vertex_count() {
                for &v in part.neighbours_of_local(local) {
                    let owner = pg.partitioner.owner(v);
                    if owner != rank {
                        reads.push((owner, pg.partitioner.local_index(v)));
                    }
                }
            }
            reads
        })
        .collect()
}

/// One network get of the two-get protocol.
#[derive(Debug, Clone, Copy)]
pub enum Get {
    /// The `(start, end)` pair of a row.
    Offsets { target: usize, index: usize },
    /// The row itself (`len` elements of the adjacency window).
    Row {
        target: usize,
        start: usize,
        len: usize,
    },
}

fn row_bounds(windows: &GraphWindows, target: usize, index: usize) -> (usize, usize) {
    let offsets = windows.offsets.local_part(target);
    (offsets[index] as usize, offsets[index + 1] as usize)
}

/// The gets an uncached pipeline issues for `stream`: an offsets get per
/// read, plus a row get when the row is not empty.
pub fn uncached_gets(windows: &GraphWindows, stream: &[Vec<RemoteRead>]) -> Vec<Vec<Get>> {
    stream
        .iter()
        .map(|reads| {
            let mut gets = Vec::with_capacity(reads.len() * 2);
            for &(target, index) in reads {
                gets.push(Get::Offsets { target, index });
                let (start, end) = row_bounds(windows, target, index);
                if end > start {
                    gets.push(Get::Row {
                        target,
                        start,
                        len: end - start,
                    });
                }
            }
            gets
        })
        .collect()
}

/// What the cache replay measured, merged over ranks.
#[derive(Debug, Default)]
pub struct CacheReplay {
    pub offsets: CacheStats,
    pub adjacency: CacheStats,
    pub lookups: u64,
    pub lookup_ns: f64,
    pub inserts: u64,
    pub insert_ns: f64,
    /// Per rank, the gets left after the caches: the misses, in order.
    pub gets: Vec<Vec<Get>>,
}

/// Replays `stream` through one `Clampi` per cached window per rank, with
/// the configurations `config.cache` resolves to for these windows (exactly
/// as `RemoteReader::new` builds them). `ids` are the pipeline's window ids
/// (see [`next_window_ids`]). Each lookup and each insert is timed with one
/// clock read on either side, which the reported per-call times include.
pub fn replay_cache(
    pg: &PartitionedGraph,
    windows: &GraphWindows,
    config: &DistConfig,
    ids: (WindowId, WindowId),
    stream: &[Vec<RemoteRead>],
    tracer: &mut Tracer,
) -> CacheReplay {
    let spec = config
        .cache
        .expect("the cache replay needs a cache configuration");
    let resolved: ResolvedCaches =
        spec.resolve(pg.global_vertex_count(), windows.adjacency_bytes() as u64);
    let mut out = CacheReplay::default();
    for (rank, reads) in stream.iter().enumerate() {
        let span = tracer.begin("clampi.replay_rank", rank as u64);
        let mut offsets = resolved.offsets.map(Clampi::<u64>::new);
        let mut adjacency = resolved.adjacencies.map(Clampi::<u32>::new);
        let mut gets = Vec::new();
        for &(target, index) in reads {
            let (start, end) = row_bounds(windows, target, index);
            let key = EntryKey::new(ids.0, target, index, 2);
            let hit = probe(&mut out, offsets.as_mut(), key);
            if !hit {
                gets.push(Get::Offsets { target, index });
                let data: Arc<[u64]> = Arc::from(&windows.offsets.local_part(target)[index..][..2]);
                insert(&mut out, offsets.as_mut(), key, data, 0.0);
            }
            let len = end - start;
            if len == 0 {
                continue;
            }
            let key = EntryKey::new(ids.1, target, start, len);
            if !probe(&mut out, adjacency.as_mut(), key) {
                gets.push(Get::Row { target, start, len });
                let data: Arc<[u32]> =
                    Arc::from(&windows.adjacencies.local_part(target)[start..end]);
                let score = match config.score_mode {
                    ScoreMode::Lru => 0.0,
                    ScoreMode::DegreeCentrality => len as f64,
                };
                insert(&mut out, adjacency.as_mut(), key, data, score);
            }
        }
        if let Some(c) = &offsets {
            out.offsets.merge(c.stats());
        }
        if let Some(c) = &adjacency {
            out.adjacency.merge(c.stats());
        }
        out.gets.push(gets);
        tracer.end(span);
    }
    out
}

/// Looks `key` up in `cache` (a miss when the window is not cached).
fn probe<T: Clone>(out: &mut CacheReplay, cache: Option<&mut Clampi<T>>, key: EntryKey) -> bool {
    let Some(cache) = cache else {
        return false;
    };
    let start = Instant::now();
    let hit = black_box(cache.lookup(key)).is_some();
    out.lookup_ns += ns_since(start);
    out.lookups += 1;
    hit
}

fn insert<T: Clone>(
    out: &mut CacheReplay,
    cache: Option<&mut Clampi<T>>,
    key: EntryKey,
    data: Arc<[T]>,
    score: f64,
) {
    let Some(cache) = cache else {
        return;
    };
    let start = Instant::now();
    black_box(cache.insert(key, data, score));
    out.insert_ns += ns_since(start);
    out.inserts += 1;
}

/// What the transfer replay measured.
#[derive(Debug, Default)]
pub struct RmaReplay {
    pub gets: u64,
    pub bytes: u64,
    /// Longest rank's modeled communication time, no overlap credit.
    pub comm_ns_max: f64,
    /// Wall time of all transfers (issue, land, complete).
    pub wall_ns: f64,
}

/// Issues every get of `gets` through `Endpoint::get_map` on an uncached
/// endpoint per rank, landing each region in a fresh buffer as the pipeline's
/// transfer does, and completes it.
pub fn replay_rma(
    windows: &GraphWindows,
    network: NetworkModel,
    gets: &[Vec<Get>],
    tracer: &mut Tracer,
) -> RmaReplay {
    let mut out = RmaReplay::default();
    for (rank, rank_gets) in gets.iter().enumerate() {
        let span = tracer.begin("rma.replay_rank", rank as u64);
        let mut ep = Endpoint::new(rank, gets.len(), network);
        ep.lock_all();
        let start = Instant::now();
        for &get in rank_gets {
            match get {
                Get::Offsets { target, index } => {
                    transfer(&mut ep, &windows.offsets, target, index, 2);
                }
                Get::Row { target, start, len } => {
                    transfer(&mut ep, &windows.adjacencies, target, start, len);
                }
            }
        }
        out.wall_ns += ns_since(start);
        ep.unlock_all();
        let stats = ep.into_stats();
        out.gets += stats.gets;
        out.bytes += stats.bytes;
        out.comm_ns_max = out.comm_ns_max.max(stats.comm_time_ns);
        tracer.end(span);
    }
    out
}

fn transfer<T: Copy + Send + Sync>(
    ep: &mut Endpoint,
    window: &Window<T>,
    target: usize,
    offset: usize,
    len: usize,
) {
    let (pending, ()) = ep
        .get_map(window, target, offset, len, |src| (Arc::from(src), ()))
        .expect("fault-free gets cannot fail");
    black_box(pending.wait(ep).expect("fault-free gets cannot fail"));
}

/// Sequential `LocalLcc` over the whole graph in `storage`: the kernel layer
/// alone. Returns the library's own timing of the traversal, in ns per
/// directed edge.
pub fn intersect_ns_per_edge(g: &CsrGraph, storage: GraphStorage, tracer: &mut Tracer) -> f64 {
    let span = tracer.begin("intersect.local_lcc", 0);
    let config = LocalConfig::sequential().with_storage(storage);
    let result = LocalLcc::new(config).run(g);
    tracer.end(span);
    result.elapsed_ns as f64 / result.edges_processed.max(1) as f64
}
