//! Layer probes below the façade: crawl counters from the `_with_stats`
//! queries, the seed/read/compute phase split over a second copy of the
//! index, and the cost of one page read through each storage stack.

use flat_core::{FlatDb, FlatIndex, FlatOptions, KnnStats, QueryStats};
use flat_geom::Aabb;
use flat_rtree::{Entry, LeafLayout};
use flat_storage::{
    ConcurrentBufferPool, DiskScheduler, DurableStore, FileStore, MemStore, Page, PageId, PageKind,
    PageRead, PageStore, StorageError, VersionedPool,
};
use perfbench::report::ratio;
use perfbench::setup::Inputs;
use perfbench::workloads::{Inspect, ScratchDir};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Per-layer values gathered by the probes, by metric name.
#[derive(Default)]
pub struct Probes {
    /// Also split SN queries into phases over a second index copy.
    pub phase_split: bool,
    /// Metric values by name.
    pub values: BTreeMap<String, f64>,
}

impl Inspect for Probes {
    fn flat_db<S: PageStore + Send + Sync>(&mut self, db: &FlatDb<S>, inputs: &Inputs) {
        let snapshot = db.reader();
        let mut q = QueryStats::default();
        for query in &inputs.sn {
            black_box(snapshot.range_with_stats(query, &mut q).ok());
        }
        let n = inputs.sn.len() as f64;
        let v = &mut self.values;
        v.insert(
            "query.records_per_query".into(),
            ratio(q.records_processed as f64, n),
        );
        v.insert(
            "query.object_pages_per_query".into(),
            ratio(q.object_pages_read as f64, n),
        );
        v.insert(
            "query.seed_probe_pages_per_query".into(),
            ratio(q.seed_probe_pages as f64, n),
        );
        v.insert(
            "query.results_per_query".into(),
            ratio(q.result_count as f64, n),
        );
        v.insert(
            "query.hit_ratio".into(),
            ratio(q.result_count as f64, q.mbr_tests as f64),
        );
        if self.phase_split {
            phase_split(&inputs.entries, &inputs.sn, v);
        }
        if inputs.knn.is_empty() {
            return;
        }
        let mut k = KnnStats::default();
        for &(point, kk) in &inputs.knn {
            black_box(snapshot.knn_with_stats(point, kk, &mut k).ok());
        }
        let n = inputs.knn.len() as f64;
        v.insert(
            "knn.records_expanded_per_query".into(),
            ratio(k.records_expanded as f64, n),
        );
        v.insert(
            "knn.pruned_ratio".into(),
            ratio(
                k.records_pruned as f64,
                (k.records_expanded + k.records_pruned) as f64,
            ),
        );
        v.insert(
            "knn.object_pages_per_query".into(),
            ratio(k.object_pages_read as f64, n),
        );
    }
}

/// A [`PageRead`] adapter that adds the time of every read to its kind.
struct TimedRead<P> {
    inner: P,
    ns: [Cell<u64>; 3],
}

impl<P> TimedRead<P> {
    fn slot(kind: PageKind) -> Option<usize> {
        match kind {
            PageKind::SeedInner => Some(0),
            PageKind::SeedLeaf => Some(1),
            PageKind::ObjectPage => Some(2),
            _ => None,
        }
    }

    fn total_ns(&self) -> u64 {
        self.ns.iter().map(Cell::get).sum()
    }
}

impl<P: PageRead> PageRead for TimedRead<P> {
    fn read_page(&self, id: PageId, kind: PageKind) -> Result<Page, StorageError> {
        let t = Instant::now();
        let page = self.inner.read_page(id, kind);
        if let Some(i) = Self::slot(kind) {
            let cell = &self.ns[i];
            cell.set(cell.get() + t.elapsed().as_nanos() as u64);
        }
        page
    }
}

/// Splits SN queries into seed descent, page reads by kind, and the
/// rest (decode and predicate scan), over a warm copy of the index the
/// benchmark builds itself. Means per query, in µs.
fn phase_split(entries: &[Entry], queries: &[Aabb], values: &mut BTreeMap<String, f64>) {
    let mut pool = ConcurrentBufferPool::new(MemStore::new(), 1 << 14);
    let options = FlatOptions {
        layout: LeafLayout::WithIds,
        ..FlatOptions::default()
    };
    let (index, _) = FlatIndex::build(&mut pool, entries.to_vec(), options).expect("build");
    let timed = TimedRead {
        inner: &pool,
        ns: Default::default(),
    };
    let run = |index: &FlatIndex| {
        for q in queries {
            black_box(index.range_query(&timed, q).ok());
        }
    };
    run(&index); // warm the cache
    for cell in &timed.ns {
        cell.set(0);
    }
    let t = Instant::now();
    for q in queries {
        black_box(index.seed_only(&pool, q).ok());
    }
    let seed_ns = t.elapsed().as_nanos() as f64;
    let t = Instant::now();
    run(&index);
    let query_ns = t.elapsed().as_nanos() as f64;
    let n = queries.len() as f64;
    values.insert("phase.seed_us".into(), seed_ns / n / 1e3);
    for (i, kind) in [
        PageKind::SeedInner,
        PageKind::SeedLeaf,
        PageKind::ObjectPage,
    ]
    .iter()
    .enumerate()
    {
        values.insert(
            format!("phase.read_us.{}", kind.label()),
            timed.ns[i].get() as f64 / n / 1e3,
        );
    }
    values.insert(
        "phase.compute_us".into(),
        (query_ns - timed.total_ns() as f64) / n / 1e3,
    );
}

/// Pages in each probed store; warm caches hold them all.
const PROBE_PAGES: u64 = 2048;
/// Cache capacity of the miss probes: nearly every read misses.
const MISS_CAPACITY: usize = 16;
const WARM_READS: usize = 200_000;
const MISS_READS: usize = 20_000;

/// Store page ids in a fixed pseudo-random order.
fn probe_ids(n: usize) -> Vec<PageId> {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            PageId(x % PROBE_PAGES)
        })
        .collect()
}

fn fill<S: PageStore>(mut store: S) -> S {
    let mut page = Page::new();
    for i in 0..PROBE_PAGES {
        let id = store.alloc().expect("probe alloc");
        page.put_u64(0, i);
        store.write_page(id, &page).expect("probe write");
    }
    store
}

/// Mean ns of one `read` over `n` ids, after one untimed pass.
fn time_reads(n: usize, mut read: impl FnMut(PageId)) -> f64 {
    let ids = probe_ids(n);
    for &id in &ids {
        read(id);
    }
    let t = Instant::now();
    for &id in &ids {
        read(id);
    }
    t.elapsed().as_nanos() as f64 / n as f64
}

fn time_page_read(n: usize, pool: &impl PageRead) -> f64 {
    time_reads(n, |id| {
        black_box(
            pool.read_page(id, PageKind::ObjectPage)
                .expect("probe read"),
        );
    })
}

/// One page read through each storage stack, warm (`store.read_ns.*`)
/// and, for the cached stacks, missing (`store.miss_ns.*`).
pub fn storage_stacks(values: &mut BTreeMap<String, f64>) {
    let mut out = Page::new();
    let mem = fill(MemStore::new());
    let ns = time_reads(WARM_READS, |id| {
        mem.read_page(id, &mut out).expect("probe read");
        black_box(&out);
    });
    values.insert("store.read_ns.mem".into(), ns);

    let dir = ScratchDir::new("probe");
    let file = fill(FileStore::create(dir.join("probe.db")).expect("probe file"));
    let ns = time_reads(WARM_READS, |id| {
        file.read_page(id, &mut out).expect("probe read");
        black_box(&out);
    });
    values.insert("store.read_ns.file".into(), ns);

    let mut durable = fill(DurableStore::create(MemStore::new()).expect("durable store"));
    durable.checkpoint(&[]).expect("probe checkpoint");
    let ns = time_reads(WARM_READS, |id| {
        durable.read_page(id, &mut out).expect("probe read");
        black_box(&out);
    });
    values.insert("store.read_ns.durable".into(), ns);

    for (cap, reads, prefix) in [
        (PROBE_PAGES as usize * 2, WARM_READS, "store.read_ns"),
        (MISS_CAPACITY, MISS_READS, "store.miss_ns"),
    ] {
        let pool = ConcurrentBufferPool::new(fill(MemStore::new()), cap);
        values.insert(format!("{prefix}.concurrent"), time_page_read(reads, &pool));
        let versioned = VersionedPool::new(fill(MemStore::new()), cap);
        let pin = versioned.pin();
        values.insert(format!("{prefix}.versioned"), time_page_read(reads, &pin));
        let scheduler = DiskScheduler::new(fill(MemStore::new()), cap);
        values.insert(
            format!("{prefix}.scheduler"),
            time_page_read(reads, &scheduler),
        );
    }
}
