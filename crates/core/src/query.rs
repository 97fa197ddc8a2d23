//! FLAT query evaluation: the seed phase and the breadth-first crawl
//! (§V-B.1 and §VI, Algorithm 2).

use crate::index::FlatIndex;
use crate::meta::{for_each_neighbor, meta_leaf_len, MetaRecordId, MetaRecordRef, RecordSet};
use flat_geom::Aabb;
use flat_rtree::node::{decode_inner, LeafRef};
use flat_rtree::{Hit, LeafLayout};
use flat_storage::{PageId, PageKind, PageRead, StorageError};
use std::collections::{HashSet, VecDeque};

/// Deleted-element set of a [`crate::DeltaIndex`], keyed by physical
/// location `(object page, slot)` — the one identity that stays valid
/// under both leaf layouts and across delete-then-reinsert of the same
/// application id. A pristine index's crawl scope has none.
pub(crate) type Tombstones = HashSet<(PageId, u16)>;

/// What a crawl over one index needs besides its pages: the deleted
/// elements to hide (`None` on a pristine [`FlatIndex`]) and the longest
/// continuation chain the index can hold (see
/// [`crate::meta::chain_limit`]), which bounds the neighbor walk.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CrawlScope<'a> {
    pub(crate) tombstones: Option<&'a Tombstones>,
    pub(crate) chain_limit: usize,
}

impl CrawlScope<'_> {
    /// `true` when the element at `slot` of `page` is still live.
    #[inline]
    pub(crate) fn is_live(&self, page: PageId, slot: usize) -> bool {
        self.tombstones
            .is_none_or(|t| !t.contains(&(page, slot as u16)))
    }
}

/// The application id of the element at `slot` of an object page: stored
/// ids under [`LeafLayout::WithIds`], `(page << 16) | slot` otherwise.
#[inline]
pub(crate) fn element_id(layout: LeafLayout, page: PageId, entry_id: u64) -> u64 {
    match layout {
        LeafLayout::MbrOnly => (page.0 << 16) | entry_id,
        LeafLayout::WithIds => entry_id,
    }
}

/// Crawl-progress hooks the batched [`crate::QueryEngine`] uses to turn
/// traversal events into readahead hints. The serial query path passes
/// `None` and pays nothing; implementations must be pure hints — they can
/// neither fail a query nor change its results.
pub(crate) trait CrawlHinter {
    /// `page` (of `kind`) was just scheduled for a future read.
    fn upcoming_page(&self, page: PageId, kind: PageKind);

    /// Record `addr` was just enqueued; `wants_object` says whether the
    /// record's object page will be scanned if the record looks like
    /// this when read (the hinter may not know yet — it only acts when it
    /// can read `addr` from an already-cached page).
    fn enqueued_record(
        &self,
        addr: MetaRecordId,
        wants_object: &dyn Fn(&MetaRecordRef<'_>) -> bool,
    );
}

/// Per-query counters (the CPU/bookkeeping side of §VII-E.2; the I/O side
/// is in the pool's [`flat_storage::IoStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Elements returned.
    pub result_count: u64,
    /// Metadata records dequeued and processed by the crawl.
    pub records_processed: u64,
    /// Object pages read (logically) across both phases.
    pub object_pages_read: u64,
    /// Object pages probed by the seed phase before one with a matching
    /// element was found.
    pub seed_probe_pages: u64,
    /// High-water mark of the BFS queue — the paper reports the crawl's
    /// bookkeeping at "0.9 % of the size of the result set".
    pub max_queue_len: usize,
    /// Total records ever enqueued (size of the visited/seen set).
    pub records_seen: u64,
    /// MBR–query intersection tests performed.
    pub mbr_tests: u64,
}

impl QueryStats {
    /// Approximate bytes of crawl bookkeeping (queue + visited set), the
    /// quantity §VII-E.2 relates to the result-set size.
    pub fn bookkeeping_bytes(&self) -> u64 {
        let record_ref = std::mem::size_of::<MetaRecordId>() as u64;
        self.records_seen * record_ref + self.max_queue_len as u64 * record_ref
    }
}

impl FlatIndex {
    /// Evaluates a range query: seed phase then breadth-first crawl.
    ///
    /// Queries are shared reads (`&self` on both the index and the pool):
    /// any [`PageRead`] implementation works, including a
    /// [`flat_storage::ConcurrentBufferPool`] serving many query threads
    /// over one index.
    pub fn range_query(
        &self,
        pool: &impl PageRead,
        query: &Aabb,
    ) -> Result<Vec<Hit>, StorageError> {
        let mut stats = QueryStats::default();
        self.range_query_with_stats(pool, query, &mut stats)
    }

    /// Like [`FlatIndex::range_query`], accumulating counters into `stats`.
    pub fn range_query_with_stats(
        &self,
        pool: &impl PageRead,
        query: &Aabb,
        stats: &mut QueryStats,
    ) -> Result<Vec<Hit>, StorageError> {
        let mut hits = Vec::new();
        let scope = self.scope();
        let Some(seed) = self.seed(pool, query, stats, None, &scope)? else {
            return Ok(hits); // "If no object page can be found, then the
                             // query has no result" (§V-B.1).
        };
        let mut state = CrawlState::start(seed);
        while !self.crawl_step(pool, query, &mut state, stats, &mut hits, None, &scope)? {}
        stats.result_count = hits.len() as u64;
        Ok(hits)
    }

    /// The seed phase (§V-B.1): walk a single path of the seed tree
    /// (early-exit DFS), reading candidate object pages until one actually
    /// contains a (live) element intersecting the query.
    ///
    /// `scope` carries the delta layer's deleted-element set: probes skip
    /// tombstoned elements, and records whose partitions were retired
    /// (dead flag) are never entry points — their object pages are freed.
    pub(crate) fn seed(
        &self,
        pool: &impl PageRead,
        query: &Aabb,
        stats: &mut QueryStats,
        hinter: Option<&dyn CrawlHinter>,
        scope: &CrawlScope<'_>,
    ) -> Result<Option<MetaRecordId>, StorageError> {
        let Some(root) = self.seed_root else {
            return Ok(None);
        };
        let mut stack = vec![(root, self.seed_height)];
        while let Some((page_id, level)) = stack.pop() {
            if level == 1 {
                // A metadata leaf: probe its records.
                let leaf = pool.read_page(page_id, PageKind::SeedLeaf)?;
                let count = meta_leaf_len(&leaf)?;
                for slot in 0..count as u16 {
                    let record = MetaRecordRef::read(&leaf, slot)?;
                    // Continuation chunks are not crawl entry points: a
                    // crawl seeded mid-chain would only reach the tail of
                    // the over-full neighbor list. Dead records have no
                    // object page at all.
                    if record.is_continuation || record.is_dead {
                        continue;
                    }
                    stats.mbr_tests += 1;
                    if !record.page_mbr.intersects(query) {
                        continue;
                    }
                    // Candidate: check the object page for a real element.
                    stats.object_pages_read += 1;
                    let found = {
                        let page = pool.read_page(record.object_page, PageKind::ObjectPage)?;
                        let objects = LeafRef::new(&page)?;
                        stats.mbr_tests += objects.len() as u64;
                        objects.entries().enumerate().any(|(s, e)| {
                            scope.is_live(record.object_page, s) && query.intersects(&e.mbr)
                        })
                    };
                    if found {
                        return Ok(Some(MetaRecordId {
                            page: page_id,
                            slot,
                        }));
                    }
                    stats.seed_probe_pages += 1;
                }
            } else {
                let page = pool.read_page(page_id, PageKind::SeedInner)?;
                for child in decode_inner(&page)? {
                    stats.mbr_tests += 1;
                    if query.intersects(&child.mbr) {
                        stack.push((child.page, level - 1));
                        if let Some(h) = hinter {
                            let kind = if level - 1 == 1 {
                                PageKind::SeedLeaf
                            } else {
                                PageKind::SeedInner
                            };
                            h.upcoming_page(child.page, kind);
                        }
                    }
                }
            }
        }
        Ok(None)
    }

    /// Runs one crawl turn: dequeues and fully processes a single metadata
    /// record (object-page scan plus neighbor expansion). Returns `true`
    /// when the crawl is finished.
    ///
    /// The serial [`FlatIndex::range_query`] simply loops this to
    /// completion; the batched [`crate::QueryEngine`] interleaves turns of
    /// many queries so their I/O overlaps. Because each query's own turn
    /// order is untouched, the two produce identical results — same hits,
    /// same order.
    ///
    /// One deliberate fix to the paper's pseudocode: Algorithm 2 only
    /// inserts a page into `visited` when its page MBR intersects the
    /// query, which would let two mutually neighboring records with
    /// non-intersecting page MBRs (but intersecting partition MBRs)
    /// re-enqueue each other forever. We track *enqueued* records instead
    /// ("seen"), which preserves the intended I/O behaviour — every record
    /// is processed at most once, every object page read at most once —
    /// and guarantees termination.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn crawl_step(
        &self,
        pool: &impl PageRead,
        query: &Aabb,
        state: &mut CrawlState,
        stats: &mut QueryStats,
        hits: &mut Vec<Hit>,
        hinter: Option<&dyn CrawlHinter>,
        scope: &CrawlScope<'_>,
    ) -> Result<bool, StorageError> {
        let Some(addr) = state.queue.pop_front() else {
            return Ok(true);
        };
        stats.max_queue_len = stats.max_queue_len.max(state.queue.len() + 1);
        stats.records_processed += 1;
        let meta_page = pool.read_page(addr.page, PageKind::SeedLeaf)?;
        let record = MetaRecordRef::read(&meta_page, addr.slot)?;
        // Retirement prunes every link to a dead record, so the crawl can
        // only land on one through a stale seed — never expand it (its
        // object page is freed).
        debug_assert!(!record.is_dead, "crawl reached a dead record");
        if record.is_dead {
            return Ok(state.queue.is_empty());
        }

        // "the object page is only read from disk if M's page MBR
        // intersects with the query" (§VI).
        stats.mbr_tests += 1;
        if record.page_mbr.intersects(query) {
            stats.object_pages_read += 1;
            let page = pool.read_page(record.object_page, PageKind::ObjectPage)?;
            let leaf = LeafRef::new(&page)?;
            for (slot, entry) in leaf.entries().enumerate() {
                stats.mbr_tests += 1;
                if scope.is_live(record.object_page, slot) && query.intersects(&entry.mbr) {
                    hits.push(Hit {
                        mbr: entry.mbr,
                        id: element_id(leaf.layout(), record.object_page, entry.id),
                        page: record.object_page,
                        slot: slot as u16,
                    });
                }
            }
        }

        // "the neighbor pointers stored in a metadata record M are only
        // followed if M's partition MBR intersects with the query"
        // (§VI).
        stats.mbr_tests += 1;
        if record.partition_mbr.intersects(query) {
            let wants_object = |r: &MetaRecordRef<'_>| r.page_mbr.intersects(query);
            for_each_neighbor(pool, &record, scope.chain_limit, |neighbor| {
                if state.seen.insert(neighbor) {
                    state.queue.push_back(neighbor);
                    if let Some(h) = hinter {
                        h.enqueued_record(neighbor, &wants_object);
                    }
                }
                Ok(())
            })?;
        }
        // Monotone running value; once the queue drains this equals the
        // size of the visited set, matching the serial accounting.
        stats.records_seen = state.seen.len() as u64;
        Ok(state.queue.is_empty())
    }

    /// Runs only the seed phase, returning the address of the seed record
    /// (for instrumentation and the seed-cost experiments).
    pub fn seed_only(
        &self,
        pool: &impl PageRead,
        query: &Aabb,
    ) -> Result<Option<(PageId, u16)>, StorageError> {
        let mut stats = QueryStats::default();
        Ok(self
            .seed(pool, query, &mut stats, None, &self.scope())?
            .map(|r| (r.page, r.slot)))
    }

    /// The crawl scope of a pristine index: nothing deleted, chains
    /// bounded by its metadata-page count.
    pub(crate) fn scope(&self) -> CrawlScope<'static> {
        CrawlScope {
            tombstones: None,
            chain_limit: crate::meta::chain_limit(self.num_meta_pages),
        }
    }
}

/// The resumable state of one query's crawl phase: the BFS queue and the
/// visited ("seen") set. Produced by [`CrawlState::start`] from a seed
/// record and advanced one record at a time by `FlatIndex::crawl_step`.
#[derive(Debug)]
pub(crate) struct CrawlState {
    pub(crate) queue: VecDeque<MetaRecordId>,
    pub(crate) seen: RecordSet,
}

impl CrawlState {
    /// A crawl about to process `seed` as its first record.
    pub(crate) fn start(seed: MetaRecordId) -> CrawlState {
        let mut state = CrawlState {
            queue: VecDeque::new(),
            seen: RecordSet::default(),
        };
        state.seen.insert(seed);
        state.queue.push_back(seed);
        state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{FlatIndex, FlatOptions};
    use flat_geom::Point3;
    use flat_rtree::Entry;
    use flat_storage::{BufferPool, MemStore};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_entries(n: usize, seed: u64) -> Vec<Entry> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let c = Point3::new(
                    rng.gen_range(0.0..100.0),
                    rng.gen_range(0.0..100.0),
                    rng.gen_range(0.0..100.0),
                );
                Entry::new(i as u64, Aabb::cube(c, rng.gen_range(0.05..0.5)))
            })
            .collect()
    }

    fn brute_force(entries: &[Entry], q: &Aabb) -> Vec<Aabb> {
        let mut v: Vec<Aabb> = entries
            .iter()
            .filter(|e| q.intersects(&e.mbr))
            .map(|e| e.mbr)
            .collect();
        v.sort_by(|a, b| {
            a.min
                .x
                .total_cmp(&b.min.x)
                .then(a.min.y.total_cmp(&b.min.y))
                .then(
                    a.min
                        .z
                        .total_cmp(&b.min.z)
                        .then(a.max.x.total_cmp(&b.max.x)),
                )
        });
        v
    }

    fn build(
        n: usize,
        seed: u64,
        options: FlatOptions,
    ) -> (BufferPool<MemStore>, FlatIndex, Vec<Entry>) {
        let entries = random_entries(n, seed);
        let mut pool = BufferPool::new(MemStore::new(), 1 << 16);
        let (index, _) = FlatIndex::build(&mut pool, entries.clone(), options).unwrap();
        (pool, index, entries)
    }

    #[test]
    fn flat_results_match_brute_force() {
        let (pool, index, entries) = build(20_000, 101, FlatOptions::default());
        for (c, side) in [(10.0, 4.0), (50.0, 15.0), (90.0, 2.0), (30.0, 40.0)] {
            let q = Aabb::cube(Point3::splat(c), side);
            let mut got: Vec<Aabb> = index
                .range_query(&pool, &q)
                .unwrap()
                .iter()
                .map(|h| h.mbr)
                .collect();
            got.sort_by(|a, b| {
                a.min
                    .x
                    .total_cmp(&b.min.x)
                    .then(a.min.y.total_cmp(&b.min.y))
                    .then(
                        a.min
                            .z
                            .total_cmp(&b.min.z)
                            .then(a.max.x.total_cmp(&b.max.x)),
                    )
            });
            assert_eq!(got, brute_force(&entries, &q), "query at {c} side {side}");
        }
    }

    #[test]
    fn empty_region_returns_nothing() {
        // Data only fills [0,100]³; query far outside the domain (the
        // tiling doesn't even cover it).
        let (pool, index, _) = build(5000, 103, FlatOptions::default());
        let q = Aabb::cube(Point3::splat(1000.0), 5.0);
        assert!(index.range_query(&pool, &q).unwrap().is_empty());
    }

    #[test]
    fn hole_inside_domain_returns_nothing_without_crashing() {
        // Two clusters with an empty corridor between them; a query inside
        // the corridor intersects tiles but no elements.
        let mut entries = Vec::new();
        let mut rng = StdRng::seed_from_u64(104);
        for i in 0..4000u64 {
            let x = if i % 2 == 0 {
                rng.gen_range(0.0..30.0)
            } else {
                rng.gen_range(70.0..100.0)
            };
            let c = Point3::new(x, rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0));
            entries.push(Entry::new(i, Aabb::cube(c, 0.3)));
        }
        let mut pool = BufferPool::new(MemStore::new(), 1 << 16);
        let (index, _) =
            FlatIndex::build(&mut pool, entries.clone(), FlatOptions::default()).unwrap();
        let q = Aabb::cube(Point3::new(50.0, 50.0, 50.0), 6.0);
        let expected = brute_force(&entries, &q);
        let got = index.range_query(&pool, &q).unwrap();
        assert_eq!(got.len(), expected.len());
    }

    #[test]
    fn crawl_crosses_concave_regions() {
        // The problem crawling approaches like DLS cannot handle (§II):
        // the query spans two disconnected clusters. FLAT's tiling must
        // bridge the gap because partitions tile the *space*, not the data.
        let mut entries = Vec::new();
        let mut rng = StdRng::seed_from_u64(105);
        for i in 0..3000u64 {
            let x = if i % 2 == 0 {
                rng.gen_range(0.0..20.0)
            } else {
                rng.gen_range(80.0..100.0)
            };
            let c = Point3::new(x, rng.gen_range(40.0..60.0), rng.gen_range(40.0..60.0));
            entries.push(Entry::new(i, Aabb::cube(c, 0.3)));
        }
        let mut pool = BufferPool::new(MemStore::new(), 1 << 16);
        let (index, _) =
            FlatIndex::build(&mut pool, entries.clone(), FlatOptions::default()).unwrap();
        // Query spanning both clusters and the void between them.
        let q = Aabb::from_corners(Point3::new(10.0, 45.0, 45.0), Point3::new(90.0, 55.0, 55.0));
        let expected = brute_force(&entries, &q);
        let got = index.range_query(&pool, &q).unwrap();
        assert_eq!(
            got.len(),
            expected.len(),
            "crawl failed to cross the concave gap"
        );
        assert!(!got.is_empty());
    }

    #[test]
    fn whole_domain_query_returns_everything_once() {
        let (pool, index, entries) = build(10_000, 106, FlatOptions::default());
        let q = Aabb::cube(Point3::splat(50.0), 250.0);
        let hits = index.range_query(&pool, &q).unwrap();
        assert_eq!(hits.len(), entries.len());
        let mut ids: Vec<u64> = hits.iter().map(|h| h.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), entries.len(), "duplicate results");
    }

    #[test]
    fn stats_reflect_the_workload() {
        let (pool, index, _) = build(20_000, 107, FlatOptions::default());
        let mut stats = QueryStats::default();
        let q = Aabb::cube(Point3::splat(50.0), 20.0);
        let hits = index.range_query_with_stats(&pool, &q, &mut stats).unwrap();
        assert_eq!(stats.result_count, hits.len() as u64);
        assert!(stats.records_processed > 0);
        assert!(stats.object_pages_read > 0);
        assert!(stats.max_queue_len > 0);
        assert!(stats.mbr_tests > stats.records_processed);
        assert!(stats.bookkeeping_bytes() > 0);
    }

    #[test]
    fn object_pages_are_read_at_most_once_per_query() {
        let (pool, index, _) = build(20_000, 108, FlatOptions::default());
        pool.clear_cache();
        pool.reset_stats();
        let q = Aabb::cube(Point3::splat(50.0), 25.0);
        let _ = index.range_query(&pool, &q).unwrap();
        let stats = pool.stats();
        // Physical object reads can't exceed the number of object pages —
        // and with the seen-set, logical reads equal physical reads plus
        // seed-phase cache hits only.
        assert!(
            stats.kind(PageKind::ObjectPage).physical_reads <= index.num_object_pages(),
            "an object page was read twice from disk"
        );
    }

    #[test]
    fn with_ids_layout_returns_application_ids() {
        let (pool, index, entries) = build(
            5000,
            109,
            FlatOptions {
                layout: LeafLayout::WithIds,
                ..Default::default()
            },
        );
        let q = Aabb::cube(Point3::splat(50.0), 250.0);
        let mut ids: Vec<u64> = index
            .range_query(&pool, &q)
            .unwrap()
            .iter()
            .map(|h| h.id)
            .collect();
        ids.sort_unstable();
        let mut expected: Vec<u64> = entries.iter().map(|e| e.id).collect();
        expected.sort_unstable();
        assert_eq!(ids, expected);
    }

    #[test]
    fn seed_only_finds_a_record_for_nonempty_queries() {
        let (pool, index, _) = build(10_000, 110, FlatOptions::default());
        let q = Aabb::cube(Point3::splat(40.0), 10.0);
        assert!(index.seed_only(&pool, &q).unwrap().is_some());
        let empty = Aabb::cube(Point3::splat(-500.0), 1.0);
        assert!(index.seed_only(&pool, &empty).unwrap().is_none());
    }

    #[test]
    fn point_query_works() {
        let (pool, index, entries) = build(10_000, 111, FlatOptions::default());
        // Use an element center so the query is guaranteed non-empty.
        let target = entries[1234].mbr.center();
        let q = Aabb::point(target);
        let expected = brute_force(&entries, &q);
        let got = index.range_query(&pool, &q).unwrap();
        assert_eq!(got.len(), expected.len());
        assert!(!got.is_empty());
    }

    /// An index whose few enormous elements stretch their partitions
    /// across the whole domain, giving them neighbor lists far beyond one
    /// page's capacity: the build must chain continuation records.
    fn build_with_chains() -> (BufferPool<MemStore>, FlatIndex, Vec<Entry>) {
        let mut entries = random_entries(60_000, 112);
        for i in 0..5u64 {
            let lo = Point3::splat(1.0 + i as f64);
            let hi = Point3::splat(99.0 - i as f64);
            entries.push(Entry::new(70_000 + i, Aabb::from_corners(lo, hi)));
        }
        let mut pool = BufferPool::new(MemStore::new(), 1 << 16);
        let (index, stats) =
            FlatIndex::build(&mut pool, entries.clone(), FlatOptions::default()).unwrap();
        let max_single = crate::meta::max_neighbors_per_record() as u32;
        assert!(
            stats.neighbor_counts.iter().any(|&c| c > max_single),
            "test setup must force continuation chains (max count {})",
            stats.neighbor_counts.iter().max().unwrap()
        );
        (pool, index, entries)
    }

    #[test]
    fn continuation_chains_preserve_correctness() {
        // The crawl must follow the chains and still return exact results.
        let (pool, index, entries) = build_with_chains();
        for (c, side) in [(50.0, 10.0), (20.0, 30.0), (50.0, 250.0)] {
            let q = Aabb::cube(Point3::splat(c), side);
            let expected = brute_force(&entries, &q);
            let got = index.range_query(&pool, &q).unwrap();
            assert_eq!(got.len(), expected.len(), "query at {c} side {side}");
        }
    }

    #[test]
    fn continuation_cycle_is_corrupt_not_endless() {
        use crate::join::{JoinEngine, JoinInput};
        use crate::meta::{decode_meta_leaf, encode_meta_leaf};
        use flat_storage::PageStore;

        let (mut pool, index, _) = build_with_chains();
        // Point every continuation chunk back at itself.
        let mut patched = 0;
        for raw in 0..pool.store().num_pages() {
            let id = PageId(raw);
            let mut page = pool.read(id, PageKind::SeedLeaf).unwrap().clone();
            let Ok(mut records) = decode_meta_leaf(&page) else {
                continue; // not a metadata page
            };
            let mut dirty = false;
            for (slot, record) in records.iter_mut().enumerate() {
                if record.is_continuation {
                    record.continuation = Some(MetaRecordId {
                        page: id,
                        slot: slot as u16,
                    });
                    dirty = true;
                    patched += 1;
                }
            }
            if dirty {
                encode_meta_leaf(&records, &mut page);
                pool.write(id, &page, PageKind::SeedLeaf).unwrap();
                assert_eq!(decode_meta_leaf(&page).unwrap(), records);
            }
        }
        assert!(patched > 0, "the setup must have continuation chunks");

        let corrupt = |what: &str, err: Option<StorageError>| {
            assert!(
                matches!(err, Some(StorageError::Corrupt(_))),
                "{what} must fail with Corrupt, got {err:?}"
            );
        };
        let everything = Aabb::cube(Point3::splat(50.0), 250.0);
        corrupt("range", index.range_query(&pool, &everything).err());
        corrupt("kNN", index.knn_query(&pool, Point3::splat(50.0), 10).err());
        corrupt("aggregate", index.aggregate_count(&pool, &everything).err());
        corrupt(
            "join",
            JoinEngine::new(0.5)
                .join(
                    &pool,
                    JoinInput::Flat(&index),
                    &pool,
                    JoinInput::Flat(&index),
                )
                .err(),
        );
    }

    #[test]
    fn empty_index_answers_queries() {
        let mut pool = BufferPool::new(MemStore::new(), 16);
        let (index, _) = FlatIndex::build(&mut pool, Vec::new(), FlatOptions::default()).unwrap();
        let q = Aabb::cube(Point3::ORIGIN, 10.0);
        assert!(index.range_query(&pool, &q).unwrap().is_empty());
    }
}
