//! The page-access split: shared reads vs exclusive writes.
//!
//! Query evaluation in this workspace never mutates pages — it only reads
//! them (and updates I/O statistics, which are atomic). Index construction
//! is the opposite: a single-owner bulkload that allocates and writes pages
//! and never races with queries. The two capabilities are therefore split
//! into two traits:
//!
//! * [`PageRead`] — shared, `&self`. Implemented by [`crate::BufferPool`]
//!   (single-threaded interior mutability) and by
//!   [`crate::ConcurrentBufferPool`] (lock-sharded, `Sync`), so the same
//!   query code serves both a private pool and a pool shared across many
//!   threads.
//! * [`PageWrite`] — exclusive, `&mut self`. Implemented by
//!   [`crate::BufferPool`] only; builds keep the exclusive path.
//!
//! Query entry points across the workspace take `&impl PageRead`; build
//! entry points take `&mut impl PageWrite`.

use crate::{Page, PageId, PageKind, StorageError};
use std::sync::Arc;

/// Shared read access to pages, with per-[`PageKind`] I/O accounting.
///
/// Reads return an owned [`Page`] *handle* that shares the cached buffer:
/// a cache hit bumps a reference count and copies no bytes, yet the
/// caller is decoupled from the cache's locking/borrowing discipline (the
/// handle stays valid after the cache evicts or replaces the page). Pages
/// are copy-on-write, so a caller that mutates its handle gets a private
/// copy and never changes the cached bytes. Index code reads records and
/// entries in place through views over the handle's bytes.
pub trait PageRead {
    /// Reads page `id`, counting the access against `kind`.
    fn read_page(&self, id: PageId, kind: PageKind) -> Result<Page, StorageError>;

    /// Readahead hint: bring page `id` into the cache *speculatively*, ahead
    /// of a demand read that may or may not follow.
    ///
    /// This is the hook batched query execution hangs its crawl-ahead
    /// prefetching on: a reader that knows which pages it will (probably)
    /// touch next issues hints — typically from dedicated readahead threads,
    /// so the device wait overlaps useful work — and the later demand read
    /// becomes a cache hit.
    ///
    /// Semantics:
    /// * purely an optimization — implementations may ignore it (the default
    ///   does nothing), and errors are swallowed: a failed hint must not
    ///   fail the query, the demand read will surface any real error;
    /// * accounted separately from demand I/O: a fetch triggered by a hint
    ///   counts as a *prefetch read*, not a physical (demand) read, and a
    ///   later demand hit on the prefetched page counts as a *prefetch hit*
    ///   (see [`crate::IoStats`]), so benchmark figures can report
    ///   speculative I/O — and the share of it that was wasted — separately
    ///   from useful I/O.
    fn prefetch_page(&self, id: PageId, kind: PageKind) {
        let _ = (id, kind);
    }
}

/// Exclusive build-time access: page allocation, write-through writes, and
/// page reclamation.
pub trait PageWrite {
    /// Allocates a zeroed page (reusing the lowest freed page, if any —
    /// see [`crate::PageStore::alloc`]).
    fn alloc(&mut self) -> Result<PageId, StorageError>;

    /// Writes `page` through to the store, counting it against `kind`.
    fn write(&mut self, id: PageId, page: &Page, kind: PageKind) -> Result<(), StorageError>;

    /// Returns page `id` to the store's free list (dropping any cached
    /// copy). The dynamic-update layer frees object pages of fully deleted
    /// partitions and compaction frees the entire old index; reads of a
    /// freed page fail until it is reallocated.
    fn free(&mut self, id: PageId) -> Result<(), StorageError>;
}

impl<P: PageRead + ?Sized> PageRead for &P {
    fn read_page(&self, id: PageId, kind: PageKind) -> Result<Page, StorageError> {
        (**self).read_page(id, kind)
    }

    fn prefetch_page(&self, id: PageId, kind: PageKind) {
        (**self).prefetch_page(id, kind)
    }
}

impl<P: PageRead + ?Sized> PageRead for Arc<P> {
    fn read_page(&self, id: PageId, kind: PageKind) -> Result<Page, StorageError> {
        (**self).read_page(id, kind)
    }

    fn prefetch_page(&self, id: PageId, kind: PageKind) {
        (**self).prefetch_page(id, kind)
    }
}

impl<P: PageRead + ?Sized> PageRead for Box<P> {
    fn read_page(&self, id: PageId, kind: PageKind) -> Result<Page, StorageError> {
        (**self).read_page(id, kind)
    }

    fn prefetch_page(&self, id: PageId, kind: PageKind) {
        (**self).prefetch_page(id, kind)
    }
}

impl<W: PageWrite + ?Sized> PageWrite for &mut W {
    fn alloc(&mut self) -> Result<PageId, StorageError> {
        (**self).alloc()
    }

    fn write(&mut self, id: PageId, page: &Page, kind: PageKind) -> Result<(), StorageError> {
        (**self).write(id, page, kind)
    }

    fn free(&mut self, id: PageId) -> Result<(), StorageError> {
        (**self).free(id)
    }
}
