//! The fixed-size page buffer and its serialization helpers.

use crate::StorageError;
use std::sync::Arc;

/// Size of every disk page in bytes, matching the paper: "All approaches
/// store data on the disk in 4K pages" (§VII-A).
pub const PAGE_SIZE: usize = 4096;

/// A 4 KB page buffer, shared copy-on-write.
///
/// Pages are plain byte arrays; indexes serialize their node formats onto
/// them with the positional accessors, a [`PageMut`] view or a sequential
/// [`PageCursor`]. All scalars are little-endian.
///
/// `clone` shares the buffer: it bumps a reference count and copies no
/// bytes, which is what makes a cache hit ([`crate::PageRead::read_page`])
/// cheap. Mutation copies on write: [`Page::bytes_mut`], [`Page::edit`]
/// and the `put_*` accessors first make this handle's buffer unique
/// (copying it if another handle shares it), so writing through one
/// handle never changes the bytes another handle — or a cache — sees.
#[derive(Clone)]
pub struct Page {
    data: Arc<[u8; PAGE_SIZE]>,
}

impl Default for Page {
    fn default() -> Self {
        Page::new()
    }
}

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Page({} bytes)", PAGE_SIZE)
    }
}

impl Page {
    /// A zero-filled page.
    pub fn new() -> Page {
        Page {
            data: Arc::new([0u8; PAGE_SIZE]),
        }
    }

    /// Read-only view of the page bytes.
    #[inline]
    pub fn bytes(&self) -> &[u8; PAGE_SIZE] {
        &self.data
    }

    /// Mutable view of the page bytes, copying the buffer first if another
    /// handle shares it.
    #[inline]
    pub fn bytes_mut(&mut self) -> &mut [u8; PAGE_SIZE] {
        Arc::make_mut(&mut self.data)
    }

    /// A unique mutable view for encoding a whole page: the copy-on-write
    /// check runs once here instead of once per scalar write.
    #[inline]
    pub fn edit(&mut self) -> PageMut<'_> {
        PageMut {
            data: self.bytes_mut(),
        }
    }

    /// Zero-fills the page. A shared buffer is replaced by a fresh one
    /// rather than copied and then overwritten.
    pub fn clear(&mut self) {
        match Arc::get_mut(&mut self.data) {
            Some(data) => data.fill(0),
            None => *self = Page::new(),
        }
    }

    /// Writes a `u16` at `offset`.
    #[inline]
    pub fn put_u16(&mut self, offset: usize, v: u16) {
        self.edit().put_u16(offset, v)
    }

    /// Reads a `u16` from `offset`.
    #[inline]
    pub fn get_u16(&self, offset: usize) -> u16 {
        u16::from_le_bytes(self.data[offset..offset + 2].try_into().unwrap())
    }

    /// Writes a `u32` at `offset`.
    #[inline]
    pub fn put_u32(&mut self, offset: usize, v: u32) {
        self.edit().put_u32(offset, v)
    }

    /// Reads a `u32` from `offset`.
    #[inline]
    pub fn get_u32(&self, offset: usize) -> u32 {
        u32::from_le_bytes(self.data[offset..offset + 4].try_into().unwrap())
    }

    /// Writes a `u64` at `offset`.
    #[inline]
    pub fn put_u64(&mut self, offset: usize, v: u64) {
        self.edit().put_u64(offset, v)
    }

    /// Reads a `u64` from `offset`.
    #[inline]
    pub fn get_u64(&self, offset: usize) -> u64 {
        u64::from_le_bytes(self.data[offset..offset + 8].try_into().unwrap())
    }

    /// Writes an `f64` at `offset`.
    #[inline]
    pub fn put_f64(&mut self, offset: usize, v: f64) {
        self.edit().put_f64(offset, v)
    }

    /// Reads an `f64` from `offset`.
    #[inline]
    pub fn get_f64(&self, offset: usize) -> f64 {
        f64::from_le_bytes(self.data[offset..offset + 8].try_into().unwrap())
    }

    /// A sequential writer starting at `offset`.
    pub fn writer(&mut self, offset: usize) -> PageCursor<'_> {
        PageCursor {
            page: self.edit(),
            pos: offset,
        }
    }
}

/// A unique mutable view of one page's bytes (see [`Page::edit`]).
///
/// Encoders take one view per page and write every scalar through it.
pub struct PageMut<'a> {
    data: &'a mut [u8; PAGE_SIZE],
}

impl PageMut<'_> {
    /// Writes a `u16` at `offset`.
    #[inline]
    pub fn put_u16(&mut self, offset: usize, v: u16) {
        self.data[offset..offset + 2].copy_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u32` at `offset`.
    #[inline]
    pub fn put_u32(&mut self, offset: usize, v: u32) {
        self.data[offset..offset + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64` at `offset`.
    #[inline]
    pub fn put_u64(&mut self, offset: usize, v: u64) {
        self.data[offset..offset + 8].copy_from_slice(&v.to_le_bytes());
    }

    /// Writes an `f64` at `offset`.
    #[inline]
    pub fn put_f64(&mut self, offset: usize, v: f64) {
        self.data[offset..offset + 8].copy_from_slice(&v.to_le_bytes());
    }
}

/// Sequential encoder over a [`Page`].
///
/// Bounds-checked: exceeding the page raises
/// [`StorageError::PageOverflow`] instead of silently truncating, so node
/// serializers catch capacity arithmetic mistakes in tests.
pub struct PageCursor<'a> {
    page: PageMut<'a>,
    pos: usize,
}

impl<'a> PageCursor<'a> {
    /// Current write position.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes remaining in the page.
    pub fn remaining(&self) -> usize {
        PAGE_SIZE - self.pos
    }

    fn ensure(&self, n: usize) -> Result<(), StorageError> {
        if self.remaining() < n {
            Err(StorageError::PageOverflow {
                requested: n,
                remaining: self.remaining(),
            })
        } else {
            Ok(())
        }
    }

    /// Appends a `u16`.
    pub fn write_u16(&mut self, v: u16) -> Result<(), StorageError> {
        self.ensure(2)?;
        self.page.put_u16(self.pos, v);
        self.pos += 2;
        Ok(())
    }

    /// Appends a `u32`.
    pub fn write_u32(&mut self, v: u32) -> Result<(), StorageError> {
        self.ensure(4)?;
        self.page.put_u32(self.pos, v);
        self.pos += 4;
        Ok(())
    }

    /// Appends a `u64`.
    pub fn write_u64(&mut self, v: u64) -> Result<(), StorageError> {
        self.ensure(8)?;
        self.page.put_u64(self.pos, v);
        self.pos += 8;
        Ok(())
    }

    /// Appends an `f64`.
    pub fn write_f64(&mut self, v: f64) -> Result<(), StorageError> {
        self.ensure(8)?;
        self.page.put_f64(self.pos, v);
        self.pos += 8;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_page_is_zeroed() {
        let p = Page::new();
        assert!(p.bytes().iter().all(|b| *b == 0));
    }

    #[test]
    fn scalar_roundtrips() {
        let mut p = Page::new();
        p.put_u16(0, 0xBEEF);
        p.put_u32(2, 0xDEAD_BEEF);
        p.put_u64(6, u64::MAX - 1);
        p.put_f64(14, -123.456);
        assert_eq!(p.get_u16(0), 0xBEEF);
        assert_eq!(p.get_u32(2), 0xDEAD_BEEF);
        assert_eq!(p.get_u64(6), u64::MAX - 1);
        assert_eq!(p.get_f64(14), -123.456);
    }

    #[test]
    fn accessors_reach_the_last_byte() {
        let mut p = Page::new();
        p.put_u64(PAGE_SIZE - 8, 42);
        assert_eq!(p.get_u64(PAGE_SIZE - 8), 42);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_put_panics() {
        let mut p = Page::new();
        p.put_u64(PAGE_SIZE - 7, 1);
    }

    #[test]
    fn cursor_writes_sequentially() {
        let mut p = Page::new();
        let mut w = p.writer(16);
        w.write_u32(7).unwrap();
        w.write_f64(1.5).unwrap();
        assert_eq!(w.position(), 28);
        assert_eq!(p.get_u32(16), 7);
        assert_eq!(p.get_f64(20), 1.5);
    }

    #[test]
    fn cursor_overflow_is_reported_not_panicked() {
        let mut p = Page::new();
        let mut w = p.writer(PAGE_SIZE - 4);
        assert!(w.write_u32(1).is_ok());
        let err = w.write_u16(2).unwrap_err();
        assert!(matches!(
            err,
            StorageError::PageOverflow {
                requested: 2,
                remaining: 0
            }
        ));
    }

    #[test]
    fn clear_resets_contents() {
        let mut p = Page::new();
        p.put_u64(0, u64::MAX);
        p.clear();
        assert_eq!(p.get_u64(0), 0);
    }

    #[test]
    fn clone_shares_and_mutation_copies_on_write() {
        let mut a = Page::new();
        a.put_u64(0, 7);
        let mut b = a.clone();
        assert!(
            std::ptr::eq(a.bytes(), b.bytes()),
            "clone must not copy the bytes"
        );
        b.put_u64(0, 9);
        assert!(!std::ptr::eq(a.bytes(), b.bytes()));
        assert_eq!(a.get_u64(0), 7, "writing a clone changed the original");
        assert_eq!(b.get_u64(0), 9);

        let c = a.clone();
        a.bytes_mut()[8] = 1;
        assert_eq!(c.bytes()[8], 0, "bytes_mut on a shared page must copy");
        let d = a.clone();
        a.edit().put_u16(16, 3);
        assert_eq!(d.get_u16(16), 0, "edit on a shared page must copy");
        let e = a.clone();
        a.clear();
        assert_eq!(
            e.get_u64(0),
            7,
            "clearing a shared page must not zero the other"
        );
        assert_eq!(a.get_u64(0), 0);
    }

    #[test]
    fn unique_page_mutates_in_place() {
        let mut a = Page::new();
        let before = a.bytes().as_ptr();
        a.put_u64(0, 1);
        a.edit().put_f64(8, 2.5);
        a.clear();
        assert_eq!(
            a.bytes().as_ptr(),
            before,
            "a unique page must not be copied"
        );
    }

    #[test]
    fn float_nan_payload_survives_roundtrip() {
        let mut p = Page::new();
        p.put_f64(0, f64::NAN);
        assert!(p.get_f64(0).is_nan());
    }
}
