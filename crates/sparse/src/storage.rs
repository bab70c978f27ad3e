//! Backing storage for CSR sections: owned heap vectors or shared views
//! into an externally owned allocation (an `Arc`-kept memory map, another
//! matrix's buffer, ...).
//!
//! The zero-copy `.msb` loader in `mspgemm-io` is the motivating consumer:
//! a v2 `.msb` file *is* bit-exact CSR, so a mapped file can back a
//! [`Csr`](crate::Csr) directly — the [`SharedSlice`] keeps the mapping
//! alive through an owner `Arc` while the matrix (and every clone of its
//! sections, e.g. a pattern mask sharing `rowptr`/`colidx`) borrows it.
//!
//! Storage never changes observable behaviour: a shared-backed matrix
//! compares equal to, and fingerprints identically with, its heap-backed
//! twin; mutation entry points copy shared sections to owned first.

use std::any::Any;
use std::ops::Deref;
use std::ptr::NonNull;
use std::sync::Arc;

/// The type-erased keep-alive handle of a [`SharedSlice`]: whatever object
/// owns the bytes (a memory map, an `Arc<Vec<T>>`, ...). The slice stays
/// valid exactly as long as at least one clone of this `Arc` lives.
pub type SectionOwner = Arc<dyn Any + Send + Sync>;

/// An immutable `[T]` view tied to an owner `Arc` that keeps the backing
/// allocation alive. Cloning is cheap (pointer + `Arc` bump) and never
/// copies the elements.
pub struct SharedSlice<T> {
    ptr: NonNull<T>,
    len: usize,
    owner: SectionOwner,
}

// SAFETY: a SharedSlice is semantically an `Arc<[T]>` — immutable shared
// data plus a reference count — so it may move to another thread whenever
// `&[T]` may: the raw pointer is only ever read through `as_slice`, and the
// owner keeping the memory alive is itself `Send + Sync`.
unsafe impl<T: Send + Sync> Send for SharedSlice<T> {}
// SAFETY: every method takes `&self` and only reads: `as_slice` hands out
// `&[T]` (sound to share when `T: Sync`), and clones bump the owner's
// atomic reference count. No interior mutation exists to race on.
unsafe impl<T: Send + Sync> Sync for SharedSlice<T> {}

impl<T> SharedSlice<T> {
    /// View `len` elements starting at `ptr`, kept alive by `owner`.
    ///
    /// # Safety
    /// The caller promises that:
    /// * `ptr` is aligned for `T` and, when `len > 0`, non-null;
    /// * `ptr..ptr+len` contains `len` initialized `T`s valid for reads;
    /// * the memory stays valid and **unmodified** for as long as any
    ///   clone of `owner` is alive (the slice hands out `&[T]` with no
    ///   further checks).
    pub unsafe fn from_raw_parts(ptr: *const T, len: usize, owner: SectionOwner) -> Self {
        debug_assert!(
            (ptr as usize).is_multiple_of(std::mem::align_of::<T>()),
            "SharedSlice pointer is misaligned for its element type"
        );
        let ptr = if len == 0 {
            NonNull::dangling()
        } else {
            NonNull::new(ptr as *mut T).expect("SharedSlice from a null pointer")
        };
        Self { ptr, len, owner }
    }

    /// Promote an owned vector into a shared slice (the vector moves into
    /// the owner `Arc`; its heap buffer does not move).
    pub fn from_vec(v: Vec<T>) -> Self
    where
        T: Send + Sync + 'static,
    {
        Self::from_vec_owner(v, Arc::new)
    }

    /// [`from_vec`](Self::from_vec) with the owner `wrap` builds around
    /// the vector (the unit arena tags its allocation this way); `wrap`
    /// keeps the vector, unmodified, inside the owner.
    fn from_vec_owner<W: Any + Send + Sync>(
        v: Vec<T>,
        wrap: impl FnOnce(Vec<T>) -> Arc<W>,
    ) -> Self {
        let (ptr, len) = (v.as_ptr(), v.len());
        let owner = wrap(v);
        // SAFETY: the buffer moved into the owner Arc without its heap
        // allocation moving; it is aligned, initialized, and immutable.
        unsafe { Self::from_raw_parts(ptr, len, owner) }
    }

    /// The elements.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        // SAFETY: upheld by the `from_raw_parts` contract.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }

    /// Element count.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` iff no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The keep-alive handle (e.g. to share one mapping across sections).
    pub fn owner(&self) -> &SectionOwner {
        &self.owner
    }
}

impl<T> SharedSlice<T> {
    /// A view of the first `len` elements, sharing the same owner.
    ///
    /// # Panics
    /// If `len > self.len()`.
    pub fn prefix(&self, len: usize) -> Self {
        assert!(len <= self.len, "prefix {len} exceeds length {}", self.len);
        Self {
            ptr: self.ptr,
            len,
            owner: self.owner.clone(),
        }
    }
}

impl<T> Clone for SharedSlice<T> {
    fn clone(&self) -> Self {
        Self {
            ptr: self.ptr,
            len: self.len,
            owner: self.owner.clone(),
        }
    }
}

impl<T> Deref for SharedSlice<T> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for SharedSlice<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SharedSlice({:?})", self.as_slice())
    }
}

/// One CSR section: either an owned heap vector or a [`SharedSlice`] view
/// into memory owned elsewhere (e.g. an mmap'd `.msb` file).
pub enum Storage<T> {
    /// Heap-owned, mutable, the construction-path default.
    Owned(Vec<T>),
    /// Borrowed from an owner `Arc`; immutable, copied-on-write.
    Shared(SharedSlice<T>),
}

impl<T> Storage<T> {
    /// The elements, whatever the backing.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        match self {
            Storage::Owned(v) => v,
            Storage::Shared(s) => s.as_slice(),
        }
    }

    /// `true` iff backed by a [`SharedSlice`] rather than the heap.
    pub fn is_shared(&self) -> bool {
        matches!(self, Storage::Shared(_))
    }

    /// `true` iff backed by the process-wide unit arena
    /// ([`shared_ones`]) — owner-typed, so it works for any `T`.
    pub fn is_unit_arena(&self) -> bool {
        match self {
            Storage::Owned(_) => false,
            Storage::Shared(s) => is_unit_owner(&s.owner),
        }
    }

    /// Mutable access, copying a shared section to the heap first
    /// (copy-on-write — shared backings are immutable by contract).
    pub fn make_mut(&mut self) -> &mut Vec<T>
    where
        T: Clone,
    {
        if let Storage::Shared(s) = self {
            *self = Storage::Owned(s.as_slice().to_vec());
        }
        match self {
            Storage::Owned(v) => v,
            Storage::Shared(_) => unreachable!("shared storage was just copied out"),
        }
    }
}

impl<T> From<Vec<T>> for Storage<T> {
    fn from(v: Vec<T>) -> Self {
        Storage::Owned(v)
    }
}

impl<T> From<SharedSlice<T>> for Storage<T> {
    fn from(s: SharedSlice<T>) -> Self {
        Storage::Shared(s)
    }
}

impl<T: Clone> Clone for Storage<T> {
    fn clone(&self) -> Self {
        match self {
            Storage::Owned(v) => Storage::Owned(v.clone()),
            // Cloning a view shares the owner; no element copies.
            Storage::Shared(s) => Storage::Shared(s.clone()),
        }
    }
}

impl<T> Deref for Storage<T> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Storage<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Storage::Owned(v) => write!(f, "Owned({v:?})"),
            Storage::Shared(s) => write!(f, "Shared({:?})", s.as_slice()),
        }
    }
}

/// Content equality — backing is invisible: a mapped section equals its
/// heap-copied twin.
impl<T: PartialEq> PartialEq for Storage<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

/// Owner newtype of the process-wide unit arena, so consumers can tell
/// arena-backed values apart from any other shared section (mmap, ...)
/// via [`is_shared_ones`].
struct UnitOnes(#[allow(dead_code)] Vec<f64>);

/// The process-wide all-ones arena, grown monotonically under a lock.
/// Superseded generations stay alive through the `SharedSlice` clones
/// that reference them; new requests always serve from the newest.
static UNIT_ARENA: std::sync::Mutex<Option<SharedSlice<f64>>> = std::sync::Mutex::new(None);

/// Smallest arena ever allocated (elements). 1024 × 8 B = one 8 KiB
/// allocation for the whole process at minimum.
const UNIT_ARENA_MIN: usize = 1024;

/// A `len`-element all-`1.0` slice backed by the **process-wide unit
/// arena** — the values section of every pattern-loaded matrix. Any
/// number of matrices of any size share one allocation (the arena grows
/// geometrically to the largest request seen), so unit values cost the
/// process one buffer, not one per matrix. Detect arena backing with
/// [`is_shared_ones`].
pub fn shared_ones(len: usize) -> SharedSlice<f64> {
    let mut g = UNIT_ARENA.lock().unwrap();
    let have = g.as_ref().map_or(0, |s| s.len());
    if g.is_none() || have < len {
        let cap = len.next_power_of_two().max(UNIT_ARENA_MIN);
        *g = Some(SharedSlice::from_vec_owner(vec![1.0f64; cap], |v| {
            Arc::new(UnitOnes(v))
        }));
    }
    g.as_ref().unwrap().prefix(len)
}

/// Resident bytes of the newest unit-arena generation (`0` before any
/// [`shared_ones`] call) — what pattern storage actually costs the
/// process, as opposed to the per-matrix view lengths it serves.
pub fn unit_arena_bytes() -> usize {
    let g = UNIT_ARENA.lock().unwrap();
    g.as_ref()
        .map_or(0, |s| std::mem::size_of_val(s.as_slice()))
}

/// `true` iff `s` is a view into the process-wide unit arena (any
/// generation of it) — i.e. its bytes are amortized across every
/// pattern matrix in the process rather than resident per matrix.
pub fn is_shared_ones(s: &SharedSlice<f64>) -> bool {
    is_unit_owner(&s.owner)
}

/// Owner-level form of [`is_shared_ones`], usable from generic code that
/// cannot name the element type.
pub fn is_unit_owner(owner: &SectionOwner) -> bool {
    owner.as_ref().is::<UnitOnes>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_from_vec_roundtrips() {
        let s = SharedSlice::from_vec(vec![1u32, 2, 3]);
        assert_eq!(s.as_slice(), &[1, 2, 3]);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        let c = s.clone();
        drop(s);
        assert_eq!(&c[..], &[1, 2, 3], "clone keeps the owner alive");
    }

    #[test]
    fn empty_shared_slice() {
        let s = SharedSlice::from_vec(Vec::<f64>::new());
        assert!(s.is_empty());
        assert_eq!(s.as_slice(), &[] as &[f64]);
    }

    #[test]
    fn shared_slice_into_arc_buffer() {
        // The canonical mmap shape: an owner holding raw bytes, sections
        // cast into it.
        let bytes: Arc<Vec<u64>> = Arc::new(vec![7, 8, 9]);
        // SAFETY: the pointer and length are the Arc'd vector's own, which
        // is aligned, initialized and never mutated; its clone is the owner.
        let s = unsafe {
            SharedSlice::from_raw_parts(bytes.as_ptr(), bytes.len(), bytes.clone() as SectionOwner)
        };
        assert_eq!(s.as_slice(), &[7, 8, 9]);
    }

    #[test]
    fn storage_equality_ignores_backing() {
        let owned: Storage<u32> = vec![1, 2, 3].into();
        let shared: Storage<u32> = SharedSlice::from_vec(vec![1, 2, 3]).into();
        assert_eq!(owned, shared);
        assert!(!owned.is_shared());
        assert!(shared.is_shared());
    }

    #[test]
    fn unit_arena_shares_one_allocation() {
        let a = shared_ones(10);
        let b = shared_ones(7);
        assert!(a.iter().all(|&v| v == 1.0));
        assert_eq!((a.len(), b.len()), (10, 7));
        assert!(is_shared_ones(&a) && is_shared_ones(&b));
        // Same generation → literally the same buffer.
        if Arc::ptr_eq(a.owner(), b.owner()) {
            assert_eq!(a.as_slice().as_ptr(), b.as_slice().as_ptr());
        }
        // Growth: a bigger request re-arenas, old views stay valid.
        let big = shared_ones(a.len() + UNIT_ARENA_MIN * 4);
        assert!(is_shared_ones(&big));
        assert!(big.iter().all(|&v| v == 1.0));
        assert!(a.iter().all(|&v| v == 1.0), "old generation still alive");
        // Non-arena shared slices are not misdetected.
        let plain = SharedSlice::from_vec(vec![1.0f64; 4]);
        assert!(!is_shared_ones(&plain));
        // Zero-length requests are fine.
        assert!(shared_ones(0).is_empty());
    }

    #[test]
    fn make_mut_copies_on_write() {
        let mut shared: Storage<u32> = SharedSlice::from_vec(vec![1, 2, 3]).into();
        shared.make_mut()[0] = 99;
        assert!(!shared.is_shared(), "mutation must detach from the owner");
        assert_eq!(shared.as_slice(), &[99, 2, 3]);

        let mut owned: Storage<u32> = vec![5].into();
        owned.make_mut().push(6);
        assert_eq!(owned.as_slice(), &[5, 6]);
    }
}
