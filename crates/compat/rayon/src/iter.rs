//! The parallel-iterator core: indexed sources, lazy adapters, and
//! pool-driven terminal drives.
//!
//! Everything is built on [`Source`]: an indexed producer whose items can
//! be fetched by position, at most once per position. Terminal operations
//! split `0..len` into contiguous chunks — oversubscribed a few × beyond
//! the thread count — and publish one job to the persistent worker pool
//! (the private `pool` module). Each executor claims chunks through a
//! shared atomic
//! cursor (guided self-scheduling), so a slow chunk no longer pins its
//! whole thread's share of the input; chunk results are written to
//! index-addressed slots, preserving input order exactly as before.

use crate::{chunk_ranges, current_num_threads, override_value};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// An indexed, thread-shareable item producer.
///
/// # Safety
///
/// Implementations must tolerate `get` being called concurrently from
/// multiple threads for **distinct** indices; callers must not call `get`
/// twice for the same index (mutable-slice sources hand out aliasing
/// exclusive references otherwise).
pub unsafe trait Source: Sync {
    /// The element type produced.
    type Item: Send;
    /// Total number of items.
    fn len(&self) -> usize;
    /// Whether the source produces no items.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Produce item `i`.
    ///
    /// # Safety
    /// `i < self.len()`, and each index is fetched at most once.
    unsafe fn get(&self, i: usize) -> Self::Item;
}

/// A half-open integer range usable as a parallel source.
pub trait RangeIdx: Copy + Send + Sync {
    /// `self + offset` as the index type.
    fn offset(self, by: usize) -> Self;
    /// Distance to `end` in items.
    fn distance(self, end: Self) -> usize;
}

macro_rules! impl_range_idx {
    ($($t:ty),*) => {$(
        impl RangeIdx for $t {
            #[inline]
            fn offset(self, by: usize) -> Self {
                self + by as $t
            }
            #[inline]
            fn distance(self, end: Self) -> usize {
                if end > self { (end - self) as usize } else { 0 }
            }
        }
    )*};
}

impl_range_idx!(u32, u64, usize);

/// Source over an integer range.
pub struct RangeSource<T> {
    start: T,
    len: usize,
}

unsafe impl<T: RangeIdx> Source for RangeSource<T> {
    type Item = T;
    fn len(&self) -> usize {
        self.len
    }
    unsafe fn get(&self, i: usize) -> T {
        self.start.offset(i)
    }
}

/// Lazily mapped source.
pub struct MapSource<S, F> {
    src: S,
    f: F,
}

unsafe impl<S: Source, F, U> Source for MapSource<S, F>
where
    F: Fn(S::Item) -> U + Sync,
    U: Send,
{
    type Item = U;
    fn len(&self) -> usize {
        self.src.len()
    }
    unsafe fn get(&self, i: usize) -> U {
        (self.f)(unsafe { self.src.get(i) })
    }
}

/// Source pairing each item with its index.
pub struct EnumerateSource<S> {
    src: S,
}

unsafe impl<S: Source> Source for EnumerateSource<S> {
    type Item = (usize, S::Item);
    fn len(&self) -> usize {
        self.src.len()
    }
    unsafe fn get(&self, i: usize) -> (usize, S::Item) {
        (i, unsafe { self.src.get(i) })
    }
}

/// Source zipping two sources positionally (length = shorter).
pub struct ZipSource<A, B> {
    a: A,
    b: B,
}

unsafe impl<A: Source, B: Source> Source for ZipSource<A, B> {
    type Item = (A::Item, B::Item);
    fn len(&self) -> usize {
        self.a.len().min(self.b.len())
    }
    unsafe fn get(&self, i: usize) -> (A::Item, B::Item) {
        unsafe { (self.a.get(i), self.b.get(i)) }
    }
}

/// A parallel iterator: a [`Source`] plus drive configuration.
pub struct ParIter<S> {
    pub(crate) src: S,
    pub(crate) min_len: usize,
    pub(crate) max_len: usize,
}

pub(crate) fn par_iter_from<S: Source>(src: S) -> ParIter<S> {
    ParIter {
        src,
        min_len: 1,
        max_len: usize::MAX,
    }
}

/// Marker trait re-exported through the prelude so `use rayon::prelude::*`
/// keeps working; all methods live inherently on [`ParIter`].
pub trait ParallelIterator {}

impl<S: Source> ParallelIterator for ParIter<S> {}

/// Conversion into a parallel iterator (ranges).
pub trait IntoParallelIterator {
    /// The produced item type.
    type Item: Send;
    /// The concrete iterator type.
    type Iter;
    /// Convert.
    fn into_par_iter(self) -> Self::Iter;
}

impl<T: RangeIdx> IntoParallelIterator for Range<T> {
    type Item = T;
    type Iter = ParIter<RangeSource<T>>;
    fn into_par_iter(self) -> Self::Iter {
        let len = self.start.distance(self.end);
        par_iter_from(RangeSource {
            start: self.start,
            len,
        })
    }
}

/// Chunk oversubscription factor: more chunks than threads gives the
/// claiming cursor room to rebalance when chunks carry unequal work.
const OVERSUB: usize = 4;

/// Write-once result slots, one per chunk, so dynamically-claimed chunks
/// still land their results in input order.
struct ResultSlots<R> {
    ptr: *mut Option<R>,
}

// SAFETY: each slot index is written by exactly one executor (the chunk
// cursor hands out each index once), and the owning Vec outlives the drive.
unsafe impl<R: Send> Send for ResultSlots<R> {}
unsafe impl<R: Send> Sync for ResultSlots<R> {}

impl<R> ResultSlots<R> {
    /// Store chunk `i`'s result.
    ///
    /// # Safety
    /// `i` is in bounds and no other thread writes slot `i`.
    unsafe fn write(&self, i: usize, value: R) {
        unsafe { *self.ptr.add(i) = Some(value) };
    }
}

impl<S: Source> ParIter<S> {
    /// Chunk `0..len` honoring `with_min_len` / `with_max_len`,
    /// oversubscribing by [`OVERSUB`] beyond the thread count so the claim
    /// cursor can balance.
    fn parts(&self) -> Vec<Range<usize>> {
        let n = self.src.len();
        let threads = current_num_threads().max(1);
        // A max-len cap forces at least this many chunks (e.g. an item
        // list that is already a work partition drives with max_len 1 so
        // every item is its own claim unit).
        let floor = if self.max_len < n.max(1) {
            n.div_ceil(self.max_len.max(1))
        } else {
            1
        };
        if threads == 1 && floor <= 1 {
            return chunk_ranges(n, 1);
        }
        let cap = if self.min_len > 1 {
            (n / self.min_len).max(1)
        } else {
            n
        };
        chunk_ranges(n, (threads * OVERSUB).min(cap).max(floor))
    }

    /// Fan `work` out over the chunks; results come back in chunk order.
    fn drive<R, W>(self, work: W) -> Vec<R>
    where
        R: Send,
        W: Fn(Range<usize>, &S) -> R + Sync,
    {
        self.drive_init(|| (), |(), range, src| work(range, src))
    }

    /// [`drive`](Self::drive) with one lazily-built workspace per
    /// *executor* (not per chunk): executors claim chunks from a shared
    /// atomic cursor and reuse their workspace across every chunk they
    /// claim, so `init` cost is amortized no matter how finely the input
    /// is chunked.
    fn drive_init<T, R, INIT, W>(self, init: INIT, work: W) -> Vec<R>
    where
        R: Send,
        INIT: Fn() -> T + Sync,
        W: Fn(&mut T, Range<usize>, &S) -> R + Sync,
    {
        let parts = self.parts();
        let src = self.src;
        if parts.len() <= 1 {
            let mut ws = init();
            return parts.into_iter().map(|r| work(&mut ws, r, &src)).collect();
        }
        let executors = current_num_threads().max(1).min(parts.len());
        let mut results: Vec<Option<R>> = (0..parts.len()).map(|_| None).collect();
        let slots = ResultSlots {
            ptr: results.as_mut_ptr(),
        };
        let cursor = AtomicUsize::new(0);
        let inherited = override_value();
        let (parts_ref, src_ref, work_ref, init_ref, slots_ref, cursor_ref) =
            (&parts, &src, &work, &init, &slots, &cursor);
        crate::pool::broadcast(executors, inherited, &|_slot| {
            // Workspace is built only if this executor claims a chunk.
            let mut ws: Option<T> = None;
            loop {
                let i = cursor_ref.fetch_add(1, Ordering::Relaxed);
                if i >= parts_ref.len() {
                    break;
                }
                let ws = ws.get_or_insert_with(init_ref);
                let r = work_ref(ws, parts_ref[i].clone(), src_ref);
                // SAFETY: the cursor hands out index `i` exactly once.
                unsafe { slots_ref.write(i, r) };
            }
        });
        results
            .into_iter()
            .map(|o| o.expect("rayon-shim: chunk not executed"))
            .collect()
    }

    /// Hint the minimum number of items a chunk should hold.
    pub fn with_min_len(mut self, min: usize) -> Self {
        self.min_len = min.max(1);
        self
    }

    /// Cap the number of items a chunk may hold (rayon's `with_max_len`):
    /// `with_max_len(1)` makes every item its own dynamically-claimed
    /// unit — used when the items are themselves a precomputed work
    /// partition that must not be re-grouped.
    pub fn with_max_len(mut self, max: usize) -> Self {
        self.max_len = max.max(1);
        self
    }

    /// Lazily transform each item.
    pub fn map<U, F>(self, f: F) -> ParIter<MapSource<S, F>>
    where
        F: Fn(S::Item) -> U + Sync,
        U: Send,
    {
        ParIter {
            src: MapSource { src: self.src, f },
            min_len: self.min_len,
            max_len: self.max_len,
        }
    }

    /// Pair each item with its position.
    pub fn enumerate(self) -> ParIter<EnumerateSource<S>> {
        ParIter {
            src: EnumerateSource { src: self.src },
            min_len: self.min_len,
            max_len: self.max_len,
        }
    }

    /// Pair items positionally with another parallel iterator.
    pub fn zip<B: Source>(self, other: ParIter<B>) -> ParIter<ZipSource<S, B>> {
        ParIter {
            src: ZipSource {
                a: self.src,
                b: other.src,
            },
            min_len: self.min_len.max(other.min_len),
            max_len: self.max_len.min(other.max_len),
        }
    }

    /// Run `op` on every item.
    pub fn for_each<OP>(self, op: OP)
    where
        OP: Fn(S::Item) + Sync,
    {
        self.drive(|range, src| {
            for i in range {
                // SAFETY: ranges are disjoint; each index fetched once.
                op(unsafe { src.get(i) });
            }
        });
    }

    /// Run `op` on every item with per-executor scratch built by `init`
    /// (rayon's thread-private workspace pattern): each executor builds one
    /// workspace and reuses it across every chunk it claims.
    pub fn for_each_init<T, INIT, OP>(self, init: INIT, op: OP)
    where
        INIT: Fn() -> T + Sync,
        OP: Fn(&mut T, S::Item) + Sync,
    {
        self.drive_init(init, |ws, range, src| {
            for i in range {
                // SAFETY: ranges are disjoint; each index fetched once.
                op(ws, unsafe { src.get(i) });
            }
        });
    }

    /// Map each item to a sequential iterator and flatten, preserving
    /// order. Only `collect` is available on the result.
    pub fn flat_map_iter<U, F>(self, f: F) -> FlatMapIter<S, F>
    where
        U: IntoIterator,
        U::Item: Send,
        F: Fn(S::Item) -> U + Sync,
    {
        FlatMapIter { inner: self, f }
    }

    /// Collect items in order.
    pub fn collect<C>(self) -> C
    where
        C: FromParIter<S::Item>,
    {
        C::from_par_iter(self)
    }

    /// Sum the items.
    pub fn sum<Out>(self) -> Out
    where
        Out: Send + std::iter::Sum<S::Item> + std::iter::Sum<Out>,
    {
        self.drive(|range, src| {
            // SAFETY: disjoint ranges.
            range.map(|i| unsafe { src.get(i) }).sum::<Out>()
        })
        .into_iter()
        .sum()
    }

    /// Reduce with an identity-producing closure and an associative op.
    pub fn reduce<ID, OP>(self, identity: ID, op: OP) -> S::Item
    where
        ID: Fn() -> S::Item + Sync,
        OP: Fn(S::Item, S::Item) -> S::Item + Sync,
    {
        self.drive(|range, src| {
            let mut acc = identity();
            for i in range {
                // SAFETY: disjoint ranges.
                acc = op(acc, unsafe { src.get(i) });
            }
            acc
        })
        .into_iter()
        .fold(identity(), &op)
    }
}

/// `flat_map_iter` pipeline; terminal-only (supports `collect`).
pub struct FlatMapIter<S, F> {
    inner: ParIter<S>,
    f: F,
}

impl<S, U, F> FlatMapIter<S, F>
where
    S: Source,
    U: IntoIterator,
    U::Item: Send,
    F: Fn(S::Item) -> U + Sync,
{
    /// Collect the flattened items in order.
    pub fn collect<C>(self) -> C
    where
        C: From<Vec<U::Item>>,
    {
        let FlatMapIter { inner, f } = self;
        let chunks = inner.drive(|range, src| {
            let mut out = Vec::new();
            for i in range {
                // SAFETY: disjoint ranges.
                out.extend(f(unsafe { src.get(i) }));
            }
            out
        });
        let mut all = Vec::with_capacity(chunks.iter().map(Vec::len).sum());
        for c in chunks {
            all.extend(c);
        }
        C::from(all)
    }
}

/// `collect` target abstraction (rayon's `FromParallelIterator`).
pub trait FromParIter<T>: Sized {
    /// Build the collection from the iterator.
    fn from_par_iter<S: Source<Item = T>>(iter: ParIter<S>) -> Self;
}

impl<T: Send> FromParIter<T> for Vec<T> {
    fn from_par_iter<S: Source<Item = T>>(iter: ParIter<S>) -> Self {
        let chunks = iter.drive(|range, src| {
            let mut out = Vec::with_capacity(range.len());
            for i in range {
                // SAFETY: disjoint ranges.
                out.push(unsafe { src.get(i) });
            }
            out
        });
        let mut all = Vec::with_capacity(chunks.iter().map(Vec::len).sum());
        for c in chunks {
            all.extend(c);
        }
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_map_collect_ordered() {
        let v: Vec<usize> = (0..1000usize).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(v.len(), 1000);
        assert!(v.iter().enumerate().all(|(i, &x)| x == i * 2));
    }

    #[test]
    fn sum_matches_sequential() {
        let s: u64 = (0..100_000u64).into_par_iter().sum();
        assert_eq!(s, (0..100_000u64).sum());
    }

    #[test]
    fn enumerate_zip_for_each() {
        let n = 257;
        let mut out = vec![0usize; n];
        {
            use crate::slice::ParallelSliceMut;
            out.par_iter_mut()
                .enumerate()
                .for_each(|(i, slot)| *slot = i + 1);
        }
        assert!(out.iter().enumerate().all(|(i, &x)| x == i + 1));
    }

    #[test]
    fn reduce_folds_every_chunk() {
        let m = (0..100usize).into_par_iter().reduce(|| 0, |a, b| a.max(b));
        assert_eq!(m, 99);
    }
}
