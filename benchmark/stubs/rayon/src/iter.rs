//! Indexed parallel iterators: every source and adapter knows its length
//! and can produce the item at an index, so a terminal operation is one
//! `pool::run` over `0..len`.

use std::marker::PhantomData;
use std::mem::{ManuallyDrop, MaybeUninit};
use std::ops::Range;

use crate::pool;

/// A parallel iterator over `len()` items addressed by index.
#[allow(clippy::len_without_is_empty)]
pub trait ParallelIterator: Sized + Send + Sync {
    type Item: Send;

    #[doc(hidden)]
    fn len(&self) -> usize;

    /// Item at `index`.
    ///
    /// # Safety
    /// `index < self.len()`, and each index is requested at most once
    /// over the iterator's life (items may be `&mut` or moved out).
    #[doc(hidden)]
    unsafe fn get(&self, index: usize) -> Self::Item;

    fn map<F, R>(self, f: F) -> Map<Self, F>
    where
        F: Fn(Self::Item) -> R + Send + Sync,
        R: Send,
    {
        Map { base: self, f }
    }

    fn enumerate(self) -> Enumerate<Self> {
        Enumerate { base: self }
    }

    fn zip<Z: IntoParallelIterator>(self, other: Z) -> Zip<Self, Z::Iter> {
        Zip {
            a: self,
            b: other.into_par_iter(),
        }
    }

    fn for_each<F: Fn(Self::Item) + Send + Sync>(self, f: F) {
        // SAFETY: `pool::run` passes each index below `len` exactly once.
        pool::run(self.len(), &|i| f(unsafe { self.get(i) }));
    }

    fn collect<C: FromParallelIterator<Self::Item>>(self) -> C {
        C::from_par_iter(self)
    }
}

/// Present so `use rayon::prelude::*` resolves; every iterator here is
/// indexed, so the methods live on [`ParallelIterator`].
pub trait IndexedParallelIterator: ParallelIterator {}
impl<I: ParallelIterator> IndexedParallelIterator for I {}

pub trait FromParallelIterator<T: Send> {
    fn from_par_iter<I: ParallelIterator<Item = T>>(iter: I) -> Self;
}

struct SendPtr<T>(*mut T);
// SAFETY: the pointer is only used to write disjoint slots of one buffer
// from different threads, and the values written are `T: Send`.
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T: Send> FromParallelIterator<T> for Vec<T> {
    fn from_par_iter<I: ParallelIterator<Item = T>>(iter: I) -> Self {
        let len = iter.len();
        let mut out: Vec<MaybeUninit<T>> = Vec::with_capacity(len);
        // SAFETY: `MaybeUninit` needs no initialisation.
        unsafe { out.set_len(len) };
        let slots = SendPtr(out.as_mut_ptr());
        // SAFETY: each index is visited once, so each slot is written
        // once and each item fetched once. A panicking item propagates
        // out of `run` and leaks the slots already written.
        pool::run(len, &|i| unsafe {
            let slots = &slots;
            slots.0.add(i).write(MaybeUninit::new(iter.get(i)));
        });
        let mut out = ManuallyDrop::new(out);
        // SAFETY: all `len` slots are initialised; same layout.
        unsafe { Vec::from_raw_parts(out.as_mut_ptr().cast::<T>(), len, out.capacity()) }
    }
}

// --- conversion traits ------------------------------------------------------

pub trait IntoParallelIterator {
    type Iter: ParallelIterator<Item = Self::Item>;
    type Item: Send;
    fn into_par_iter(self) -> Self::Iter;
}

impl<I: ParallelIterator> IntoParallelIterator for I {
    type Iter = I;
    type Item = I::Item;
    fn into_par_iter(self) -> I {
        self
    }
}

pub trait IntoParallelRefIterator<'a> {
    type Iter: ParallelIterator<Item = Self::Item>;
    type Item: Send + 'a;
    fn par_iter(&'a self) -> Self::Iter;
}

impl<'a, C: 'a + ?Sized> IntoParallelRefIterator<'a> for C
where
    &'a C: IntoParallelIterator,
{
    type Iter = <&'a C as IntoParallelIterator>::Iter;
    type Item = <&'a C as IntoParallelIterator>::Item;
    fn par_iter(&'a self) -> Self::Iter {
        self.into_par_iter()
    }
}

pub trait IntoParallelRefMutIterator<'a> {
    type Iter: ParallelIterator<Item = Self::Item>;
    type Item: Send + 'a;
    fn par_iter_mut(&'a mut self) -> Self::Iter;
}

impl<'a, C: 'a + ?Sized> IntoParallelRefMutIterator<'a> for C
where
    &'a mut C: IntoParallelIterator,
{
    type Iter = <&'a mut C as IntoParallelIterator>::Iter;
    type Item = <&'a mut C as IntoParallelIterator>::Item;
    fn par_iter_mut(&'a mut self) -> Self::Iter {
        self.into_par_iter()
    }
}

pub trait ParallelSlice<T: Sync> {
    fn as_parallel_slice(&self) -> &[T];

    fn par_chunks(&self, chunk_size: usize) -> ChunksIter<'_, T> {
        assert!(chunk_size != 0, "chunk_size must not be zero");
        ChunksIter {
            slice: self.as_parallel_slice(),
            size: chunk_size,
        }
    }
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn as_parallel_slice(&self) -> &[T] {
        self
    }
}

pub trait ParallelSliceMut<T: Send> {
    fn as_parallel_slice_mut(&mut self) -> &mut [T];

    fn par_chunks_mut(&mut self, chunk_size: usize) -> ChunksMutIter<'_, T> {
        assert!(chunk_size != 0, "chunk_size must not be zero");
        let slice = self.as_parallel_slice_mut();
        ChunksMutIter {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            size: chunk_size,
            marker: PhantomData,
        }
    }
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn as_parallel_slice_mut(&mut self) -> &mut [T] {
        self
    }
}

// --- sources ----------------------------------------------------------------

pub struct RangeIter<T> {
    start: T,
    len: usize,
}

macro_rules! range_source {
    ($($t:ty),*) => {$(
        impl IntoParallelIterator for Range<$t> {
            type Iter = RangeIter<$t>;
            type Item = $t;
            fn into_par_iter(self) -> RangeIter<$t> {
                let len = if self.end > self.start { (self.end - self.start) as usize } else { 0 };
                RangeIter { start: self.start, len }
            }
        }
        impl ParallelIterator for RangeIter<$t> {
            type Item = $t;
            fn len(&self) -> usize {
                self.len
            }
            unsafe fn get(&self, index: usize) -> $t {
                self.start + index as $t
            }
        }
    )*};
}
range_source!(usize);

pub struct SliceIter<'a, T> {
    slice: &'a [T],
}

impl<'a, T: Sync> ParallelIterator for SliceIter<'a, T> {
    type Item = &'a T;
    fn len(&self) -> usize {
        self.slice.len()
    }
    unsafe fn get(&self, index: usize) -> &'a T {
        &self.slice[index]
    }
}

impl<'a, T: Sync> IntoParallelIterator for &'a [T] {
    type Iter = SliceIter<'a, T>;
    type Item = &'a T;
    fn into_par_iter(self) -> SliceIter<'a, T> {
        SliceIter { slice: self }
    }
}

impl<'a, T: Sync> IntoParallelIterator for &'a Vec<T> {
    type Iter = SliceIter<'a, T>;
    type Item = &'a T;
    fn into_par_iter(self) -> SliceIter<'a, T> {
        SliceIter { slice: self }
    }
}

pub struct SliceIterMut<'a, T> {
    ptr: *mut T,
    len: usize,
    marker: PhantomData<&'a mut [T]>,
}

// SAFETY: `ptr`/`len` describe a slice borrowed mutably for `'a`; `get`
// hands out disjoint `&mut T`, one per index, so threads never share an
// element, and `T: Send` lets each one go to another thread.
unsafe impl<T: Send> Send for SliceIterMut<'_, T> {}
unsafe impl<T: Send> Sync for SliceIterMut<'_, T> {}

impl<'a, T: Send> ParallelIterator for SliceIterMut<'a, T> {
    type Item = &'a mut T;
    fn len(&self) -> usize {
        self.len
    }
    unsafe fn get(&self, index: usize) -> &'a mut T {
        // SAFETY: in bounds and requested once, so the borrows never alias.
        unsafe { &mut *self.ptr.add(index) }
    }
}

impl<'a, T: Send> IntoParallelIterator for &'a mut [T] {
    type Iter = SliceIterMut<'a, T>;
    type Item = &'a mut T;
    fn into_par_iter(self) -> SliceIterMut<'a, T> {
        SliceIterMut {
            ptr: self.as_mut_ptr(),
            len: self.len(),
            marker: PhantomData,
        }
    }
}

impl<'a, T: Send> IntoParallelIterator for &'a mut Vec<T> {
    type Iter = SliceIterMut<'a, T>;
    type Item = &'a mut T;
    fn into_par_iter(self) -> SliceIterMut<'a, T> {
        self.as_mut_slice().into_par_iter()
    }
}

/// Owning source: items are moved out by index; the buffer is freed on
/// drop without dropping items again (unfetched items leak, which only
/// happens when an item panicked).
pub struct VecIter<T> {
    items: Vec<ManuallyDrop<T>>,
}

// SAFETY: `items` is only read through `get`, which moves each `T` out on
// exactly one thread; `T: Send` is what that needs.
unsafe impl<T: Send> Sync for VecIter<T> {}

impl<T: Send> ParallelIterator for VecIter<T> {
    type Item = T;
    fn len(&self) -> usize {
        self.items.len()
    }
    unsafe fn get(&self, index: usize) -> T {
        // SAFETY: read once (the caller's contract) and never dropped in
        // place (`ManuallyDrop`), so the item is moved out exactly once.
        unsafe { std::ptr::read(&*self.items[index]) }
    }
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Iter = VecIter<T>;
    type Item = T;
    fn into_par_iter(self) -> VecIter<T> {
        let mut v = ManuallyDrop::new(self);
        // SAFETY: `ManuallyDrop<T>` is layout-compatible with `T`.
        let items = unsafe {
            Vec::from_raw_parts(
                v.as_mut_ptr().cast::<ManuallyDrop<T>>(),
                v.len(),
                v.capacity(),
            )
        };
        VecIter { items }
    }
}

pub struct ChunksIter<'a, T> {
    slice: &'a [T],
    size: usize,
}

impl<'a, T: Sync> ParallelIterator for ChunksIter<'a, T> {
    type Item = &'a [T];
    fn len(&self) -> usize {
        self.slice.len().div_ceil(self.size)
    }
    unsafe fn get(&self, index: usize) -> &'a [T] {
        let lo = index * self.size;
        &self.slice[lo..(lo + self.size).min(self.slice.len())]
    }
}

pub struct ChunksMutIter<'a, T> {
    ptr: *mut T,
    len: usize,
    size: usize,
    marker: PhantomData<&'a mut [T]>,
}

// SAFETY: as for `SliceIterMut`: `ptr`/`len` are a mutably borrowed slice,
// `get` hands out disjoint `&mut [T]` chunks, one per index.
unsafe impl<T: Send> Send for ChunksMutIter<'_, T> {}
unsafe impl<T: Send> Sync for ChunksMutIter<'_, T> {}

impl<'a, T: Send> ParallelIterator for ChunksMutIter<'a, T> {
    type Item = &'a mut [T];
    fn len(&self) -> usize {
        self.len.div_ceil(self.size)
    }
    unsafe fn get(&self, index: usize) -> &'a mut [T] {
        let lo = index * self.size;
        let n = self.size.min(self.len - lo);
        // SAFETY: chunks of distinct indices are disjoint and in bounds.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(lo), n) }
    }
}

// --- adapters ---------------------------------------------------------------

pub struct Map<I, F> {
    base: I,
    f: F,
}

impl<I, F, R> ParallelIterator for Map<I, F>
where
    I: ParallelIterator,
    F: Fn(I::Item) -> R + Send + Sync,
    R: Send,
{
    type Item = R;
    fn len(&self) -> usize {
        self.base.len()
    }
    unsafe fn get(&self, index: usize) -> R {
        // SAFETY: forwarded contract.
        (self.f)(unsafe { self.base.get(index) })
    }
}

pub struct Enumerate<I> {
    base: I,
}

impl<I: ParallelIterator> ParallelIterator for Enumerate<I> {
    type Item = (usize, I::Item);
    fn len(&self) -> usize {
        self.base.len()
    }
    unsafe fn get(&self, index: usize) -> (usize, I::Item) {
        // SAFETY: forwarded contract.
        (index, unsafe { self.base.get(index) })
    }
}

pub struct Zip<A, B> {
    a: A,
    b: B,
}

impl<A: ParallelIterator, B: ParallelIterator> ParallelIterator for Zip<A, B> {
    type Item = (A::Item, B::Item);
    fn len(&self) -> usize {
        self.a.len().min(self.b.len())
    }
    unsafe fn get(&self, index: usize) -> (A::Item, B::Item) {
        // SAFETY: forwarded contract; `index` is below both lengths.
        unsafe { (self.a.get(index), self.b.get(index)) }
    }
}
