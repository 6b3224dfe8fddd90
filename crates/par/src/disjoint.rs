//! One `&mut [T]` shared by the tasks of a parallel loop, each of which
//! writes only the parts that no other task touches: a histogram row per
//! chunk, a span per bucket or part.

use std::marker::PhantomData;
use std::ops::Range;

/// A mutable slice the tasks of one loop share.  It borrows the slice
/// for its lifetime, so nothing else reads, moves or frees the slice
/// while a task may write it; [`range`](Self::range) checks a whole
/// part's bounds once, [`write`](Self::write) one element's in debug.
pub struct DisjointSlice<'a, T> {
    ptr: *mut T,
    len: usize,
    _slice: PhantomData<&'a mut [T]>,
}

// SAFETY: the elements are reached only through `range` and `write`,
// whose callers guarantee that no two threads reach the same element;
// `T: Send` lets another thread write them.
unsafe impl<T: Send> Sync for DisjointSlice<'_, T> {}

impl<'a, T> DisjointSlice<'a, T> {
    /// Share `slice` for as long as the handle lives.
    pub fn new(slice: &'a mut [T]) -> Self {
        let (ptr, len) = (slice.as_mut_ptr(), slice.len());
        DisjointSlice {
            ptr,
            len,
            _slice: PhantomData,
        }
    }

    /// The elements `range`; panics unless it lies inside the slice.
    /// # Safety
    /// No other live reference may reach an element of `range`.
    #[expect(clippy::mut_from_ref, reason = "the `# Safety` contract")]
    pub unsafe fn range(&self, range: Range<usize>) -> &mut [T] {
        assert!(
            range.start <= range.end && range.end <= self.len,
            "{range:?} out of bounds"
        );
        // SAFETY: in bounds by the assert, unaliased by the contract.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(range.start), range.len()) }
    }

    /// Store `value` at `i`.
    /// # Safety
    /// `i` must be in bounds, and no other thread may reach element `i`.
    #[inline]
    pub unsafe fn write(&self, i: usize, value: T) {
        debug_assert!(i < self.len, "{i} out of bounds");
        // SAFETY: in bounds and unaliased by the contract.
        unsafe { *self.ptr.add(i) = value };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel_for_chunked;

    #[test]
    fn tasks_fill_their_own_ranges() {
        let mut data = vec![0u32; 1_000];
        let shared = DisjointSlice::new(&mut data);
        parallel_for_chunked(0, 10, 1, |_, parts| {
            for p in parts {
                // SAFETY: part `p` alone owns elements `100 p..100 (p + 1)`.
                let mine = unsafe { shared.range(p * 100..(p + 1) * 100) };
                for (i, x) in mine.iter_mut().enumerate() {
                    *x = (p * 100 + i) as u32;
                }
            }
        });
        let odd = DisjointSlice::new(&mut data[..]);
        parallel_for_chunked(0, 500, 7, |_, range| {
            for i in range {
                // SAFETY: each index is written by its own iteration.
                unsafe { odd.write(2 * i + 1, 0) };
            }
        });
        let want: Vec<u32> = (0..1_000).map(|i| if i % 2 == 1 { 0 } else { i }).collect();
        assert_eq!(data, want);
    }

    #[test]
    #[should_panic(expected = "2..5 out of bounds")]
    fn a_range_past_the_end_panics() {
        let mut data = [0u8; 4];
        let shared = DisjointSlice::new(&mut data);
        // SAFETY: no other reference exists; the call panics first.
        let _ = unsafe { shared.range(2..5) };
    }
}
