//! A short list of set-operation pieces, kept inline.
//!
//! The difference of two ranges is at most two ranges — except for the
//! enumerating fallback of [`Range::subtract`](crate::Range::subtract)
//! (incongruent mixed strides), which may produce more. [`Pieces`] holds
//! up to `N` without touching the heap and moves to it only past that, so
//! the run-time half of the §4.1 analysis, which subtracts owner ranges
//! on the distributed dimension, allocates nothing per operation.

use std::ops::Deref;

/// Up to `N` pieces inline; more spill to a `Vec` (which then holds all).
#[derive(Clone, Debug)]
pub struct Pieces<T: Copy + Default, const N: usize> {
    len: usize,
    inline: [T; N],
    spill: Vec<T>,
}

impl<T: Copy + Default, const N: usize> Default for Pieces<T, N> {
    fn default() -> Self {
        Pieces {
            len: 0,
            inline: [T::default(); N],
            spill: Vec::new(),
        }
    }
}

impl<T: Copy + Default, const N: usize> Pieces<T, N> {
    /// Append a piece.
    pub(crate) fn push(&mut self, x: T) {
        if self.spill.is_empty() && self.len < N {
            self.inline[self.len] = x;
            self.len += 1;
        } else {
            if self.spill.is_empty() {
                self.spill.extend_from_slice(&self.inline);
            }
            self.spill.push(x);
        }
    }
}

impl<T: Copy + Default, const N: usize> Extend<T> for Pieces<T, N> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        iter.into_iter().for_each(|x| self.push(x));
    }
}

impl<T: Copy + Default, const N: usize> Deref for Pieces<T, N> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        match self.spill.is_empty() {
            true => &self.inline[..self.len],
            false => &self.spill,
        }
    }
}

impl<'a, T: Copy + Default, const N: usize> IntoIterator for &'a Pieces<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_then_spill_keeps_order() {
        let mut p: Pieces<u32, 2> = Pieces::default();
        assert!(p.is_empty());
        p.push(1);
        p.push(2);
        assert_eq!(*p, [1, 2]);
        p.push(3);
        p.push(4);
        assert_eq!(*p, [1, 2, 3, 4]);
    }
}
