//! HPF data distributions and the owner relation (§4.1).
//!
//! The paper's simplifying assumption, kept here: "only the last dimension
//! of a global array is distributed (either blockwise or cyclically) on a
//! linear arrangement of processors". The *owner* of element `a(..., j)`
//! is the processor the distribution logically places column/plane `j` on
//! — distinct from the *home* node of the underlying page, which Tempest
//! assigns independently.

use fgdsm_section::{ColumnMajor, Range, Section};

/// Distribution of an array's last dimension over processors.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Dist {
    /// `(*,...,BLOCK)`: contiguous chunks of ⌈N/P⌉ columns per processor.
    Block,
    /// `(*,...,CYCLIC)`: column `j` on processor `j mod P`.
    Cyclic,
    /// Replicated: every processor logically owns the whole array (used
    /// for small read-mostly arrays); no non-owner sets arise.
    Replicated,
}

impl Dist {
    /// Owner of index `j` of a distributed dimension of `extent` indices
    /// on `nprocs` processors.
    pub(crate) fn owner_of(self, j: i64, extent: usize, nprocs: usize) -> usize {
        debug_assert!(j >= 0 && (j as usize) < extent);
        match self {
            Dist::Block => j as usize / extent.div_ceil(nprocs),
            Dist::Cyclic => (j as usize) % nprocs,
            Dist::Replicated => 0,
        }
    }
}

/// Identifier of a distributed array inside a [`crate::ir::Program`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ArrayId(pub usize);

/// Declaration of one distributed array.
#[derive(Clone, Debug)]
pub struct ArrayDecl {
    pub name: &'static str,
    pub extents: Vec<usize>,
    pub dist: Dist,
}

impl ArrayDecl {
    /// Column-major layout of the array.
    pub(crate) fn layout(&self) -> ColumnMajor {
        ColumnMajor::new(&self.extents)
    }

    /// Total elements.
    pub fn len(&self) -> usize {
        self.extents.iter().product()
    }

    /// True if the array has no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Extent of the distributed (last) dimension.
    pub(crate) fn dist_extent(&self) -> usize {
        *self.extents.last().expect("arrays have ≥1 dimension")
    }

    /// The range of last-dimension indices processor `p` of `nprocs` owns.
    pub fn owner_range(&self, p: usize, nprocs: usize) -> Range {
        let n = self.dist_extent() as i64;
        match self.dist {
            Dist::Block => {
                let chunk = (n + nprocs as i64 - 1) / nprocs as i64;
                let lo = p as i64 * chunk;
                let hi = ((p as i64 + 1) * chunk - 1).min(n - 1);
                if lo > hi {
                    Range::empty()
                } else {
                    Range::new(lo, hi)
                }
            }
            Dist::Cyclic => {
                if (p as i64) >= n {
                    Range::empty()
                } else {
                    let last = p as i64 + ((n - 1 - p as i64) / nprocs as i64) * nprocs as i64;
                    Range::strided(p as i64, last, nprocs as i64)
                }
            }
            Dist::Replicated => Range::new(0, n - 1),
        }
    }

    /// The full section processor `p` owns: all of every dimension except
    /// the distributed last one.
    pub fn owner_section(&self, p: usize, nprocs: usize) -> Section {
        let mut s: Section = self
            .extents
            .iter()
            .map(|&e| Range::new(0, e as i64 - 1))
            .collect();
        *s.dims_mut().last_mut().unwrap() = self.owner_range(p, nprocs);
        s
    }

    /// Owner of last-dimension index `j`.
    pub fn owner_of(&self, j: i64, nprocs: usize) -> usize {
        self.dist.owner_of(j, self.dist_extent(), nprocs)
    }

    /// Bytes of memory the array occupies (for Table 2).
    pub(crate) fn bytes(&self) -> usize {
        self.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arr(dist: Dist, extents: &[usize]) -> ArrayDecl {
        ArrayDecl {
            name: "a",
            extents: extents.to_vec(),
            dist,
        }
    }

    #[test]
    fn block_owner_ranges_partition() {
        let a = arr(Dist::Block, &[16, 100]);
        let mut total = 0;
        for p in 0..8 {
            let r = a.owner_range(p, 8);
            total += r.count();
            for j in r.iter() {
                assert_eq!(a.owner_of(j, 8), p);
            }
        }
        assert_eq!(total, 100);
    }

    #[test]
    fn block_uneven_tail() {
        let a = arr(Dist::Block, &[4, 10]);
        // chunk = ceil(10/4) = 3: p0:0-2 p1:3-5 p2:6-8 p3:9
        assert_eq!(a.owner_range(0, 4), Range::new(0, 2));
        assert_eq!(a.owner_range(3, 4), Range::new(9, 9));
        let a2 = arr(Dist::Block, &[4, 8]);
        // chunk = 2, all even
        assert_eq!(a2.owner_range(3, 4), Range::new(6, 7));
    }

    #[test]
    fn cyclic_owner_ranges_partition() {
        let a = arr(Dist::Cyclic, &[8, 37]);
        let mut total = 0;
        for p in 0..8 {
            let r = a.owner_range(p, 8);
            total += r.count();
            for j in r.iter() {
                assert_eq!(a.owner_of(j, 8), p);
            }
        }
        assert_eq!(total, 37);
        assert_eq!(a.owner_range(0, 8), Range::strided(0, 32, 8));
        assert_eq!(a.owner_range(4, 8), Range::strided(4, 36, 8));
    }

    #[test]
    fn owner_section_shape() {
        let a = arr(Dist::Block, &[16, 100]);
        let s = a.owner_section(2, 4);
        assert_eq!(s.dims()[0], Range::new(0, 15));
        assert_eq!(s.dims()[1], Range::new(50, 74));
    }

    #[test]
    fn replicated_owns_everything() {
        let a = arr(Dist::Replicated, &[8, 8]);
        for p in 0..4 {
            assert_eq!(a.owner_range(p, 4).count(), 8);
        }
    }

    #[test]
    fn more_procs_than_columns() {
        let a = arr(Dist::Block, &[4, 3]);
        // chunk = 1: p0,p1,p2 own one column; p3 owns none.
        assert!(a.owner_range(3, 4).is_empty());
        assert_eq!(a.owner_range(2, 4), Range::new(2, 2));
    }
}
