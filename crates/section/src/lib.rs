//! # fgdsm-section: an "omega-lite" array-section algebra
//!
//! The paper (Chandra & Larus, PPoPP 1997, §4.1) uses the Omega library to
//! compute, for every distributed array referenced in a parallel loop, the
//! *non-owner-read* and *non-owner-write* sets — the array sections a
//! processor touches but does not own. Omega emits C code fragments that are
//! invoked at run time with the values of symbolic variables to produce the
//! concrete bounds of each access set.
//!
//! This crate reproduces exactly the subset of that machinery the paper
//! relies on:
//!
//! * [`Affine`] — affine expressions over named symbolic variables
//!   (processor id, problem sizes, time-loop indices such as `lu`'s pivot
//!   column `k`);
//! * [`SymRange`] — strided ranges with symbolic bounds, the compile-time
//!   artifact the planner builds once per loop dimension;
//! * [`Range`] / [`Section`] — concrete integer sections obtained by
//!   evaluating the symbolic form under an [`Env`], supporting
//!   intersection, difference, and cardinality (the run-time half of
//!   Omega's generated code);
//! * [`layout`] — column-major (Fortran) linearization of sections into
//!   contiguous or 2-D strided virtual-address ranges, as required by the
//!   paper's restriction to "array sections that form contiguous virtual
//!   addresses" plus "two-dimensional sections, represented as contiguous
//!   ranges separated by a fixed stride";
//! * [`blocks`] — the multi-word-cache-block subsetting of §3/§4.2
//!   (`shmem_limits`): shrink a byte range to whole blocks strictly inside
//!   it, leaving boundary blocks to the default coherence protocol.

#![forbid(unsafe_code)]

pub mod affine;
pub mod blocks;
pub mod layout;
pub mod pieces;
pub mod range;
pub mod section;

pub use affine::{Affine, Env, Var};
pub use blocks::{block_subset, BlockSubset};
pub use layout::{ColumnMajor, LinearRanges, StridedRange};
pub use pieces::Pieces;
pub use range::{Range, SymRange};
pub use section::{Section, MAX_RANK};
