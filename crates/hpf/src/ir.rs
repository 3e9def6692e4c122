//! The mini-HPF program representation.
//!
//! A [`Program`] is a set of distributed array declarations plus a
//! statement list of INDEPENDENT parallel loops, sequential time-step
//! loops, and replicated scalar assignments. Each parallel loop carries:
//!
//! * its iteration space (symbolic ranges — bounds may mention time-loop
//!   variables, as in `lu`'s triangular loops);
//! * a computation distribution (owner-computes on a named array, or a
//!   block partition of a loop dimension — the paper: "the compiler can
//!   use the INDEPENDENT directive to divide a loop in any fashion");
//! * the set of **array references with affine subscripts** that the
//!   access analysis consumes — this is exactly the information `pghpf`
//!   extracts from HPF source;
//! * a native kernel that performs the arithmetic, given resolved views.
//!
//! The declared references are the analysis's contract with the kernel: a
//! kernel must touch only elements covered by its references (the test
//! suite cross-validates optimized, unoptimized and sequential executions
//! to catch violations).

use crate::dist::{ArrayDecl, ArrayId};
use fgdsm_section::{Affine, Env, Range, SymRange, Var};
use fgdsm_tempest::ReduceOp;
use std::collections::BTreeMap;

/// One subscript position of an array reference.
#[derive(Clone, Debug)]
pub enum Subscript {
    /// Loop-index variable `iter[d]` plus a constant offset (stencils:
    /// `a(i, j-1)`).
    Loop(usize, i64),
    /// A single symbolic point (e.g. the pivot column `a(_, k)` in `lu`).
    At(Affine),
    /// An explicit symbolic range independent of loop variables
    /// (e.g. `a(k+1:n-1, k)`).
    Span(SymRange),
    /// The whole extent of this dimension.
    All,
    /// Indirect subscript: the index comes from element `idx(i₀ + c)` of
    /// another (1-D, owned-read) array — `x(idx(i))` gathers. Static
    /// analysis cannot bound these, so references containing one are never
    /// taken under compiler control (the paper's §7 future work: codes
    /// "that show a mix of simple affine array subscript and indirect
    /// array subscripts, and are not amenable to purely message-passing
    /// approaches"). The simulator resolves the actually-touched blocks
    /// with an inspector over the index array at run time.
    Indirect(ArrayId, i64),
}

impl Subscript {
    /// The loop variable `iter[d]` with no offset.
    pub fn loop_var(d: usize) -> Self {
        Subscript::Loop(d, 0)
    }

    /// Resolve to a concrete range given this node's iteration ranges, the
    /// environment, and the dimension extent.
    pub fn resolve(&self, iter: &[Range], env: &Env, extent: usize) -> Range {
        match self {
            Subscript::Loop(d, c) => {
                let r = iter[*d];
                if r.is_empty() {
                    Range::empty()
                } else {
                    Range::strided(r.lo + c, r.hi + c, r.stride)
                }
            }
            Subscript::At(a) => {
                let x = a.eval(env);
                Range::new(x, x)
            }
            Subscript::Span(sr) => sr.eval(env),
            // Conservative: an indirect subscript may reach anywhere.
            Subscript::All | Subscript::Indirect(..) => Range::new(0, extent as i64 - 1),
        }
    }

    /// True for indirect (statically unanalyzable) subscripts.
    pub fn is_indirect(&self) -> bool {
        matches!(self, Subscript::Indirect(..))
    }
}

impl ARef {
    /// True if any subscript is indirect — the reference is then excluded
    /// from compiler-controlled communication.
    pub fn is_indirect(&self) -> bool {
        self.subs.iter().any(Subscript::is_indirect)
    }
}

/// Read or write access.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RefMode {
    Read,
    Write,
}

/// One array reference in a parallel loop.
#[derive(Clone, Debug)]
pub struct ARef {
    pub array: ArrayId,
    pub subs: Vec<Subscript>,
    pub mode: RefMode,
}

impl ARef {
    /// A read reference.
    pub fn read(array: ArrayId, subs: Vec<Subscript>) -> Self {
        ARef {
            array,
            subs,
            mode: RefMode::Read,
        }
    }

    /// A write reference.
    pub fn write(array: ArrayId, subs: Vec<Subscript>) -> Self {
        ARef {
            array,
            subs,
            mode: RefMode::Write,
        }
    }
}

/// How a parallel loop's iterations are divided among processors.
#[derive(Clone, Debug)]
pub enum CompDist {
    /// Owner-computes on the given array: the loop variable appearing in
    /// the array's distributed (last) dimension subscript is partitioned
    /// by that array's owner ranges.
    Owner(ArrayId),
    /// BLOCK partition of loop dimension `d` across processors.
    BlockDim(usize),
    /// Every iteration executes on the owner of the array's distributed
    /// index given by the affine expression (e.g. `lu`'s pivot-column
    /// scaling, which only the owner of column `k` performs — an ON HOME
    /// directive in HPF terms).
    OwnerOfIndex(ArrayId, Affine),
}

/// Reduction carried by a parallel loop: kernels accumulate into
/// `KernelCtx::partial`; the combined value is stored in the named
/// replicated scalar.
#[derive(Clone, Copy, Debug)]
pub struct ReduceSpec {
    pub op: ReduceOp,
    pub target: &'static str,
}

/// Resolved metadata handed to kernels for address computation.
#[derive(Clone, Copy, Debug)]
pub struct ArrayHandle {
    /// Word offset of the array base in the node's segment copy.
    pub base: usize,
    extents: [usize; 3],
    strides: [usize; 3],
    ndims: usize,
}

impl ArrayHandle {
    /// Build a handle from a base offset and the array's extents.
    pub fn new(base: usize, extents: &[usize]) -> Self {
        assert!((1..=3).contains(&extents.len()), "1-3 dimensional arrays");
        let mut ext = [1usize; 3];
        let mut strides = [0usize; 3];
        let mut s = 1;
        for (d, &e) in extents.iter().enumerate() {
            ext[d] = e;
            strides[d] = s;
            s *= e;
        }
        ArrayHandle {
            base,
            extents: ext,
            strides,
            ndims: extents.len(),
        }
    }

    /// Number of words the array occupies from `base`.
    fn len(&self) -> usize {
        self.extents.iter().product()
    }

    /// Debug builds only: a negative or out-of-extent index would wrap
    /// (`-1 as usize`) and silently name a neighbouring column.
    #[inline(always)]
    fn debug_check(&self, at: &[i64]) {
        debug_assert_eq!(self.ndims, at.len());
        for (d, &x) in at.iter().enumerate() {
            debug_assert!(
                x >= 0 && (x as usize) < self.extents[d],
                "index {x} outside dim-{d} extent {}",
                self.extents[d]
            );
        }
    }

    /// Word offset of `a(i)`.
    #[inline(always)]
    pub fn at1(&self, i: i64) -> usize {
        self.debug_check(&[i]);
        self.base + i as usize
    }

    /// Word offset of `a(i, j)`.
    #[inline(always)]
    pub fn at2(&self, i: i64, j: i64) -> usize {
        self.debug_check(&[i, j]);
        self.base + i as usize + j as usize * self.strides[1]
    }

    /// Word offset of `a(i, j, k)`.
    #[inline(always)]
    pub fn at3(&self, i: i64, j: i64, k: i64) -> usize {
        self.debug_check(&[i, j, k]);
        self.base + i as usize + j as usize * self.strides[1] + k as usize * self.strides[2]
    }
}

/// One array's words in a node's segment, borrowed disjointly from every
/// other array's by [`KernelCtx::views`]. A kernel reads and writes it a
/// dense dim-0 **run** at a time: [`run`](Self::run) /
/// [`run_mut`](Self::run_mut) check the run against the array's extents
/// once and hand back a slice, so the loop over the run carries no
/// per-point bounds check and — the written slice being a `&mut` the
/// read slices cannot alias — vectorizes. Any number of read runs of one
/// view may overlap (a stencil's `i-1` / `i+1`); a kernel that reads and
/// writes *different* parts of one array splits the view first
/// ([`split_last`](Self::split_last)).
pub struct ArrayView<'a> {
    id: ArrayId,
    words: &'a mut [f64],
    extents: [usize; 3],
    ndims: usize,
    /// The indices of the last dimension `words` covers (`lo..hi`): the
    /// whole extent until the view is split.
    last: (usize, usize),
}

impl ArrayView<'_> {
    /// Offset into `words` of the run of `len` elements along dim 0
    /// starting at `at`, after checking the run against the extents (and
    /// the part of the last dimension this view covers).
    #[inline]
    fn offset<const D: usize>(&self, at: [i64; D], len: usize) -> usize {
        assert_eq!(D, self.ndims, "array #{}: {D} subscripts", self.id.0);
        let mut off = 0;
        let mut stride = 1;
        for (d, &x) in at.iter().enumerate() {
            // The run occupies `x..x+len` of dim 0, one index elsewhere.
            let n = if d == 0 { len } else { 1 };
            let (from, to) = if d + 1 == D {
                self.last
            } else {
                (0, self.extents[d])
            };
            let inside = x >= from as i64 && (x as usize).checked_add(n).is_some_and(|e| e <= to);
            if !inside {
                self.outside(d, x, n);
            }
            off += (x as usize - from) * stride;
            stride *= self.extents[d];
        }
        off
    }

    #[cold]
    #[inline(never)]
    fn outside(&self, d: usize, x: i64, n: usize) -> ! {
        let (lo, hi) = self.last;
        let split = if d + 1 == self.ndims && (lo, hi) != (0, self.extents[d]) {
            format!(" (this half of the split view covers {lo}..{hi})")
        } else {
            String::new()
        };
        panic!(
            "array #{}: run of {n} from index {x} leaves dim-{d} extent {}{split}",
            self.id.0, self.extents[d]
        );
    }

    /// The `len` elements `a(i0.., j[, k])` as a shared slice.
    #[inline]
    pub fn run<const D: usize>(&self, at: [i64; D], len: usize) -> &[f64] {
        let off = self.offset(at, len);
        &self.words[off..off + len]
    }

    /// The `len` elements `a(i0.., j[, k])` as an exclusive slice.
    #[inline]
    pub fn run_mut<const D: usize>(&mut self, at: [i64; D], len: usize) -> &mut [f64] {
        let off = self.offset(at, len);
        &mut self.words[off..off + len]
    }

    /// Split along the last dimension (columns of a 2-D array, planes of
    /// a 3-D one) into the parts before and from index `at` — for the
    /// in-place kernel that reads one column while writing another
    /// (`lu`: pivot column `k` read, columns `j > k` written). Both halves
    /// keep the array's own indices; a run outside its half panics.
    pub fn split_last(&mut self, at: i64) -> (ArrayView<'_>, ArrayView<'_>) {
        let (lo, hi) = self.last;
        assert!(
            at >= lo as i64 && at as usize <= hi,
            "array #{}: split at {at} outside {lo}..{hi}",
            self.id.0
        );
        let at = at as usize;
        let per_index: usize = self.extents[..self.ndims - 1].iter().product();
        let (below, above) = self.words.split_at_mut((at - lo) * per_index);
        let half = |words, last| ArrayView {
            id: self.id,
            words,
            extents: self.extents,
            ndims: self.ndims,
            last,
        };
        (half(below, (lo, at)), half(above, (at, hi)))
    }
}

/// Execution context passed to kernels: the node's segment memory, its
/// iteration sub-ranges, the symbolic environment, replicated scalars and
/// the reduction accumulator.
///
/// A kernel whose innermost loop is dense in dim 0 walks **runs**: it
/// takes its iteration ranges, borrows one [`ArrayView`] per array it
/// names, and loops over slices —
///
/// ```ignore
/// let ((i0, n), cols) = (ctx.dense(0), ctx.iter[1]);
/// let [a, mut b] = ctx.views([A, B]);
/// for j in cols.iter() {
///     let (w, e) = (a.run([i0 - 1, j], n), a.run([i0 + 1, j], n));
///     let (s, nn) = (a.run([i0, j - 1], n), a.run([i0, j + 1], n));
///     let out = b.run_mut([i0, j], n);
///     for x in 0..n {
///         out[x] = 0.25 * (w[x] + e[x] + s[x] + nn[x]);
///     }
/// }
/// ```
///
/// — with the same element order and the same accumulation order as the
/// per-point form, so results stay bit-identical. Per-point access
/// (`ctx.mem[ctx.h(A).at2(i, j)]`) remains for what has no dense run:
/// indirect gathers, a strided dim 0, data-driven subscripts.
pub struct KernelCtx<'a> {
    /// This node's copy of the whole shared segment.
    pub mem: &'a mut [f64],
    /// Concrete per-dimension iteration ranges assigned to this node.
    pub iter: &'a [Range],
    /// Bindings of time-loop and problem symbolics.
    pub env: &'a Env,
    /// Replicated scalar values (reduction results etc.).
    pub scalars: &'a BTreeMap<&'static str, f64>,
    /// Reduction accumulator (combined across nodes per `ReduceSpec`).
    pub partial: f64,
    /// Executing node id.
    pub node: usize,
    /// Number of nodes.
    pub nprocs: usize,
    pub(crate) handles: &'a [ArrayHandle],
}

impl KernelCtx<'_> {
    /// Address-computation handle for an array.
    #[inline(always)]
    pub fn h(&self, id: ArrayId) -> ArrayHandle {
        self.handles[id.0]
    }

    /// Iteration range `d` as `(first index, count)`; it must be dense.
    pub fn dense(&self, d: usize) -> (i64, usize) {
        let r = self.iter[d];
        assert_eq!(r.stride, 1, "loop dimension {d} is strided: {r}");
        (r.lo, r.count() as usize)
    }

    /// Borrow the named arrays as disjoint views of this node's segment.
    /// Arrays never share a word (each is allocated on its own pages), so
    /// the split is by array extent alone; naming one array twice panics.
    pub fn views<const N: usize>(&mut self, ids: [ArrayId; N]) -> [ArrayView<'_>; N] {
        let handles = ids.map(|id| (id, self.handles[id.0]));
        let words = self
            .mem
            .get_disjoint_mut(handles.map(|(_, h)| h.base..h.base + h.len()))
            .unwrap_or_else(|e| panic!("views of {ids:?}: {e}"));
        let mut handles = handles.into_iter();
        words.map(|words| {
            let (id, h) = handles.next().expect("one handle per slice");
            ArrayView {
                id,
                words,
                extents: h.extents,
                ndims: h.ndims,
                last: (0, h.extents[h.ndims - 1]),
            }
        })
    }

    /// Value of a replicated scalar.
    pub fn scalar(&self, name: &str) -> f64 {
        *self
            .scalars
            .get(name)
            .unwrap_or_else(|| panic!("unknown scalar `{name}`"))
    }

    /// Value of a symbolic variable.
    pub fn sym(&self, v: Var) -> i64 {
        self.env
            .get(v)
            .unwrap_or_else(|| panic!("unbound symbolic `{v}`"))
    }
}

/// A compiled loop-body kernel: pure array arithmetic over the resolved
/// context. Wraps a shared closure, so program builders (and generators)
/// can capture array ids, extents or coefficients; cloning is cheap
/// (`Arc`) and kernels cross the compute-phase thread boundary
/// (`Send + Sync`). Plain `fn` items coerce, so `Kernel::new(my_kernel)`
/// works for the static-kernel style the apps use.
#[derive(Clone)]
pub struct Kernel(std::sync::Arc<dyn Fn(&mut KernelCtx) + Send + Sync>);

impl Kernel {
    /// Wrap a closure (or `fn` item) as a kernel.
    pub fn new(f: impl Fn(&mut KernelCtx) + Send + Sync + 'static) -> Self {
        Kernel(std::sync::Arc::new(f))
    }

    /// Run the kernel over one node's resolved context.
    pub fn call(&self, ctx: &mut KernelCtx) {
        (self.0)(ctx)
    }
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Kernel(..)")
    }
}

impl<F: Fn(&mut KernelCtx) + Send + Sync + 'static> From<F> for Kernel {
    fn from(f: F) -> Self {
        Kernel::new(f)
    }
}

/// Kernel function type: the plain-`fn` form of a kernel body, still
/// convertible into [`Kernel`] via `Kernel::new` / `.into()`.
pub type KernelFn = fn(&mut KernelCtx);

/// Scalar update function: computes a new replicated scalar from the
/// current scalar table.
pub type ScalarFn = fn(&BTreeMap<&'static str, f64>) -> f64;

/// An INDEPENDENT parallel loop.
#[derive(Clone)]
pub struct ParLoop {
    pub name: &'static str,
    /// Iteration space, one symbolic range per loop dimension.
    pub iter: Vec<SymRange>,
    pub dist: CompDist,
    pub refs: Vec<ARef>,
    pub kernel: Kernel,
    /// Virtual compute cost per iteration point, in ns (calibrated per
    /// kernel to 66 MHz HyperSPARC throughput).
    pub cost_per_iter_ns: u64,
    pub reduction: Option<ReduceSpec>,
}

impl ParLoop {
    /// The symbolic variables the loop's *analysis* depends on: variables
    /// in the iteration bounds, in affine subscripts, and in an ON-HOME
    /// owner expression. A loop with none (the common stencil case) has a
    /// fixed access structure — the compiler analyzes it once, at compile
    /// time; loops like `lu`'s (bounds in `k`) re-evaluate per iteration,
    /// "invoking the code-fragments with the values of symbolic
    /// variables" as the paper's Omega-generated code does.
    pub fn analysis_vars(&self) -> std::collections::BTreeSet<Var> {
        let mut vars = std::collections::BTreeSet::new();
        let mut add_affine = |a: &Affine| vars.extend(a.vars());
        for sr in &self.iter {
            add_affine(&sr.lo);
            add_affine(&sr.hi);
        }
        for r in &self.refs {
            for s in &r.subs {
                match s {
                    Subscript::At(a) => vars.extend(a.vars()),
                    Subscript::Span(sr) => {
                        vars.extend(sr.lo.vars());
                        vars.extend(sr.hi.vars());
                    }
                    Subscript::Loop(..) | Subscript::All | Subscript::Indirect(..) => {}
                }
            }
        }
        if let CompDist::OwnerOfIndex(_, a) = &self.dist {
            vars.extend(a.vars());
        }
        vars
    }

    /// True if the access structure is compile-time constant.
    pub fn is_static(&self) -> bool {
        self.analysis_vars().is_empty()
    }
}

impl std::fmt::Debug for ParLoop {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParLoop")
            .field("name", &self.name)
            .field("iter", &self.iter)
            .field("refs", &self.refs.len())
            .finish()
    }
}

/// A statement in the program body.
#[derive(Clone, Debug)]
pub enum Stmt {
    /// An INDEPENDENT parallel loop (one BSP superstep).
    Par(ParLoop),
    /// A sequential time-step loop binding `var` to `0..count`.
    Time {
        var: Var,
        count: i64,
        body: Vec<Stmt>,
    },
    /// Replicated scalar assignment, computed identically on every node.
    Scalar { name: &'static str, f: ScalarFn },
}

/// A complete mini-HPF program.
#[derive(Clone, Debug)]
pub struct Program {
    pub arrays: Vec<ArrayDecl>,
    pub body: Vec<Stmt>,
    /// Initial values of replicated scalars.
    pub scalars: Vec<(&'static str, f64)>,
}

/// Every parallel loop in a statement list, in program order (recursing
/// into `Time` bodies). The position of a loop in this list is its
/// profiler loop id — the engine and report consumers must agree on it,
/// so they both walk through here.
pub fn par_loops_of(stmts: &[Stmt]) -> Vec<&ParLoop> {
    fn walk<'a>(stmts: &'a [Stmt], out: &mut Vec<&'a ParLoop>) {
        for s in stmts {
            match s {
                Stmt::Par(l) => out.push(l),
                Stmt::Time { body, .. } => walk(body, out),
                Stmt::Scalar { .. } => {}
            }
        }
    }
    let mut out = Vec::new();
    walk(stmts, &mut out);
    out
}

impl Program {
    /// Start building a program.
    pub fn builder() -> ProgramBuilder {
        ProgramBuilder::default()
    }

    /// Look up an array declaration.
    pub fn array(&self, id: ArrayId) -> &ArrayDecl {
        &self.arrays[id.0]
    }

    /// Total bytes of distributed array data (Table 2's "Memory" column).
    pub fn memory_bytes(&self) -> usize {
        self.arrays.iter().map(ArrayDecl::bytes).sum()
    }

    /// Iterate over every parallel loop in the body (recursively).
    pub fn par_loops(&self) -> Vec<&ParLoop> {
        par_loops_of(&self.body)
    }

    /// Validate structural invariants (dimensions match, ids in range).
    pub fn validate(&self) -> Result<(), String> {
        for l in self.par_loops() {
            for r in &l.refs {
                let a = self
                    .arrays
                    .get(r.array.0)
                    .ok_or_else(|| format!("loop {}: unknown array id {:?}", l.name, r.array))?;
                if r.subs.len() != a.extents.len() {
                    return Err(format!(
                        "loop {}: ref to `{}` has {} subscripts, array has {} dims",
                        l.name,
                        a.name,
                        r.subs.len(),
                        a.extents.len()
                    ));
                }
                for s in &r.subs {
                    if let Subscript::Loop(d, _) = s {
                        if *d >= l.iter.len() {
                            return Err(format!(
                                "loop {}: subscript uses loop dim {d} but loop has {} dims",
                                l.name,
                                l.iter.len()
                            ));
                        }
                    }
                    if let Subscript::Indirect(idx, _) = s {
                        if r.mode == RefMode::Write {
                            return Err(format!(
                                "loop {}: indirect writes (scatter) are not supported",
                                l.name
                            ));
                        }
                        if r.subs.len() != 1 || a.extents.len() != 1 {
                            return Err(format!(
                                "loop {}: indirect references must be 1-D gathers x(idx(i))",
                                l.name
                            ));
                        }
                        let idecl = self
                            .arrays
                            .get(idx.0)
                            .ok_or_else(|| format!("loop {}: unknown index array", l.name))?;
                        if idecl.extents.len() != 1 {
                            return Err(format!(
                                "loop {}: index array `{}` must be 1-D",
                                l.name, idecl.name
                            ));
                        }
                    }
                }
            }
            if let CompDist::Owner(a) = &l.dist {
                self.find_partition_var(l, *a)
                    .map_err(|e| format!("loop {}: {e}", l.name))?;
            }
        }
        Ok(())
    }

    /// For owner-computes loops: which loop variable indexes the
    /// distributed dimension of the partition array, and with what offset.
    pub fn find_partition_var(&self, l: &ParLoop, a: ArrayId) -> Result<(usize, i64), String> {
        let decl = &self.arrays[a.0];
        let last = decl.extents.len() - 1;
        for r in &l.refs {
            if r.array == a {
                if let Subscript::Loop(d, c) = r.subs[last] {
                    return Ok((d, c));
                }
            }
        }
        Err(format!(
            "no reference to partition array `{}` with a loop-variable subscript in its distributed dimension",
            decl.name
        ))
    }
}

/// Builder for [`Program`].
#[derive(Default)]
pub struct ProgramBuilder {
    arrays: Vec<ArrayDecl>,
    body: Vec<Stmt>,
    scalars: Vec<(&'static str, f64)>,
}

impl ProgramBuilder {
    /// Declare a distributed array; returns its id.
    pub fn array(
        &mut self,
        name: &'static str,
        extents: &[usize],
        dist: crate::dist::Dist,
    ) -> ArrayId {
        let id = ArrayId(self.arrays.len());
        self.arrays.push(ArrayDecl {
            name,
            extents: extents.to_vec(),
            dist,
        });
        id
    }

    /// Declare a replicated scalar with an initial value.
    pub fn scalar(&mut self, name: &'static str, init: f64) -> &mut Self {
        self.scalars.push((name, init));
        self
    }

    /// Append a statement.
    pub fn stmt(&mut self, s: Stmt) -> &mut Self {
        self.body.push(s);
        self
    }

    /// Finish, validating the program.
    pub fn build(self) -> Program {
        let p = Program {
            arrays: self.arrays,
            body: self.body,
            scalars: self.scalars,
        };
        if let Err(e) = p.validate() {
            panic!("invalid program: {e}");
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::Dist;

    fn noop_kernel(_: &mut KernelCtx) {}

    #[test]
    fn subscript_resolution() {
        let iter = [Range::new(5, 10), Range::new(0, 3)];
        let env = Env::new().bind(Var("k"), 7);
        assert_eq!(
            Subscript::Loop(0, -1).resolve(&iter, &env, 100),
            Range::new(4, 9)
        );
        assert_eq!(
            Subscript::At(Affine::var(Var("k"))).resolve(&iter, &env, 100),
            Range::new(7, 7)
        );
        assert_eq!(Subscript::All.resolve(&iter, &env, 12), Range::new(0, 11));
        assert_eq!(
            Subscript::Span(SymRange::new(Affine::var(Var("k")).plus_const(1), 99))
                .resolve(&iter, &env, 100),
            Range::new(8, 99)
        );
    }

    #[test]
    fn handle_addressing_column_major() {
        let h = ArrayHandle::new(100, &[8, 6]);
        assert_eq!(h.at2(0, 0), 100);
        assert_eq!(h.at2(1, 0), 101);
        assert_eq!(h.at2(0, 1), 108);
        let h3 = ArrayHandle::new(0, &[4, 4, 4]);
        assert_eq!(h3.at3(1, 2, 3), 1 + 8 + 48);
    }

    /// In debug builds a stencil offset that leaves the array fails at
    /// the access; it used to wrap and name `a(n-1, j-1)`.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "index -1 outside dim-0 extent 8")]
    fn negative_point_index_is_caught_in_debug() {
        ArrayHandle::new(100, &[8, 6]).at2(-1, 2);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "index 6 outside dim-1 extent 6")]
    fn point_index_past_the_extent_is_caught_in_debug() {
        ArrayHandle::new(100, &[8, 6]).at2(0, 6);
    }

    const PAGE: usize = 64;

    /// A context over a fresh segment holding arrays of the given
    /// extents, each on its own pages as `layout_arrays` places them,
    /// every word holding its own address.
    fn with_ctx<R>(extents: &[&[usize]], iter: &[Range], f: impl FnOnce(&mut KernelCtx) -> R) -> R {
        let mut base = 0;
        let handles: Vec<ArrayHandle> = extents
            .iter()
            .map(|e| {
                let h = ArrayHandle::new(base, e);
                base = (base + h.len()).next_multiple_of(PAGE);
                h
            })
            .collect();
        let mut mem: Vec<f64> = (0..base).map(|w| w as f64).collect();
        let mut ctx = KernelCtx {
            mem: &mut mem,
            iter,
            env: &Env::new(),
            scalars: &BTreeMap::new(),
            partial: 0.0,
            node: 0,
            nprocs: 1,
            handles: &handles,
        };
        f(&mut ctx)
    }

    const IDS: [ArrayId; 3] = [ArrayId(0), ArrayId(1), ArrayId(2)];

    #[test]
    fn views_are_disjoint_and_tile_the_array_extents() {
        // 40, 8×6 and 4×3×5 words: none fills its last page.
        with_ctx(&[&[40], &[8, 6], &[4, 3, 5]], &[], |ctx| {
            let [mut a, mut b, mut c] = ctx.views(IDS);
            a.run_mut([0], 40).fill(-1.0);
            for j in 0..6 {
                b.run_mut([0, j], 8).fill(-2.0);
            }
            for k in 0..5 {
                for j in 0..3 {
                    c.run_mut([0, j, k], 4).fill(-3.0);
                }
            }
            // Every word of every array was reachable through exactly its
            // own view, and the padding between arrays through none.
            let handles = ctx.handles;
            for (w, &v) in ctx.mem.iter().enumerate() {
                let owner = handles
                    .iter()
                    .position(|h| (h.base..h.base + h.len()).contains(&w));
                match owner {
                    Some(k) => assert_eq!(v, -(k as f64 + 1.0), "word {w}"),
                    None => assert_eq!(v, w as f64, "padding word {w}"),
                }
            }
        });
    }

    #[test]
    #[should_panic(expected = "views of [ArrayId(1), ArrayId(1)]")]
    fn one_array_cannot_be_viewed_twice() {
        with_ctx(&[&[40], &[8, 6]], &[], |ctx| {
            ctx.views([ArrayId(1), ArrayId(1)]);
        });
    }

    #[test]
    fn read_runs_of_one_view_may_overlap() {
        with_ctx(&[&[8, 6]], &[], |ctx| {
            let [a] = ctx.views([ArrayId(0)]);
            // A stencil's `i-1` and `i+1` runs share all but two words.
            let (up, down) = (a.run([0, 2], 6), a.run([2, 2], 6));
            assert_eq!(up[2..], down[..4]);
            assert_eq!((up[0], down[5]), (16.0, 23.0));
        });
    }

    #[test]
    fn a_run_3d_matches_at3_word_for_word() {
        with_ctx(&[&[40], &[4, 3, 5]], &[], |ctx| {
            let h = ctx.h(ArrayId(1));
            let [c] = ctx.views([ArrayId(1)]);
            for k in 0..5 {
                for j in 0..3 {
                    for (i0, len) in [(0, 4), (1, 3), (3, 1), (2, 0)] {
                        let want: Vec<f64> = (i0..i0 + len as i64)
                            .map(|i| h.at3(i, j, k) as f64)
                            .collect();
                        assert_eq!(c.run([i0, j, k], len), want);
                    }
                }
            }
        });
    }

    #[test]
    fn split_halves_keep_the_arrays_own_indices() {
        with_ctx(&[&[8, 6]], &[], |ctx| {
            let [mut a] = ctx.views([ArrayId(0)]);
            let (left, mut right) = a.split_last(3);
            // lu's shape: read column 2 while writing column 4.
            let (src, dst) = (left.run([1, 2], 7), right.run_mut([1, 4], 7));
            dst.copy_from_slice(src);
            assert_eq!(a.run([0, 4], 8), [32.0, 17., 18., 19., 20., 21., 22., 23.]);
        });
    }

    #[test]
    #[should_panic(expected = "array #0: run of 1 from index 3 leaves dim-1 extent 6 \
                               (this half of the split view covers 0..3)")]
    fn a_column_on_the_other_side_of_the_split_panics() {
        with_ctx(&[&[8, 6]], &[], |ctx| {
            let [mut a] = ctx.views([ArrayId(0)]);
            let (left, _right) = a.split_last(3);
            left.run([0, 3], 8);
        });
    }

    #[test]
    #[should_panic(expected = "this half of the split view covers 0..20")]
    fn a_run_straddling_the_split_panics() {
        with_ctx(&[&[40]], &[], |ctx| {
            let [mut a] = ctx.views([ArrayId(0)]);
            let (left, _right) = a.split_last(20);
            left.run([18], 4);
        });
    }

    #[test]
    #[should_panic(expected = "array #1: run of 4 from index -1 leaves dim-0 extent 8")]
    fn a_run_starting_before_the_array_panics() {
        with_ctx(&[&[40], &[8, 6]], &[], |ctx| {
            let [b] = ctx.views([ArrayId(1)]);
            b.run([-1, 2], 4);
        });
    }

    #[test]
    #[should_panic(expected = "array #1: run of 4 from index 5 leaves dim-0 extent 8")]
    fn a_run_past_the_end_of_dim_0_panics() {
        // In bounds of the segment, and of the array: it would read on
        // into the next column.
        with_ctx(&[&[40], &[8, 6]], &[], |ctx| {
            let [b] = ctx.views([ArrayId(1)]);
            b.run([5, 2], 4);
        });
    }

    #[test]
    #[should_panic(expected = "array #1: run of 1 from index 6 leaves dim-1 extent 6")]
    fn an_outer_index_past_its_extent_panics() {
        with_ctx(&[&[40], &[8, 6]], &[], |ctx| {
            let [mut b] = ctx.views([ArrayId(1)]);
            b.run_mut([0, 6], 8);
        });
    }

    #[test]
    #[should_panic(expected = "array #0: run of 1 from index -1 leaves dim-2 extent 5")]
    fn a_negative_outer_index_panics() {
        with_ctx(&[&[4, 3, 5]], &[], |ctx| {
            let [c] = ctx.views([ArrayId(0)]);
            c.run([0, 1, -1], 4);
        });
    }

    /// One stencil-plus-reduction kernel written per point and by runs
    /// leaves bit-equal memory and a bit-equal sum.
    #[test]
    fn a_kernel_by_runs_equals_the_same_kernel_per_point() {
        const A: ArrayId = ArrayId(0);
        const B: ArrayId = ArrayId(1);
        let (n, m) = (37, 11);
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        let mut random = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let noise: Vec<f64> = (0..n * m).map(|_| random() * 1e3).collect();
        let run_with = |kernel: fn(&mut KernelCtx)| {
            let iter = [Range::new(1, n as i64 - 2), Range::new(1, m as i64 - 2)];
            with_ctx(&[&[n, m], &[n, m]], &iter, |ctx| {
                ctx.mem[..n * m].copy_from_slice(&noise);
                kernel(ctx);
                let bits: Vec<u64> = ctx.mem.iter().map(|v| v.to_bits()).collect();
                (bits, ctx.partial.to_bits())
            })
        };
        fn per_point(ctx: &mut KernelCtx) {
            let (a, b) = (ctx.h(A), ctx.h(B));
            let mut acc = 0.0;
            for j in ctx.iter[1].iter() {
                for i in ctx.iter[0].iter() {
                    let v = 0.3 * ctx.mem[a.at2(i, j)]
                        + 0.1 * (ctx.mem[a.at2(i - 1, j)] + ctx.mem[a.at2(i, j + 1)]);
                    ctx.mem[b.at2(i, j)] = v;
                    acc += v * v;
                }
            }
            ctx.partial = acc;
        }
        fn by_runs(ctx: &mut KernelCtx) {
            let ((i0, n), cols) = (ctx.dense(0), ctx.iter[1]);
            let [a, mut b] = ctx.views([A, B]);
            let mut acc = 0.0;
            for j in cols.iter() {
                let (c, up, right) = (
                    a.run([i0, j], n),
                    a.run([i0 - 1, j], n),
                    a.run([i0, j + 1], n),
                );
                let out = b.run_mut([i0, j], n);
                for x in 0..n {
                    out[x] = 0.3 * c[x] + 0.1 * (up[x] + right[x]);
                    acc += out[x] * out[x];
                }
            }
            ctx.partial = acc;
        }
        assert_eq!(run_with(per_point), run_with(by_runs));
    }

    #[test]
    fn builder_and_validate() {
        let mut b = Program::builder();
        let a = b.array("a", &[16, 32], Dist::Block);
        b.stmt(Stmt::Par(ParLoop {
            name: "touch",
            iter: vec![SymRange::new(0, 15), SymRange::new(0, 31)],
            dist: CompDist::Owner(a),
            refs: vec![ARef::write(
                a,
                vec![Subscript::loop_var(0), Subscript::loop_var(1)],
            )],
            kernel: Kernel::new(noop_kernel),
            cost_per_iter_ns: 100,
            reduction: None,
        }));
        let p = b.build();
        assert_eq!(p.par_loops().len(), 1);
        assert_eq!(p.memory_bytes(), 16 * 32 * 8);
        let (d, c) = p.find_partition_var(p.par_loops()[0], a).unwrap();
        assert_eq!((d, c), (1, 0));
    }

    #[test]
    #[should_panic(expected = "invalid program")]
    fn mismatched_subscripts_rejected() {
        let mut b = Program::builder();
        let a = b.array("a", &[16, 32], Dist::Block);
        b.stmt(Stmt::Par(ParLoop {
            name: "bad",
            iter: vec![SymRange::new(0, 15)],
            dist: CompDist::BlockDim(0),
            refs: vec![ARef::read(a, vec![Subscript::loop_var(0)])], // 1 sub, 2 dims
            kernel: Kernel::new(noop_kernel),
            cost_per_iter_ns: 1,
            reduction: None,
        }));
        b.build();
    }

    #[test]
    fn time_loop_nesting_found() {
        let mut b = Program::builder();
        let a = b.array("a", &[8, 8], Dist::Block);
        let inner = Stmt::Par(ParLoop {
            name: "inner",
            iter: vec![SymRange::new(0, 7), SymRange::new(0, 7)],
            dist: CompDist::Owner(a),
            refs: vec![ARef::write(
                a,
                vec![Subscript::loop_var(0), Subscript::loop_var(1)],
            )],
            kernel: Kernel::new(noop_kernel),
            cost_per_iter_ns: 1,
            reduction: None,
        });
        b.stmt(Stmt::Time {
            var: Var("t"),
            count: 10,
            body: vec![inner],
        });
        let p = b.build();
        assert_eq!(p.par_loops().len(), 1);
    }
}
