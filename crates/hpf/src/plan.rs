//! Lowering access sets to cache-block ranges and optimization levels.
//!
//! [`lower`] is the one place a loop instance's sections become word
//! runs and block ranges: it returns a [`LoopPlan`], plain data that the
//! engine's default-protocol walk, the §4.2 contract, the message-passing
//! backend and the `-Minfo` report only read.
//! Each protocol's *schedule* — the default walk's covers,
//! [`ctl_schedule_into`], [`mp_schedule_into`]: who does what to whom, in order —
//! is a pure function of it kept beside it; backends only execute.
//!
//! A loop has one plan for the whole run, and one rule keeps it and its
//! schedules: each remembers the key of the inputs it was built from and
//! is rebuilt in place — `analysis::analyze_into`, `lower_into`, a
//! schedule by the same builder's `_into` form — exactly when that key
//! moves, so every vector keeps its storage and an instance allocates
//! nothing once the plan is warm.
//!
//! `shmem_limits` (§4.2, Figure 2A): a transfer section is linearized to
//! contiguous (or 2-D strided) virtual-address runs, and each run is
//! shrunk to the whole blocks strictly inside it. The whole blocks go
//! under compiler control; the head/tail *boundary* words stay with the
//! default protocol — this is what limits `grav` (small extents, edge
//! effects "pronounced at 128-byte blocksize") and late `lu` iterations.

use crate::analysis::{LoopAccess, Transfer};
use crate::dist::{ArrayId, Dist};
use crate::ir::{ParLoop, RefMode};
use fgdsm_protocol::{
    plan_flushes_into, plan_sends_into, Faults, FlushEntry, MpSendPlan, SendEntry, TransferPlan,
};
use fgdsm_section::{block_subset, ColumnMajor, LinearRanges, Section, StridedRange, Var};
use fgdsm_tempest::{Cluster, NodeId};
use std::cell::{Cell, Ref, RefCell};
use std::fmt;

/// Which of the paper's optimizations are enabled (Figure 4's ablation).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct OptLevel {
    /// Compiler-orchestrated sender-initiated transfers (§4.2). Off ⇒
    /// pure default protocol.
    pub ctl: bool,
    /// Bulk transfer: group contiguous blocks into large payloads (§4.2).
    pub bulk: bool,
    /// Run-time overhead elimination: drop `mk_writable` /
    /// `implicit_invalidate` and their barriers, memoize
    /// `implicit_writable` (§4.3).
    pub rtoe: bool,
    /// PRE-style redundant-communication elimination (§4.3 / future
    /// work): skip a transfer whose data is still valid at the reader.
    pub pre: bool,
}

impl OptLevel {
    /// No optimizations: the unoptimized shared-memory baseline.
    pub fn unopt() -> Self {
        OptLevel {
            ctl: false,
            bulk: false,
            rtoe: false,
            pre: false,
        }
    }

    /// Figure 4 "base optimizations": sender-initiated transfers only.
    pub fn base() -> Self {
        OptLevel {
            ctl: true,
            bulk: false,
            rtoe: false,
            pre: false,
        }
    }

    /// Figure 4 second bar: base + bulk transfer.
    pub fn base_bulk() -> Self {
        OptLevel {
            ctl: true,
            bulk: true,
            rtoe: false,
            pre: false,
        }
    }

    /// Figure 4 third bar (the paper's full optimization set): base +
    /// bulk + run-time overhead elimination.
    pub fn full() -> Self {
        OptLevel {
            ctl: true,
            bulk: true,
            rtoe: true,
            pre: false,
        }
    }

    /// Full plus the PRE-based redundant-communication elimination the
    /// paper leaves as future work.
    pub fn full_pre() -> Self {
        OptLevel {
            ctl: true,
            bulk: true,
            rtoe: true,
            pre: true,
        }
    }

    /// Every meaningful toggle combination: the unoptimized baseline plus
    /// all eight `ctl = true` settings of bulk × rtoe × pre (the other
    /// flags are dead when `ctl` is off). The differential-testing oracle
    /// walks this list.
    pub fn all_combos() -> Vec<Self> {
        let mut out = vec![OptLevel::unopt()];
        for bits in 0..8u8 {
            out.push(OptLevel {
                ctl: true,
                bulk: bits & 1 != 0,
                rtoe: bits & 2 != 0,
                pre: bits & 4 != 0,
            });
        }
        out
    }
}

/// Placement of one array in the global segment.
#[derive(Clone, Debug)]
pub struct ArrayMeta {
    pub id: ArrayId,
    /// Word offset of the array base (page-aligned).
    pub base: usize,
    pub layout: ColumnMajor,
    /// The distribution of its last dimension.
    pub dist: Dist,
}

impl ArrayMeta {
    /// Linearize a section of this array to absolute word runs in the
    /// global segment (total, like [`ColumnMajor::linearize`]).
    pub fn runs(&self, sec: &Section) -> LinearRanges {
        let mut lr = LinearRanges::empty();
        self.runs_into(sec, &mut lr);
        lr
    }

    /// [`ArrayMeta::runs`] into `out`, refilled in place.
    pub(crate) fn runs_into(&self, sec: &Section, out: &mut LinearRanges) {
        self.layout.linearize_into(sec, out);
        for r in &mut out.runs {
            r.base += self.base;
        }
    }

    /// Does every `wpb`-word block of this array lie inside it and hold
    /// words of one owner — is the unit of ownership (a column under
    /// CYCLIC, a chunk of columns under BLOCK) a whole number of blocks?
    /// Then [`ArrayMeta::owners_meet`] is false for each of its blocks.
    pub(crate) fn blocks_have_one_owner(&self, wpb: usize, nprocs: usize) -> bool {
        let last = self.layout.ndims() - 1;
        let (col, extent) = (self.layout.stride(last), self.layout.extents()[last]);
        let unit = match self.dist {
            Dist::Replicated => return false,
            Dist::Cyclic => col,
            Dist::Block => col * extent.div_ceil(nprocs),
        };
        [self.base, self.layout.len(), unit]
            .iter()
            .all(|w| w % wpb == 0)
    }

    /// Can ownership alone put two of `nprocs` nodes in the absolute
    /// words `[start, end)` (one cache block)? True if they reach outside
    /// this array, straddle an ownership boundary of its distributed last
    /// dimension, or the array is replicated (every node owns all of it).
    /// O(1): the owners of the first and the last word decide.
    pub fn owners_meet(&self, start: usize, end: usize, nprocs: usize) -> bool {
        if start < self.base || end > self.base + self.layout.len() {
            return true;
        }
        let last = self.layout.ndims() - 1;
        let (col, extent) = (self.layout.stride(last), self.layout.extents()[last]);
        let (j0, j1) = ((start - self.base) / col, (end - 1 - self.base) / col);
        match self.dist {
            Dist::Replicated => true,
            Dist::Cyclic => j0 != j1,
            Dist::Block => {
                let owner = |j: usize| self.dist.owner_of(j as i64, extent, nprocs);
                owner(j0) != owner(j1)
            }
        }
    }
}

/// The `shmem_limits` result for one transfer: whole-block ranges under
/// compiler control plus boundary word runs left to the default protocol.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CtlRanges {
    /// Block ranges `[first, end)` fully covered by the section.
    pub ctl: Vec<(usize, usize)>,
    /// Boundary word runs `(start_word, len)` not block-aligned.
    pub boundary: Vec<(usize, usize)>,
}

impl CtlRanges {
    /// Total blocks under compiler control.
    pub(crate) fn ctl_blocks(&self) -> usize {
        self.ctl.iter().map(|(f, e)| e - f).sum()
    }

    /// Total boundary words.
    pub(crate) fn boundary_words(&self) -> usize {
        self.boundary.iter().map(|(_, l)| l).sum()
    }
}

/// Apply `shmem_limits` to every run of a linearized section.
pub fn shmem_limits(runs: &LinearRanges, words_per_block: usize) -> CtlRanges {
    let mut out = CtlRanges::default();
    shmem_limits_into(runs, words_per_block, &mut out);
    out
}

/// [`shmem_limits`] into `out`, refilled in place.
fn shmem_limits_into(runs: &LinearRanges, words_per_block: usize, out: &mut CtlRanges) {
    let bs = words_per_block * 8;
    out.ctl.clear();
    out.boundary.clear();
    for (start, len) in runs.iter_runs() {
        if len == 0 {
            continue;
        }
        let sub = block_subset(start * 8, (start + len) * 8, bs);
        if sub.is_empty() {
            out.boundary.push((start, len));
            continue;
        }
        if sub.head_bytes > 0 {
            out.boundary.push((start, sub.head_bytes / 8));
        }
        out.ctl.push((sub.first_block, sub.end_block));
        if sub.tail_bytes > 0 {
            out.boundary
                .push((sub.end_block * words_per_block, sub.tail_bytes / 8));
        }
    }
    // Coalesce adjacent ctl ranges (several exactly-adjacent runs, e.g.
    // whole columns, merge into one range → one bulk train).
    merge_block_ranges(&mut out.ctl);
}

/// Blocks covered (fully or partially) by a set of word runs — the blocks
/// the *default* protocol must make accessible for the section.
pub fn covering_blocks(runs: &LinearRanges, words_per_block: usize) -> Vec<(usize, usize)> {
    let mut raw = Vec::new();
    push_cover(runs, words_per_block, &mut raw);
    merge_block_ranges(&mut raw);
    raw
}

/// Append the covering block ranges of `lr`'s runs to `out`, ascending
/// (a linearization's runs ascend by address).
fn push_cover(lr: &LinearRanges, wpb: usize, out: &mut Vec<(usize, usize)>) {
    let all = [(0, usize::MAX / wpb)];
    lr.runs.iter().for_each(|g| g.blocks_within(&all, wpb, out));
}

/// The block range `[first, end)` covering the `len > 0` words at `start`.
fn covering_range(start: usize, len: usize, words_per_block: usize) -> (usize, usize) {
    (
        start / words_per_block,
        (start + len).div_ceil(words_per_block),
    )
}

/// Sort `raw` block ranges and coalesce the overlapping and the adjacent,
/// in place.
pub(crate) fn merge_block_ranges(raw: &mut Vec<(usize, usize)>) {
    raw.sort_unstable();
    let mut n = 0; // raw[..n] is merged
    for i in 0..raw.len() {
        let (f, e) = raw[i];
        if n > 0 && f <= raw[n - 1].1 {
            raw[n - 1].1 = raw[n - 1].1.max(e);
        } else {
            raw[n] = (f, e);
            n += 1;
        }
    }
    raw.truncate(n);
}

/// Entry `n` of `list`, to be refilled in place: the one an earlier build
/// left there, or a new one. (The caller truncates `list` to what it
/// refilled.)
fn refill<T: Default>(list: &mut Vec<T>, n: usize) -> &mut T {
    if n == list.len() {
        list.push(T::default());
    }
    &mut list[n]
}

/// Does the ascending, coalesced `cover` hold block `b`?
fn covers(cover: &[(usize, usize)], b: usize) -> bool {
    let i = cover.partition_point(|&(_, e)| e <= b);
    i < cover.len() && cover[i].0 <= b
}

/// Storage a schedule builder clears and refills on every build and
/// reads nothing from between builds. It belongs to the schedule, so a
/// symbolic loop's next instance finds it warm, but it is no part of the
/// schedule's value: any two are equal, and it prints as `..`.
#[derive(Clone, Default)]
struct Scratch<T>(T);

impl<T> PartialEq for Scratch<T> {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl<T> Eq for Scratch<T> {}

impl<T> fmt::Debug for Scratch<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("..")
    }
}

/// One protocol's schedule in a [`LoopPlan`], kept under the key of the
/// inputs it was built from: `(plan version, input version)` — how often
/// the plan was evaluated, and a count that moves whenever an input
/// beyond the plan does (0 if there is none). Empty until the
/// backend that executes it first asks for it; refilled in place, by the
/// same builder, exactly when asked under a key other than the last
/// build's. A slot nobody asks for stays empty (`mp` never pays for
/// covers).
#[derive(Clone, Debug, Default)]
pub struct ScheduleSlot<T> {
    sched: RefCell<T>,
    key: Cell<(u64, u64)>,
    builds: Cell<u64>,
}

impl<T> ScheduleSlot<T> {
    /// The schedule as last built, if it ever was.
    pub fn get(&self) -> Option<Ref<'_, T>> {
        (self.builds() > 0).then(|| self.sched.borrow())
    }

    /// How often the slot was built or refilled.
    pub fn builds(&self) -> u64 {
        self.builds.get()
    }

    /// The schedule for `key`: the kept one if it was built under `key`,
    /// else first refilled in place by `fill`.
    pub(crate) fn get_or_fill(&self, key: (u64, u64), fill: impl FnOnce(&mut T)) -> Ref<'_, T> {
        if self.builds() == 0 || self.key.get() != key {
            fill(&mut self.sched.borrow_mut());
            self.key.set(key);
            self.builds.set(self.builds() + 1);
        }
        self.sched.borrow()
    }
}

/// What the default protocol must do before one loop instance's kernels
/// run: which blocks each node must be able to write and to read, and
/// which of them two nodes need at once. A node's *cover* in a mode (what
/// its runs touch, and its gathers) is not listed: the walk visits its
/// [`Reach::kept`] ranges and, inside its [`Reach::hulls`], the blocks
/// homed at it that it has lost, clipped to its runs. No access of the
/// rest of the cover faults: it is homed at the node and held.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ResolveSchedule {
    /// Per node: what its written sections reach…
    pub writes: Vec<Reach>,
    /// …and its read sections.
    pub reads: Vec<Reach>,
    /// False-shared blocks, ascending: written by two nodes, or written
    /// by one and read by another, in this loop instance. They take the
    /// multiple-writer (twin/diff) path.
    pub multi: Vec<usize>,
    scratch: Scratch<ResolveScratch>,
}

/// [`schedule_into`]'s working lists: the transfers' merged covers, and
/// per candidate the nodes that write it (low bits) and read it (high).
type ResolveScratch = (Vec<(usize, usize)>, Vec<u128>);

/// The blocks of one node's cover in one mode, as the walk takes them.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Reach {
    /// Block ranges `[first, end)` of the cover the walk visits whatever
    /// the node holds, ascending and coalesced: the blocks of its
    /// transfers (where it is the user), of pages it owns words of but is
    /// not home to, of its gathers (reads), and its false-shared blocks
    /// (writes). Every block of the cover not homed at the node is one.
    pub kept: Vec<(usize, usize)>,
    /// `(array, first, end)`: per array its references in this mode
    /// touch, the block hull of their runs.
    pub hulls: Vec<(usize, usize, usize)>,
}

/// `(owner, array, user, is_write)`: whose ctl ranges merge together.
type UserKey = (NodeId, usize, NodeId, bool);

/// [`ctl_schedule_into`]'s working lists.
#[derive(Clone, Default)]
struct CtlScratch {
    /// Every ctl range, by key.
    raw: Vec<(UserKey, (usize, usize))>,
    /// One key's ranges, merged.
    ranges: Vec<(usize, usize)>,
    /// `((owner, array, first, end), user)`: who is pushed what.
    pushes: Vec<((NodeId, usize, usize, usize), NodeId)>,
}

/// [`mp_schedule_into`]'s working lists.
#[derive(Clone, Default)]
struct MpScratch {
    /// Transfer indices, grouped by `(owner, array, section)`.
    grouped: Vec<usize>,
    /// `((owner, user), sequence, section)` of every pairwise send.
    pairwise: Vec<((NodeId, NodeId), usize, StridedRange)>,
}

/// The §4.2 contract of one loop instance as plain data
/// ([`ctl_schedule_into`]): every call of the conversation with its
/// arguments, in the order [`SmOpt`](crate::exec::sm_opt::SmOpt) makes
/// them. What depends on the run's state — which blocks an owner must
/// still acquire under run-time overhead elimination, whether a landing
/// range is memoized — the executor decides, call by call.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CtlSchedule {
    /// Phase A (`mk_writable`): `(owner, first, end)`, ascending.
    pub acquire: Vec<(NodeId, usize, usize)>,
    /// Phase B (`implicit_writable`): `(receiver, first, end)`, ascending.
    pub landing: Vec<(NodeId, usize, usize)>,
    /// Phase C: the merged `send_range` call sites, their per-pair plans…
    pub sends: Vec<SendEntry>,
    pub send_plans: Vec<TransferPlan>,
    /// …and who then waits on the counting semaphore, ascending.
    pub receivers: Vec<NodeId>,
    /// After the loop: the non-owner-write `flush_range` call sites, their
    /// plans…
    pub flushes: Vec<FlushEntry>,
    pub flush_plans: Vec<TransferPlan>,
    /// …and the `(receiver, first, end)` copies `implicit_invalidate`
    /// discards (skipped under run-time overhead elimination).
    pub invalidate: Vec<(NodeId, usize, usize)>,
    /// The `(array, blocks)` volumes behind the run's
    /// [`PlannedXfer`](crate::exec::PlannedXfer) records: the write-backs,
    /// then one copy of each pushed section per reader.
    pub planned: Vec<(usize, u64)>,
    /// Non-owner-read sections pushed, and skipped as still valid at
    /// their reader (the PRE counters' increments).
    pub reads_performed: u64,
    pub reads_skipped: u64,
    scratch: Scratch<CtlScratch>,
}

/// One section the message-passing runtime ships through its broadcast
/// tree: `owner` to all of `users`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MpBroadcast {
    pub owner: NodeId,
    pub users: Vec<NodeId>,
    pub sections: Vec<StridedRange>,
}

/// The message-passing resolve of one loop instance as plain data
/// ([`mp_schedule_into`]), in execution order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MpSchedule {
    /// Sections with three or more readers (e.g. `lu`'s pivot column), in
    /// transfer order.
    pub broadcasts: Vec<MpBroadcast>,
    /// Everything else, merged per (owner, user) pair, ascending.
    pub sends: Vec<MpSendPlan>,
    /// Every node a transfer reaches, ascending: each receives once.
    pub receivers: Vec<NodeId>,
    /// `(node, runs)` of every written section: pages a node maps by
    /// first touch.
    pub first_touch: Vec<(NodeId, StridedRange)>,
    scratch: Scratch<MpScratch>,
}

/// Everything one loop instance's sections lower to, as plain data
/// ([`lower`]). The engine keeps one per loop for the whole run,
/// re-evaluated in place (`lower_into`) when a variable its analysis
/// reads has moved, and nothing in it refers to the program, the cluster
/// or the instance that built it.
#[derive(Clone, Debug, Default)]
pub struct LoopPlan {
    /// The variables the loop's analysis reads (none for a static loop)
    /// and their values at the last evaluation: the plan's key.
    pub(crate) inputs: Vec<(Var, Option<i64>)>,
    /// Evaluations so far; the first half of every schedule's key.
    pub(crate) version: u64,
    /// The §4.1 access analysis the rest was lowered from.
    pub acc: LoopAccess,
    /// Per node, per reference: the absolute word runs of the section it
    /// touches. Empty for an indirect reference, whose section is only a
    /// conservative bound.
    pub runs: Vec<Vec<LinearRanges>>,
    /// The default-protocol schedule — `schedule_into` of `runs` plus the
    /// blocks indirect references gather — built by the first walk (`mp`
    /// never walks). Its input version is the write count of the loop's
    /// index arrays.
    pub sched: ScheduleSlot<ResolveSchedule>,
    /// Per transfer, in [`LoopPlan::transfers`] order: its word runs…
    pub xfer_runs: Vec<LinearRanges>,
    /// …and their `shmem_limits` split (empty for an indirect transfer,
    /// which must not be taken under compiler control).
    pub xfer_ctl: Vec<CtlRanges>,
    /// The §4.2 contract's schedule — [`ctl_schedule_into`] of `xfer_ctl` —
    /// built by `sm_opt`'s first resolve. Its input version is 0, or at a
    /// `pre` level the transfer cache's tick, which moves every instance.
    pub ctl: ScheduleSlot<CtlSchedule>,
    /// The message-passing schedule — [`mp_schedule_into`] of `xfer_runs` and
    /// `runs` — built by `mp`'s first resolve, with input version 0.
    pub mp: ScheduleSlot<MpSchedule>,
}

impl LoopPlan {
    /// The loop's transfers, non-owner reads then non-owner writes, each
    /// with whether it is a write.
    pub fn transfers(&self) -> impl Iterator<Item = (&Transfer, bool)> {
        let reads = self.acc.read_transfers.iter().map(|t| (t, false));
        reads.chain(self.acc.write_transfers.iter().map(|t| (t, true)))
    }
}

/// Lower one analyzed loop instance.
pub fn lower(l: &ParLoop, acc: LoopAccess, metas: &[ArrayMeta], wpb: usize) -> LoopPlan {
    let mut plan = LoopPlan {
        acc,
        ..LoopPlan::default()
    };
    lower_into(l, &mut plan, metas, wpb);
    plan
}

/// Lower `plan.acc` into the rest of `plan` — its runs, transfer runs and
/// `shmem_limits` splits — refilled in place. The schedules are left as
/// they are: a caller that re-evaluated the plan bumps its version. Never
/// inlined: it is the seam between analysis and every consumer of its
/// result, and its cost is paid once per static loop but every instance
/// of a symbolic one.
#[inline(never)]
pub(crate) fn lower_into(l: &ParLoop, plan: &mut LoopPlan, metas: &[ArrayMeta], wpb: usize) {
    let LoopPlan {
        acc,
        runs,
        xfer_runs,
        xfer_ctl,
        ..
    } = plan;
    runs.resize_with(acc.sections.len(), Vec::new);
    for (per_ref, secs) in runs.iter_mut().zip(&acc.sections) {
        per_ref.resize_with(l.refs.len(), LinearRanges::default);
        for ((lr, r), sec) in per_ref.iter_mut().zip(&l.refs).zip(secs) {
            match r.is_indirect() {
                true => lr.runs.clear(),
                false => metas[r.array.0].runs_into(sec, lr),
            }
        }
    }
    let n = acc.read_transfers.len() + acc.write_transfers.len();
    xfer_runs.resize_with(n, LinearRanges::default);
    xfer_ctl.resize_with(n, CtlRanges::default);
    let transfers = acc.read_transfers.iter().chain(&acc.write_transfers);
    for ((t, lr), cr) in transfers.zip(xfer_runs.iter_mut()).zip(xfer_ctl.iter_mut()) {
        metas[t.array].runs_into(&t.section, lr);
        match t.indirect {
            true => *cr = CtlRanges::default(),
            false => shmem_limits_into(lr, wpb, cr),
        }
    }
}

/// The default-protocol schedule of one lowered loop instance: its
/// per-(node, reference) `runs` plus, per node, the word offsets its
/// indirect references gather right now (`indirect`, empty when the loop
/// has none: a real DSM faults on demand, and the conservative section
/// would grossly over-fault), and `foreign`, per node the block ranges of
/// the pages it owns words of but is not home to, ascending.
///
/// A node's kept ranges are the covers of its direct transfers, of its
/// runs inside its foreign pages, and its gathered blocks; every block of
/// its cover outside them is homed at it (a word it does not own is a
/// transfer's, one it owns on a page homed elsewhere a foreign page's).
/// Its hulls are one per array it touches. Neither costs the runs of a
/// node's own pages, which is nearly all of them.
///
/// The false-shared blocks: a block written by two nodes contains a
/// section boundary of each, so it is an extremal block of a raw write
/// range of every writer; such extremal blocks are the *candidates*, as
/// they always were. A candidate is only tested if two nodes can meet in
/// it at all, which ownership decides (DESIGN §5c): its array is
/// replicated or the block straddles an ownership boundary
/// ([`ArrayMeta::owners_meet`]), or it lies in a block one of this
/// instance's transfers covers (`xfer_runs`). That is exact. If two nodes
/// write a block of one owner, one of them is a non-owner — a write
/// transfer. If one node writes it and another reads it, the reader is a
/// non-owner — a read transfer, an indirect gather's conservative one
/// included — or the writer is. Where no block of a written array has two
/// owners ([`ArrayMeta::blocks_have_one_owner`]) only the runs reaching
/// into a transfer's blocks are looked at, found in closed form per
/// group; so the test runs over a short list, usually empty, and costs
/// the instance its groups and transfers, not its runs. Each node's runs
/// say whether it touches a candidate. A false-shared block joins the
/// kept ranges of every node that writes it.
///
/// Written into `sched`, refilled in place.
pub(crate) fn schedule_into(
    l: &ParLoop,
    plan: &LoopPlan,
    indirect: &[Vec<usize>],
    foreign: &[Vec<(usize, usize)>],
    metas: &[ArrayMeta],
    wpb: usize,
    sched: &mut ResolveSchedule,
) {
    let nprocs = plan.runs.len();
    assert!(nprocs <= 64, "node masks support ≤64 nodes");
    let ResolveSchedule {
        writes,
        reads,
        multi: candidates,
        scratch: Scratch((xfer, masks)),
    } = sched;
    // `reach[0]` is the writes', `reach[1]` the reads'.
    let mut reach = [writes, reads];
    let side = |mode: RefMode| usize::from(mode == RefMode::Read);
    for of_mode in &mut reach {
        of_mode.resize_with(nprocs, Reach::default);
        for Reach { kept, hulls } in of_mode.iter_mut() {
            kept.clear();
            hulls.clear();
        }
    }
    xfer.clear();
    for ((t, is_write), lr) in plan.transfers().zip(&plan.xfer_runs) {
        push_cover(lr, wpb, xfer);
        if !t.indirect {
            push_cover(lr, wpb, &mut reach[usize::from(!is_write)][t.user].kept);
        }
    }
    merge_block_ranges(xfer);
    candidates.clear();
    for (p, per_ref) in plan.runs.iter().enumerate() {
        let refs = || l.refs.iter().zip(per_ref);
        // The extremal blocks of its write runs where two nodes can meet —
        // where no block of the array has two owners, of only the runs
        // that reach into a transfer's blocks.
        for (r, lr) in refs().filter(|(r, _)| r.mode == RefMode::Write) {
            let meta = &metas[r.array.0];
            let one_owner = meta.blocks_have_one_owner(wpb, nprocs);
            let meet = |&b: &usize| {
                covers(xfer, b) || !one_owner && meta.owners_meet(b * wpb, (b + 1) * wpb, nprocs)
            };
            let mut candidate = |start: usize, len: usize| {
                if len > 0 {
                    let (f, e) = covering_range(start, len, wpb);
                    candidates.extend([f, e - 1].into_iter().filter(meet));
                }
            };
            if one_owner {
                for g in &lr.runs {
                    for &(f, e) in xfer.iter() {
                        for i in g.runs_touching(f * wpb, e * wpb) {
                            candidate(g.base + i * g.stride, g.run_len);
                        }
                    }
                }
            } else {
                lr.iter_runs()
                    .for_each(|(start, len)| candidate(start, len));
            }
        }
        // Its hulls, and within them its runs' blocks of foreign pages.
        for (r, lr) in refs() {
            let (Some(first), Some(last)) = (lr.runs.first(), lr.runs.last()) else {
                continue;
            };
            let (f, e) = (first.base / wpb, last.end().div_ceil(wpb));
            let Reach { kept, hulls } = &mut reach[side(r.mode)][p];
            match hulls.iter_mut().find(|h| h.0 == r.array.0) {
                Some(h) => (h.1, h.2) = (h.1.min(f), h.2.max(e)),
                None => hulls.push((r.array.0, f, e)),
            }
            let pages = &foreign[p][foreign[p].partition_point(|&(_, end)| end <= f)..];
            let pages = &pages[..pages.partition_point(|&(first, _)| first < e)];
            lr.runs
                .iter()
                .for_each(|g| g.blocks_within(pages, wpb, kept));
        }
        if let Some(gathered) = indirect.get(p) {
            let kept = &mut reach[1][p].kept;
            kept.extend(gathered.iter().map(|&off| covering_range(off, 1, wpb)));
            merge_block_ranges(kept);
        }
    }
    // A candidate needs the multiple-writer (twin/diff) path if two or
    // more nodes write it, or if one node writes it while another reads
    // it in the same interval — in the real system the writer would
    // simply re-fault after the reader's downgrade; in the BSP engine the
    // writer must keep its writable copy through the read sub-phase.
    candidates.sort_unstable();
    candidates.dedup();
    masks.clear();
    masks.resize(candidates.len(), 0);
    for (q, per_ref) in plan.runs.iter().enumerate() {
        for (r, lr) in l.refs.iter().zip(per_ref) {
            for g in &lr.runs {
                let (f, e) = (g.base / wpb, g.end().div_ceil(wpb));
                let from = candidates.partition_point(|&b| b < f);
                let to = from + candidates[from..].partition_point(|&b| b < e);
                for (b, mask) in candidates[from..to].iter().zip(&mut masks[from..to]) {
                    if !g.runs_touching(b * wpb, (b + 1) * wpb).is_empty() {
                        *mask |= 1 << (q + 64 * side(r.mode));
                    }
                }
            }
        }
        if !indirect.is_empty() {
            for (&b, mask) in candidates.iter().zip(masks.iter_mut()) {
                *mask |= u128::from(covers(&reach[1][q].kept, b)) << (q + 64);
            }
        }
    }
    let mut masks = masks.iter().map(|&m| (m as u64, (m >> 64) as u64));
    candidates.retain(|&b| {
        let (w, r) = masks.next().expect("a mask per candidate");
        let multi = w.count_ones() >= 2 || (w != 0 && r & !w != 0);
        let writers = (0..nprocs).filter(|q| multi && w >> q & 1 != 0);
        writers.for_each(|q| reach[0][q].kept.push((b, b + 1)));
        multi
    });
    let all = reach.iter_mut().flat_map(|of_mode| of_mode.iter_mut());
    all.for_each(|r| merge_block_ranges(&mut r.kept));
}

/// Schedule the §4.2 contract of one lowered loop instance under the
/// run's constants: `cluster`'s geometry (block and bulk sizes, homes),
/// the armed faults ([`fgdsm_protocol::plan_sends`] applies them),
/// [`OptLevel::bulk`], and the tolerated `force_boundary` perturbation —
/// retreat each ctl range by one block per end, forcing the dropped
/// boundary blocks onto the default-protocol path (which runs after the
/// contract and covers every section). `still_valid` is the PRE filter —
/// is `(reader, array, first, end)` current at its reader from an earlier
/// delivery? — and the only input that is the run's state: without it
/// (always `false`) the schedule of a static loop never changes.
///
/// The ctl ranges of every transfer are collected per (owner, array,
/// user, read/write) and the overlapping and adjacent ones merged — two
/// stencil references to the same ghost column (e.g. `p(i,j-1)` and
/// `p(i-1,j-1)` in shallow's loop 100) produce almost-identical sections
/// that would otherwise be pushed twice. (An indirect transfer is
/// statically unanalyzable: its ctl ranges are empty and it is left to
/// the default protocol.) A non-owner write is pushed like a read and
/// flushed back after the loop.
///
/// `sched` is refilled in place: call sites and transfer plans in the
/// storage of the ones at their index.
pub fn ctl_schedule_into(
    plan: &LoopPlan,
    cluster: &Cluster,
    faults: Faults,
    bulk: bool,
    force_boundary: bool,
    mut still_valid: impl FnMut(NodeId, usize, usize, usize) -> bool,
    sched: &mut CtlSchedule,
) {
    let CtlSchedule {
        acquire,
        landing,
        sends,
        send_plans,
        receivers,
        flushes,
        flush_plans,
        invalidate,
        planned,
        reads_performed,
        reads_skipped,
        scratch:
            Scratch(CtlScratch {
                raw,
                ranges,
                pushes,
            }),
    } = sched;
    (*reads_performed, *reads_skipped) = (0, 0);
    flushes.clear();
    invalidate.clear();
    planned.clear();
    raw.clear();
    for ((t, is_write), cr) in plan.transfers().zip(&plan.xfer_ctl) {
        let key = (t.owner, t.array, t.user, is_write);
        raw.extend(cr.ctl.iter().map(|&range| (key, range)));
    }
    raw.sort_unstable();
    pushes.clear();
    for of_key in raw.chunk_by(|a, b| a.0 == b.0) {
        let (owner, array, user, is_write) = of_key[0].0;
        ranges.clear();
        ranges.extend(of_key.iter().map(|r| r.1));
        merge_block_ranges(ranges);
        for &(f, e) in ranges.iter() {
            let (f, e) = match force_boundary {
                true => (f + 1, e.saturating_sub(1)),
                false => (f, e),
            };
            if f >= e {
                continue;
            }
            if !is_write && still_valid(user, array, f, e) {
                *reads_skipped += 1;
                continue;
            }
            pushes.push(((owner, array, f, e), user));
            invalidate.push((user, f, e));
            if is_write {
                flushes.push(FlushEntry {
                    writer: user,
                    owner,
                    first: f,
                    end: e,
                    array: array as u32,
                });
                // The write-back is part of the planned section volume.
                planned.push((array, (e - f) as u64));
            } else {
                *reads_performed += 1;
            }
        }
    }
    // Per receiver, in the order above.
    invalidate.sort_by_key(|&(user, ..)| user);
    landing.clear();
    landing.extend_from_slice(invalidate);
    landing.sort_unstable();
    landing.dedup();
    receivers.clear();
    receivers.extend(landing.iter().map(|&(user, ..)| user));
    receivers.dedup();
    // One call site per (owner, array, range), pushing to all its users.
    pushes.sort_unstable();
    pushes.dedup();
    acquire.clear();
    let mut n = 0;
    for site in pushes.chunk_by(|a, b| a.0 == b.0) {
        let (owner, array, first, end) = site[0].0;
        // One copy of the section reaches every reader.
        let volume = ((end - first) * site.len()) as u64;
        planned.push((array, volume));
        acquire.push((owner, first, end));
        let en = refill(sends, n);
        (en.owner, en.first, en.end, en.array) = (owner, first, end, array as u32);
        en.readers.clear();
        en.readers.extend(site.iter().map(|s| s.1));
        n += 1;
    }
    sends.truncate(n);
    acquire.sort_unstable();
    acquire.dedup();
    plan_sends_into(cluster, faults, sends, bulk, send_plans);
    plan_flushes_into(cluster, flushes, bulk, flush_plans);
}

/// Schedule the message-passing resolve of one lowered loop instance:
/// one marshalled message per (owner → user, section) pair — except that
/// a section shipped from one owner to three or more readers goes
/// through the runtime's broadcast tree, once, on behalf of the whole
/// group, as `pghpf`'s runtime does.
///
/// `sched` is refilled in place: broadcast groups and send plans in the
/// storage of the ones at their index.
pub fn mp_schedule_into(l: &ParLoop, plan: &LoopPlan, sched: &mut MpSchedule) {
    let MpSchedule {
        broadcasts,
        sends,
        receivers,
        first_touch,
        scratch: Scratch(MpScratch { grouped, pairwise }),
    } = sched;
    let reads = &plan.acc.read_transfers;
    let nth = |i: usize| -> &Transfer {
        reads
            .get(i)
            .unwrap_or_else(|| &plan.acc.write_transfers[i - reads.len()])
    };
    // The users of each distinct (owner, array, section), in transfer
    // order: sorting the transfer indices by key, ties by index, brings a
    // group together.
    let key = |i: usize| {
        let t = nth(i);
        (t.owner, t.array, &t.section)
    };
    grouped.clear();
    grouped.extend(0..plan.xfer_runs.len());
    grouped.sort_unstable_by(|&a, &b| key(a).cmp(&key(b)).then(a.cmp(&b)));
    pairwise.clear();
    receivers.clear();
    let mut n = 0;
    for (i, runs) in plan.xfer_runs.iter().enumerate() {
        let t = nth(i);
        // The runtime's stride of a single run is 1, not 0.
        let sections = runs.runs.iter().map(|sr| StridedRange {
            stride: sr.stride.max(1),
            ..*sr
        });
        let start = grouped.partition_point(|&g| key(g) < key(i));
        let len = grouped[start..].partition_point(|&g| key(g) == key(i));
        let group = &grouped[start..start + len];
        if len < 3 {
            let seq = pairwise.len();
            let pair = (t.owner, t.user);
            pairwise.extend(sections.enumerate().map(|(k, sr)| (pair, seq + k, sr)));
        } else if nth(group[0]).user == t.user {
            let b = refill(broadcasts, n);
            b.owner = t.owner;
            b.users.clear();
            b.users.extend(group.iter().map(|&g| nth(g).user));
            b.sections.clear();
            b.sections.extend(sections);
            n += 1;
        }
        receivers.push(t.user);
    }
    broadcasts.truncate(n);
    receivers.sort_unstable();
    receivers.dedup();
    // Ties by sequence: a pair's sections stay in transfer order.
    pairwise.sort_unstable_by_key(|&(pair, seq, _)| (pair, seq));
    let mut n = 0;
    for of_pair in pairwise.chunk_by(|a, b| a.0 == b.0) {
        let ((src, dst), ..) = of_pair[0];
        let s = refill(sends, n);
        (s.src, s.dst) = (src, dst);
        s.sections.clear();
        s.sections.extend(of_pair.iter().map(|&(.., sr)| sr));
        n += 1;
    }
    sends.truncate(n);
    first_touch.clear();
    for (p, per_ref) in plan.runs.iter().enumerate() {
        for (r, lr) in l.refs.iter().zip(per_ref) {
            if r.mode == RefMode::Write {
                first_touch.extend(lr.runs.iter().map(|&sr| (p, sr)));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgdsm_section::{Range, StridedRange};

    fn runs_of(v: &[(usize, usize)]) -> LinearRanges {
        LinearRanges {
            runs: v
                .iter()
                .map(|&(base, run_len)| StridedRange {
                    base,
                    run_len,
                    stride: 0,
                    count: 1,
                })
                .collect(),
        }
    }

    #[test]
    fn shmem_limits_aligned_column() {
        // One run of 256 words starting block-aligned: all ctl, no boundary.
        let cr = shmem_limits(&runs_of(&[(256, 256)]), 16);
        assert_eq!(cr.ctl, vec![(16, 32)]);
        assert!(cr.boundary.is_empty());
        assert_eq!(cr.ctl_blocks(), 16);
    }

    #[test]
    fn shmem_limits_unaligned_has_boundaries() {
        // Run 10..300: head 10..16, ctl blocks 1..18, tail 288..300.
        let cr = shmem_limits(&runs_of(&[(10, 290)]), 16);
        assert_eq!(cr.ctl, vec![(1, 18)]);
        assert_eq!(cr.boundary, vec![(10, 6), (288, 12)]);
        assert_eq!(cr.boundary_words(), 18);
    }

    #[test]
    fn shmem_limits_tiny_run_all_boundary() {
        let cr = shmem_limits(&runs_of(&[(3, 8)]), 16);
        assert!(cr.ctl.is_empty());
        assert_eq!(cr.boundary, vec![(3, 8)]);
    }

    #[test]
    fn shmem_limits_merges_adjacent() {
        // Two adjacent aligned runs merge into one ctl range.
        let cr = shmem_limits(&runs_of(&[(0, 128), (128, 128)]), 16);
        assert_eq!(cr.ctl, vec![(0, 16)]);
    }

    #[test]
    fn covering_blocks_rounds_out() {
        let cb = covering_blocks(&runs_of(&[(10, 10)]), 16);
        assert_eq!(cb, vec![(0, 2)]);
        let cb2 = covering_blocks(&runs_of(&[(0, 16), (16, 16)]), 16);
        assert_eq!(cb2, vec![(0, 2)]);
        let cb3 = covering_blocks(&runs_of(&[(0, 8), (64, 8)]), 16);
        assert_eq!(cb3, vec![(0, 1), (4, 5)]);
    }

    #[test]
    fn meta_runs_shift_by_base() {
        let meta = ArrayMeta {
            id: ArrayId(0),
            base: 1024,
            layout: ColumnMajor::new(&[8, 8]),
            dist: Dist::Block,
        };
        let sec = Section::new(&[Range::new(0, 7), Range::new(2, 3)]);
        let lr = meta.runs(&sec);
        let runs: Vec<_> = lr.iter_runs().collect();
        assert_eq!(runs[0].0, 1024 + 16);
    }

    /// Two references to one ghost column make one transfer per reader,
    /// even when another transfer lies between them: `mp` ships it once,
    /// and its two readers stay two sends instead of filling a "three or
    /// more readers" broadcast group on their own (and emitting it twice).
    #[test]
    fn mp_schedule_ships_a_duplicated_ghost_read_once() {
        use crate::analysis::analyze;
        use crate::ir::{ARef, CompDist, Kernel, KernelCtx, Program, Stmt, Subscript};
        use fgdsm_section::{Affine, Env, SymRange};
        let mut b = Program::builder();
        // 12 columns over 3 nodes: node 0 owns 0..4, node 2 owns 8..12.
        let a = b.array("a", &[8, 12], Dist::Block);
        let c = b.array("c", &[8, 12], Dist::Block);
        let col = |j: i64| {
            ARef::read(
                a,
                vec![Subscript::loop_var(0), Subscript::At(Affine::constant(j))],
            )
        };
        let id = vec![Subscript::loop_var(0), Subscript::loop_var(1)];
        b.stmt(Stmt::Par(ParLoop {
            name: "twice",
            iter: vec![SymRange::new(0, 7), SymRange::new(0, 11)],
            dist: CompDist::Owner(c),
            refs: vec![col(0), col(11), col(0), ARef::write(c, id)],
            kernel: Kernel::new(|_: &mut KernelCtx| {}),
            cost_per_iter_ns: 1,
            reduction: None,
        }));
        let prog = b.build();
        let l = prog.par_loops()[0];
        let acc = analyze(&prog, l, &Env::new(), 3);
        let pairs: Vec<_> = acc
            .read_transfers
            .iter()
            .map(|t| (t.owner, t.user))
            .collect();
        assert_eq!(pairs, [(2, 0), (0, 1), (2, 1), (0, 2)]);
        let (_, metas, _) = crate::exec::engine::layout_arrays(&prog, 512);
        let mut sched = MpSchedule::default();
        mp_schedule_into(l, &lower(l, acc, &metas, 16), &mut sched);
        assert!(sched.broadcasts.is_empty(), "{:?}", sched.broadcasts);
        let sends: Vec<_> = sched
            .sends
            .iter()
            .map(|s| (s.src, s.dst, s.sections.len()))
            .collect();
        assert_eq!(sends, [(0, 1, 1), (0, 2, 1), (2, 0, 1), (2, 1, 1)]);
    }

    #[test]
    fn opt_level_presets() {
        assert!(!OptLevel::unopt().ctl);
        assert!(OptLevel::base().ctl && !OptLevel::base().bulk);
        assert!(OptLevel::base_bulk().bulk && !OptLevel::base_bulk().rtoe);
        assert!(OptLevel::full().rtoe && !OptLevel::full().pre);
        assert!(OptLevel::full_pre().pre);
    }
}
