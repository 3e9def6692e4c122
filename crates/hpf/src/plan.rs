//! Lowering access sets to cache-block ranges and optimization levels.
//!
//! [`lower`] is the one place a loop instance's sections become word
//! runs and block ranges: it returns a [`LoopPlan`], plain data that the
//! engine's default-protocol walk, the §4.2 contract, the message-passing
//! backend and the `-Minfo` report only read.
//! Each protocol's *schedule* — the default walk's covers,
//! [`ctl_schedule`], [`mp_schedule`]: who does what to whom, in order —
//! is a pure function of it kept beside it; backends only execute.
//!
//! `shmem_limits` (§4.2, Figure 2A): a transfer section is linearized to
//! contiguous (or 2-D strided) virtual-address runs, and each run is
//! shrunk to the whole blocks strictly inside it. The whole blocks go
//! under compiler control; the head/tail *boundary* words stay with the
//! default protocol — this is what limits `grav` (small extents, edge
//! effects "pronounced at 128-byte blocksize") and late `lu` iterations.

use crate::analysis::{LoopAccess, Transfer};
use crate::dist::ArrayId;
use crate::ir::{ARef, ParLoop, RefMode};
use fgdsm_protocol::{
    plan_flushes, plan_sends, FlushEntry, Injection, MpSendPlan, SendEntry, TransferPlan,
};
use fgdsm_section::{block_subset, ColumnMajor, LinearRanges, Section, StridedRange};
use fgdsm_tempest::{Cluster, NodeId};
use std::cell::OnceCell;

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
}

impl ArrayMeta {
    /// Linearize a section of this array to absolute word runs in the
    /// global segment (total, like [`ColumnMajor::linearize`]).
    pub fn runs(&self, sec: &Section) -> LinearRanges {
        let mut lr = self.layout.linearize(sec);
        for r in &mut lr.runs {
            r.base += self.base;
        }
        lr
    }

    /// Absolute word offset of an element.
    pub fn offset(&self, index: &[i64]) -> usize {
        self.base + self.layout.offset(index)
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
    pub fn ctl_blocks(&self) -> usize {
        self.ctl.iter().map(|(f, e)| e - f).sum()
    }

    /// Total boundary words.
    pub fn boundary_words(&self) -> usize {
        self.boundary.iter().map(|(_, l)| l).sum()
    }
}

/// Apply `shmem_limits` to every run of a linearized section.
pub fn shmem_limits(runs: &LinearRanges, words_per_block: usize) -> CtlRanges {
    let bs = words_per_block * 8;
    let mut out = CtlRanges::default();
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
    out.ctl = merge_block_ranges(&mut out.ctl);
    out
}

/// Blocks covered (fully or partially) by a set of word runs — the blocks
/// the *default* protocol must make accessible for the section.
pub fn covering_blocks(runs: &LinearRanges, words_per_block: usize) -> Vec<(usize, usize)> {
    let mut raw: Vec<(usize, usize)> = runs
        .iter_runs()
        .filter(|&(_, len)| len > 0)
        .map(|(start, len)| covering_range(start, len, words_per_block))
        .collect();
    merge_block_ranges(&mut raw)
}

/// The block range `[first, end)` covering the `len > 0` words at `start`.
fn covering_range(start: usize, len: usize, words_per_block: usize) -> (usize, usize) {
    (
        start / words_per_block,
        (start + len).div_ceil(words_per_block),
    )
}

/// Sort `raw` block ranges and coalesce the overlapping and the adjacent
/// (in place, then copied out at their exact size: covers live as long
/// as a cached plan does).
fn merge_block_ranges(raw: &mut [(usize, usize)]) -> Vec<(usize, usize)> {
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
    raw[..n].to_vec()
}

/// What the default protocol must do before one loop instance's kernels
/// run: which blocks each node must be able to write and to read, and
/// which of them two nodes need at once.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ResolveSchedule {
    /// Per node: the merged block ranges `[first, end)` covering its
    /// written sections, ascending.
    pub wcover: Vec<Vec<(usize, usize)>>,
    /// Per node: the same for its read sections.
    pub rcover: Vec<Vec<(usize, usize)>>,
    /// False-shared blocks, ascending: written by two nodes, or written
    /// by one and read by another, in this loop instance. They take the
    /// multiple-writer (twin/diff) path.
    pub multi: Vec<usize>,
}

/// The §4.2 contract of one loop instance as plain data
/// ([`ctl_schedule`]): every call of the conversation with its
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
}

/// One section the message-passing runtime ships through its broadcast
/// tree: `owner` to all of `users`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MpBroadcast {
    pub owner: NodeId,
    pub users: Vec<NodeId>,
    pub sections: Vec<StridedRange>,
}

/// The message-passing resolve of one loop instance as plain data
/// ([`mp_schedule`]), in execution order.
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
}

/// Everything one loop instance's sections lower to, as plain data
/// ([`lower`]). The engine keeps one per static loop; nothing in it
/// refers to the program, the cluster or the instance that built it.
#[derive(Clone, Debug, Default)]
pub struct LoopPlan {
    /// The §4.1 access analysis the rest was lowered from.
    pub acc: LoopAccess,
    /// Per node, per reference: the absolute word runs of the section it
    /// touches. Empty for an indirect reference, whose section is only a
    /// conservative bound.
    pub runs: Vec<Vec<LinearRanges>>,
    /// The default-protocol schedule of the non-indirect references —
    /// [`schedule`] of `runs`, filled in by the first walk (`mp` never
    /// walks, and a loop with an indirect reference rebuilds its own).
    pub sched: OnceCell<ResolveSchedule>,
    /// Per transfer, in [`LoopPlan::transfers`] order: its word runs…
    pub xfer_runs: Vec<LinearRanges>,
    /// …and their `shmem_limits` split (empty for an indirect transfer,
    /// which must not be taken under compiler control).
    pub xfer_ctl: Vec<CtlRanges>,
    /// The §4.2 contract's schedule — [`ctl_schedule`] of `xfer_ctl`,
    /// filled in by `sm_opt`'s first resolve (a `pre` level, whose filter
    /// is the run's state, rebuilds its own every instance).
    pub ctl: OnceCell<CtlSchedule>,
    /// The message-passing schedule — [`mp_schedule`] of `xfer_runs` and
    /// `runs`, filled in by `mp`'s first resolve.
    pub mp: OnceCell<MpSchedule>,
}

impl LoopPlan {
    /// The loop's transfers, non-owner reads then non-owner writes, each
    /// with whether it is a write.
    pub fn transfers(&self) -> impl Iterator<Item = (&Transfer, bool)> {
        let reads = self.acc.read_transfers.iter().map(|t| (t, false));
        reads.chain(self.acc.write_transfers.iter().map(|t| (t, true)))
    }
}

/// Lower one analyzed loop instance. Never inlined: it is the seam
/// between analysis and every consumer of its result, and its cost is
/// paid once per static loop but every instance of a symbolic one.
#[inline(never)]
pub fn lower(l: &ParLoop, acc: LoopAccess, metas: &[ArrayMeta], wpb: usize) -> LoopPlan {
    let lower_ref = |(r, sec): (&ARef, &Section)| match r.is_indirect() {
        true => LinearRanges::empty(),
        false => metas[r.array.0].runs(sec),
    };
    let per_node = |secs: &Vec<Section>| l.refs.iter().zip(secs).map(lower_ref).collect();
    let runs: Vec<Vec<LinearRanges>> = acc.sections.iter().map(per_node).collect();
    let transfers = acc.read_transfers.iter().chain(&acc.write_transfers);
    let xfer_runs: Vec<LinearRanges> = transfers
        .clone()
        .map(|t| metas[t.array].runs(&t.section))
        .collect();
    let xfer_ctl = transfers
        .zip(&xfer_runs)
        .map(|(t, lr)| match t.indirect {
            true => CtlRanges::default(),
            false => shmem_limits(lr, wpb),
        })
        .collect();
    LoopPlan {
        sched: OnceCell::new(),
        runs,
        xfer_runs,
        xfer_ctl,
        acc,
        ctl: OnceCell::new(),
        mp: OnceCell::new(),
    }
}

/// OR `bit` into `mask[i]` for every candidate `i` inside one of the
/// `cover` ranges (both ascending).
fn mark_covered(candidates: &[usize], cover: &[(usize, usize)], mask: &mut [u64], bit: u64) {
    let mut ci = 0;
    for &(f, e) in cover {
        ci += candidates[ci..].partition_point(|&c| c < f);
        while ci < candidates.len() && candidates[ci] < e {
            mask[ci] |= bit;
            ci += 1;
        }
    }
}

/// The default-protocol schedule of lowered per-(node, reference) `runs`
/// plus, per node, the word offsets its indirect references gather right
/// now (`indirect`, empty when the loop has none: a real DSM faults on
/// demand, and the conservative section would grossly over-fault).
///
/// Per node, every run becomes a raw covering block range (merged into
/// the node's covers) and every raw *write* range contributes its first
/// and last block as boundary candidates: a block written by two nodes
/// necessarily contains a section boundary of each, so it is an extremal
/// block of at least one raw run of every writer.
pub(crate) fn schedule(
    l: &ParLoop,
    runs: &[Vec<LinearRanges>],
    indirect: &[Vec<usize>],
    wpb: usize,
) -> ResolveSchedule {
    assert!(runs.len() <= 64, "node masks support ≤64 nodes");
    let mut sched = ResolveSchedule::default();
    let mut candidates: Vec<usize> = Vec::new();
    let (mut wraw, mut rraw) = (Vec::new(), Vec::new());
    for (p, per_ref) in runs.iter().enumerate() {
        wraw.clear();
        rraw.clear();
        for (r, lr) in l.refs.iter().zip(per_ref) {
            let raw = match r.mode {
                RefMode::Write => &mut wraw,
                RefMode::Read => &mut rraw,
            };
            let nonempty = lr.iter_runs().filter(|&(_, len)| len > 0);
            raw.extend(nonempty.map(|(start, len)| covering_range(start, len, wpb)));
        }
        candidates.reserve(2 * wraw.len());
        candidates.extend(wraw.iter().flat_map(|&(f, e)| [f, e - 1]));
        let gathered = indirect.get(p).into_iter().flatten();
        rraw.extend(gathered.map(|&off| covering_range(off, 1, wpb)));
        sched.wcover.push(merge_block_ranges(&mut wraw));
        sched.rcover.push(merge_block_ranges(&mut rraw));
    }
    // A candidate block needs the multiple-writer (twin/diff) path if
    // two or more nodes write it, or if one node writes it while
    // another reads it in the same interval — in the real system the
    // writer would simply re-fault after the reader's downgrade; in
    // the BSP engine the writer must keep its writable copy through
    // the read sub-phase. One pass of the sorted candidates against
    // each node's sorted covers collects who writes and who reads
    // each.
    candidates.sort_unstable();
    candidates.dedup();
    let mut wmask = vec![0u64; candidates.len()];
    let mut rmask = vec![0u64; candidates.len()];
    for p in 0..runs.len() {
        mark_covered(&candidates, &sched.wcover[p], &mut wmask, 1 << p);
        mark_covered(&candidates, &sched.rcover[p], &mut rmask, 1 << p);
    }
    let masks = wmask.iter().zip(&rmask);
    sched.multi = candidates
        .iter()
        .zip(masks)
        .filter(|&(_, (&w, &r))| w.count_ones() >= 2 || (w != 0 && r & !w != 0))
        .map(|(&b, _)| b)
        .collect();
    sched
}

/// Schedule the §4.2 contract of one lowered loop instance under the
/// run's constants: `cluster`'s geometry (block and bulk sizes, homes),
/// the armed contract mutations ([`plan_sends`] applies them),
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
pub fn ctl_schedule(
    plan: &LoopPlan,
    cluster: &Cluster,
    injection: Injection,
    bulk: bool,
    force_boundary: bool,
    mut still_valid: impl FnMut(NodeId, usize, usize, usize) -> bool,
) -> CtlSchedule {
    let mut sched = CtlSchedule::default();
    type UserKey = (NodeId, usize, NodeId, bool); // (owner, array, user, is_write)
    let mut raw: Vec<(UserKey, (usize, usize))> = Vec::new();
    for ((t, is_write), cr) in plan.transfers().zip(&plan.xfer_ctl) {
        let key = (t.owner, t.array, t.user, is_write);
        raw.extend(cr.ctl.iter().map(|&range| (key, range)));
    }
    raw.sort_unstable();
    // ((owner, array, first, end), user): who is pushed what.
    let mut pushes: Vec<((NodeId, usize, usize, usize), NodeId)> = Vec::new();
    for of_key in raw.chunk_by(|a, b| a.0 == b.0) {
        let (owner, array, user, is_write) = of_key[0].0;
        let mut ranges: Vec<(usize, usize)> = of_key.iter().map(|r| r.1).collect();
        for (f, e) in merge_block_ranges(&mut ranges) {
            let (f, e) = match force_boundary {
                true => (f + 1, e.saturating_sub(1)),
                false => (f, e),
            };
            if f >= e {
                continue;
            }
            if !is_write && still_valid(user, array, f, e) {
                sched.reads_skipped += 1;
                continue;
            }
            pushes.push(((owner, array, f, e), user));
            sched.invalidate.push((user, f, e));
            if is_write {
                sched.flushes.push(FlushEntry {
                    writer: user,
                    owner,
                    first: f,
                    end: e,
                    array: array as u32,
                });
                // The write-back is part of the planned section volume.
                sched.planned.push((array, (e - f) as u64));
            } else {
                sched.reads_performed += 1;
            }
        }
    }
    // Per receiver, in the order above.
    sched.invalidate.sort_by_key(|&(user, ..)| user);
    sched.landing = sched.invalidate.clone();
    sched.landing.sort_unstable();
    sched.landing.dedup();
    sched.receivers = sched.landing.iter().map(|&(user, ..)| user).collect();
    sched.receivers.dedup();
    // One call site per (owner, array, range), pushing to all its users.
    pushes.sort_unstable();
    pushes.dedup();
    for site in pushes.chunk_by(|a, b| a.0 == b.0) {
        let (owner, array, first, end) = site[0].0;
        // One copy of the section reaches every reader.
        let volume = ((end - first) * site.len()) as u64;
        sched.planned.push((array, volume));
        sched.acquire.push((owner, first, end));
        sched.sends.push(SendEntry {
            owner,
            readers: site.iter().map(|s| s.1).collect(),
            first,
            end,
            array: array as u32,
        });
    }
    sched.acquire.sort_unstable();
    sched.acquire.dedup();
    sched.send_plans = plan_sends(cluster, injection, &sched.sends, bulk);
    sched.flush_plans = plan_flushes(cluster, &sched.flushes, bulk);
    sched
}

/// Schedule the message-passing resolve of one lowered loop instance:
/// one marshalled message per (owner → user, section) pair — except that
/// a section shipped from one owner to three or more readers goes
/// through the runtime's broadcast tree, once, on behalf of the whole
/// group, as `pghpf`'s runtime does.
pub fn mp_schedule(l: &ParLoop, plan: &LoopPlan) -> MpSchedule {
    let mut sched = MpSchedule::default();
    let transfers: Vec<&Transfer> = plan.transfers().map(|(t, _)| t).collect();
    // The users of each distinct (owner, array, section), in transfer
    // order: a stable sort brings a group together.
    fn key(t: &Transfer) -> (NodeId, usize, &Section) {
        (t.owner, t.array, &t.section)
    }
    let mut grouped = transfers.clone();
    grouped.sort_by(|a, b| key(a).cmp(&key(b)));
    let mut pairwise: Vec<((NodeId, NodeId), StridedRange)> = Vec::new();
    for (t, runs) in transfers.iter().zip(&plan.xfer_runs) {
        // The runtime's stride of a single run is 1, not 0.
        let sections = runs.runs.iter().map(|sr| StridedRange {
            stride: sr.stride.max(1),
            ..*sr
        });
        let start = grouped.partition_point(|g| key(g) < key(t));
        let len = grouped[start..].partition_point(|g| key(g) == key(t));
        let group = &grouped[start..start + len];
        if len < 3 {
            pairwise.extend(sections.map(|sr| ((t.owner, t.user), sr)));
        } else if group[0].user == t.user {
            sched.broadcasts.push(MpBroadcast {
                owner: t.owner,
                users: group.iter().map(|g| g.user).collect(),
                sections: sections.collect(),
            });
        }
        sched.receivers.push(t.user);
    }
    sched.receivers.sort_unstable();
    sched.receivers.dedup();
    // Stable: a pair's sections stay in transfer order.
    pairwise.sort_by_key(|&(pair, _)| pair);
    for of_pair in pairwise.chunk_by(|a, b| a.0 == b.0) {
        let ((src, dst), _) = of_pair[0];
        let sections = of_pair.iter().map(|s| s.1).collect();
        sched.sends.push(MpSendPlan { src, dst, sections });
    }
    for (p, per_ref) in plan.runs.iter().enumerate() {
        for (r, lr) in l.refs.iter().zip(per_ref) {
            if r.mode == RefMode::Write {
                sched.first_touch.extend(lr.runs.iter().map(|&sr| (p, sr)));
            }
        }
    }
    sched
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
        };
        let sec = Section::new(vec![Range::new(0, 7), Range::new(2, 3)]);
        let lr = meta.runs(&sec);
        let runs: Vec<_> = lr.iter_runs().collect();
        assert_eq!(runs[0].0, 1024 + 16);
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
