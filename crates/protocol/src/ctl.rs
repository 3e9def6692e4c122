//! Compiler-directed incoherence: the run-time calls of the §4.2 contract.
//!
//! The compiler, having proven a producer–consumer relationship between an
//! owner and a set of readers on a range of whole cache blocks (after
//! `shmem_limits` subsetting — see [`fgdsm_section::block_subset`]),
//! bypasses the default protocol:
//!
//! 1. [`Dsm::mk_writable`] — owners bring the blocks writable (pipelined
//!    write faults), so the directory records the owner as holding the
//!    only valid copy (Figure 2B);
//! 2. *barrier*;
//! 3. [`Dsm::implicit_writable`] — readers tag the blocks ReadWrite with
//!    **no data**, so the incoming transfer can be stored (Figure 2C);
//! 4. *barrier*;
//! 5. [`Dsm::send_range`] / [`Dsm::ready_to_recv`] — owners push the
//!    blocks (optionally grouped into bulk payloads), readers block on a
//!    counting semaphore until all have arrived (Figure 2D);
//! 6. the parallel loop executes fault-free;
//! 7. [`Dsm::implicit_invalidate`] — readers discard their copies so the
//!    directory's belief (exclusive at owner) is true again (Figure 2F);
//! 8. *barrier*.
//!
//! For non-owner *writes*, [`Dsm::flush_range`] returns the modified
//! blocks to the owner at the end of the loop.
//!
//! Run-time overhead elimination (§4.3) drops steps 1, 2, 7 and 8 under
//! whole-program owner-computes assumptions and memoizes step 3 so only
//! the first execution pays the tag changes; the memo test is
//! `MEMO_TEST_NS`.
//!
//! ## Schedule → execute
//!
//! The data-movement primitives (`send_range`, `flush_range`) are an
//! inspector/executor pair:
//!
//! * **schedule** ([`plan_sends`] / `plan_flushes`) — pure functions
//!   of the call sites, the cluster's geometry (block and bulk sizes,
//!   homes) and the armed [`Faults`]: payload grouping, and one
//!   [`TransferPlan`] per (source, destination) pair in `(src, dst)`
//!   order. A caller whose call sites repeat keeps the result;
//! * **execute** ([`Dsm::exec_sends`] / [`Dsm::exec_flushes`]) — borrows
//!   call sites and plans: the call-site ctl events and base charges, in
//!   strict wire mode one envelope per payload, then plan by plan the
//!   pair-local work (charges, copies, message counters) against the
//!   plan's two shards and its effects beyond the pair (ctl inboxes,
//!   directory, third-party home tags).

use crate::dir::DirState;
use crate::fault::{Fault, Faults};
use crate::proto::Dsm;
use crate::trans;
use crate::wire::Shape;
use fgdsm_tempest::{
    Access, ChargeKind, Cluster, CostModel, CtlPrim, Event, NodeId, NodeShard, NO_ARRAY,
};

/// Fixed overhead of issuing any compiler-directed protocol call.
pub(crate) const CTL_CALL_BASE_NS: u64 = 2_000;

/// Cost of the memoized `implicit_writable` fast path ("at subsequent
/// times the call need only do the test and nothing more").
pub(crate) const MEMO_TEST_NS: u64 = 300;

/// One grouped transfer payload: `n_blocks` contiguous blocks starting at
/// `start_block`, on behalf of `array` (a compiler-assigned id carried
/// opaquely into the trace; [`NO_ARRAY`] when unknown).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Payload {
    pub start_block: usize,
    pub n_blocks: usize,
    pub array: u32,
}

/// Group the block range `[first, end)` of `array` into payloads of at
/// most `max_payload_bytes` (bulk transfer) or one block each
/// (`bulk = false`).
pub(crate) fn group_payloads(
    first: usize,
    end: usize,
    array: u32,
    block_bytes: usize,
    bulk: bool,
    max_payload_bytes: usize,
) -> impl Iterator<Item = Payload> {
    let per = if bulk {
        (max_payload_bytes / block_bytes).max(1)
    } else {
        1
    };
    (first..end).step_by(per).map(move |b| Payload {
        start_block: b,
        n_blocks: per.min(end - b),
        array,
    })
}

/// Refill `plans` with one plan per (source, destination) pair of the
/// call sites `(src, dst, first, end, array)`, in (src, dst) order, a
/// pair's call sites in the order given. Each plan is refilled in the
/// storage of the one `plans` held at its index, so a schedule re-built
/// in place allocates nothing once it has been this large.
fn merge_sites(
    cluster: &Cluster,
    op: PlanOp,
    bulk: bool,
    sites: impl Iterator<Item = (NodeId, NodeId, usize, usize, u32)>,
    plans: &mut Vec<TransferPlan>,
) {
    let (bytes, max) = (cluster.cfg().block_bytes, cluster.cfg().bulk_max_bytes);
    let mut n = 0; // plans[..n] are this batch's, ascending by pair
    for (src, dst, f, e, array) in sites {
        let i = plans[..n].partition_point(|p| (p.src, p.dst) < (src, dst));
        if i == n || (plans[i].src, plans[i].dst) != (src, dst) {
            if n == plans.len() {
                plans.push(TransferPlan {
                    src,
                    dst,
                    op,
                    ranges: Vec::new(),
                    payloads: Vec::new(),
                });
            }
            plans[i..=n].rotate_right(1);
            let p = &mut plans[i];
            (p.src, p.dst, p.op) = (src, dst, op);
            p.ranges.clear();
            p.payloads.clear();
            n += 1;
        }
        let p = &mut plans[i];
        p.ranges.push((f, e));
        p.payloads
            .extend(group_payloads(f, e, array, bytes, bulk, max));
    }
    plans.truncate(n);
}

/// Schedule a batch of compiler-directed pushes: payload grouping, and
/// the entries merged into one [`TransferPlan`] per (source, reader) pair
/// in stable (source, reader) order. Pure: `cluster` is read for its
/// geometry only (block and bulk sizes, homes), and the armed `faults`
/// are part of the schedule, so the direct [`Dsm::send_range`] and a kept
/// schedule misbehave alike.
pub fn plan_sends(
    cluster: &Cluster,
    faults: Faults,
    entries: &[SendEntry],
    bulk: bool,
) -> Vec<TransferPlan> {
    let mut plans = Vec::new();
    plan_sends_into(cluster, faults, entries, bulk, &mut plans);
    plans
}

/// [`plan_sends`] into the plans of an earlier schedule, refilled in
/// place.
pub fn plan_sends_into(
    cluster: &Cluster,
    faults: Faults,
    entries: &[SendEntry],
    bulk: bool,
    plans: &mut Vec<TransferPlan>,
) {
    let skewed = faults.has(Fault::SkewSendRange);
    let skew = |en: &SendEntry| usize::from(skewed && en.end > en.first);
    let stale_owner = faults.has(Fault::StaleOwnerPush);
    let nonempty = { entries.iter() }
        .map(|en| (en, en.end - skew(en)))
        .filter(|&(en, end)| end > en.first);
    let sites = nonempty.flat_map(|(en, end)| {
        let home = cluster.home_of_block(en.first);
        en.readers.iter().map(move |&r| {
            debug_assert_ne!(r, en.owner);
            let src = trans::push_source(en.owner, r, home, stale_owner);
            (src, r, en.first, end, en.array)
        })
    });
    merge_sites(cluster, PlanOp::Push, bulk, sites, plans);
}

/// Schedule a batch of non-owner-write flushes: one [`TransferPlan`] per
/// (writer, owner) pair, like [`plan_sends`].
pub(crate) fn plan_flushes(
    cluster: &Cluster,
    entries: &[FlushEntry],
    bulk: bool,
) -> Vec<TransferPlan> {
    let mut plans = Vec::new();
    plan_flushes_into(cluster, entries, bulk, &mut plans);
    plans
}

/// `plan_flushes` into the plans of an earlier schedule, refilled in
/// place.
pub fn plan_flushes_into(
    cluster: &Cluster,
    entries: &[FlushEntry],
    bulk: bool,
    plans: &mut Vec<TransferPlan>,
) {
    let nonempty = entries.iter().filter(|en| en.end > en.first);
    let sites = nonempty.map(|en| (en.writer, en.owner, en.first, en.end, en.array));
    merge_sites(cluster, PlanOp::Flush, bulk, sites, plans);
}

/// What an apply-stage [`TransferPlan`] does to its shard pair.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PlanOp {
    /// §4.2 compiler-directed push, owner → reader (Figure 2D). The
    /// outcome feeds the destination's ctl inbox for `ready_to_recv`.
    Push,
    /// Non-owner-write flush, writer → owner, plus the in-pair tag flips
    /// (§4.2, non-owner writes). Directory and third-party home tags are
    /// folded after apply.
    Flush,
}

/// One unit of resolve-phase work: everything one (src, dst) node pair
/// exchanges in one superstep. The planners emit plans in a stable
/// (src, dst) order, which is the order they are executed in.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TransferPlan {
    pub src: NodeId,
    pub dst: NodeId,
    pub op: PlanOp,
    /// Block ranges in call-site order. Ranges of distinct call sites may
    /// overlap; the resulting duplicate push is faithful to the direct
    /// path, which also re-sent the overlap.
    pub ranges: Vec<(usize, usize)>,
    /// Payload groupings (`group_payloads` per range, concatenated in
    /// range order).
    pub payloads: Vec<Payload>,
}

/// One merged `send_range` call site: `owner` pushes blocks
/// `[first, end)` to every node in `readers`.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct SendEntry {
    pub owner: NodeId,
    pub readers: Vec<NodeId>,
    pub first: usize,
    pub end: usize,
    /// Compiler-assigned array id the range belongs to ([`NO_ARRAY`] when
    /// the caller has no array context). Threaded into the payloads and
    /// the [`Event::CtlSend`] trace events for the profiler.
    pub array: u32,
}

/// One pending non-owner-write flush call site: `writer` returns blocks
/// `[first, end)` to `owner`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FlushEntry {
    pub writer: NodeId,
    pub owner: NodeId,
    pub first: usize,
    pub end: usize,
    /// Compiler-assigned array id the range belongs to ([`NO_ARRAY`] when
    /// the caller has no array context).
    pub array: u32,
}

/// What one push plan's apply adds to its destination's ctl inbox.
struct PlanOutcome {
    arrival: u64,
    payloads: u64,
    blocks: u64,
}

/// Pair-local apply of one plan: charges, message counters, and data
/// copies against exactly the two shards the plan names. What reaches
/// beyond the pair is left to [`Dsm::apply_plans`]: a push's inbox
/// contribution comes back as the [`PlanOutcome`].
///
/// In strict wire mode (`strict`) the plan's data is already in place:
/// one frame per payload, filled by copying out of the source shard,
/// was applied at the destination from its bytes
/// ([`Dsm::wire_send_plan`]) — the apply no longer reads the source
/// shard's memory. Accounting is identical either way, so reports and
/// traces cannot tell the paths apart.
fn apply_plan(
    plan: &TransferPlan,
    strict: bool,
    cfg: &CostModel,
    src: &mut NodeShard,
    dst: &mut NodeShard,
) -> PlanOutcome {
    let mut out = PlanOutcome {
        arrival: 0,
        payloads: 0,
        blocks: 0,
    };
    for p in &plan.payloads {
        let (s, _) = src.block_words(p.start_block);
        let (_, e) = src.block_words(p.start_block + p.n_blocks - 1);
        let bytes = (e - s) * 8;
        // Per message: the user-level protocol composes and tags the
        // payload (handler-side work at the sender), injects it, and
        // occupies the wire — grouping contiguous blocks into bulk
        // payloads amortizes everything but the wire.
        let compose = cfg.handler_cost(cfg.handler_dispatch_ns);
        src.charge(
            compose + cfg.msg_send_ns + bytes as u64 * cfg.per_byte_ns,
            ChargeKind::CtlCall,
        );
        src.note_msg_at(bytes, p.start_block);
        dst.note_msg_recv(bytes);
        if !strict {
            dst.mem_mut()[s..e].copy_from_slice(&src.mem()[s..e]);
        }
        match plan.op {
            PlanOp::Push => {
                out.arrival = out.arrival.max(src.clock_ns() + cfg.net_latency_ns);
                out.payloads += 1;
                out.blocks += p.n_blocks as u64;
                src.record(Event::CtlSend {
                    blocks: p.n_blocks as u64,
                    first_block: p.start_block as u32,
                    array: p.array,
                });
            }
            PlanOp::Flush => {
                dst.charge_handler(cfg.handler_dispatch_ns + p.n_blocks as u64 * cfg.block_copy_ns);
            }
        }
    }
    if plan.op == PlanOp::Flush {
        let mut cost = 0;
        for &(f, e) in &plan.ranges {
            src.set_tag_range(f, e, Access::Invalid);
            dst.set_tag_range(f, e, Access::ReadWrite);
            cost += (e - f) as u64 * cfg.tag_change_ns;
        }
        src.charge(cost, ChargeKind::CtlCall);
    }
    out
}

/// Aggregate counters mirroring the per-primitive fields in
/// [`fgdsm_tempest::NodeStats`], summed over nodes — convenient for
/// assertions in tests and for the Figure 4 ablation harness.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct CtlStats {
    pub mk_writable: u64,
    pub implicit_writable: u64,
    pub implicit_invalidate: u64,
    pub send_range: u64,
    pub ready_recv: u64,
    pub flush_range: u64,
    pub blocks_pushed: u64,
}

impl Dsm {
    /// Sum the per-primitive call counters over all nodes.
    pub fn ctl_stats(&self) -> CtlStats {
        let mut s = CtlStats::default();
        for n in 0..self.cluster.nprocs() {
            let st = self.cluster.stats(n);
            s.mk_writable += st.mk_writable_calls;
            s.implicit_writable += st.implicit_writable_calls;
            s.implicit_invalidate += st.implicit_invalidate_calls;
            s.send_range += st.send_range_calls;
            s.ready_recv += st.ready_recv_calls;
            s.flush_range += st.flush_range_calls;
            s.blocks_pushed += st.blocks_pushed;
        }
        s
    }

    /// Bring blocks `[first, end)` writable at `owner`, as pipelined write
    /// faults (Figure 2B). After this call the directory records the owner
    /// as holding the current, only valid copy of every block — which is
    /// what frees the home of carrying one and makes `implicit_writable`
    /// at readers safe (the ordering is enforced by the barrier *between*
    /// the two calls).
    pub fn mk_writable(&mut self, owner: NodeId, first: usize, end: usize) {
        let cfg = *self.cluster.cfg();
        self.cluster.record(
            owner,
            Event::Ctl {
                prim: CtlPrim::MkWritable,
            },
        );
        self.cluster
            .charge(owner, CTL_CALL_BASE_NS, ChargeKind::CtlCall);
        if end <= first {
            return;
        }
        let (s0, _) = self.cluster.block_words(first);
        let (_, e1) = self.cluster.block_words(end - 1);
        self.cluster.map_range(owner, s0, e1 - s0);

        // Blocks the owner already holds writable and exclusive are
        // skipped by the scan; acquiring `b` changes no other block.
        let mut latency_paid = false;
        let mut from = first;
        while let Some(b) = self.first_not_exclusive(owner, from, end) {
            from = b + 1;
            let h = self.cluster.home_of_block(b);
            let need_data = self.cluster.tag(owner, b) == Access::Invalid;
            // Pipelined: one wire latency for the whole train, per-block
            // injection/processing costs thereafter.
            let mut cost = cfg.msg_send_ns + cfg.tag_change_ns;
            if !latency_paid && h != owner {
                cost += cfg.net_latency_ns;
                latency_paid = true;
            }
            if h != owner {
                self.cluster.note_msg_at(owner, h, 8, b);
            }
            self.cluster
                .charge_handler(h, cfg.handler_dispatch_ns + cfg.dir_lookup_ns);
            // State transition: steal the block for the owner (invalidate
            // readers / flush a previous exclusive holder), without a fault.
            self.ctl_acquire_excl(owner, b, need_data, &mut cost);
            self.cluster.charge(owner, cost, ChargeKind::CtlCall);
        }
    }

    /// State manipulation shared by `mk_writable`: make `node` the
    /// exclusive writer of `b`, fetching data if `need_data`.
    fn ctl_acquire_excl(&mut self, node: NodeId, b: usize, need_data: bool, cost: &mut u64) {
        let cfg = *self.cluster.cfg();
        let h = self.cluster.home_of_block(b);
        let (s, e) = self.cluster.block_words(b);
        let cur = self.dir_state(b);
        if matches!(cur, DirState::Multi { .. }) {
            unreachable!("mk_writable on a Multi block: compiler ranges exclude boundaries")
        }
        let eff = trans::acquire_excl(cur, node, h);
        for r in DirState::nodes(eff.invalidate_readers) {
            if r != h {
                self.cluster.note_msg_at(h, r, 8, b);
            }
            self.cluster
                .charge_handler(r, cfg.handler_dispatch_ns + cfg.tag_change_ns);
            self.cluster.set_tag(r, b, Access::Invalid);
        }
        if let Some(owner) = eff.flush_owner {
            self.cluster
                .charge_handler(owner, cfg.handler_dispatch_ns + cfg.block_copy_ns);
            self.cluster.note_msg_at(owner, h, cfg.block_bytes, b);
            self.cluster
                .charge_handler(h, cfg.handler_dispatch_ns + cfg.block_copy_ns);
            self.wire_copy(owner, h, s, e - s);
            *cost += cfg.block_bytes as u64 * cfg.per_byte_ns;
        }
        if let Some(owner) = eff.invalidate_owner {
            self.cluster.set_tag(owner, b, Access::Invalid);
        }
        if need_data && node != h {
            self.cluster.charge_handler(h, cfg.block_copy_ns);
            self.cluster.note_msg_at(h, node, cfg.block_bytes, b);
            self.wire_copy(h, node, s, e - s);
            *cost += cfg.block_bytes as u64 * cfg.per_byte_ns + cfg.block_copy_ns;
        }
        if h != node {
            self.cluster.set_tag(h, b, Access::Invalid);
        }
        self.cluster.set_tag(node, b, Access::ReadWrite);
        self.set_dir(b, eff.next);
    }

    /// Tag blocks `[first, end)` ReadWrite at a reader, *without data*, so
    /// an incoming compiler-directed transfer can be stored (Figure 2C).
    /// With `memoize`, repeat calls on the same range pay only a test
    /// (§4.3). Returns true if the tags were actually changed.
    pub fn implicit_writable(
        &mut self,
        node: NodeId,
        first: usize,
        end: usize,
        memoize: bool,
    ) -> bool {
        let cfg = *self.cluster.cfg();
        self.cluster.record(
            node,
            Event::Ctl {
                prim: CtlPrim::ImplicitWritable,
            },
        );
        if memoize && self.iw_memo.contains(&(node, first, end)) {
            self.cluster.charge(node, MEMO_TEST_NS, ChargeKind::CtlCall);
            return false;
        }
        self.cluster
            .charge(node, CTL_CALL_BASE_NS, ChargeKind::CtlCall);
        if end <= first {
            return false;
        }
        let (s0, _) = self.cluster.block_words(first);
        let (_, e1) = self.cluster.block_words(end - 1);
        self.cluster.map_range(node, s0, e1 - s0);
        self.cluster
            .set_tag_range(node, first, end, Access::ReadWrite);
        let cost = (end - first) as u64 * cfg.tag_change_ns;
        self.cluster.charge(node, cost, ChargeKind::CtlCall);
        if memoize {
            self.iw_memo.insert((node, first, end));
        }
        true
    }

    /// Owner pushes blocks `[first, end)` to each reader in a specially
    /// tagged data message (Figure 2D). With `bulk`, contiguous blocks are
    /// grouped into payloads of up to `bulk_max_bytes` — the paper's
    /// "benefit of using larger block sizes". One call site scheduled
    /// ([`plan_sends`]) and executed on the spot.
    pub fn send_range(
        &mut self,
        owner: NodeId,
        readers: &[NodeId],
        first: usize,
        end: usize,
        bulk: bool,
    ) {
        let entries = [SendEntry {
            owner,
            readers: readers.to_vec(),
            first,
            end,
            array: NO_ARRAY,
        }];
        let plans = plan_sends(&self.cluster, self.faults, &entries, bulk);
        self.exec_sends(&entries, &plans);
    }

    /// Execute a batch of compiler-directed pushes: the ctl event and
    /// base charge of every call site at its owner, then the
    /// [`plan_sends`] plans of those call sites. Both are borrowed — a
    /// kept schedule executes again as it is.
    pub fn exec_sends(&mut self, entries: &[SendEntry], plans: &[TransferPlan]) {
        for en in entries {
            self.ctl_call_site(en.owner, CtlPrim::SendRange);
        }
        self.exec_plans(plans);
    }

    /// Execute the pending non-owner-write flushes: the ctl event and
    /// base charge of every call site at its writer, then the
    /// `plan_flushes` plans.
    pub fn exec_flushes(&mut self, entries: &[FlushEntry], plans: &[TransferPlan]) {
        if self.faults.has(Fault::SkipFlushRange) {
            return;
        }
        for en in entries {
            self.ctl_call_site(en.writer, CtlPrim::FlushRange);
        }
        self.exec_plans(plans);
    }

    /// What every data-movement call site costs its caller whatever it
    /// moves: the ctl event and the fixed call overhead.
    fn ctl_call_site(&mut self, node: NodeId, prim: CtlPrim) {
        self.cluster.record(node, Event::Ctl { prim });
        self.cluster
            .charge(node, CTL_CALL_BASE_NS, ChargeKind::CtlCall);
    }

    /// Strict wire mode's delivery of one plan: one envelope per payload,
    /// encoded straight out of the source shard ([`Dsm::wire_post`]) and
    /// applied at the destination from the frames' bytes
    /// ([`Dsm::wire_deliver`]).
    fn wire_send_plan(&mut self, plan: &TransferPlan) {
        let wpb = self.cluster.words_per_block();
        for p in &plan.payloads {
            let head = self.wire_head(plan.src, plan.dst, p.array, p.start_block, p.n_blocks);
            let (start_block, n_blocks) = (p.start_block as u32, p.n_blocks as u32);
            let shape = match plan.op {
                PlanOp::Push => Shape::Push {
                    start_block,
                    n_blocks,
                },
                PlanOp::Flush => Shape::Flush {
                    start_block,
                    n_blocks,
                },
            };
            self.wire_post(head, shape, p.n_blocks * wpb);
        }
        self.wire_deliver();
    }

    /// Execute the plans in index order — in strict wire mode each plan's
    /// data first travels and lands as one envelope per payload
    /// ([`Dsm::wire_send_plan`]) — each plan's pair-local work
    /// against its two shards ([`apply_plan`]), then its effects beyond
    /// the pair: the destination's ctl inbox for a push; the directory and
    /// third-party home tags for a flush.
    fn exec_plans(&mut self, plans: &[TransferPlan]) {
        if plans.is_empty() {
            return;
        }
        let strict = self.wire_strict();
        let cfg = *self.cluster.cfg();
        for plan in plans {
            if strict {
                self.wire_send_plan(plan);
            }
            let (src, dst) = self.cluster.shard_pair_mut(plan.src, plan.dst);
            let o = apply_plan(plan, strict, &cfg, src, dst);
            match plan.op {
                PlanOp::Push => {
                    self.inbox_arrival[plan.dst] = self.inbox_arrival[plan.dst].max(o.arrival);
                    self.inbox_payloads[plan.dst] += o.payloads;
                    self.inbox_blocks[plan.dst] += o.blocks;
                }
                PlanOp::Flush => {
                    // `flush_fold` depends on the block's home alone, so
                    // it is decided once per home-page run.
                    for &(f, e) in &plan.ranges {
                        let mut b = f;
                        while b < e {
                            let (run_end, h) = self.cluster.home_run(b, e);
                            let (invalidate_home, next) = trans::flush_fold(plan.src, plan.dst, h);
                            if invalidate_home {
                                self.cluster.set_tag_range(h, b, run_end, Access::Invalid);
                            }
                            for b in b..run_end {
                                self.set_dir(b, next);
                            }
                            b = run_end;
                        }
                    }
                }
            }
        }
    }

    /// Block on the counting semaphore until every pushed payload has
    /// arrived and been stored (Figure 2D).
    pub fn ready_to_recv(&mut self, node: NodeId) {
        let cfg = *self.cluster.cfg();
        self.cluster.record(
            node,
            Event::Ctl {
                prim: CtlPrim::ReadyToRecv,
            },
        );
        self.cluster
            .charge(node, CTL_CALL_BASE_NS, ChargeKind::CtlCall);
        let arrival = self.inbox_arrival[node];
        let now = self.cluster.clock_ns(node);
        if arrival > now {
            self.cluster.charge(node, arrival - now, ChargeKind::Stall);
        }
        // Storing the payloads occupies the receiving side; the semaphore
        // holds the compute thread until it completes.
        let work = self.inbox_payloads[node] * cfg.handler_cost(cfg.handler_dispatch_ns)
            + self.inbox_blocks[node] * cfg.handler_cost(cfg.block_copy_ns);
        self.cluster.record(node, Event::Handler { ns: work });
        self.cluster.charge(node, work, ChargeKind::Stall);
        self.inbox_arrival[node] = 0;
        self.inbox_payloads[node] = 0;
        self.inbox_blocks[node] = 0;
    }

    /// Readers discard their (compiler-controlled) copies so the
    /// directory's record — exclusive at the owner — is true again
    /// (Figure 2F).
    pub fn implicit_invalidate(&mut self, node: NodeId, first: usize, end: usize) {
        let cfg = *self.cluster.cfg();
        self.cluster.record(
            node,
            Event::Ctl {
                prim: CtlPrim::ImplicitInvalidate,
            },
        );
        self.cluster
            .charge(node, CTL_CALL_BASE_NS, ChargeKind::CtlCall);
        self.cluster
            .set_tag_range(node, first, end, Access::Invalid);
        let cost = end.saturating_sub(first) as u64 * cfg.tag_change_ns;
        self.cluster.charge(node, cost, ChargeKind::CtlCall);
        // Invalidate conflicts with memoized implicit_writable on the same
        // range (the memo would skip re-tagging): drop any overlapping memo.
        self.iw_memo
            .retain(|&(n, f, e)| n != node || e <= first || f >= end);
    }

    /// A non-owner writer flushes its modifications of `[first, end)` back
    /// to the owner and invalidates itself (§4.2, non-owner writes). The
    /// owner ends with the only, current, writable copy and the directory
    /// reflects it. One call site scheduled (`plan_flushes`) and
    /// executed on the spot.
    pub fn flush_range(
        &mut self,
        writer: NodeId,
        owner: NodeId,
        first: usize,
        end: usize,
        bulk: bool,
    ) {
        let entries = [FlushEntry {
            writer,
            owner,
            first,
            end,
            array: NO_ARRAY,
        }];
        let plans = plan_flushes(&self.cluster, &entries, bulk);
        self.exec_flushes(&entries, &plans);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgdsm_tempest::{Cluster, CostModel, HomePolicy, SegmentLayout};

    fn dsm(nprocs: usize) -> Dsm {
        let cfg = CostModel::paper_dual_cpu();
        let mut layout = SegmentLayout::new(cfg.words_per_page());
        layout.alloc(8192);
        Dsm::new(Cluster::new(nprocs, cfg, &layout, HomePolicy::RoundRobin))
    }

    #[test]
    fn payload_grouping_bulk_vs_single() {
        let group = |first, end, bulk| -> Vec<Payload> {
            group_payloads(first, end, NO_ARRAY, 128, bulk, 4096).collect()
        };
        let single = group(0, 10, false);
        assert_eq!(single.len(), 10);
        assert!(single.iter().all(|p| p.n_blocks == 1));
        let bulk = group(0, 10, true); // 32 blocks per payload
        assert_eq!(bulk.len(), 1);
        assert_eq!(bulk[0].n_blocks, 10);
        let bulk2 = group(0, 70, true);
        assert_eq!(bulk2.len(), 3);
        assert_eq!(bulk2.iter().map(|p| p.n_blocks).sum::<usize>(), 70);
        assert!(group(5, 5, true).is_empty() && group(7, 5, true).is_empty());
    }

    #[test]
    fn full_contract_moves_data_without_misses() {
        let mut d = dsm(2);
        // Owner = node 1 for blocks 0..4 (home = node 0 for page 0).
        d.mk_writable(1, 0, 4);
        d.release_barrier();
        d.implicit_writable(0, 0, 4, false);
        d.release_barrier();
        // Owner computes and pushes.
        for w in 0..64 {
            d.cluster.node_mem_mut(1)[w] = w as f64;
        }
        d.send_range(1, &[0], 0, 4, true);
        d.ready_to_recv(0);
        // Reader sees the data fault-free.
        assert_eq!(d.cluster.node_mem(0)[63], 63.0);
        assert_eq!(d.cluster.stats(0).read_misses, 0);
        assert_eq!(d.cluster.stats(0).write_misses, 0);
        // Cleanup: invalidate readers, barrier → consistent.
        d.implicit_invalidate(0, 0, 4);
        d.release_barrier();
        d.check_consistency().unwrap();
        assert!(d.dir_state(0).is_excl_by(1));
    }

    #[test]
    fn mk_writable_takes_exclusive_ownership() {
        let mut d = dsm(4);
        // Home of block 0 is node 0; a third node has read it.
        d.read_access(2, 0);
        d.mk_writable(1, 0, 2);
        assert!(d.dir_state(0).is_excl_by(1));
        assert!(d.dir_state(1).is_excl_by(1));
        assert_eq!(d.cluster.tag(2, 0), Access::Invalid);
        assert_eq!(d.cluster.tag(0, 0), Access::Invalid);
        assert_eq!(d.cluster.tag(1, 0), Access::ReadWrite);
        // Not counted as misses.
        assert_eq!(d.cluster.stats(1).write_misses, 0);
        assert_eq!(d.cluster.stats(1).mk_writable_calls, 1);
    }

    #[test]
    fn mk_writable_idempotent_and_cheap_second_time() {
        let mut d = dsm(2);
        d.mk_writable(1, 0, 8);
        let t = d.cluster.clock_ns(1);
        d.mk_writable(1, 0, 8);
        let dt = d.cluster.clock_ns(1) - t;
        assert!(
            dt <= CTL_CALL_BASE_NS,
            "second call should skip all blocks, cost {dt}"
        );
    }

    #[test]
    fn implicit_writable_memo_fast_path() {
        let mut d = dsm(2);
        assert!(d.implicit_writable(0, 0, 8, true));
        let t = d.cluster.clock_ns(0);
        assert!(!d.implicit_writable(0, 0, 8, true));
        assert_eq!(d.cluster.clock_ns(0) - t, MEMO_TEST_NS);
        // Different range: full path again.
        assert!(d.implicit_writable(0, 8, 16, true));
    }

    /// The post-run check's view of the memo: a block is under compiler
    /// control exactly when one of the node's memoized ranges holds it —
    /// also behind a shorter range nested in a longer one.
    #[test]
    fn ctl_blocks_cover_exactly_the_memoized_ranges() {
        let mut d = dsm(2);
        for (node, first, end) in [(0, 2, 12), (0, 4, 6), (0, 20, 22), (1, 8, 9)] {
            assert!(d.implicit_writable(node, first, end, true));
        }
        let ctl = d.ctl_blocks();
        for b in 0..24 {
            let on_0 = (2..12).contains(&b) || (20..22).contains(&b);
            assert_eq!(ctl.contains(0, b), on_0, "node 0, block {b}");
            assert_eq!(ctl.contains(1, b), b == 8, "node 1, block {b}");
        }
    }

    #[test]
    fn implicit_invalidate_clears_memo() {
        let mut d = dsm(2);
        d.implicit_writable(0, 0, 8, true);
        d.implicit_invalidate(0, 0, 8);
        assert_eq!(d.cluster.tag(0, 0), Access::Invalid);
        // Memo dropped → next call re-tags.
        assert!(d.implicit_writable(0, 0, 8, true));
        assert_eq!(d.cluster.tag(0, 0), Access::ReadWrite);
    }

    #[test]
    fn bulk_transfer_sends_fewer_messages() {
        let mut d1 = dsm(2);
        let mut d2 = dsm(2);
        for d in [&mut d1, &mut d2] {
            d.mk_writable(1, 0, 32);
            d.implicit_writable(0, 0, 32, false);
        }
        d1.send_range(1, &[0], 0, 32, false);
        d2.send_range(1, &[0], 0, 32, true);
        let m1 = d1.cluster.stats(1).msgs_sent;
        let m2 = d2.cluster.stats(1).msgs_sent;
        assert!(m2 < m1, "bulk {m2} should be fewer than per-block {m1}");
        // Same bytes of payload either way.
        d1.ready_to_recv(0);
        d2.ready_to_recv(0);
        assert!(
            d2.cluster.clock_ns(0) < d1.cluster.clock_ns(0),
            "bulk transfer should complete sooner"
        );
    }

    #[test]
    fn flush_range_returns_data_to_owner() {
        let mut d = dsm(2);
        // Owner node 0 (also home); writer node 1 modifies blocks 0..2.
        d.mk_writable(0, 0, 2);
        d.implicit_writable(1, 0, 2, false);
        d.cluster.node_mem_mut(1)[5] = 5.5;
        d.flush_range(1, 0, 0, 2, true);
        assert_eq!(d.cluster.node_mem(0)[5], 5.5);
        assert_eq!(d.cluster.tag(1, 0), Access::Invalid);
        assert_eq!(d.cluster.tag(0, 0), Access::ReadWrite);
        assert!(d.dir_state(0).is_excl_by(0));
        d.release_barrier();
        d.check_consistency().unwrap();
    }

    #[test]
    fn ready_to_recv_waits_for_arrival() {
        let mut d = dsm(2);
        d.mk_writable(1, 0, 16);
        d.implicit_writable(0, 0, 16, false);
        // Node 0's clock is far behind node 1's by now? Equalize first.
        d.release_barrier();
        d.send_range(1, &[0], 0, 16, true);
        let before = d.cluster.clock_ns(0);
        d.ready_to_recv(0);
        assert!(d.cluster.clock_ns(0) > before);
        assert!(d.cluster.stats(0).stall_ns > 0);
    }

    /// [`plan_sends`] under `d`'s geometry and armed faults.
    fn sends(d: &Dsm, entries: &[SendEntry], bulk: bool) -> Vec<TransferPlan> {
        plan_sends(&d.cluster, d.faults, entries, bulk)
    }

    /// Expand a plan's payloads into the flat block list they deliver.
    fn payload_blocks(p: &TransferPlan) -> Vec<usize> {
        p.payloads
            .iter()
            .flat_map(|q| q.start_block..q.start_block + q.n_blocks)
            .collect()
    }

    /// An empty range is pure bookkeeping: no plan (and no data
    /// movement) is scheduled, and executing the call site lands its
    /// event and base charge at the owner — exactly what the direct path
    /// did.
    #[test]
    fn plan_sends_empty_range_is_bookkeeping_only() {
        let mut d = dsm(2);
        let t0 = d.cluster.clock_ns(1);
        let entries = [SendEntry {
            owner: 1,
            readers: vec![0],
            first: 4,
            end: 4,
            array: NO_ARRAY,
        }];
        let plans = sends(&d, &entries, true);
        assert!(plans.is_empty(), "empty range must plan nothing");
        assert_eq!(d.cluster.clock_ns(1), t0, "scheduling charges nothing");
        d.exec_sends(&entries, &plans);
        assert_eq!(d.cluster.stats(1).send_range_calls, 1);
        assert_eq!(d.cluster.clock_ns(1) - t0, CTL_CALL_BASE_NS);
        assert_eq!(d.cluster.stats(1).msgs_sent, 0);
    }

    /// A one-block range becomes one plan per reader carrying exactly that
    /// block.
    #[test]
    fn plan_sends_one_block() {
        let d = dsm(3);
        let entries = [SendEntry {
            owner: 0,
            readers: vec![2, 1],
            first: 7,
            end: 8,
            array: NO_ARRAY,
        }];
        let plans = sends(&d, &entries, false);
        assert_eq!(plans.len(), 2);
        // Stable (src, dst) order regardless of the readers' order.
        assert_eq!((plans[0].src, plans[0].dst), (0, 1));
        assert_eq!((plans[1].src, plans[1].dst), (0, 2));
        for p in &plans {
            assert_eq!(p.op, PlanOp::Push);
            assert_eq!(p.ranges, vec![(7, 8)]);
            assert_eq!(payload_blocks(p), vec![7]);
        }
    }

    /// A range crossing a page boundary still tiles exactly `[first, end)`
    /// — payload grouping is in block space and never splits or pads at
    /// page edges.
    #[test]
    fn plan_sends_cross_page_range() {
        let d = dsm(2);
        let blocks_per_page = d.cluster.words_per_page() / d.cluster.words_per_block();
        let (f, e) = (blocks_per_page - 2, blocks_per_page + 3);
        assert_ne!(
            d.cluster.home_of_block(f),
            d.cluster.home_of_block(e - 1),
            "range must actually span two differently-homed pages"
        );
        for bulk in [false, true] {
            let entries = [SendEntry {
                owner: 1,
                readers: vec![0],
                first: f,
                end: e,
                array: NO_ARRAY,
            }];
            let plans = sends(&d, &entries, bulk);
            assert_eq!(plans.len(), 1);
            assert_eq!(payload_blocks(&plans[0]), (f..e).collect::<Vec<_>>());
        }
    }

    /// Multi-entry, multi-reader: the plans partition exactly the blocks
    /// the direct path (one `send_range` per entry) would have pushed —
    /// per (owner, reader) pair, the payload blocks are the concatenation
    /// of that pair's entry ranges, in entry order, nothing more or less.
    #[test]
    fn plans_partition_direct_path_blocks() {
        use std::collections::BTreeMap;
        let d = dsm(4);
        let entries = [
            SendEntry {
                owner: 1,
                readers: vec![0, 2],
                first: 0,
                end: 5,
                array: NO_ARRAY,
            },
            SendEntry {
                owner: 3,
                readers: vec![0],
                first: 10,
                end: 11,
                array: NO_ARRAY,
            },
            SendEntry {
                owner: 1,
                readers: vec![2],
                first: 3, // overlaps the first entry: re-pushed, like the direct path
                end: 9,
                array: NO_ARRAY,
            },
        ];
        let plans = sends(&d, &entries, true);
        let mut expect: BTreeMap<(usize, usize), Vec<usize>> = BTreeMap::new();
        for en in &entries {
            for &r in &en.readers {
                expect
                    .entry((en.owner, r))
                    .or_default()
                    .extend(en.first..en.end);
            }
        }
        assert_eq!(plans.len(), expect.len());
        for p in &plans {
            assert_eq!(
                payload_blocks(p),
                expect[&(p.src, p.dst)],
                "plan {} -> {} must carry exactly the direct path's blocks",
                p.src,
                p.dst
            );
        }
    }

    /// One batched schedule, executed, is observably identical to the
    /// direct per-entry `send_range` path: same clocks, same stats, same
    /// memory, and the same `ready_to_recv` stall at every reader.
    #[test]
    fn batched_plan_apply_matches_direct_send_range() {
        let entries = [
            SendEntry {
                owner: 1,
                readers: vec![0, 2],
                first: 0,
                end: 12,
                array: NO_ARRAY,
            },
            SendEntry {
                owner: 3,
                readers: vec![2],
                first: 16,
                end: 40,
                array: NO_ARRAY,
            },
        ];
        let mut direct = dsm(4);
        let mut batched = dsm(4);
        for d in [&mut direct, &mut batched] {
            for w in 0..1024 {
                d.cluster.node_mem_mut(w % 4)[w] = w as f64 + 0.5;
            }
        }
        for en in &entries {
            direct.send_range(en.owner, &en.readers, en.first, en.end, true);
        }
        let plans = sends(&batched, &entries, true);
        batched.exec_sends(&entries, &plans);
        for n in [0, 2] {
            direct.ready_to_recv(n);
            batched.ready_to_recv(n);
        }
        for n in 0..4 {
            assert_eq!(
                direct.cluster.clock_ns(n),
                batched.cluster.clock_ns(n),
                "clock of node {n}"
            );
            assert_eq!(
                direct.cluster.stats(n),
                batched.cluster.stats(n),
                "stats of node {n}"
            );
            assert_eq!(
                direct.cluster.node_mem(n),
                batched.cluster.node_mem(n),
                "memory of node {n}"
            );
        }
    }

    /// Two call sites of one (owner, reader) pair merge into one plan
    /// with two ranges, and executing it delivers both.
    #[test]
    fn merged_call_sites_apply_as_one_plan() {
        let entries = [
            SendEntry {
                owner: 0,
                readers: vec![1],
                first: 0,
                end: 160,
                array: NO_ARRAY,
            },
            SendEntry {
                owner: 2,
                readers: vec![3],
                first: 200,
                end: 360,
                array: NO_ARRAY,
            },
            SendEntry {
                owner: 0,
                readers: vec![1], // merges into the (0, 1) plan: two ranges
                first: 400,
                end: 410,
                array: NO_ARRAY,
            },
        ];
        let mut d = dsm(4);
        for w in 0..8192 {
            d.cluster.node_mem_mut(w % 4)[w] = w as f64 * 1.5;
        }
        let plans = sends(&d, &entries, true);
        assert_eq!(plans.len(), 2, "the (0, 1) entries must merge");
        assert_eq!(plans[0].ranges.len(), 2);
        d.exec_sends(&entries, &plans);
        d.ready_to_recv(1);
        d.ready_to_recv(3);
        let wpb = d.cluster.words_per_block();
        for (owner, reader, blocks) in [(0, 1, 0..160), (2, 3, 200..360), (0, 1, 400..410)] {
            let words = blocks.start * wpb..blocks.end * wpb;
            assert_eq!(
                d.cluster.node_mem(reader)[words.clone()],
                d.cluster.node_mem(owner)[words],
                "blocks {blocks:?} of node {owner} at node {reader}"
            );
        }
        assert_eq!(d.ctl_stats().blocks_pushed, 330);
    }

    /// What a kept schedule is for: the same borrowed call sites and
    /// plans, executed on two consecutive supersteps, leave the clocks,
    /// stats and memory that scheduling afresh every superstep does — on
    /// the fast path and through strict-mode envelopes.
    #[test]
    fn a_kept_schedule_executes_like_two_fresh_ones() {
        let pushes = [
            SendEntry {
                owner: 1,
                readers: vec![0, 2],
                first: 0,
                end: 40,
                array: 3,
            },
            SendEntry {
                owner: 3,
                readers: vec![2],
                first: 64,
                end: 70,
                array: NO_ARRAY,
            },
        ];
        let returns = [FlushEntry {
            writer: 2,
            owner: 3,
            first: 64,
            end: 70,
            array: NO_ARRAY,
        }];
        for strict in [false, true] {
            let mut kept = dsm(4);
            let mut fresh = dsm(4);
            if strict {
                kept.set_wire(Box::new(crate::Loopback));
                fresh.set_wire(Box::new(crate::Loopback));
            }
            let push_plans = sends(&kept, &pushes, true);
            let return_plans = plan_flushes(&kept.cluster, &returns, true);
            for step in 0..2 {
                for d in [&mut kept, &mut fresh] {
                    for w in 0..2048 {
                        d.cluster.node_mem_mut(1 + 2 * (w % 2))[w] = (w + 7 * step) as f64;
                    }
                }
                kept.exec_sends(&pushes, &push_plans);
                let again = sends(&fresh, &pushes, true);
                assert_eq!(
                    again, push_plans,
                    "the schedule is a function of its inputs"
                );
                fresh.exec_sends(&pushes, &again);
                for d in [&mut kept, &mut fresh] {
                    d.ready_to_recv(0);
                    d.ready_to_recv(2);
                    d.cluster.node_mem_mut(2)[64 * 16 + step] = -1.5; // the non-owner write
                }
                kept.exec_flushes(&returns, &return_plans);
                fresh.exec_flushes(&returns, &plan_flushes(&fresh.cluster, &returns, true));
                for d in [&mut kept, &mut fresh] {
                    d.release_barrier();
                }
            }
            for n in 0..4 {
                let (k, f) = (&kept.cluster, &fresh.cluster);
                assert_eq!(k.clock_ns(n), f.clock_ns(n), "clock of node {n}");
                assert_eq!(k.stats(n), f.stats(n), "stats of node {n}");
                assert_eq!(k.node_mem(n), f.node_mem(n), "memory of node {n}");
            }
            assert_eq!(kept.cluster.node_mem(0)[4], 11.0, "step 1's push landed");
            assert_eq!(
                kept.cluster.node_mem(3)[64 * 16 + 1],
                -1.5,
                "step 1's flush landed"
            );
            assert_eq!(kept.wire_stats(), fresh.wire_stats());
            assert_eq!(kept.wire_stats().0 > 0, strict);
        }
    }

    /// Flush plans partition the flushed blocks the same way, and an empty
    /// flush entry plans nothing.
    #[test]
    fn plan_flushes_partition_and_edge_cases() {
        let mut d = dsm(3);
        let entries = [
            FlushEntry {
                writer: 1,
                owner: 0,
                first: 0,
                end: 4,
                array: NO_ARRAY,
            },
            FlushEntry {
                writer: 1,
                owner: 0,
                first: 6,
                end: 6, // empty: bookkeeping only
                array: NO_ARRAY,
            },
            FlushEntry {
                writer: 2,
                owner: 0,
                first: 8,
                end: 9,
                array: NO_ARRAY,
            },
        ];
        let plans = plan_flushes(&d.cluster, &entries, true);
        assert_eq!(plans.len(), 2);
        assert_eq!((plans[0].src, plans[0].dst), (1, 0));
        assert_eq!(plans[0].op, PlanOp::Flush);
        assert_eq!(payload_blocks(&plans[0]), vec![0, 1, 2, 3]);
        assert_eq!((plans[1].src, plans[1].dst), (2, 0));
        assert_eq!(payload_blocks(&plans[1]), vec![8]);
        // Executed, the empty entry still pays its call-site bookkeeping.
        for (writer, first, end) in [(1, 0, 4), (2, 8, 9)] {
            d.implicit_writable(writer, first, end, false);
        }
        d.exec_flushes(&entries, &plans);
        assert_eq!(d.cluster.stats(1).flush_range_calls, 2);
        assert_eq!(d.cluster.stats(2).flush_range_calls, 1);
    }

    #[test]
    fn ctl_stats_aggregate() {
        let mut d = dsm(2);
        d.mk_writable(1, 0, 4);
        d.implicit_writable(0, 0, 4, false);
        d.send_range(1, &[0], 0, 4, true);
        d.ready_to_recv(0);
        d.implicit_invalidate(0, 0, 4);
        let s = d.ctl_stats();
        assert_eq!(s.mk_writable, 1);
        assert_eq!(s.implicit_writable, 1);
        assert_eq!(s.send_range, 1);
        assert_eq!(s.ready_recv, 1);
        assert_eq!(s.implicit_invalidate, 1);
        assert_eq!(s.blocks_pushed, 4);
    }
}
