//! The message-passing backend: PGI's message-passing run-time ported to
//! Tempest messages (§5–§6).
//!
//! The paper compares its shared-memory versions against `pghpf`'s
//! message-passing backend running over Tempest's messaging layer, and
//! observes that message passing wins only on `lu` — elsewhere it runs
//! *slower* than the dual-cpu shared-memory versions, "particularly so in
//! cg", which the authors attribute to per-message bottlenecks in the
//! PGI messaging run-time. This module models exactly that: transfers move
//! real data between node copies with no coherence state at all, paying a
//! fixed per-message software overhead (`mp_per_message_ns`) plus a
//! per-element marshalling cost (`mp_per_element_ns`) on each side.

use crate::proto::Dsm;
use crate::wire::{Head, Shape};
use fgdsm_section::StridedRange;
use fgdsm_tempest::{ChargeKind, Cluster, Event, NodeId, ReduceOp, NO_ARRAY, NO_BLOCK};

/// A scheduled batch of strided sends from one source to one destination
/// — the message-passing analogue of [`crate::ctl::TransferPlan`],
/// executed (borrowed) by [`MpRuntime::apply_send_plans`].
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct MpSendPlan {
    pub src: NodeId,
    pub dst: NodeId,
    /// The strided sections, in call-site order.
    pub sections: Vec<StridedRange>,
}

/// Runtime state of the message-passing backend: per-node inbox arrival
/// times and pending unpack work.
pub struct MpRuntime {
    inbox_arrival: Vec<u64>,
    inbox_msgs: Vec<u64>,
    inbox_elems: Vec<u64>,
    /// Bytes delivered pre-packed (broadcast images): receivers only pay
    /// a contiguous copy, not per-element unmarshalling.
    inbox_bulk_bytes: Vec<u64>,
}

impl MpRuntime {
    /// Create the runtime for an `nprocs`-node cluster.
    pub fn new(nprocs: usize) -> Self {
        MpRuntime {
            inbox_arrival: vec![0; nprocs],
            inbox_msgs: vec![0; nprocs],
            inbox_elems: vec![0; nprocs],
            inbox_bulk_bytes: vec![0; nprocs],
        }
    }

    /// Apply a batch of planned strided sends in plan order — the
    /// message-passing analogue of [`crate::ctl::TransferPlan`]. Each
    /// strided section is sent the way the ported runtime does it: one message per contiguous run, paying its
    /// software overhead each time — cheap for whole-column ghosts,
    /// expensive for the pencil-shaped 3-D sections of pde.
    ///
    /// In strict wire mode each section is packed into a `Strided`
    /// envelope first, carried by the transport, and unpacked from the
    /// frame's bytes before the accounting below — same charges, same
    /// counters, bit-identical data.
    pub fn apply_send_plans(&mut self, d: &mut Dsm, plans: &[MpSendPlan]) {
        if plans.is_empty() {
            return;
        }
        let strict = d.wire_strict();
        let cfg = *d.cluster.cfg();
        for plan in plans {
            if strict {
                for &section in &plan.sections {
                    let (head, shape, nwords) = strided_msg(d, plan.src, plan.dst, section);
                    d.wire_post(head, shape, nwords);
                }
                d.wire_deliver();
            }
            let (src, dst) = d.cluster.shard_pair_mut(plan.src, plan.dst);
            for sr in &plan.sections {
                let (run_len, count) = (sr.run_len, sr.count);
                let elems = sr.total_elements();
                let bytes = elems * 8;
                // One message per contiguous run, per-element
                // marshalling, wire occupancy.
                let cost = count as u64 * (cfg.mp_per_message_ns + cfg.msg_send_ns)
                    + elems as u64 * cfg.mp_per_element_ns
                    + bytes as u64 * cfg.per_byte_ns;
                src.charge(cost, ChargeKind::Stall);
                for (s, _) in sr.runs() {
                    src.note_msg_at(run_len * 8, src.block_of(s));
                    dst.note_msg_recv(run_len * 8);
                    if !strict {
                        dst.mem_mut()[s..s + run_len].copy_from_slice(&src.mem()[s..s + run_len]);
                    }
                    dst.map_range(s, run_len);
                }
                let arrival = src.clock_ns() + cfg.net_latency_ns;
                self.inbox_arrival[plan.dst] = self.inbox_arrival[plan.dst].max(arrival);
                self.inbox_msgs[plan.dst] += count as u64;
                self.inbox_elems[plan.dst] += elems as u64;
            }
        }
    }

    /// Broadcast a strided region from `src` to several receivers through
    /// the runtime's combining tree (the path `pghpf` uses for `lu`'s
    /// pivot-column broadcast): the section is packed once and forwarded
    /// along a log₂-depth tree, so the sender's occupancy does not grow
    /// with the receiver count.
    pub fn broadcast(&mut self, d: &mut Dsm, src: NodeId, dsts: &[NodeId], sr: StridedRange) {
        let cfg = *d.cluster.cfg();
        let bytes = sr.total_elements() * 8;
        // Sender: one runtime call, one *contiguous* pack (the collective
        // primitives are hand-optimized low-level code, unlike the generic
        // per-element section marshalling), one injection.
        let cost = cfg.mp_per_message_ns
            + 2 * bytes as u64 * cfg.per_byte_ns // memcpy + wire occupancy
            + cfg.msg_send_ns;
        d.cluster.charge(src, cost, ChargeKind::Stall);
        let depth = (usize::BITS - dsts.len().leading_zeros()) as u64; // ⌈log₂(n+1)⌉
        let arrival = d.cluster.clock_ns(src)
            + depth
                * (cfg.net_latency_ns + cfg.handler_dispatch_ns + bytes as u64 * cfg.per_byte_ns);
        for &dst in dsts {
            debug_assert_ne!(dst, src);
            // Star accounting: the payload reaches every receiver, so one
            // logical message per destination keeps the cluster-wide
            // sent/received counters balanced (time is still tree-shaped).
            d.cluster.note_msg(src, dst, bytes);
            if d.wire_strict() {
                // One forwarded image per receiver: the packed section
                // rides a Strided envelope and lands from its bytes.
                let (head, shape, nwords) = strided_msg(d, src, dst, sr);
                d.wire_route(head, shape, nwords);
                for (s, len) in sr.runs() {
                    d.cluster.map_range(dst, s, len);
                }
            } else {
                for (s, len) in sr.runs() {
                    d.cluster.copy_words(src, dst, s, len);
                    d.cluster.map_range(dst, s, len);
                }
            }
            self.inbox_arrival[dst] = self.inbox_arrival[dst].max(arrival);
            self.inbox_msgs[dst] += 1;
            self.inbox_bulk_bytes[dst] += bytes as u64;
        }
    }

    /// Block until all messages addressed to `node` have arrived, then pay
    /// the unpack cost.
    pub fn recv_all(&mut self, cl: &mut Cluster, node: NodeId) {
        let cfg = *cl.cfg();
        let now = cl.clock_ns(node);
        if self.inbox_arrival[node] > now {
            cl.charge(node, self.inbox_arrival[node] - now, ChargeKind::Stall);
        }
        let unpack = self.inbox_msgs[node] * cfg.handler_dispatch_ns
            + self.inbox_elems[node] * cfg.mp_per_element_ns
            + self.inbox_bulk_bytes[node] * cfg.per_byte_ns;
        cl.charge(node, unpack, ChargeKind::Stall);
        self.inbox_arrival[node] = 0;
        self.inbox_msgs[node] = 0;
        self.inbox_elems[node] = 0;
        self.inbox_bulk_bytes[node] = 0;
    }

    /// All-reduce through the MP runtime: a *linear* gather-and-broadcast
    /// (P−1 rounds) where every message pays the runtime's per-message
    /// overhead — the cost that makes `cg` "particularly" slower under
    /// message passing in the paper (§6).
    pub fn allreduce(&mut self, cl: &mut Cluster, partials: &[f64], op: ReduceOp) -> f64 {
        let cfg = *cl.cfg();
        let nprocs = cl.nprocs();
        assert_eq!(partials.len(), nprocs);
        let rounds = nprocs as u64 - 1;
        let per_round = cfg.mp_per_message_ns
            + cfg.msg_send_ns
            + cfg.net_latency_ns
            + 8 * cfg.per_byte_ns
            + cfg.handler_dispatch_ns;
        for n in 0..nprocs {
            cl.charge(n, rounds * per_round, ChargeKind::Stall);
            cl.record(n, Event::Reduction);
            // Every node both sends and receives one 8-byte partial per
            // round; recording both sides keeps the traffic counters
            // balanced.
            for _ in 0..rounds {
                cl.record(
                    n,
                    Event::Msg {
                        bytes: 8,
                        block: NO_BLOCK,
                    },
                );
                cl.record(n, Event::MsgRecv { bytes: 8 });
            }
        }
        // Globally synchronizing, like the shared-memory reduction.
        let max = (0..nprocs).map(|n| cl.clock_ns(n)).max().unwrap_or(0);
        for n in 0..nprocs {
            let wait = max - cl.clock_ns(n);
            if wait > 0 {
                cl.charge(n, wait, ChargeKind::Stall);
            }
        }
        match op {
            ReduceOp::Sum => partials.iter().sum(),
            ReduceOp::Max => partials.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            ReduceOp::Min => partials.iter().copied().fold(f64::INFINITY, f64::min),
        }
    }
}

/// The `Strided` envelope for one strided section `src → dst`: its
/// header, shape and payload length.
fn strided_msg(d: &Dsm, src: NodeId, dst: NodeId, sr: StridedRange) -> (Head, Shape, usize) {
    let head = d.wire_head(src, dst, NO_ARRAY, d.cluster.block_of(sr.base), 1);
    let shape = Shape::Strided {
        base: sr.base as u64,
        run_len: sr.run_len as u32,
        stride: sr.stride as u64,
        count: sr.count as u32,
    };
    (head, shape, sr.total_elements())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgdsm_tempest::{CostModel, HomePolicy, SegmentLayout};

    fn cluster(n: usize) -> Cluster {
        let cfg = CostModel::paper_dual_cpu();
        let mut layout = SegmentLayout::new(cfg.words_per_page());
        layout.alloc(4096);
        Cluster::new(n, cfg, &layout, HomePolicy::RoundRobin)
    }

    fn sr(base: usize, run_len: usize, stride: usize, count: usize) -> StridedRange {
        StridedRange {
            base,
            run_len,
            stride,
            count,
        }
    }

    /// Send one `(base, run_len, stride, count)` section `0 → 1`.
    fn send(mp: &mut MpRuntime, d: &mut Dsm, (b, l, s, c): (usize, usize, usize, usize)) {
        let plan = MpSendPlan {
            src: 0,
            dst: 1,
            sections: vec![sr(b, l, s, c)],
        };
        mp.apply_send_plans(d, &[plan]);
    }

    #[test]
    fn send_recv_moves_data_and_charges_overhead() {
        let mut d = Dsm::new(cluster(2));
        let mut mp = MpRuntime::new(2);
        d.cluster.node_mem_mut(0)[100] = 3.25;
        send(&mut mp, &mut d, (96, 16, 1, 1));
        mp.recv_all(&mut d.cluster, 1);
        assert_eq!(d.cluster.node_mem(1)[100], 3.25);
        // Sender paid at least the per-message software overhead.
        assert!(d.cluster.stats(0).stall_ns >= d.cluster.cfg().mp_per_message_ns);
        assert!(d.cluster.stats(1).stall_ns > 0);
        assert_eq!(d.cluster.stats(0).msgs_sent, 1);
    }

    #[test]
    fn strided_send_one_message_per_run() {
        let mut d = Dsm::new(cluster(2));
        let mut mp = MpRuntime::new(2);
        d.cluster.node_mem_mut(0)[10] = 1.0;
        d.cluster.node_mem_mut(0)[42] = 2.0;
        send(&mut mp, &mut d, (10, 1, 32, 2));
        mp.recv_all(&mut d.cluster, 1);
        assert_eq!(d.cluster.node_mem(1)[10], 1.0);
        assert_eq!(d.cluster.node_mem(1)[42], 2.0);
        // The runtime transmits each contiguous run separately, paying its
        // per-message overhead twice.
        assert_eq!(d.cluster.stats(0).msgs_sent, 2);
        assert!(d.cluster.stats(0).stall_ns >= 2 * d.cluster.cfg().mp_per_message_ns);
    }

    #[test]
    fn broadcast_reaches_all_with_single_pack() {
        let mut d = Dsm::new(cluster(4));
        let mut mp = MpRuntime::new(4);
        d.cluster.node_mem_mut(0)[5] = 9.0;
        mp.broadcast(&mut d, 0, &[1, 2, 3], sr(0, 16, 1, 1));
        for n in 1..4 {
            mp.recv_all(&mut d.cluster, n);
            assert_eq!(d.cluster.node_mem(n)[5], 9.0);
        }
        // Sender pays the runtime overhead once, not once per receiver.
        assert!(d.cluster.stats(0).stall_ns < 2 * d.cluster.cfg().mp_per_message_ns);
    }

    #[test]
    fn mp_reduction_slower_than_sm_reduction() {
        // The PGI runtime's per-message overhead makes MP reductions more
        // expensive than the shared-memory low-level-message reduction.
        let mut cl_sm = cluster(4);
        let mut cl_mp = cluster(4);
        let mut mp = MpRuntime::new(4);
        let v1 = cl_sm.allreduce(&[1.0, 2.0, 3.0, 4.0], ReduceOp::Sum);
        let v2 = mp.allreduce(&mut cl_mp, &[1.0, 2.0, 3.0, 4.0], ReduceOp::Sum);
        assert_eq!(v1, v2);
        assert!(cl_mp.clock_ns(0) > cl_sm.clock_ns(0));
    }

    #[test]
    fn recv_resets_inbox() {
        let mut d = Dsm::new(cluster(2));
        let mut mp = MpRuntime::new(2);
        send(&mut mp, &mut d, (0, 8, 1, 1));
        mp.recv_all(&mut d.cluster, 1);
        let t = d.cluster.clock_ns(1);
        mp.recv_all(&mut d.cluster, 1);
        // Second recv with empty inbox: no stall.
        assert_eq!(d.cluster.clock_ns(1), t);
    }
}
